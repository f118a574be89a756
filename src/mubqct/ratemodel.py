"""Key rate versus distance for the multi-copy protocol.

The asymptotic rate per emitted signal is

    K = max(0, P_sift * (-log2 P_guess(m)) - H(X|Y)),

with P_sift = 1 - (1 - T eta)^m the probability Bob keeps the round,
P_guess(m) the adversary guessing bound for m copies, and H(X|Y) Bob's
conditional entropy from the click statistics.  Sending m copies buys
sift probability at the price of a weaker guessing bound; `optimize_m`
scans the integer copy counts allowed by the coherent-attack budget
mu + 4 sqrt(mu) <= sqrt(d) and `max_distance` bisects for the rate
horizon.  `sweep` evaluates grids of (profile, d, L) cells and renders
them as CSV.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from .detection import (
    DETECTOR_PRESETS,
    ChannelModel,
    DetectorModel,
    conditional_entropy_xy,
    detection_stats,
    transmittance,
)
from .mub import Dimension
from .security import hmin_bits, lambda_numeric_for_d, pguess_certified, pguess_paper

__all__ = [
    "MaxDistanceResult",
    "RatePoint",
    "SWEEP_CSV_HEADER",
    "coherent_mu_max",
    "key_rate",
    "m_scan_limit",
    "max_distance",
    "optimize_m",
    "sweep",
    "sweep_rows_to_csv",
]

BOUNDS_SOURCES = ("paper", "certified")

SWEEP_CSV_HEADER = "profile,d,L_km,m_opt,T,p_c,p_e,hxy_bits,hmin_bits,key_rate_bits"


def _pguess(d: int, m: int, bounds_source: str) -> float:
    if bounds_source == "paper":
        return pguess_paper(d, m)
    if bounds_source == "certified":
        return pguess_certified(lambda_numeric_for_d(d), m)
    raise ValueError(f"bounds_source must be one of {BOUNDS_SOURCES}, got {bounds_source!r}")


@dataclass(frozen=True)
class RatePoint:
    """Key rate and its ingredients at one (d, m, L) operating point."""

    d: int
    m: int
    length_km: float
    t: float
    p_c: float
    p_e: float
    hxy_bits: float
    hmin_bits: float
    sift_prefactor: float
    key_rate_bits: float
    bounds_source: str


def key_rate(
    d: int,
    m: int,
    length_km: float,
    detector: DetectorModel,
    channel: Optional[ChannelModel] = None,
    bounds_source: str = "paper",
    sift_uses_eta: bool = True,
) -> RatePoint:
    """Asymptotic key bits per emitted m-copy signal at distance length_km.

    sift_uses_eta selects whether detector efficiency enters the sift
    prefactor 1 - (1 - T eta)^m (the default, matching the detection
    model) or only the channel transmittance does.
    """
    Dimension.from_d(d)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    channel = channel or ChannelModel()
    t = transmittance(length_km, channel.alpha_db_per_km)
    stats = detection_stats(t, detector, m)
    hxy = conditional_entropy_xy(stats.p_c, stats.p_e, detector.n_detectors)
    hmin = hmin_bits(_pguess(d, m, bounds_source))
    s_sift = t * detector.eta if sift_uses_eta else t
    # -expm1(m log1p(-s)) = 1 - (1 - s)^m without loss of precision at
    # small s (the direct form underflows to 0 beyond ~800 km)
    prefactor = 1.0 if s_sift >= 1.0 else -math.expm1(m * math.log1p(-s_sift))
    k = max(0.0, prefactor * hmin - hxy)
    return RatePoint(
        d=d,
        m=m,
        length_km=length_km,
        t=t,
        p_c=stats.p_c,
        p_e=stats.p_e,
        hxy_bits=hxy,
        hmin_bits=hmin,
        sift_prefactor=prefactor,
        key_rate_bits=k,
        bounds_source=bounds_source,
    )


def coherent_mu_max(d: int) -> float:
    """Largest mean photon number with mu + 4 sqrt(mu) <= sqrt(d).

    Solving the quadratic in sqrt(mu) gives (sqrt(4 + sqrt(d)) - 2)^2.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return (math.sqrt(4.0 + math.sqrt(d)) - 2.0) ** 2


def m_scan_limit(d: int) -> int:
    """Largest copy count `optimize_m` may consider (at least 1)."""
    return max(1, math.floor(coherent_mu_max(d)))


def _optimize(
    d: int,
    length_km: float,
    detector: DetectorModel,
    channel: Optional[ChannelModel],
    bounds_source: str,
    sift_uses_eta: bool = True,
) -> RatePoint:
    best = None
    for m in range(1, m_scan_limit(d) + 1):
        point = key_rate(d, m, length_km, detector, channel, bounds_source, sift_uses_eta)
        if best is None or point.key_rate_bits > best.key_rate_bits:
            best = point
    return best


def optimize_m(
    d: int,
    length_km: float,
    detector: DetectorModel,
    channel: Optional[ChannelModel] = None,
    bounds_source: str = "paper",
    sift_uses_eta: bool = True,
) -> tuple[int, float]:
    """Best integer copy count within the coherent budget and its rate.

    Scans m = 1 .. m_scan_limit(d) and returns (m*, K*); ties go to the
    smaller m because the scan is ascending with a strict improvement
    test.
    """
    best = _optimize(d, length_km, detector, channel, bounds_source, sift_uses_eta)
    return best.m, best.key_rate_bits


@dataclass(frozen=True)
class MaxDistanceResult:
    """Rate horizon: largest distance with positive optimized rate."""

    distance_km: float
    saturated: bool


def max_distance(
    d: int,
    detector: DetectorModel,
    channel: Optional[ChannelModel] = None,
    bounds_source: str = "paper",
    length_cap_km: float = 1000.0,
    resolution_km: float = 0.1,
) -> MaxDistanceResult:
    """Bisect for the largest L with optimized K(L) > 0.

    Returns 0 km if the rate already vanishes at L = 0.  If the rate is
    still positive at length_cap_km (idealized detectors never lose to
    noise), the cap is returned with the saturated flag set.
    """
    if resolution_km <= 0:
        raise ValueError(f"resolution_km must be > 0, got {resolution_km}")
    if length_cap_km <= 0:
        raise ValueError(f"length_cap_km must be > 0, got {length_cap_km}")

    def rate_at(length: float) -> float:
        return _optimize(d, length, detector, channel, bounds_source).key_rate_bits

    if rate_at(0.0) <= 0.0:
        return MaxDistanceResult(distance_km=0.0, saturated=False)
    if rate_at(length_cap_km) > 0.0:
        return MaxDistanceResult(distance_km=length_cap_km, saturated=True)
    lo, hi = 0.0, length_cap_km
    while hi - lo > resolution_km:
        mid = 0.5 * (lo + hi)
        if rate_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return MaxDistanceResult(distance_km=lo, saturated=False)


@dataclass(frozen=True)
class SweepRow:
    """One optimized sweep cell, ready for CSV rendering."""

    profile: str
    d: int
    length_km: float
    m_opt: int
    t: float
    p_c: float
    p_e: float
    hxy_bits: float
    hmin_bits: float
    key_rate_bits: float


def _sweep_cell(task) -> SweepRow:
    profile, d, length_km, alpha, bounds_source = task
    detector = DETECTOR_PRESETS[profile]
    point = _optimize(d, length_km, detector, ChannelModel(alpha_db_per_km=alpha), bounds_source)
    return SweepRow(
        profile=profile,
        d=d,
        length_km=length_km,
        m_opt=point.m,
        t=point.t,
        p_c=point.p_c,
        p_e=point.p_e,
        hxy_bits=point.hxy_bits,
        hmin_bits=point.hmin_bits,
        key_rate_bits=point.key_rate_bits,
    )


def sweep(
    ds: Sequence[int],
    lengths_km: Sequence[float],
    profiles: Sequence[str],
    alpha_db_per_km: float = 0.2,
    bounds_source: str = "paper",
    jobs: int = 1,
) -> list[SweepRow]:
    """Optimized rate table over the (profile, d, L) grid, sorted that way.

    jobs > 1 distributes cells over processes; the row order of the
    result is independent of the job count.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for d in ds:
        Dimension.from_d(d)
    for profile in profiles:
        if profile not in DETECTOR_PRESETS:
            raise ValueError(
                f"unknown detector profile {profile!r}; available: {sorted(DETECTOR_PRESETS)}"
            )
    if bounds_source not in BOUNDS_SOURCES:
        raise ValueError(f"bounds_source must be one of {BOUNDS_SOURCES}, got {bounds_source!r}")
    tasks = [
        (profile, d, float(length), alpha_db_per_km, bounds_source)
        for profile in sorted(profiles)
        for d in sorted(ds)
        for length in sorted(lengths_km)
    ]
    if jobs == 1:
        return [_sweep_cell(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_sweep_cell, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def sweep_rows_to_csv(rows: Sequence[SweepRow], header_comment: Optional[str] = None) -> str:
    """Render sweep rows as CSV text (10 significant digits for floats)."""
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append(SWEEP_CSV_HEADER)
    for row in rows:
        lines.append(
            ",".join(
                [
                    row.profile,
                    str(row.d),
                    _fmt(row.length_km),
                    str(row.m_opt),
                    _fmt(row.t),
                    _fmt(row.p_c),
                    _fmt(row.p_e),
                    _fmt(row.hxy_bits),
                    _fmt(row.hmin_bits),
                    _fmt(row.key_rate_bits),
                ]
            )
        )
    return "\n".join(lines) + "\n"
