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

Only H_min depends on d; p_c, p_e, H(X|Y) and P_sift depend on
(profile, L, m) alone.  The grid is therefore factored: a channel table
holds those four terms for every L and m = 1 .. the largest scan limit,
one scalar `detection_stats` call per entry, and an H_min column holds
-log2 P_guess(d, m) for each d.  Each d then combines the first
m_scan_limit(d) columns of the table with its H_min column in one array
product, difference and maximum, which round exactly like the scalar
formula, so the rows are identical to a per-cell scan of `key_rate`.
`optimize_m` and `max_distance` use the same terms and combination.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .detection import (
    DETECTOR_PRESETS,
    ChannelModel,
    DetectorModel,
    conditional_entropy_xy,
    detection_stats,
    transmittance,
)
from .mub import Dimension
from .security import BOUNDS_SOURCES, hmin_bits, pguess

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

SWEEP_CSV_HEADER = "profile,d,L_km,m_opt,T,p_c,p_e,hxy_bits,hmin_bits,key_rate_bits"


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


def _channel_terms(
    t: float, detector: DetectorModel, m: int, sift_uses_eta: bool = True
) -> tuple[float, float, float, float]:
    """The d-independent rate terms (p_c, p_e, H(X|Y), P_sift) for m copies."""
    stats = detection_stats(t, detector, m)
    hxy = conditional_entropy_xy(stats.p_c, stats.p_e, detector.n_detectors)
    s_sift = t * detector.eta if sift_uses_eta else t
    # -expm1(m log1p(-s)) = 1 - (1 - s)^m without loss of precision at
    # small s (the direct form underflows to 0 beyond ~800 km)
    prefactor = 1.0 if s_sift >= 1.0 else -math.expm1(m * math.log1p(-s_sift))
    return stats.p_c, stats.p_e, hxy, prefactor


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
    p_c, p_e, hxy, prefactor = _channel_terms(t, detector, m, sift_uses_eta)
    hmin = hmin_bits(pguess(d, m, bounds_source))
    k = max(0.0, prefactor * hmin - hxy)
    return RatePoint(
        d=d,
        m=m,
        length_km=length_km,
        t=t,
        p_c=p_c,
        p_e=p_e,
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


def _channel_table(
    ts: Sequence[float], detector: DetectorModel, m_max: int, sift_uses_eta: bool = True
) -> np.ndarray:
    """`_channel_terms` for m = 1 .. m_max at each t, shape (4, len(ts), m_max)."""
    table = np.empty((len(ts), m_max, 4))
    for i, t in enumerate(ts):
        table[i] = [_channel_terms(t, detector, m, sift_uses_eta) for m in range(1, m_max + 1)]
    return np.moveaxis(table, 2, 0)


def _hmin_column(d: int, bounds_source: str) -> np.ndarray:
    """Min-entropy in bits for m = 1 .. m_scan_limit(d) copies."""
    Dimension.from_d(d)
    return np.array(
        [hmin_bits(pguess(d, m, bounds_source)) for m in range(1, m_scan_limit(d) + 1)]
    )


def _optimal(table: np.ndarray, hmin: np.ndarray) -> list[tuple]:
    """The rate-optimal copy count at each t of a channel table.

    Scans m = 1 .. len(hmin) and returns (m*, p_c, p_e, H(X|Y), H_min, K*)
    per t.  argmax takes the first maximum, so ties go to the smaller m;
    when every rate is 0 that is m = 1.
    """
    p_c, p_e, hxy, prefactor = table[:, :, : len(hmin)]
    rates = np.maximum(0.0, prefactor * hmin - hxy)
    best = rates.argmax(axis=1)
    cell = (np.arange(len(best)), best)
    return list(
        zip(
            (best + 1).tolist(),
            p_c[cell].tolist(),
            p_e[cell].tolist(),
            hxy[cell].tolist(),
            hmin[best].tolist(),
            rates[cell].tolist(),
        )
    )


def _optimize(t: float, detector: DetectorModel, hmin: np.ndarray, sift_uses_eta: bool = True):
    """`_optimal` at the single transmittance t."""
    return _optimal(_channel_table([t], detector, len(hmin), sift_uses_eta), hmin)[0]


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
    smaller m.  K* is `key_rate` at m*, so the two always agree.
    """
    hmin = _hmin_column(d, bounds_source)
    channel = channel or ChannelModel()
    t = transmittance(length_km, channel.alpha_db_per_km)
    m_star = _optimize(t, detector, hmin, sift_uses_eta)[0]
    point = key_rate(d, m_star, length_km, detector, channel, bounds_source, sift_uses_eta)
    return point.m, point.key_rate_bits


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

    hmin = _hmin_column(d, bounds_source)
    alpha = (channel or ChannelModel()).alpha_db_per_km

    def rate_at(length: float) -> float:
        return _optimize(transmittance(length, alpha), detector, hmin)[-1]

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


# Lengths per sweep task.  It bounds the channel table at 4 * 16 * m_max
# floats (100 KB at d = 65536, m_max = 199) and sets the unit of work
# handed to worker processes.
_SWEEP_BLOCK = 16


def _sweep_block(task) -> list[list[SweepRow]]:
    """Rows of one profile over a block of lengths, one list per d."""
    profile, lengths, ts, hmins = task
    m_max = max(len(hmin) for _, hmin in hmins)
    table = _channel_table(ts, DETECTOR_PRESETS[profile], m_max)
    return [
        [
            SweepRow(
                profile=profile,
                d=d,
                length_km=length,
                m_opt=m,
                t=t,
                p_c=p_c,
                p_e=p_e,
                hxy_bits=hxy,
                hmin_bits=hmin_m,
                key_rate_bits=k,
            )
            for length, t, (m, p_c, p_e, hxy, hmin_m, k) in zip(lengths, ts, _optimal(table, hmin))
        ]
        for d, hmin in hmins
    ]


def sweep(
    ds: Sequence[int],
    lengths_km: Sequence[float],
    profiles: Sequence[str],
    alpha_db_per_km: float = 0.2,
    bounds_source: str = "paper",
    jobs: int = 1,
) -> list[SweepRow]:
    """Optimized rate table over the (profile, d, L) grid, sorted that way.

    Each profile's lengths are split into blocks of consecutive lengths,
    and jobs > 1 evaluates the (profile, block) tasks in worker processes;
    the rows are independent of the job count.
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
    hmins = [(d, _hmin_column(d, bounds_source)) for d in sorted(ds)]
    lengths = [float(length) for length in sorted(lengths_km)]
    ts = [transmittance(length, alpha_db_per_km) for length in lengths]
    if not hmins or not lengths:
        return []
    blocks = [
        (lengths[i : i + _SWEEP_BLOCK], ts[i : i + _SWEEP_BLOCK])
        for i in range(0, len(lengths), _SWEEP_BLOCK)
    ]
    tasks = [(profile, *block, hmins) for profile in sorted(profiles) for block in blocks]
    if jobs == 1:
        done = list(map(_sweep_block, tasks))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_sweep_block, tasks))
    rows = []
    for start in range(0, len(done), len(blocks)):
        for per_d in zip(*done[start : start + len(blocks)]):
            for block_rows in per_d:
                rows.extend(block_rows)
    return rows


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
