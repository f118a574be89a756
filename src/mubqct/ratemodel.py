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
them as CSV.  Fiber loss enters every function as alpha_db_per_km alone.

Only H_min depends on d; p_c, p_e, H(X|Y) and P_sift depend on
(profile, L, m) alone.  The grid is therefore factored: a channel table
holds those four terms for every L and m = 1 .. the largest scan limit,
from one broadcast `detection_stats` call over the (L, m) grid, and an
H_min column holds -log2 P_guess(d, m) for each d.  Each d then combines
the first m_scan_limit(d) columns of the table with its H_min column in
one array product, difference and maximum.  The table is the only
evaluator: `key_rate` reads a 1 x 1 table, `optimize_m` one row of
m = 1 .. m_scan_limit(d), and each `max_distance` step the rows of the
midpoint and the two midpoints that can follow it, so all four agree
exactly.  The detection closed forms keep every entry bit-identical to
the one-point formula, so sweep rows equal a per-cell scan.  Each math
call runs once per cell, on the cells of its own branch: seven per cell
where 0 < t eta < 0.5 (pow, expm1, exp, two expm1, two log2), six
elsewhere (three pow, expm1, two log2), with P_sift read from
p_signal_click.  Everything runs serially in the calling process.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .detection import conditional_entropy_xy, detection_stats
from .errors import CapabilityError
from .models import DEFAULT_BOUNDS_SOURCE, DETECTOR_PRESETS, SWEEP_MAX_CELLS, Dimension
from .models import DetectorModel, transmittance
from .security import hmin_bits, pguess

__all__ = [
    "MaxDistanceResult",
    "RatePoint",
    "SWEEP_CSV_HEADER",
    "SWEEP_MAX_CELLS",
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


def _channel_table(ts: Sequence[float], detector: DetectorModel, ms) -> np.ndarray:
    """The d-independent rate terms at every (t, m), shape (4, len(ts), len(ms)).

    ms is a sequence of copy counts.  The rows are p_c, p_e, H(X|Y) and
    the sift prefactor P_sift, which is `detection_stats`' p_signal_click.
    Per cell that is the calls of `detection_stats` and two log2.
    """
    t = np.asarray(ts, dtype=float)[:, None]
    stats = detection_stats(t, detector, np.asarray(ms)[None, :])
    hxy = conditional_entropy_xy(stats.p_c, stats.p_e)
    return np.stack([stats.p_c, stats.p_e, hxy, stats.p_signal_click])


def key_rate(
    d: int,
    m: int,
    length_km: float,
    detector: DetectorModel,
    alpha_db_per_km: float = 0.2,
    bounds_source: str = DEFAULT_BOUNDS_SOURCE,
) -> RatePoint:
    """Asymptotic key bits per emitted m-copy signal at distance length_km.

    Detector efficiency enters the sift prefactor 1 - (1 - T eta)^m, as
    it does the detection model.
    """
    Dimension.from_d(d)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    t = transmittance(length_km, alpha_db_per_km)
    p_c, p_e, hxy, prefactor = _channel_table([t], detector, [m])[:, 0, 0].tolist()
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


def optimize_m(
    d: int,
    length_km: float,
    detector: DetectorModel,
    alpha_db_per_km: float = 0.2,
    bounds_source: str = DEFAULT_BOUNDS_SOURCE,
) -> tuple[int, float]:
    """Best integer copy count within the coherent budget and its rate.

    Scans m = 1 .. m_scan_limit(d) in one channel table and returns
    (m*, K*) from `_optimal`; ties go to the smaller m.  `key_rate` at m*
    reads the same table entry, so it equals K* exactly.
    """
    hmin = _hmin_column(d, bounds_source)
    t = transmittance(length_km, alpha_db_per_km)
    table = _channel_table([t], detector, np.arange(1, len(hmin) + 1))
    m_star, *_, k_star = _optimal(table, hmin)[0]
    return m_star, k_star


@dataclass(frozen=True)
class MaxDistanceResult:
    """Rate horizon: largest distance with positive optimized rate."""

    distance_km: float
    saturated: bool


# Bisection range and stopping width of `max_distance`.
_LENGTH_CAP_KM = 1000.0
_RESOLUTION_KM = 0.1


def max_distance(
    d: int,
    detector: DetectorModel,
    alpha_db_per_km: float = 0.2,
    bounds_source: str = DEFAULT_BOUNDS_SOURCE,
) -> MaxDistanceResult:
    """Bisect for the largest L with optimized K(L) > 0, to within 0.1 km.

    Returns 0 km if the rate already vanishes at L = 0.  If the rate is
    still positive at the 1000 km cap (idealized detectors never lose to
    noise), the cap is returned with the saturated flag set.
    """
    hmin = _hmin_column(d, bounds_source)
    ms = np.arange(1, len(hmin) + 1)

    def positive(lengths: list[float]) -> dict[float, bool]:
        """Whether the optimized rate is > 0 at each length, from one table."""
        ts = [transmittance(length, alpha_db_per_km) for length in lengths]
        optima = _optimal(_channel_table(ts, detector, ms), hmin)
        return {length: optimum[-1] > 0.0 for length, optimum in zip(lengths, optima)}

    ends = positive([0.0, _LENGTH_CAP_KM])
    if not ends[0.0]:
        return MaxDistanceResult(distance_km=0.0, saturated=False)
    if ends[_LENGTH_CAP_KM]:
        return MaxDistanceResult(distance_km=_LENGTH_CAP_KM, saturated=True)
    lo, hi = 0.0, _LENGTH_CAP_KM
    known: dict[float, bool] = {}
    while hi - lo > _RESOLUTION_KM:
        mid = 0.5 * (lo + hi)
        if mid not in known:
            # the midpoint and the two that can follow it share one table,
            # so each table serves two halvings
            known = positive([mid, 0.5 * (lo + mid), 0.5 * (mid + hi)])
        if known[mid]:
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


# Lengths per channel table.  It bounds the table at 4 * 16 * m_max
# floats (100 KB at d = 65536, m_max = 199) at any grid size.
_SWEEP_BLOCK = 16


def sweep(
    ds: Sequence[int],
    lengths_km: Sequence[float],
    profiles: Sequence[str],
    alpha_db_per_km: float = 0.2,
    bounds_source: str = DEFAULT_BOUNDS_SOURCE,
) -> list[SweepRow]:
    """Optimized rate table over the (profile, d, L) grid, sorted that way.

    Each profile's sorted lengths are evaluated in blocks of consecutive
    lengths: one channel table per block, combined with every d's H_min
    column.  More than SWEEP_MAX_CELLS cells raise CapabilityError, and
    empty ds, lengths_km or profiles, or an entry given twice in one of
    them, which would repeat rows, ValueError, before anything is computed.
    """
    cells = len(ds) * len(lengths_km) * len(profiles)
    if cells > SWEEP_MAX_CELLS:
        raise CapabilityError(f"a sweep of {cells} cells exceeds the cap of {SWEEP_MAX_CELLS}")
    for name, values in (("ds", ds), ("lengths_km", lengths_km), ("profiles", profiles)):
        if len(values) == 0:
            raise ValueError(f"sweep needs at least one entry in {name}")
        repeated = [value for value, n in Counter(values).items() if n > 1]
        if repeated:
            raise ValueError(f"sweep got {repeated[0]!r} more than once in {name}")
    for profile in profiles:
        if profile not in DETECTOR_PRESETS:
            raise ValueError(
                f"unknown detector profile {profile!r}; available: {sorted(DETECTOR_PRESETS)}"
            )
    hmins = [(d, _hmin_column(d, bounds_source)) for d in sorted(ds)]
    m_max = max(len(hmin) for _, hmin in hmins)
    lengths = [float(length) for length in sorted(lengths_km)]
    ts = [transmittance(length, alpha_db_per_km) for length in lengths]
    rows = []
    for profile in sorted(profiles):
        per_d: list[list[SweepRow]] = [[] for _ in hmins]
        for i in range(0, len(lengths), _SWEEP_BLOCK):
            block_ts = ts[i : i + _SWEEP_BLOCK]
            table = _channel_table(block_ts, DETECTOR_PRESETS[profile], np.arange(1, m_max + 1))
            block_lengths = lengths[i : i + _SWEEP_BLOCK]
            for d_rows, (d, hmin) in zip(per_d, hmins):
                # SweepRow's fields in order: profile, d, L, m*, t, then the
                # p_c, p_e, H(X|Y), H_min and K* that follow m* in `_optimal`
                d_rows.extend(
                    SweepRow(profile, d, length, m, t, *terms)
                    for length, t, (m, *terms) in zip(block_lengths, block_ts, _optimal(table, hmin))
                )
        for d_rows in per_d:
            rows.extend(d_rows)
    return rows


# One CSV row of a SweepRow: floats to 10 significant digits
_SWEEP_ROW = "%s,%d,%.10g,%d,%.10g,%.10g,%.10g,%.10g,%.10g,%.10g"


def sweep_rows_to_csv(rows: Sequence[SweepRow], header_comment: Optional[str] = None) -> str:
    """Render sweep rows as CSV text, one `_SWEEP_ROW` %-format per row."""
    lines = [f"# {header_comment}"] if header_comment else []
    lines.append(SWEEP_CSV_HEADER)
    lines.extend(
        _SWEEP_ROW
        % (r.profile, r.d, r.length_km, r.m_opt, r.t, r.p_c, r.p_e, r.hxy_bits, r.hmin_bits,
           r.key_rate_bits)
        for r in rows
    )
    return "\n".join(lines) + "\n"
