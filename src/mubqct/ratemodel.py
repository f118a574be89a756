"""Key rate versus distance for the multi-copy protocol.

The asymptotic rate per emitted signal is

    K = max(0, P_sift * (-log2 P_guess(m)) - H(X|Y)),

with P_sift = 1 - (1 - T eta)^m the probability Bob keeps the round,
P_guess(m) the adversary guessing bound for m copies, and H(X|Y) Bob's
conditional entropy from the click statistics.  Sending m copies buys
sift probability at the price of a weaker guessing bound; `optimize_m`
scans the integer copy counts within the photon budget (`m_scan_limit`
of `models.coherent_mu_max`) and `max_distance` bisects for the rate
horizon.  `sweep` evaluates grids of (profile, d, L) cells and renders
them as CSV.  Fiber loss enters every function as alpha_db_per_km alone.

Only H_min depends on d; p_c, p_e, H(X|Y) and P_sift depend on
(profile, L, m) alone.  The grid is therefore factored: for each
(profile, L) one channel row holds those four terms for m = 1 .. M, and
an H_min column holds -log2 P_guess(d, m) for each d.  Each d scans its
prefix of the row for the first strict maximum of the rate.  A column
with H_min = 0 has K = max(0, -H(X|Y)) = 0 and is never a strict maximum,
so each d's column stops at the last m <= m_scan_limit(d) with H_min > 0
(m = 1 at least), and M is the longest of them; this pruning changes no
result.  The row and `_optimal`, which holds the one rate expression, are
the only evaluator: `key_rate` reads a one-cell row, `optimize_m` one row
and each `max_distance` step the row of its midpoint, so these three and
`sweep` agree exactly.  Everything is Python floats through `math`,
serially in the calling process, and loads no numpy.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .detection import conditional_entropy_xy, detection_row
from .errors import CapabilityError
from .models import DEFAULT_BOUNDS_SOURCE, DETECTOR_PRESETS, SWEEP_MAX_CELLS, dimension_k
from .models import DetectorModel, coherent_mu_max, transmittance
from .security import HELSTROM_MAX_COPIES, hmin_bits, pguess

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


def _channel_row(t: float, detector: DetectorModel, ms: Sequence[int]) -> tuple[Sequence[float], ...]:
    """The d-independent rate terms at t for each copy count of ms, one
    sequence each: p_c, p_e, H(X|Y) and the sift prefactor P_sift, which
    is `detection_stats`' p_signal_click."""
    p_signal_click, _, _, _, p_c, p_e = zip(*detection_row(t, detector, ms))
    return p_c, p_e, list(map(conditional_entropy_xy, p_c, p_e)), p_signal_click


def key_rate(
    d: int,
    m: int,
    length_km: float,
    detector: DetectorModel,
    alpha_db_per_km: float = 0.2,
    bounds_source: str = DEFAULT_BOUNDS_SOURCE,
) -> RatePoint:
    """Asymptotic key bits per emitted m-copy signal at distance length_km.

    Detector efficiency enters the sift prefactor 1 - (1 - T eta)^m, as it
    does the detection model.  The rate is `_optimal`'s over a one-cell
    channel row, whose only candidate is m; `pguess` checks d and m first.
    """
    column = [hmin_bits(pguess(d, m, bounds_source))]
    t = transmittance(length_km, alpha_db_per_km)
    row = _channel_row(t, detector, [m])
    _, p_c, p_e, hxy, hmin, k = _optimal(row, column)
    (prefactor,) = row[3]
    return RatePoint(d, m, length_km, t, p_c, p_e, hxy, hmin, prefactor, k, bounds_source)


def m_scan_limit(d: int) -> int:
    """Largest copy count `optimize_m` may consider (at least 1)."""
    return max(1, math.floor(coherent_mu_max(d)))


def _hmin_column(d: int, bounds_source: str) -> list[float]:
    """Min-entropy in bits for m = 1 .. M_d copies, M_d the last m <= m_scan_limit(d)
    with H_min > 0 (1 if none): the columns past it have rate 0 (module docstring).
    A scan past HELSTROM_MAX_COPIES (d > 2^20) raises CapabilityError before any entry."""
    dimension_k(d)
    limit = m_scan_limit(d)
    if limit > HELSTROM_MAX_COPIES:
        raise CapabilityError(
            f"the copy scan at d = {d} covers m = 1..{limit}; "
            f"the rate model is capped at {HELSTROM_MAX_COPIES} copies"
        )
    hmin = [hmin_bits(pguess(d, m, bounds_source)) for m in range(1, limit + 1)]
    while len(hmin) > 1 and hmin[-1] == 0.0:
        hmin.pop()
    return hmin


def _optimal(row: tuple[Sequence[float], ...], hmin: list[float]) -> tuple:
    """The rate-optimal copy count over m = 1 .. len(hmin) of a channel row.

    Returns (m*, p_c, p_e, H(X|Y), H_min, K*) at the first maximum of
    K = max(0, P_sift H_min - H(X|Y)), so ties go to the smaller m; when
    every rate is 0 that is m = 1.
    """
    p_c, p_e, hxy, prefactor = row
    rates = list(map(operator.sub, map(operator.mul, prefactor, hmin), hxy))
    best = max(rates)
    i = rates.index(best) if best > 0.0 else 0
    return i + 1, p_c[i], p_e[i], hxy[i], hmin[i], max(0.0, best)


def optimize_m(
    d: int,
    length_km: float,
    detector: DetectorModel,
    alpha_db_per_km: float = 0.2,
    bounds_source: str = DEFAULT_BOUNDS_SOURCE,
) -> tuple[int, float]:
    """Best integer copy count within the coherent budget and its rate.

    Scans m = 1 .. m_scan_limit(d), pruned as in `_hmin_column`, in one
    channel row and returns (m*, K*) from `_optimal`; ties go to the
    smaller m.  `key_rate` at m* reads the same cell, so it equals K*
    exactly.
    """
    hmin = _hmin_column(d, bounds_source)
    row = _channel_row(transmittance(length_km, alpha_db_per_km), detector, range(1, len(hmin) + 1))
    m_star, *_, k_star = _optimal(row, hmin)
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
    ms = range(1, len(hmin) + 1)

    def positive(length: float) -> bool:
        """Whether the optimized rate at length is > 0."""
        row = _channel_row(transmittance(length, alpha_db_per_km), detector, ms)
        return _optimal(row, hmin)[-1] > 0.0

    if not positive(0.0):
        return MaxDistanceResult(distance_km=0.0, saturated=False)
    if positive(_LENGTH_CAP_KM):
        return MaxDistanceResult(distance_km=_LENGTH_CAP_KM, saturated=True)
    lo, hi = 0.0, _LENGTH_CAP_KM
    while hi - lo > _RESOLUTION_KM:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return MaxDistanceResult(distance_km=lo, saturated=False)


class SweepRow(NamedTuple):
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


def sweep(
    ds: Sequence[int],
    lengths_km: Sequence[float],
    profiles: Sequence[str],
    alpha_db_per_km: float = 0.2,
    bounds_source: str = DEFAULT_BOUNDS_SOURCE,
) -> list[SweepRow]:
    """Optimized rate table over the (profile, d, L) grid, sorted that way.

    Each (profile, L) gets one channel row, which every d's H_min column
    scans a prefix of.  More than SWEEP_MAX_CELLS cells, or a d beyond the
    copy scan's cap (`_hmin_column`), raise CapabilityError, and empty ds,
    lengths_km or profiles, or an entry given twice in one of them, which
    would repeat rows, ValueError, before anything is computed.
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
    ms = range(1, max(len(hmin) for _, hmin in hmins) + 1)
    lengths = [float(length) for length in sorted(lengths_km)]
    ts = [transmittance(length, alpha_db_per_km) for length in lengths]
    rows = []
    for profile in sorted(profiles):
        per_d: list[list[SweepRow]] = [[] for _ in hmins]
        for length, t in zip(lengths, ts):
            row = _channel_row(t, DETECTOR_PRESETS[profile], ms)
            for d_rows, (d, hmin) in zip(per_d, hmins):
                # SweepRow's fields in order: profile, d, L, m*, t, then the
                # p_c, p_e, H(X|Y), H_min and K* that follow m* in `_optimal`
                m, *terms = _optimal(row, hmin)
                d_rows.append(SweepRow(profile, d, length, m, t, *terms))
        for d_rows in per_d:
            rows.extend(d_rows)
    return rows


# One CSV row of a SweepRow: floats to 10 significant digits
_SWEEP_ROW = "%s,%d,%.10g,%d,%.10g,%.10g,%.10g,%.10g,%.10g,%.10g"


def sweep_rows_to_csv(rows: Sequence[SweepRow], header_comment: Optional[str] = None) -> str:
    """Render sweep rows as CSV text, one `_SWEEP_ROW` %-format per row."""
    lines = [f"# {header_comment}"] if header_comment else []
    lines.append(SWEEP_CSV_HEADER)
    lines.extend(_SWEEP_ROW % row for row in rows)
    return "\n".join(lines) + "\n"
