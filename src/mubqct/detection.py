"""Click statistics for m-copy signals on threshold detectors.

The receiver routes each arriving copy to the detector matching its
encoded bit with probability given by the interference visibility V, and
each of its two detectors additionally dark-fires with probability p_dark.
The analytic model tracks the three leading event classes per outcome:

  right click: all arrivals in the good detector and no dark count,
               or a dark count in the good detector (with or without
               signal support);
  wrong click: the mirror classes on the bad detector side.

Cross terms (signal split across detectors, signal contradicted by a
dark count) are deliberately excluded from both probabilities, and the
round-level simulation erases such rounds for consistency.
`click_classes` samples raw per-copy and per-detector events and sorts
them into exactly this taxonomy; the Monte Carlo oracle and the protocol
simulation both draw their events through it, so they estimate the same
quantities as the closed forms without sharing any algebra with them.
It keeps one byte per round: the event code, whose bits say which
detector sides the signal reached and which dark-fired, and then the
click class that a 16-entry table assigns to that code.

The detector and channel models and their presets are defined in `models`
and bound here too, so `mubqct.detection.DetectorModel` and the like keep
resolving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModeError
from .models import DETECTOR_PRESETS, ChannelModel, DetectorModel, transmittance  # noqa: F401

# rows per chunk of the session's per-round draws: one chunk of int64 or
# float64 values is 256 KiB, which stays in cache while it is reduced
_CHUNK_ROWS = 1 << 15


@dataclass(frozen=True)
class DetectionStats:
    """Outcome probabilities for one signal of m copies (arrays if broadcast)."""

    p_signal_click: float
    p_right: float
    p_wrong: float
    p_click: float
    p_c: float
    p_e: float


def _libm(fn, *args) -> np.ndarray:
    """fn elementwise over args of one shape, through Python's math library.

    numpy's SIMD float64 exp, expm1, log1p, log2 and power can differ from
    the C library in the last bit, so every transcendental of the closed
    forms goes through `math` (or `pow`) one element at a time and the
    arrays stay bit-identical to the scalar formulas.  Callers pass only
    the entries a call applies to, so each cell costs one call per term.
    """
    values = map(fn, *(a.ravel().tolist() for a in args))
    return np.fromiter(values, float, args[0].size).reshape(args[0].shape)


def _exp_times_expm1(a: np.ndarray, exp_a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """e^a expm1(x) from exp_a = e^a; where x >= 709, beyond expm1's range,
    e^(a + x) (-expm1(-x)) instead, which needs a + x <= 0."""
    big = x >= 709.0
    out = np.asarray(exp_a * _libm(math.expm1, np.where(big, 0.0, x)))
    if big.any():
        out[big] = _libm(math.exp, a[big] + x[big]) * -_libm(math.expm1, -x[big])
    return out


def _first(bad: np.ndarray, *arrays: np.ndarray) -> list:
    """The entries of arrays (bad's shape) at the first True of bad."""
    i = int(np.argmax(bad))
    return [a.flat[i] for a in arrays]


def _log_space(s: np.ndarray) -> np.ndarray:
    """The arrival probabilities s whose binomial sums are taken in log space."""
    return (0.0 < s) & (s < 0.5)


def detection_stats(t: float, detector: DetectorModel, m) -> DetectionStats:
    """Closed-form click statistics at channel transmittance t.

    m copies are sent; m may be any positive real.  A Poisson source of
    mean mu is `poisson_detection_stats`, not m = mu.  P_click = P_right
    + P_wrong, so p_c + p_e = 1.

    t and m broadcast against each other: array inputs give array fields
    of the broadcast shape, scalar inputs give Python floats, and every
    entry equals the scalar evaluation bit for bit (+ - * / run in numpy
    in the scalar order, transcendentals through `math`, see `_libm`).
    An error in any entry raises as it would for that entry alone.

    Per cell: one pow for (1 - s)^m and one expm1 for p_signal_click =
    -expm1(m log1p(-s)) (1 at s = 1), then on 0 < s < 0.5 (`_log_space`)
    exp of m log1p(-s) and one expm1 per arrival class, and elsewhere one
    pow per arrival class; each log1p runs once per t.
    """
    t, m = _checked_source(t, m, "m")
    s = t * detector.eta
    v = detector.visibility
    # -expm1(m log1p(-s)) = 1 - (1 - s)^m keeps its precision at small s,
    # where the direct form underflows to 0 beyond ~800 km; s = 1 stays out
    # of log1p, which would raise.  The binomial sums over i >= 1 arrivals
    # weighted by V^i resp. (1-V)^i, differences of near-1 powers, are taken
    # in log space on small s, each branch on its own cells (s = 0 outside).
    log_miss = _libm(math.log1p, -np.where(s < 1.0, s, 0.0))
    s_log = np.where(_log_space(s), s, 0.0)
    log_good = _libm(math.log1p, -s_log * (1.0 - v)) - log_miss
    log_bad = _libm(math.log1p, -s_log * v) - log_miss
    logs, s, m, log_miss, log_good, log_bad = np.broadcast_arrays(
        _log_space(s), s, m, log_miss, log_good, log_bad
    )
    no_arrival = _libm(pow, 1.0 - s, m)
    log_none = m * log_miss
    p_signal_click = np.where(s >= 1.0, 1.0, -_libm(math.expm1, log_none))
    p_all_good, p_all_bad = np.empty(logs.shape), np.empty(logs.shape)
    m_log, log_none = m[logs], log_none[logs]
    exp_none = _libm(math.exp, log_none)
    p_all_good[logs] = _exp_times_expm1(log_none, exp_none, m_log * log_good[logs])
    p_all_bad[logs] = _exp_times_expm1(log_none, exp_none, m_log * log_bad[logs])
    direct = ~logs
    s, m, none = s[direct], m[direct], no_arrival[direct]
    p_all_good[direct] = _libm(pow, 1.0 - s + s * v, m) - none
    p_all_bad[direct] = _libm(pow, 1.0 - s * v, m) - none
    return _with_dark_counts(detector, p_signal_click, no_arrival, p_all_good, p_all_bad)


def poisson_detection_stats(t: float, detector: DetectorModel, mu) -> DetectionStats:
    """Closed-form click statistics of a Poisson source of mean photon number mu.

    With s = t eta, the arrivals thin into independent Poisson counts of
    mean mu s V in the good detector and mu s (1 - V) in the bad ones, so
    no arrival has probability e^(-mu s), all arrivals good
    e^(-mu s (1 - V)) - e^(-mu s) = e^(-mu s) expm1(mu s V), and all bad
    e^(-mu s) expm1(mu s (1 - V)).  The dark-count terms and the
    broadcasting are those of `detection_stats`; e^(-mu s) is one exp
    per cell, shared by the three terms.
    """
    t, mu = _checked_source(t, mu, "mu")
    mean = mu * (t * detector.eta)
    no_arrival = _libm(math.exp, -mean)
    return _with_dark_counts(
        detector,
        -_libm(math.expm1, -mean),
        no_arrival,
        _exp_times_expm1(-mean, no_arrival, mean * detector.visibility),
        _exp_times_expm1(-mean, no_arrival, mean * (1.0 - detector.visibility)),
    )


def _checked_source(t, m, name: str) -> tuple[np.ndarray, np.ndarray]:
    """t and the source's photon number m as arrays, each entry validated."""
    t = np.asarray(t, dtype=float)
    m = np.asarray(m)
    bad = ~((t >= 0.0) & (t <= 1.0))
    if bad.any():
        raise ValueError(f"transmittance must be in [0, 1], got {_first(bad, t)[0]}")
    bad = ~((m > 0) & (m < math.inf))
    if bad.any():
        raise ValueError(f"{name} must be positive and finite, got {_first(bad, m)[0]}")
    return t, m


def _with_dark_counts(
    detector: DetectorModel, p_signal_click, no_arrival, p_all_good, p_all_bad
) -> DetectionStats:
    """The click statistics from the signal's arrival classes and the dark counts."""
    p = detector.p_dark
    no_dark = (1.0 - p) ** 2
    p_right = p_all_good * no_dark + no_arrival * p + p_all_good * p
    p_wrong = p_all_bad * no_dark + no_arrival * p + p_all_bad * p

    p_click = p_right + p_wrong
    if (p_click <= 0.0).any():
        raise DegenerateModeError("no click mass: both signal and dark contributions are zero")

    fields = (p_signal_click, p_right, p_wrong, p_click, p_right / p_click, p_wrong / p_click)
    if p_click.ndim == 0:
        fields = tuple(float(x) for x in fields)
    return DetectionStats(*fields)


@dataclass(frozen=True)
class McDetectionStats:
    """Monte Carlo estimate of the taxonomy-classified click ratios."""

    p_c: float
    p_e: float
    n_right: int
    n_wrong: int
    n_samples: int


def chunk_slices(n: int):
    """The slices of rows [0, n), _CHUNK_ROWS rows each (the last may be shorter)."""
    return (slice(a, min(a + _CHUNK_ROWS, n)) for a in range(0, n, _CHUNK_ROWS))


def draw_chunked(n: int, dtype, draw, *columns: np.ndarray) -> np.ndarray:
    """An n-array of dtype, filled _CHUNK_ROWS rows at a time.

    Rows [a, b) get draw(b - a, *(c[a:b] for c in columns)), cast to
    dtype.  numpy's distributions take their values from the bit
    generator one after another, so drawing one distribution chunk by
    chunk consumes the stream exactly as one call of size n does, and
    only one chunk of the int64 or float64 draw is alive at a time.
    """
    out = np.empty(n, dtype)
    for rows in chunk_slices(n):
        out[rows] = draw(rows.stop - rows.start, *(c[rows] for c in columns))
    return out


def _count_type(high: int) -> np.dtype:
    """The smallest type that holds 0..high and casts to binomial's int64 (not uint64)."""
    fits = np.min_scalar_type(high)
    return np.dtype(np.int64) if fits == np.uint64 else fits


def draw_counts_chunked(n: int, draw) -> np.ndarray:
    """An n-array of non-negative counts, drawn chunk by chunk as in `draw_chunked`.

    The array starts as uint8 and is widened to the `_count_type` of the
    largest count drawn so far, so a law without an upper bound (a
    Poisson source at any mu) neither wraps nor costs a full int64 per
    row below 2^32.
    """
    out = np.empty(n, np.uint8)
    for rows in chunk_slices(n):
        chunk = draw(rows.stop - rows.start)
        fits = _count_type(int(chunk.max()))
        if fits.itemsize > out.itemsize:
            out = out.astype(fits)
        out[rows] = chunk
    return out


# Bits of a round's event code.  The signal bits say which side its
# arrivals reached: neither (no arrival), the good detector only, a bad
# one only, or both (split).  The dark bits are the dark counts.
_SIGNAL_BAD, _SIGNAL_GOOD, _DARK_GOOD, _DARK_BAD = 1, 2, 4, 8
# Bits of a round's click class: right, wrong, both (the overlap) or neither
RIGHT, WRONG = 1, 2


def _click_table() -> np.ndarray:
    """The click class of each of the 16 event codes, by the module's taxonomy."""
    code = np.arange(16)
    signal_bad = (code & _SIGNAL_BAD) > 0
    signal_good = (code & _SIGNAL_GOOD) > 0
    dark_good = (code & _DARK_GOOD) > 0
    dark_bad = (code & _DARK_BAD) > 0
    no_arrival = ~signal_good & ~signal_bad
    right = (signal_good & ~signal_bad & (dark_good | ~dark_bad)) | (no_arrival & dark_good)
    wrong = (signal_bad & ~signal_good & (dark_bad | ~dark_good)) | (no_arrival & dark_bad)
    return (right * RIGHT + wrong * WRONG).astype(np.uint8)


_CLICK_CLASS = _click_table()


def click_classes(
    rng: np.random.Generator, n: int, copies, t: float, detector: DetectorModel
) -> np.ndarray:
    """Sample n rounds of raw detection events; return each round's click class.

    Per round: arrivals ~ Binomial(copies, t*eta), each arrival lands in
    the good detector w.p. V, and each of the two detectors dark-fires
    independently w.p. p_dark.  copies is an integer, or a per-round
    integer array for a Poisson source.  A round's class has the RIGHT
    bit and the WRONG bit set according to the three event classes in the
    module docstring, which the closed forms count exactly; rounds outside
    the taxonomy have neither, and a lone dark count on each side (no
    arrival) has both.

    One array of the arrival counts' `_count_type` holds the rounds' events and is rewritten in
    place, pass by pass, chunk by chunk (`chunk_slices`): the arrival
    counts; over them, for rounds with an arrival, the signal bits of
    the split Binomial(arrivals, V); then each dark bit; then the class,
    looked up from the 16-entry event-code table.  Each distribution is
    drawn over all n rounds before the next.  The split is drawn only
    where something arrived: numpy's binomial returns 0 for zero trials
    without taking a value from the bit generator, so the stream is the
    one a draw over every round consumes.
    """
    s = t * detector.eta
    p = detector.p_dark
    fits = _count_type(int(np.max(copies)))  # holds every arrival count
    if np.ndim(copies):
        events = draw_chunked(n, fits, lambda size, c: rng.binomial(c, s), copies)
    else:
        events = draw_chunked(n, fits, lambda size: rng.binomial(copies, s, size))
    for rows in chunk_slices(n):
        chunk = events[rows]
        got_signal = chunk != 0
        arrived = chunk[got_signal]
        n_good = rng.binomial(arrived, detector.visibility)
        signal = (n_good != 0).view(np.uint8) * np.uint8(_SIGNAL_GOOD)
        signal |= (n_good != arrived).view(np.uint8)  # _SIGNAL_BAD
        chunk[got_signal] = signal
    for rows in chunk_slices(n):
        dark = rng.random(rows.stop - rows.start) < p
        events[rows] |= dark.view(np.uint8) * np.uint8(_DARK_GOOD)
    for rows in chunk_slices(n):
        dark = rng.binomial(1, p, rows.stop - rows.start) > 0
        chunk = events[rows]
        chunk |= dark.view(np.uint8) * np.uint8(_DARK_BAD)
        chunk[...] = _CLICK_CLASS[chunk]
    return events


def mc_detection_stats(
    t: float, detector: DetectorModel, m: int, n_samples: int, seed: int
) -> McDetectionStats:
    """Monte Carlo estimate of the closed-form ratios via `click_classes`."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    classes = click_classes(np.random.default_rng(seed), n_samples, m, t, detector)
    n_right = int(np.count_nonzero(classes & RIGHT))
    n_wrong = int(np.count_nonzero(classes & WRONG))
    total = n_right + n_wrong
    if total == 0:
        raise DegenerateModeError("no classifiable click events sampled")
    return McDetectionStats(
        p_c=n_right / total,
        p_e=n_wrong / total,
        n_right=n_right,
        n_wrong=n_wrong,
        n_samples=n_samples,
    )


def conditional_entropy_xy(p_c: float, p_e: float) -> float:
    """Bob's residual uncertainty H(X|Y) in bits.

    p_c and p_e are the conditional probabilities of the right and wrong
    detector firing given a click.  Bob declares one bit, so H(X|Y) =
    -p_c log2 p_c - p_e log2 p_e, the binary entropy of his error when
    p_c + p_e = 1.  Broadcasts like `detection_stats`: arrays give an
    array, scalars a Python float, each entry bit-identical to the scalar
    formula.
    """
    p_c, p_e = np.broadcast_arrays(np.asarray(p_c, dtype=float), np.asarray(p_e, dtype=float))
    bad = ~((0.0 <= p_c) & (p_c <= 1.0) & (0.0 <= p_e) & (p_e <= 1.0))
    if bad.any():
        raise ValueError("p_c and p_e must be in [0, 1], got {}, {}".format(*_first(bad, p_c, p_e)))
    total = p_c + p_e
    bad = total > 1.0 + 1e-9
    if bad.any():
        raise ValueError(f"p_c + p_e must not exceed 1, got {_first(bad, total)[0]}")
    # h = 0 - p_c log2 p_c - p_e log2 p_e; where a probability is 0, log2
    # sees 1 and its term is 0
    h = 0.0
    for p in (p_c, p_e):
        h = h - p * _libm(math.log2, np.where(p > 0.0, p, 1.0))
    return float(h) if h.ndim == 0 else h
