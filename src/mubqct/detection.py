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
`click_events` samples raw per-copy and per-detector events into one
byte per round, the event code, whose bits say which detector sides the
signal reached and which dark-fired; `_click_class` sorts the 16 codes
into exactly this taxonomy, and `receiver_outcome` reads Bob's declared
bit from a table derived from it.  The Monte Carlo oracle and the
protocol simulation both draw their events through `click_events`, so
they estimate the same quantities as the closed forms without sharing
any algebra with them.

The closed forms (`detection_stats`, `poisson_detection_stats`,
`conditional_entropy_xy`) are scalar `math` code, so the rate model loads
no numpy; only the Monte Carlo half imports numpy, inside the functions
that draw.  The detector and channel models and their presets are
defined in `models`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DegenerateModeError
from .models import copy_count

if TYPE_CHECKING:
    import numpy as np

    from .models import DetectorModel

# rows per chunk of the session's per-round draws: one chunk of int64 or
# float64 values is 256 KiB, which stays in cache while it is reduced
_CHUNK_ROWS = 1 << 15


@dataclass(frozen=True)
class DetectionStats:
    """Outcome probabilities for one signal of m copies."""

    p_signal_click: float
    p_right: float
    p_wrong: float
    p_click: float
    p_c: float
    p_e: float


def _exp_times_expm1(a: float, exp_a: float, x: float) -> float:
    """e^a expm1(x) from exp_a = e^a; for x >= 709, beyond expm1's range,
    e^(a + x) (-expm1(-x)) instead, which needs a + x <= 0."""
    if x < 709.0:
        return exp_a * math.expm1(x)
    return math.exp(a + x) * -math.expm1(-x)


def detection_stats(t: float, detector: DetectorModel, m) -> DetectionStats:
    """Closed-form click statistics at channel transmittance t.

    m copies are sent; m may be any positive real.  A Poisson source of
    mean mu is `poisson_detection_stats`, not m = mu.  P_click = P_right
    + P_wrong, so p_c + p_e = 1.  The fields are those `detection_row`
    gives for m alone.
    """
    return DetectionStats(*detection_row(t, detector, (m,))[0])


def detection_row(t: float, detector: DetectorModel, ms) -> list[tuple[float, ...]]:
    """The `DetectionStats` fields at t for each copy count of ms, as tuples.

    The rate model's channel row: the logs that depend on t alone are
    taken once, and no dataclass is built per m.  Per m: one pow for
    (1 - s)^m and one expm1 for p_signal_click = -expm1(m log1p(-s))
    (1 at s = 1), then on 0 < s < 0.5 exp of m log1p(-s) and one expm1
    per arrival class, and elsewhere one pow per arrival class.
    """
    t = _checked_transmittance(t)
    s = t * detector.eta
    v, p = detector.visibility, detector.p_dark
    no_dark = (1.0 - p) ** 2
    # -expm1(m log1p(-s)) = 1 - (1 - s)^m keeps its precision at small s,
    # where the direct form underflows to 0 beyond ~800 km; s = 1 stays out
    # of log1p, which would raise.  The binomial sums over i >= 1 arrivals
    # weighted by V^i resp. (1-V)^i, differences of near-1 powers, are taken
    # in log space on small s.
    log_miss = math.log1p(-s) if s < 1.0 else 0.0
    log_space = 0.0 < s < 0.5
    if log_space:
        log_good = math.log1p(-s * (1.0 - v)) - log_miss
        log_bad = math.log1p(-s * v) - log_miss
    row = []
    for m in ms:
        m = _checked_photons(m, "m")
        log_none = m * log_miss
        no_arrival = pow(1.0 - s, m)
        p_signal_click = 1.0 if s >= 1.0 else -math.expm1(log_none)
        if log_space:
            exp_none = math.exp(log_none)
            p_all_good = _exp_times_expm1(log_none, exp_none, m * log_good)
            p_all_bad = _exp_times_expm1(log_none, exp_none, m * log_bad)
        else:
            p_all_good = pow(1.0 - s + s * v, m) - no_arrival
            p_all_bad = pow(1.0 - s * v, m) - no_arrival
        row.append(_with_dark_counts(p, no_dark, p_signal_click, no_arrival, p_all_good, p_all_bad))
    return row


def poisson_detection_stats(t: float, detector: DetectorModel, mu) -> DetectionStats:
    """Closed-form click statistics of a Poisson source of mean photon number mu.

    With s = t eta, the arrivals thin into independent Poisson counts of
    mean mu s V in the good detector and mu s (1 - V) in the bad ones, so
    no arrival has probability e^(-mu s), all arrivals good
    e^(-mu s (1 - V)) - e^(-mu s) = e^(-mu s) expm1(mu s V), and all bad
    e^(-mu s) expm1(mu s (1 - V)).  The dark-count terms are those of
    `detection_stats`; e^(-mu s) is one exp, shared by the three terms.
    """
    t, mu = _checked_transmittance(t), _checked_photons(mu, "mu")
    mean = mu * (t * detector.eta)
    no_arrival = math.exp(-mean)
    p = detector.p_dark
    return DetectionStats(*_with_dark_counts(
        p,
        (1.0 - p) ** 2,
        -math.expm1(-mean),
        no_arrival,
        _exp_times_expm1(-mean, no_arrival, mean * detector.visibility),
        _exp_times_expm1(-mean, no_arrival, mean * (1.0 - detector.visibility)),
    ))


def _checked_transmittance(t) -> float:
    """t as a Python float in [0, 1]."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmittance must be in [0, 1], got {t}")
    return t


def _checked_photons(m, name: str) -> int | float:
    """The source's photon number m, positive and finite, as a Python int if it
    is an integer (numpy's included) and a Python float otherwise.

    numpy scalars would send pow and * to numpy's kernels, which can
    differ from the C library's in the last bit.
    """
    try:
        m = operator.index(m)
    except TypeError:
        m = float(m)
    if not 0 < m < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {m}")
    return m


def _with_dark_counts(
    p: float, no_dark: float, p_signal_click, no_arrival, p_all_good, p_all_bad
) -> tuple[float, ...]:
    """The `DetectionStats` fields from the signal's arrival classes and the dark
    counts: p is each detector's dark-count probability, no_dark = (1 - p)^2."""
    p_right = p_all_good * no_dark + no_arrival * p + p_all_good * p
    p_wrong = p_all_bad * no_dark + no_arrival * p + p_all_bad * p

    p_click = p_right + p_wrong
    if p_click <= 0.0:
        raise DegenerateModeError("no click mass: both signal and dark contributions are zero")
    return p_signal_click, p_right, p_wrong, p_click, p_right / p_click, p_wrong / p_click


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


def draw_chunked(n: int, draw, *columns: np.ndarray) -> np.ndarray:
    """An n-array of the non-negative integers draw returns, filled _CHUNK_ROWS rows at a time.

    Rows [a, b) get draw(b - a, *(c[a:b] for c in columns)).  numpy's
    distributions take their values from the bit generator one after
    another, so drawing one distribution chunk by chunk consumes the
    stream exactly as one call of size n does.  The array starts as uint8
    and is widened to the smallest unsigned type that holds the largest
    value drawn so far, or to int64, the draws' own type, past uint32; so
    no value wraps, and a law without an upper bound (a Poisson source at
    any mu) costs eight bytes per row only past 2^32.  Each chunk is
    released before the next is drawn, so one chunk of the int64 draw is
    alive at a time.
    """
    import numpy as np

    out = np.empty(n, np.uint8)
    for rows in chunk_slices(n):
        chunk = draw(rows.stop - rows.start, *(c[rows] for c in columns))
        fits = np.min_scalar_type(int(chunk.max()))
        if fits.itemsize > out.itemsize:
            out = out.astype(np.int64 if fits == np.uint64 else fits)
        out[rows] = chunk
        del chunk
    return out


# Bits of a round's event code.  The signal bits say which side its
# arrivals reached: neither (no arrival), the good detector only, a bad
# one only, or both (split).  The dark bits are the dark counts.
_SIGNAL_BAD, _SIGNAL_GOOD, _DARK_GOOD, _DARK_BAD = 1, 2, 4, 8
# Bits of a round's click class: right, wrong, both (the overlap) or neither
RIGHT, WRONG = 1, 2


@functools.cache
def _click_class() -> np.ndarray:
    """The click class of each of the 16 event codes, by the module's taxonomy;
    built on first use and read-only, since every caller shares it."""
    import numpy as np

    code = np.arange(16)
    signal_bad = (code & _SIGNAL_BAD) > 0
    signal_good = (code & _SIGNAL_GOOD) > 0
    dark_good = (code & _DARK_GOOD) > 0
    dark_bad = (code & _DARK_BAD) > 0
    no_arrival = ~signal_good & ~signal_bad
    right = (signal_good & ~signal_bad & (dark_good | ~dark_bad)) | (no_arrival & dark_good)
    wrong = (signal_bad & ~signal_good & (dark_bad | ~dark_good)) | (no_arrival & dark_bad)
    table = (right * RIGHT + wrong * WRONG).astype(np.uint8)
    table.flags.writeable = False
    return table


@functools.cache
def _declared_bit() -> np.ndarray:
    """Bob's bit for each (event code, x, coin) key, code + 16 x + 32 coin; -1 erases.

    By the code's click class (`_click_class`): x is kept on a right-only
    round and flipped on a wrong-only round; the overlap flips it when
    the coin is 1; a round of neither class is erased.  Built on first
    use and read-only, like the class table.
    """
    import numpy as np

    key = np.arange(64)
    click, x, coin = _click_class()[key & 15], key >> 4 & 1, key >> 5
    flip = (click == WRONG) | ((click == RIGHT | WRONG) & (coin == 1))
    table = np.where(click != 0, x ^ flip, -1).astype(np.int8)
    table.flags.writeable = False
    return table


def click_events(
    rng: np.random.Generator, n: int, copies, t: float, detector: DetectorModel
) -> np.ndarray:
    """Sample n rounds of raw detection events; return each round's event code.

    Per round: arrivals ~ Binomial(copies, t*eta), each arrival lands in
    the good detector w.p. V, and each of the two detectors dark-fires
    independently w.p. p_dark.  copies is an integer, or a per-round
    integer array for a Poisson source.  A round's code has the
    _SIGNAL_GOOD and _SIGNAL_BAD bits set by the sides its arrivals
    reached and the _DARK_GOOD and _DARK_BAD bits by its dark counts;
    `_click_class` maps it to the module's taxonomy.

    One array holds the rounds' events and is rewritten in place, pass
    by pass, chunk by chunk (`chunk_slices`): the arrival counts, as
    wide as the largest drawn (`draw_chunked`); over them, for rounds
    with an arrival, the signal bits of the split Binomial(arrivals, V);
    then each dark bit.  Each distribution is drawn over all n rounds
    before the next.  The split is drawn only where something arrived:
    numpy's binomial returns 0 for zero trials without taking a value
    from the bit generator, so the stream is the one a draw over every
    round consumes.
    """
    import numpy as np

    s = t * detector.eta
    p = detector.p_dark
    if np.ndim(copies):
        events = draw_chunked(n, lambda size, c: rng.binomial(c, s), copies)
    else:
        events = draw_chunked(n, lambda size: rng.binomial(copies, s, size))
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
        events[rows] |= dark.view(np.uint8) * np.uint8(_DARK_BAD)
    return events


def receiver_outcome(
    rng: np.random.Generator, xs: np.ndarray, copies, t: float, detector: DetectorModel
) -> np.ndarray:
    """One receiver's declared bits for Alice's bits xs; -1 marks erasures.

    Rounds are declared by the click classes of the closed forms, so the
    sifted error statistics match them: ambiguous rounds (signal split
    across detectors, signal contradicted by a dark count) are erased,
    and the overlap, no arrival with darks on both sides, is resolved by
    a fair coin.  The coins are drawn chunk by chunk after every event
    (`click_events`), and each chunk's bits are looked up from the
    64-entry (code, x, coin) table into the array that held its codes.
    """
    import numpy as np

    n = xs.size
    codes = click_events(rng, n, copies, t, detector)
    outcome = codes.view(np.int8) if codes.itemsize == 1 else np.empty(n, np.int8)
    for rows in chunk_slices(n):
        coin = rng.integers(0, 2, rows.stop - rows.start)
        key = codes[rows] | xs[rows] << 4
        key |= (coin == 1).view(np.uint8) << 5
        outcome[rows] = _declared_bit()[key]
    return outcome


def mc_detection_stats(
    t: float, detector: DetectorModel, m: int, n_samples: int, seed: int
) -> McDetectionStats:
    """Monte Carlo estimate of the closed-form ratios via `click_events`."""
    import numpy as np

    copy_count(m)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    codes = click_events(np.random.default_rng(seed), n_samples, m, t, detector)
    per_code = np.bincount(codes, minlength=16)
    n_right, n_wrong = (int(per_code @ ((_click_class() & c) > 0)) for c in (RIGHT, WRONG))
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
    p_c + p_e = 1.
    """
    p_c, p_e = float(p_c), float(p_e)
    if not (0.0 <= p_c <= 1.0 and 0.0 <= p_e <= 1.0):
        raise ValueError(f"p_c and p_e must be in [0, 1], got {p_c}, {p_e}")
    if p_c + p_e > 1.0 + 1e-9:
        raise ValueError(f"p_c + p_e must not exceed 1, got {p_c + p_e}")
    # a probability of 0 contributes 0: log2 sees 1 in its place
    h = 0.0 - p_c * math.log2(p_c if p_c > 0.0 else 1.0)
    return h - p_e * math.log2(p_e if p_e > 0.0 else 1.0)
