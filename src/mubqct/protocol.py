"""Round-level model of the two-party key distribution protocol.

Alice encodes a bit x and a sub-index r as the basis state |e_theta(i_xr)>
with i_xr = (d/2) x + r, drawn in a basis theta that stays computationally
hidden (timelocked) until after the quantum signal decoheres.  Bob, who is
authorized, learns theta in time and applies the two-outcome projector pair
splitting the basis into its halves, which reads x from a noiseless copy
with certainty; the simulation draws from that law and forms no state.
The timelock itself is not simulated: the honest receiver always reads
theta in time, and the adversary's side is carried by the security bounds.

`run_protocol` simulates the full loop over a lossy channel with threshold
detectors: per-copy transmission and visibility Bernoullis, per-detector
dark counts, erasure of split or dark-contradicted signals and of rounds
with no click, and a fair coin for darks on both sides with no arrival.
`multiparty_run` splits the copy budget across several receivers sharing
one encoding stream.  Both run the same session driver.  The receiver model
is `detection`'s: a receiver's detection events take one byte per round,
and its declared bits are written over them (`receiver_outcome`), so a
session holds x, r, theta and one int8 outcome per receiver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .detection import chunk_slices, draw_chunked, receiver_outcome
from .errors import CapabilityError, ConstraintError
from .models import ChannelModel, DetectorModel, coherent_mu_max, count, dimension_k

TRANSCRIPT_HEADER = "round,x,r,theta,outcome"
# the pad byte of _csv_rows' fixed-width slots; no CSV byte is 0
_CSV_PAD = 0
# FFT length cap of privacy_amplify: its working set is about 32 bytes per
# point (padded float input, complex spectra, float output), ~1.1 GB at the cap
PRIVACY_AMPLIFY_MAX_FFT_LEN = 1 << 25
_NUMPY_POISSON_MU_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


@dataclass(frozen=True)
class ProtocolParams:
    """Configuration of one simulated protocol session; m and n_rounds are counts (`count`)."""

    d: int
    m: int
    n_rounds: int
    seed: int
    channel: ChannelModel = field(default_factory=ChannelModel)
    detector: DetectorModel = field(default_factory=DetectorModel)
    photon_statistics: str = "fixed"
    mu: Optional[float] = None
    allow_insecure_mu: bool = False

    def __post_init__(self):
        dimension_k(self.d)
        if count(self.m, "m") >= 1 << 63:
            raise ValueError(f"m must be in [1, 2^63), got {self.m}")
        count(self.n_rounds, "n_rounds")
        if self.photon_statistics not in ("fixed", "poisson"):
            raise ValueError(
                f"photon_statistics must be 'fixed' or 'poisson', got {self.photon_statistics!r}"
            )
        if self.photon_statistics == "poisson":
            if self.mu is None or not 0 < self.mu <= _NUMPY_POISSON_MU_MAX:
                raise ValueError(
                    f"poisson statistics require a finite mu > 0, got {self.mu}; "
                    f"numpy's Poisson sampler takes mu <= {_NUMPY_POISSON_MU_MAX:.6g}"
                )
            budget = coherent_mu_max(self.d)
            if self.mu > budget and not self.allow_insecure_mu:
                raise ConstraintError(
                    f"mu = {self.mu:.6g} exceeds the photon budget coherent_mu_max({self.d}) = "
                    f"{budget:.6g}; set allow_insecure_mu to override"
                )
        elif self.mu is not None or self.allow_insecure_mu:
            option = "mu" if self.mu is not None else "allow_insecure_mu"
            raise ValueError(f"{option} applies to poisson photon statistics only, not fixed")


@dataclass(frozen=True)
class ProtocolTranscript:
    """Per-round records and sifted-key view of one protocol run.

    outcome is Bob's declared bit, or -1 when the round is erased: no
    detector clicked, or the firing pattern was ambiguous (signal split
    across detectors, signal contradicted by a dark count).  Sifting
    keeps exactly the non-erased rounds.
    """

    m: int
    x: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    outcome: np.ndarray

    @property
    def n_rounds(self) -> int:
        return self.x.size

    @property
    def clicked(self) -> np.ndarray:
        return self.outcome >= 0

    @property
    def n_clicks(self) -> int:
        return int(np.count_nonzero(self.clicked))

    @property
    def click_rate(self) -> float:
        return self.n_clicks / self.n_rounds

    @property
    def alice_sifted(self) -> np.ndarray:
        return self.x[self.clicked]

    @property
    def n_right(self) -> int:
        """Clicked rounds where Bob's bit matches Alice's; an erasure's -1 matches no bit."""
        return int(np.count_nonzero(self.outcome == self.x))

    @property
    def p_c_empirical(self) -> float:
        """Fraction of clicked rounds where Bob's bit matches Alice's."""
        n_clicks = self.n_clicks
        if n_clicks == 0:
            return float("nan")
        return self.n_right / n_clicks

    @property
    def p_e_empirical(self) -> float:
        n_clicks = self.n_clicks
        if n_clicks == 0:
            return float("nan")
        return (n_clicks - self.n_right) / n_clicks

    def to_csv(self, path, comment: Optional[str] = None) -> None:
        """Write one CSV row per round, after a `# {comment}` line if given.

        The rows are taken in the session's chunks (`chunk_slices`); each
        chunk is rendered as one byte buffer by `_csv_rows`, one floor
        division by 10 per digit, and written in one call.  The chunks
        share one set of scratch arrays and one round-number array,
        shifted along from chunk to chunk, so the writer's extra memory is
        one chunk's at any round count and no chunk allocates its own.
        The bytes are those of formatting every field with str(): the
        same digits, '-' signs, commas and newlines.
        """
        chunks = list(chunk_slices(self.n_rounds))
        scratch = {}
        rounds = np.arange(chunks[0].stop if chunks else 0)  # the first chunk is the longest
        with open(path, "wb") as fh:
            if comment:
                fh.write(f"# {comment}\n".encode("utf-8"))
            fh.write(f"{TRANSCRIPT_HEADER}\n".encode("utf-8"))
            for rows in chunks:
                size = rows.stop - rows.start
                columns = (self.x[rows], self.r[rows], self.theta[rows], self.outcome[rows])
                fh.write(_csv_rows((rounds[:size], *columns), scratch))
                rounds += size


def _scratch(pool: dict, name: str, size: int, dtype) -> np.ndarray:
    """The first size entries of pool[name], which is reallocated only to grow."""
    buf = pool.get(name)
    if buf is None or buf.size < size:
        buf = pool[name] = np.empty(size, dtype)
    return buf[:size]


def _csv_rows(columns: Sequence[np.ndarray], scratch: Optional[dict] = None) -> np.ndarray:
    """ASCII bytes of comma-separated integer rows, one row per entry.

    A field is '-' for a negative value followed by the decimal digits of
    its magnitude, so it is exactly str(v).  Each row is first laid out in
    W fixed bytes: per column, a sign slot if any value is negative, a
    digit slot as wide as the column's longest magnitude, and the comma or
    newline.  Magnitudes are taken as uint64, so -2**63 keeps its digits,
    then narrowed to the smallest unsigned type holding the largest one;
    each digit, units first, is one floor division by 10.  A leading zero
    and an unused sign slot are pad bytes (0), and the result is the
    (rows, W) layout with its pad bytes removed.  Non-integer columns
    raise TypeError instead of being truncated.

    Every intermediate array is taken from `scratch`, a dict that a
    caller rendering many chunks passes to each call, so the chunks
    reuse one set of arrays; only the returned bytes are new.
    """
    pool = {} if scratch is None else scratch
    columns = [np.asarray(col) for col in columns]
    fields = []
    width = 0
    for col in columns:
        if not np.can_cast(col.dtype, np.int64):
            raise TypeError(f"cannot render {col.dtype} values as integers")
        low, high = int(col.min(initial=0)), int(col.max(initial=0))
        top = max(-low, high)
        signed, ndig = low < 0, len(str(top))
        fields.append((signed, ndig, np.min_scalar_type(top)))
        width += signed + ndig + 1
    n = columns[0].size
    buf = _scratch(pool, "rows", n * width, np.uint8)

    def slot(offset: int) -> np.ndarray:
        return np.ndarray((n,), np.uint8, buffer=buf, offset=offset, strides=(width,))

    digit = _scratch(pool, "digit", n, np.uint8)
    flag = _scratch(pool, "flag", n, bool)
    pos = 0
    for col, (signed, ndig, dtype) in zip(columns, fields):
        if signed:
            np.less(col, 0, out=flag)
            np.multiply(flag.view(np.uint8), np.uint8(ord("-")), out=slot(pos))
            pos += 1
        rest, quot, tens = (_scratch(pool, name + dtype.char, n, dtype)
                            for name in ("rest", "quot", "tens"))
        # |-2**63| wraps to -2**63 in int64, which the cast to uint64 reads as 2**63
        np.absolute(col, out=rest, dtype=np.int64, casting="unsafe")
        for place in range(ndig):
            np.floor_divide(rest, 10, out=quot)
            np.subtract(rest, np.multiply(quot, 10, out=tens), out=tens)
            np.copyto(digit, tens, casting="unsafe")
            np.add(digit, np.uint8(ord("0")), out=digit)
            if place:  # a leading zero, whose rest is 0, becomes pad
                np.multiply(digit, np.not_equal(rest, 0, out=flag).view(np.uint8), out=digit)
            slot(pos + ndig - 1 - place)[...] = digit
            rest, quot = quot, rest
        pos += ndig
        slot(pos)[...] = ord(",")
        pos += 1
    slot(pos - 1)[...] = ord("\n")
    return buf[np.not_equal(buf, _CSV_PAD, out=_scratch(pool, "keep", buf.size, bool))]


def _keep(party: int, transcript: ProtocolTranscript) -> ProtocolTranscript:
    return transcript


def _run_session(params: ProtocolParams, n_receivers: int, each=_keep) -> tuple:
    """One encoding stream, and each(p, transcript of receiver p) for every receiver p.

    The seed spawns 1 + n_receivers children: child 0 draws Alice's
    (x, r, theta) and, for a Poisson source, the per-round copy counts;
    child 1 + p draws receiver p's detection events and coins.  The m
    copies are split evenly, floor(m / n_receivers) each.  Receiver p is
    drawn only after each has returned for receiver p - 1, and nothing
    here holds a transcript once each returns, so an each that keeps
    none leaves one receiver's outcome array alive at a time.
    """
    n = params.n_rounds
    children = np.random.SeedSequence(params.seed).spawn(1 + n_receivers)
    alice_rng = np.random.default_rng(children[0])
    xs = draw_chunked(n, lambda size: alice_rng.integers(0, 2, size))
    rs = draw_chunked(n, lambda size: alice_rng.integers(0, params.d // 2, size))
    thetas = draw_chunked(n, lambda size: alice_rng.integers(0, params.d + 1, size))
    copies_each = params.m // n_receivers
    if params.photon_statistics == "poisson":
        copies = draw_chunked(n, lambda size: alice_rng.poisson(params.mu, size))
    else:
        copies = copies_each
    t, detector = params.channel.transmittance, params.detector

    return tuple(
        each(p, ProtocolTranscript(
            m=copies_each, x=xs, r=rs, theta=thetas,
            outcome=receiver_outcome(np.random.default_rng(child), xs, copies, t, detector),
        ))
        for p, child in enumerate(children[1:])
    )


def run_protocol(params: ProtocolParams) -> ProtocolTranscript:
    """Simulate a full session toward one receiver; deterministic for a given seed.

    States are never materialized: in the honest protocol Bob's
    conditional outcome law depends only on x and the channel.
    """
    return _run_session(params, 1)[0]


def multiparty_run(params: ProtocolParams, n_parties: int, each=_keep) -> tuple:
    """Run the protocol toward n_parties receivers at once: one transcript per receiver.

    Eve taps at the sender or once per receiver fiber.  All receivers read
    one x and so share one key: an untrusted receiver is an untrusted
    device, not a party kept from the key.  n_parties, a count, is capped
    at floor(sqrt(d)), which rests on the `paper` bounds that attacks beat
    at d >= 16.  The m copies are split evenly, floor(m / n_parties) each,
    every transcript's m; n_parties = 1 reproduces `run_protocol` exactly.
    Given each, receiver p's transcript goes to each(p, transcript) once
    drawn and the tuple of what each returns comes back: a caller that
    writes and summarises each transcript and keeps none holds one
    receiver's outcome array at a time.
    """
    cap = math.isqrt(params.d)
    if count(n_parties, "n_parties") > cap:
        raise ConstraintError(
            f"n_parties = {n_parties} exceeds floor(sqrt(d)) = {cap}, a cap that rests on "
            f"the paper bounds, which attacks beat at d >= 16"
        )
    if params.photon_statistics != "fixed":
        raise ConstraintError("multiparty runs support fixed photon statistics only")
    if params.m < n_parties:
        raise ConstraintError(
            f"m = {params.m} copies split over {n_parties} parties leaves none for some party"
        )
    return _run_session(params, n_parties, each)


def privacy_amplify(bits, seed: int, out_len: int) -> np.ndarray:
    """Compress a bit string with a seeded binary Toeplitz hash.

    The seed expands to the out_len + n - 1 diagonal entries of a Toeplitz
    matrix T over GF(2), T[j, i] = diag[j - i + n - 1] for the n input
    bits; the output is T @ bits mod 2.  Distinct seeds give independent
    hash choices from the family.

    The integer product is one slice of the linear convolution of diag
    and bits, formed with a real FFT zero-padded to the next power of two
    >= out_len + n - 1, the diagonal's length, in O(n log n).  The
    circular product is exact on the kept slice: the convolution's
    entries at fft_len and beyond wrap onto indices below n - 1.  Every
    exact entry is an integer in 0..n, far below 2^53, so the float result
    is rounded and its parity taken; FloatingPointError is raised if any
    entry lies 0.25 or more from its nearest integer.  At the capped FFT
    length the largest distance measured is 4.7e-10 (n = out_len =
    16 000 000, random bits); at n = out_len = 2^24 = 16 777 216, the
    largest size the cap admits, every entry came out exact on random and
    on all-one bits.  The FFT length is capped at
    PRIVACY_AMPLIFY_MAX_FFT_LEN (2^25, about 1.1 GB of working set);
    beyond it CapabilityError is raised before anything is drawn.  Input
    entries must be 0 or 1 (bool, integer or float), and out_len a Python
    int in 0..n; anything else, such as 0.5, NaN, 2 or -1, raises ValueError.
    """
    bits = np.asarray(bits).ravel()
    if bits.dtype.kind not in "biuf" or not np.all((bits == 0) | (bits == 1)):
        raise ValueError("input must be a 0/1 bit string")
    n = bits.size
    if type(out_len) is not int or not 0 <= out_len <= n:  # no bool, float or numpy scalar
        raise ValueError(f"out_len must be in 0..{n}, got {out_len}")
    if out_len == 0:
        return np.zeros(0, dtype=np.uint8)
    fft_len = 1 << (out_len + n - 2).bit_length()
    if fft_len > PRIVACY_AMPLIFY_MAX_FFT_LEN:
        raise CapabilityError(
            f"privacy amplification of {n} -> {out_len} bits needs an FFT of length "
            f"{fft_len}; the exact hash is capped at {PRIVACY_AMPLIFY_MAX_FFT_LEN}"
        )
    rng = np.random.default_rng(seed)
    diag = rng.integers(0, 2, size=out_len + n - 1)
    # out[j] = sum_i diag[j - i + n - 1] bits[i], a convolution slice
    # each input is released once transformed, which keeps the working set
    # within the 32 bytes per point the cap assumes
    spectrum = np.fft.rfft(diag, fft_len)
    del diag
    spectrum *= np.fft.rfft(bits, fft_len)
    conv = np.fft.irfft(spectrum, fft_len)[n - 1 : n - 1 + out_len]
    del spectrum
    counts = np.rint(conv)
    if np.any(np.abs(conv - counts) >= 0.25):
        raise FloatingPointError("FFT convolution is not within 0.25 of an integer")
    return (counts % 2).astype(np.uint8)
