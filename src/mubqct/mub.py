"""Complete sets of mutually unbiased bases in dimension d = 2^k.

The family consists of the computational basis plus one basis per field
element a of GF(2^k), whose vector b has components
(1/sqrt(d)) * i^tr(ax) * (-1)^(Q(ax) + tr(bx)) for x in GF(2^k), with tr
the F2 trace and Q(u) = sum_{i<j} u^(2^i + 2^j) (see `galois`).  In
Galois-ring form this is the classic i^Tr((a + 2b) x), with a, b, x the
Teichmuller representatives in GR(4, k) and Tr the Z4 trace.  These are
the common eigenbases of the d + 1 maximal commuting classes of
generalized Pauli operators; the closed form avoids a numerically fragile
simultaneous diagonalization and is exactly reproducible.

`certify_build(k)` proves the family valid by a lemma on the field's
trace form, from length-d checks of the tables it is written from: O(k^2
d) integer operations and no d x d array, so every k <= galois.MAX_K =
16, against the Theta(d^5) complex multiply-adds of `verify_unbiasedness`,
the float check of any family.  The complex family is built up to
BUILD_MAX_K = 8 (d = 256).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError
from .galois import field_degree, gf_mul, phase_tables
from .models import dimension_k

# Largest k whose complex family is built: 257 bases of 256 x 256 entries
# are 270 MB, and each k more is 8x that
BUILD_MAX_K = 8

# i^n for n mod 4, exact complex literals so the build is bit-reproducible
_PHASES = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])


@dataclass(frozen=True)
class MubFamily:
    """d + 1 orthonormal bases, pairwise unbiased, in dimension d = 2^k.

    `bases[theta][:, i]` is the i-th vector of basis theta; theta = 0 is
    the computational basis.  d is read from the array, whose shape must
    be (d + 1, d, d).  The built family's array is read-only.
    """

    bases: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = self.d if self.bases.ndim else 0
        if self.bases.shape != (d + 1, d, d):
            raise ValueError(f"bases must have shape {(d + 1, d, d)}, got {self.bases.shape}")
        dimension_k(d)

    @property
    def d(self) -> int:
        return self.bases.shape[-1]

    @property
    def n_bases(self) -> int:
        return self.d + 1


@dataclass(frozen=True)
class VerificationReport:
    """Worst-case deviations of a candidate family from exact MUB conditions."""

    d: int
    n_bases: int
    tol: float
    passed: bool
    max_orthonormality_dev: float
    worst_orthonormality: tuple[int, int, int]  # (theta, i, j)
    max_unbiasedness_dev: float
    worst_unbiasedness: tuple[int, int, int, int]  # (theta1, theta2, i, j)
    exact: bool = False  # proved exactly by `certify_build`

    def to_dict(self) -> dict:
        t, i, j = self.worst_orthonormality
        t1, t2, i2, j2 = self.worst_unbiasedness
        return {
            "d": self.d,
            "n_bases": self.n_bases,
            "tol": self.tol,
            "passed": self.passed,
            "exact": self.exact,
            "max_orthonormality_dev": self.max_orthonormality_dev,
            "worst_orthonormality": {"theta": t, "i": i, "j": j},
            "max_unbiasedness_dev": self.max_unbiasedness_dev,
            "worst_unbiasedness": {"theta1": t1, "theta2": t2, "i": i2, "j": j2},
        }


def _field_tables(k: int):
    """(tr2, tr4, perm): the tables the build is written from and the certificate reads.

    tr2 and tr4 are `galois.phase_tables(k)`; perm is the split-balanced
    labeling, vector j of every basis carrying the field label perm[j],
    the k-bit rotation of j one bit to the left.  Even labels fill the
    lower half and odd labels the upper half.  Rows are permuted the same
    way, so basis 0 stays the exact identity (a global unitary, so all
    invariants survive).  perm is GF(2)-linear.  `phase_tables` raises
    ValueError for k outside 1..MAX_K.
    """
    tables = phase_tables(k)
    j = np.arange(1 << k, dtype=np.int64)
    return (*tables, (j << 1 | j >> (k - 1)) & ((1 << k) - 1))


def _exponent_tables(k: int):
    """(E, T): the family's format.  Basis 1 + a has entries s i^(E[a, x] + T[x, j]).

    s = 1/sqrt(d), E[a, x] = tr4(a perm[x]) and T[x, j] = 2 tr2(perm[x]
    perm[j]): int64 Z4 exponents, with a and perm[.] field bitmasks from
    `_field_tables`.  x = 0 gives exponent 0, so row 0 of every basis is
    s.  Only E depends on a.  The d x d products are formed here, so k is
    checked and capped at BUILD_MAX_K before any table is allocated.
    """
    if field_degree(k) > BUILD_MAX_K:
        raise CapabilityError(f"the complex family is built for k <= {BUILD_MAX_K}, got k = {k}")
    tr2, tr4, perm = _field_tables(k)
    product = gf_mul(np.arange(1 << k)[:, None], perm[None, :], k)  # a perm[x]
    return tr4[product], 2 * tr2[product[perm]]


def build_mub_family(k: int) -> MubFamily:
    """Construct the full family of 2^k + 1 mutually unbiased bases.

    Vector order within each basis follows the split-balanced labeling:
    the natural Galois labels u are rotated (u -> u >> 1 with the low bit
    moved to the top) in every basis, and the same permutation is applied
    to the Hilbert-space coordinates.  Under this labeling the two halves
    {i < d/2} and {i >= d/2} that carry the protocol bit are maximally
    symmetric across the family: the averaged half-mixtures reach the
    flat-spectrum trace distance 2/sqrt(d+1) that the closed-form
    discrimination bounds assume.  Deterministic: repeated calls return
    identical arrays.  Built for 1 <= k <= BUILD_MAX_K = 8 (d up to 256);
    k up to galois.MAX_K raises CapabilityError before the family is
    allocated, other k ValueError.
    """
    tables = _exponent_tables(k)  # checks k before the family is allocated
    d = 1 << k
    bases = np.empty((d + 1, d, d), dtype=complex)
    for _ in _write_bases(tables, bases.__getitem__):
        pass

    bases.setflags(write=False)
    return MubFamily(bases)


def _write_bases(tables, slot):
    """Write the family's bases in order, yielding each: the family's layout.

    Basis 0 is the identity and basis 1 + a is written from tables, the
    (E, T) of `_exponent_tables(k)`; basis theta is stored into
    slot(theta), a d x d complex array, so a slot that always returns one
    buffer holds one basis at a time.
    """
    e, t = tables
    scaled = _PHASES * (1.0 / np.sqrt(len(t)))
    out = slot(0)
    out.fill(0)
    np.fill_diagonal(out, 1.0)
    yield out
    # the exponents lie in 0..3, so mode="clip" never clips; unlike the
    # default "raise", it writes into the slot without buffering a copy of it
    for a, row in enumerate(e):
        yield np.take(scaled, (row[:, None] + t) & 3, out=slot(1 + a), mode="clip")


def is_built_family(family: MubFamily) -> bool:
    """Whether family holds exactly the bases `build_mub_family` returns for its k.

    Each basis is written into one d x d buffer and compared there, so
    the check holds one basis beside the family, not a second family.
    """
    d = family.d
    buf = np.empty((d, d), dtype=complex)
    tables = _exponent_tables(d.bit_length() - 1)
    return all(
        np.array_equal(family.bases[theta], basis)
        for theta, basis in enumerate(_write_bases(tables, lambda theta: buf))
    )


def verify_unbiasedness(family: MubFamily, tol: float = 1e-9) -> VerificationReport:
    """Exhaustively check orthonormality and pairwise unbiasedness in floats.

    The float reference for any family, whatever its construction;
    `certify_build` proves the built one exactly and never calls it.
    Reports the largest absolute deviation from <e_i|e_j> = delta_ij within
    each basis and from |<e_i|f_j>| = 1/sqrt(d) across distinct bases,
    together with the indices achieving them; ties go to the first maximum
    in (theta1, theta2, i, j) order.  One d x d product per basis pair:
    B^H B - I for each basis, |B_t1^H B_t2| - 1/sqrt(d) for each later t2.
    """
    bases, d, n = family.bases, family.d, family.n_bases
    target, eye = 1.0 / np.sqrt(d), np.eye(d)
    max_ortho, worst_ortho = -1.0, (0, 0, 0)
    max_unb, worst_unb = -1.0, (0, 1, 0, 0)
    for t1 in range(n):
        adjoint = bases[t1].conj().T
        dev = np.abs(adjoint @ bases[t1] - eye)
        i, j = np.unravel_index(np.argmax(dev), dev.shape)
        if dev[i, j] > max_ortho:
            max_ortho, worst_ortho = float(dev[i, j]), (t1, int(i), int(j))
        for t2 in range(t1 + 1, n):
            dev = np.abs(adjoint @ bases[t2])
            dev -= target
            np.abs(dev, out=dev)
            i, j = np.unravel_index(np.argmax(dev), dev.shape)
            if dev[i, j] > max_unb:
                max_unb, worst_unb = float(dev[i, j]), (t1, t2, int(i), int(j))

    return VerificationReport(
        d=d,
        n_bases=n,
        tol=tol,
        passed=bool(max_ortho <= tol and max_unb <= tol),
        max_orthonormality_dev=max_ortho,
        worst_orthonormality=worst_ortho,
        max_unbiasedness_dev=max_unb,
        worst_unbiasedness=worst_unb,
    )


def certify_build(k: int, tol: float = 1e-9) -> VerificationReport:
    """Prove the MUB conditions of `build_mub_family(k)` with exact integer arithmetic.

    `_trace_form_failure` proves them, without forming them, for the tables
    (E, T) that `_exponent_tables(k)` writes from `_field_tables(k)`; each
    entry of basis 1 + a is the exact lookup s i^(E[a, x] + T[x, j]), s =
    1/sqrt(d) rounded, and basis 0 is the identity.  So every inner
    product is an integer sum times s * s: d s^2 on the diagonals and 0
    off them within a basis, and of modulus sqrt(d) s^2 exactly across
    bases; the overlaps with basis 0 are the entries, of modulus s.  Each
    deviation takes one value over all its entries, and ties go to the
    first entry in (theta, i, j) order as in `verify_unbiasedness`.
    Covers every k <= galois.MAX_K and builds no family: tables that fail
    a check of the lemma raise ValueError naming that check.
    """
    failed = _trace_form_failure(*_field_tables(k))
    if failed is not None:
        raise ValueError(f"the trace tables of k = {k} fail the certificate's {failed} check")
    return _exact_report(1 << k, tol)


def _exact_report(d: int, tol: float) -> VerificationReport:
    """The report of a certified family: each deviation is one rounding of s = 1/sqrt(d)."""
    s = 1.0 / np.sqrt(d)
    ss = s * s
    max_ortho = float(abs(d * ss - 1.0))
    max_unb = float(abs(np.sqrt(d) * ss - s))
    return VerificationReport(
        d=d,
        n_bases=d + 1,
        tol=tol,
        passed=bool(max_ortho <= tol and max_unb <= tol),
        max_orthonormality_dev=max_ortho,
        worst_orthonormality=(1, 0, 0) if max_ortho > 0 else (0, 0, 0),
        max_unbiasedness_dev=max_unb,
        worst_unbiasedness=(1, 2, 0, 0) if max_unb > 0 else (0, 1, 0, 0),
        exact=True,
    )


def _trace_form_failure(tr2: np.ndarray, tr4: np.ndarray, perm: np.ndarray) -> str | None:
    """The first failed check of the trace-form lemma on the tables of `_exponent_tables`,
    or None when they prove the MUB conditions exactly.

    With d = 2^k, basis 1 + a is i^E[a, x] (-1)^tr2(perm[x] perm[j]) /
    sqrt(d), E[a, x] = tr4(a perm[x]), products by `galois.gf_mul`.  On
    length-d arrays and the generators g = 1 << i, the checks, in order:

    - "field": the modulus gives a field, u u^(d - 2) = 1 for every u != 0;
    - "character": tr2 is 0/1 valued and tr2(u ^ g) = tr2(u) ^ tr2(g);
    - "Z4 form": tr4, shifted to tr4(0) = 0 (a global phase of every
      basis), has bilinear part 2 tr2(uv): tr4(u ^ g) - tr4(u) - tr4(g) =
      2 tr2(ug) (mod 4), which extends over the bits of v to all v;
    - "nondegenerate trace form": u -> (tr2(u g_i))_i is onto (Z2)^k,
      i.e. the Gram matrix tr2(g_i g_j) has rank k;
    - "linear onto perm": perm(x ^ g) = perm(x) ^ perm(g), and perm is onto.

    The lemma: row a of E is tr4 under the linear map x -> a perm[x], so
    rows a != a' differ by a form q whose bilinear part B(x, y) = 2
    tr2((a ^ a')^2 perm[x] perm[y]) is nondegenerate.  The columns are
    distinct characters of x, so each basis is orthonormal, and the
    overlaps of bases a, a' are S / d with S = sum_x i^q(x) (-1)^(b . x)
    for masks b; writing x = y ^ z, |S|^2 = sum_z i^q(z) (-1)^(b . z)
    sum_y (-1)^B(z, y) = d.  So None proves the family (Hammons et al.
    1994 for the Z4 trace, Lidl & Niederreiter 1997 for the trace form).
    Cost: O(k^2 d) integer operations.
    """
    d = len(tr2)
    k = d.bit_length() - 1
    u = np.arange(d, dtype=np.int64)
    generators = [1 << i for i in range(k)]

    def additive(table):  # table[u ^ g] = table[u] ^ table[g] for every generator g
        return all(np.array_equal(table[u ^ g], table ^ table[g]) for g in generators)

    square = gf_mul(u, u, k)
    conj, inverse = u, np.ones_like(u)  # inverse = u^(2 + 4 + ... + 2^(k-1))
    for _ in range(k - 1):
        conj = square[conj]
        inverse = gf_mul(inverse, conj, k)
    if not np.all(gf_mul(u, inverse, k)[1:] == 1):
        return "field"
    if not (np.all((tr2 == 0) | (tr2 == 1)) and additive(tr2)):
        return "character"
    q = (tr4 - tr4[0]) % 4
    dual = np.zeros_like(u)  # dual[u] = the mask of tr2(u g_i) over i
    for i, g in enumerate(generators):
        form = tr2[gf_mul(u, g, k)]
        if not np.array_equal((q[u ^ g] - q - q[g]) % 4, 2 * form):
            return "Z4 form"
        dual |= form << i
    if not np.array_equal(np.sort(dual), u):
        return "nondegenerate trace form"
    if not (additive(perm) and np.array_equal(np.sort(perm), u)):
        return "linear onto perm"
    return None

