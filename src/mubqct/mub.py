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

`certify_build(k)` proves the built family valid from the integer
tables it is written from (`_exponent_tables`): orthonormality and the
|<e_i|f_j>| = 1/sqrt(d) overlap law follow from the Z4 quadratic forms of
the tables, in O(k d^2) integer operations and d(d - 1)/2 GF(2) ranks of
k x k matrices, in place of the Theta(d^5) complex multiply-adds of
`verify_unbiasedness`, the float check of any family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .galois import MAX_K, phase_tables
from .models import Dimension

# i^n for n mod 4, exact complex literals so the build is bit-reproducible
_PHASES = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])

# Largest cross-basis product verification forms at once, in entries:
# 2^17 complex entries are 2.1 MB, 8 bases per block at d = 128.  Blocks
# of 2^14 to 2^20 entries measured equally fast at d = 64 and 128.
_VERIFY_BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class MubFamily:
    """d + 1 orthonormal bases, pairwise unbiased.

    `bases[theta][:, i]` is the i-th vector of basis theta; theta = 0 is
    the computational basis.  The array is read-only.
    """

    dimension: Dimension
    bases: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = self.dimension.d
        if self.bases.shape != (d + 1, d, d):
            raise ValueError(f"bases must have shape {(d + 1, d, d)}, got {self.bases.shape}")

    @property
    def d(self) -> int:
        return self.dimension.d

    @property
    def n_bases(self) -> int:
        return self.dimension.d + 1


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


def _exponent_tables(k: int):
    """(E, T): the family's format.  Basis 1 + a has entries s i^(E[a, x] + T[x, j]).

    s = 1/sqrt(d), E[a, x] = tr4(a perm[x]) and T[x, j] = 2 tr2(perm[x]
    perm[j]): int64 Z4 exponents, with a and perm[.] field bitmasks.  x = 0
    gives exponent 0, so row 0 of every basis is s.  Only E depends on a.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in 1..{MAX_K}, got {k}")
    d = 1 << k
    mul, tr2, tr4 = phase_tables(k)

    # split-balanced labeling: even Galois labels fill the lower half,
    # odd labels the upper half; permuting rows identically keeps theta=0
    # the exact identity (a global unitary, so all invariants survive).
    # Each basis is written already permuted, so the build holds one copy.
    perm = np.array(
        [2 * j if j < d // 2 else 2 * (j - d // 2) + 1 for j in range(d)], dtype=np.int64
    )
    return tr4[mul[:, perm]], 2 * tr2[mul[np.ix_(perm, perm)]]


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
    identical arrays.  Supported for 1 <= k <= 8 (d up to 256).
    """
    dim = Dimension.from_k(k)
    bases = np.empty((dim.d + 1, dim.d, dim.d), dtype=complex)
    for _ in _write_bases(k, bases.__getitem__):
        pass

    bases.setflags(write=False)
    return MubFamily(dimension=dim, bases=bases)


def _write_bases(k: int, slot):
    """Write the family's bases in order, yielding each: the family's layout.

    Basis 0 is the identity and basis 1 + a is written from
    `_exponent_tables(k)`; basis theta is stored into slot(theta), a d x d
    complex array, so a slot that always returns one buffer holds one
    basis at a time.
    """
    e, t = _exponent_tables(k)
    scaled = _PHASES * (1.0 / np.sqrt(1 << k))
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
    return family.bases.shape == (d + 1, d, d) and all(
        np.array_equal(family.bases[theta], basis)
        for theta, basis in enumerate(_write_bases(family.dimension.k, lambda theta: buf))
    )


def verify_unbiasedness(family: MubFamily, tol: float = 1e-9) -> VerificationReport:
    """Exhaustively check orthonormality and pairwise unbiasedness in floats.

    The float reference for any family, whatever its construction;
    `certify_build` proves the built one exactly and falls back to it.
    Reports the largest absolute deviation from <e_i|e_j> = delta_ij within
    each basis and from |<e_i|f_j>| = 1/sqrt(d) across distinct bases,
    together with the indices achieving them; ties go to the first maximum
    in (theta1, theta2, i, j) order.  Each basis is multiplied once against
    the columns of all later bases, in column blocks of at most
    _VERIFY_BLOCK_ENTRIES products, so memory stays bounded at any d.
    """
    bases = family.bases
    d = family.d
    n = family.n_bases
    target = 1.0 / np.sqrt(d)
    eye = np.eye(d)
    bases_per_block = max(1, _VERIFY_BLOCK_ENTRIES // (d * d))

    max_ortho = -1.0
    worst_ortho = (0, 0, 0)
    for theta in range(n):
        dev = np.abs(bases[theta].conj().T @ bases[theta] - eye)
        idx = np.unravel_index(np.argmax(dev), dev.shape)
        if dev[idx] > max_ortho:
            max_ortho = float(dev[idx])
            worst_ortho = (theta, int(idx[0]), int(idx[1]))

    max_unb = -1.0
    worst_unb = (0, 1, 0, 0)
    for t1 in range(n):
        adjoint = bases[t1].conj().T
        for lo in range(t1 + 1, n, bases_per_block):
            hi = min(lo + bases_per_block, n)
            # cols[:, (t2 - lo) * d + j] is vector j of basis t2
            cols = bases[lo:hi].transpose(1, 0, 2).reshape(d, (hi - lo) * d)
            dev = np.abs(adjoint @ cols)
            dev -= target
            np.abs(dev, out=dev)
            if dev.max() > max_unb:
                dev = dev.reshape(d, hi - lo, d).transpose(1, 0, 2)  # [t2 - lo, i, j]
                idx = np.unravel_index(np.argmax(dev), dev.shape)
                max_unb = float(dev[idx])
                worst_unb = (t1, lo + int(idx[0]), int(idx[1]), int(idx[2]))

    passed = bool(max_ortho <= tol and max_unb <= tol)
    return VerificationReport(
        d=d,
        n_bases=n,
        tol=tol,
        passed=passed,
        max_orthonormality_dev=max_ortho,
        worst_orthonormality=worst_ortho,
        max_unbiasedness_dev=max_unb,
        worst_unbiasedness=worst_unb,
    )


def certify_build(k: int, tol: float = 1e-9) -> VerificationReport:
    """Prove the MUB conditions of `build_mub_family(k)` with exact integer arithmetic.

    `exact_mub_check(E, 1 - T)` proves them for the tables (E, T) =
    `_exponent_tables(k)` that the build writes from; each entry of basis
    1 + a is then the exact lookup s i^(E[a, x] + T[x, j]), s = 1/sqrt(d)
    rounded, and basis 0 is the identity.  So every inner product is an
    integer sum times s * s: d s^2 on the diagonals and 0 off them within
    a basis, and of modulus sqrt(d) s^2 exactly across bases; the
    overlaps with basis 0 are the entries, of modulus s.  Each deviation
    takes one value over all its entries, and ties go to the first entry
    in (theta, i, j) order as in `verify_unbiasedness`.  No complex array
    is formed.  A failed certificate returns `verify_unbiasedness` of the
    built family, whose float check decides and locates the deviation;
    its report has exact = False.
    """
    e, t = _exponent_tables(k)
    if not exact_mub_check(e, 1 - t):
        return verify_unbiasedness(build_mub_family(k), tol)
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


def exact_mub_check(e: np.ndarray, h: np.ndarray) -> bool:
    """Exact MUB conditions of the bases i^e[a, x] h[x, j] / sqrt(d), from Z4 quadratic forms.

    e is an (n, d) Z4 exponent table, one row per basis, and h a (d, d)
    array of +-1 shared by all n bases.  With d = 2^k, a row index x is a
    vector of (Z2)^k written as a k-bit mask, and g runs over the
    generators 1 << i.  A global phase of a basis or of one vector moves
    no overlap modulus, so the rows of e are first shifted to e[a, 0] = 0
    and the columns of h signed to h[0, j] = 1.  Then the check asks:

    - h is a character table with distinct columns: h[x ^ g] = h[x] h[g]
      for every g.  So h[x, j] = (-1)^(c_j . x) with distinct masks c_j,
      which cover (Z2)^k, and vectors j, j' of one basis have inner
      product sum_x (-1)^((c_j ^ c_j') . x) / d = delta_jj'.
    - Each row is a Z4 quadratic form: e[a, x ^ g] - e[a, x] - e[a, g]
      = 2 <B_a g, x> (mod 4) for every g and x, with the k-bit mask
      B_a g read off at the x = 1 << i.  By induction over the bits of y,
      e[a, x ^ y] = e[a, x] + e[a, y] + 2 <B_a y, x> for all x and y.
    - Every B_a ^ B_a' with a < a' has GF(2) rank k.

    That decides unbiasedness exactly.  Entry (j, j') of the Gram matrix
    of bases a < a' is S / d with S = sum_x i^q(x) (-1)^(c . x),
    q = e[a'] - e[a] a form with bilinear part B = B_a ^ B_a' and
    c = c_j ^ c_j'.  Writing x = y ^ z,

        |S|^2 = sum_z i^q(z) (-1)^(c . z) sum_y (-1)^<B z, y>
              = d sum_{z in rad} i^q(z) (-1)^(c . z),   rad = ker B,

    which is d when the radical is zero.  Otherwise q(z) = <B z, z> = 0
    (mod 2) on rad and q is additive there, so i^q is a +-1 character of
    rad; the c that matches it makes every term 1, and |S|^2 = d |rad| > d.
    A table outside the form returns False, so True never certifies a
    biased set.  Cost: O(k n d) integer operations for the forms and
    O(n^2 k^2) bit operations for the ranks, eliminated for all pairs at
    once.
    """
    d = len(h)
    k = d.bit_length() - 1
    if d & (d - 1) or not np.all(np.abs(h) == 1):
        return False
    h = h * h[0]
    e = (e - e[:, :1]) % 4
    x = np.arange(d)
    gens = 1 << np.arange(k)
    if not all(np.array_equal(h[x ^ g], h * h[g]) for g in gens):
        return False
    if np.count_nonzero(np.bincount((h[gens] < 0).T @ gens, minlength=d)) < d:  # masks c_j
        return False
    parity = np.bitwise_xor.reduce((x[:, None] >> np.arange(k)) & 1, axis=1)
    masks = np.empty((len(e), k), dtype=np.min_scalar_type(d - 1))  # masks[a, i] = B_a g_i
    for i, g in enumerate(gens):
        two_b = (e[:, x ^ g] - e - e[:, g : g + 1]) % 4
        masks[:, i] = (two_b[:, gens] >> 1) @ gens
        if not np.array_equal(two_b, 2 * parity[masks[:, i : i + 1] & x]):
            return False
    # rank k of every B_a ^ B_a': each column in turn must keep a pivot
    # bit, its lowest, which is then cleared from the later columns
    a, b = np.triu_indices(len(e), 1)
    pairs = masks[a] ^ masks[b]
    for r in range(k):
        col = pairs[:, r]
        pivot = col & -col
        if not pivot.all():
            return False
        rest = pairs[:, r + 1 :]
        rest ^= np.where(rest & pivot[:, None], col[:, None], 0)
    return True


def basis_state(family: MubFamily, theta: int, i: int) -> np.ndarray:
    """The i-th vector of basis theta, as a length-d complex array."""
    if not 0 <= theta < family.n_bases:
        raise ValueError(f"theta must be in 0..{family.n_bases - 1}, got {theta}")
    if not 0 <= i < family.d:
        raise ValueError(f"i must be in 0..{family.d - 1}, got {i}")
    return family.bases[theta][:, i].copy()


def half_projector(family: MubFamily, theta: int, x: int) -> np.ndarray:
    """Projector onto half x of basis theta.

    Half x is spanned by the vectors (d/2) x <= i < (d/2) (x + 1), so the
    two halves sum to the identity.
    """
    if not 0 <= theta < family.n_bases:
        raise ValueError(f"theta must be in 0..{family.n_bases - 1}, got {theta}")
    if x not in (0, 1):
        raise ValueError(f"x must be 0 or 1, got {x!r}")
    half = family.d // 2
    cols = family.bases[theta][:, x * half : (x + 1) * half]
    return cols @ cols.conj().T
