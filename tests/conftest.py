import functools
import itertools
import math
from typing import Sequence

import numpy as np
import pytest

from mubqct import MubFamily, build_mub_family
from mubqct.galois import gf_mul


# i^w for w = 0..3, split into exact real and imaginary parts
_RE = np.array([1.0, 0.0, -1.0, 0.0])
_IM = np.array([0.0, 1.0, 0.0, -1.0])


def reference_mub_check(e: np.ndarray, h: np.ndarray) -> bool:
    """Exact MUB conditions of the bases i^e[a, x] h[x, j] / sqrt(d), by Gaussian sums.

    The independent reference for `exact_mub_check`, which decides the
    same from Z4 quadratic forms.  e is an (n, d) Z4 exponent table,
    one row per basis, and h a (d, d) array of +-1 shared by all n bases.
    Vectors j and j' of one basis have inner product (h^T h)[j, j'] / d,
    so each basis is orthonormal iff h^T h = d I.  For every column j,
    h^T (h[:, j] * h) must be d times a signed permutation: then
    h[:, i] * h[:, j] = +-h[:, c], and entry (i, j) of the Gram matrix of
    bases a < a' is +-S(c) / d with S(c) = sum_x i^(e[a', x] - e[a, x])
    h[x, c].  So the bases are unbiased iff every |S(c)|^2 = d.  All
    values are small integers, so the float64 products are exact:
    Theta(n^2 d^2 + d^4) real multiply-adds in all.
    """
    d = len(h)
    if not (np.all(np.abs(h) == 1) and np.array_equal(h.T @ h, d * np.eye(d))):
        return False
    for a in range(len(e) - 1):
        w = (e[a + 1 :] - e[a]) % 4
        re, im = _RE[w] @ h, _IM[w] @ h
        if not np.all(re * re + im * im == d):
            return False
    for j in range(d):
        m = np.abs(h.T @ (h[:, j : j + 1] * h))
        if not (np.all(np.count_nonzero(m == d, axis=0) == 1) and np.count_nonzero(m) == d):
            return False
    return True


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
    once.  The reference for `mub._trace_form_failure` at k <= 8, which
    decides the built tables from the field's traces without forming them.
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


def z4_form(bases, d: int):
    """(E, h) with bases[a][x, j] == s i^E[a, x] h[x, j] exactly, or None; s = 1/sqrt(d).

    The float decoder of a stored family: the reference that the build's
    bytes are its integer tables.  bases yields the d bases after the
    computational one; E[a, x] is read from column 0, so h[:, 0] = 1.  An
    entry off the four points s i^e, or a basis whose +-1 pattern differs
    from the first one's, gives None.
    """
    s = 1.0 / np.sqrt(d)
    e = np.empty((d, d), dtype=np.int64)
    h = None
    for a, basis in enumerate(bases):
        re, im = basis.real, basis.imag
        on_axis = ((np.abs(re) == s) & (im == 0)) | ((re == 0) & (np.abs(im) == s))
        if not on_axis.all():
            return None
        expo = (im == s) + 2 * (re == -s) + 3 * (im == -s)  # s i^expo
        e[a] = expo[:, 0]
        # flips of 0 and 2 give +-1; an odd flip leaves a 0 or -2, which
        # differs from h or fails the +-1 test of exact_mub_check
        pattern = 1 - (expo - expo[:, :1]) % 4
        if h is None:
            h = pattern
        elif not np.array_equal(pattern, h):
            return None
    return e, h


@functools.lru_cache(maxsize=None)
def mul_table(k: int) -> np.ndarray:
    """The d x d GF(2^k) product table, mul[a, b] = gf_mul(a, b, k), read-only."""
    u = np.arange(1 << k, dtype=np.int64)
    mul = gf_mul(u[:, None], u[None, :], k)
    mul.setflags(write=False)
    return mul


@functools.lru_cache(maxsize=None)
def cached_family(k: int):
    return build_mub_family(k)


@pytest.fixture(scope="session")
def family():
    """Session-cached family constructor, keyed by the exponent k."""
    return cached_family


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


def f_operator(family: MubFamily, omega: Sequence[int]) -> np.ndarray:
    """The adversary's score operator for outcome string omega.

    omega assigns one binary outcome per basis; the operator averages the
    corresponding half-space projectors with weight 2/d each, so its trace
    is d + 1 regardless of omega.  The brute-force reference for lambda.
    """
    d = family.d
    omega = list(omega)
    if len(omega) != d + 1:
        raise ValueError(f"omega must have length d + 1 = {d + 1}, got {len(omega)}")
    if any(w not in (0, 1) for w in omega):
        raise ValueError("omega entries must be 0 or 1")
    f = np.zeros((d, d), dtype=complex)
    for theta, w in enumerate(omega):
        f += (2.0 / d) * half_projector(family, theta, w)
    return f


@functools.lru_cache(maxsize=None)
def copy_states(d: int, m: int) -> list[list[np.ndarray]]:
    """rho_{theta,x}^(x m) per theta and x, rho_{theta,x} = (2/d) `half_projector`(theta, x),
    on the built family."""
    family = cached_family(d.bit_length() - 1)
    rhos = [[(2.0 / d) * half_projector(family, theta, x) for x in (0, 1)] for theta in range(d + 1)]
    return [[functools.reduce(np.kron, [rho] * m) for rho in pair] for pair in rhos]


@functools.lru_cache(maxsize=None)
def _whitened(d: int, m: int) -> tuple[np.ndarray, list[list[np.ndarray]]]:
    """(whiten, white): whiten maps onto the support of rho = sum_{theta,x}
    `copy_states`, scaled so that whiten^+ rho whiten = I, and white holds each
    state as whiten^+ rho_{theta,x}^(x m) whiten."""
    powers = copy_states(d, m)
    vals, vecs = np.linalg.eigh(sum(p0 + p1 for p0, p1 in powers))
    support = vals > 1e-9 * vals[-1]
    whiten = vecs[:, support] / np.sqrt(vals[support])  # the 2(d+1) of A and rho cancel
    return whiten, [[whiten.conj().T @ p @ whiten for p in pair] for pair in powers]


@functools.lru_cache(maxsize=None)
def per_outcome_guess(d: int, m: int) -> float:
    """The most one outcome of any m-copy measurement guesses x right, on the built family.

    Eve's outcome string omega in {0,1}^(d+1) scores A_omega = sum_theta
    rho_{theta,omega_theta}^(x m) / (2(d+1)) (`copy_states`) against the
    average state rho = sum_{theta,x} rho_{theta,x}^(x m) / (2(d+1)).  The
    value is the largest eigenvalue of rho^(-1/2) A_omega rho^(-1/2) on
    rho's support, maximised over omega: the conditional success of the
    outcome Eve keeps when loss lets her forward only the rounds that give
    it.  Dense reference for d^m <= 64: 2^(d+1) eigensolves of at most
    d^m x d^m.
    """
    _, white = _whitened(d, m)
    return max(
        float(np.linalg.eigvalsh(sum(w[x] for w, x in zip(white, omega)))[-1])
        for omega in itertools.product((0, 1), repeat=d + 1)
    )


def _weyl_operators(d: int) -> list[np.ndarray]:
    """The d^2 Weyl operators X^a Z^b, |j> -> (-1)^(b . j) |j ^ a>, as real d x d matrices."""
    j = np.arange(d)
    parity = np.array([[bin(b & i).count("1") & 1 for i in j] for b in j])
    ops = []
    for a, b in itertools.product(j, repeat=2):
        op = np.zeros((d, d))
        op[j ^ a, j] = 1 - 2 * parity[b]
        ops.append(op)
    return ops


@functools.lru_cache(maxsize=None)
def orbit_attack(d: int, m: int) -> tuple[np.ndarray, ...]:
    """Eve's Weyl-orbit POVM on m copies: the elements W^(x m) M W^(x m)^+ / c, one per Weyl operator W.

    M = V V^+, where V is whiten (`_whitened`) applied to the top
    eigenvectors of an outcome string omega whose top eigenvalue is
    `per_outcome_guess`, so an element that fires guesses with that
    conditional success.  V spans the whole top eigenspace (6-dimensional
    at (4, 3)), so the elements do not depend on which eigenvectors the
    solver returns.  c, the largest eigenvalue of the orbit's sum, makes
    the elements sum to at most I; the rest of I is the element on which
    Eve forwards nothing.  Of the strings that attain the value, the one
    whose POVM accepts the most, sum_W tr(rho E_W) (rho as in
    `per_outcome_guess`), is taken.
    """
    whiten, white = _whitened(d, m)
    best = per_outcome_guess(d, m)
    weyl = [functools.reduce(np.kron, [op] * m) for op in _weyl_operators(d)]
    rho = sum(p0 + p1 for p0, p1 in copy_states(d, m)) / (2 * (d + 1))
    povm, most = (), -1.0
    for omega in itertools.product((0, 1), repeat=d + 1):
        vals, vecs = np.linalg.eigh(sum(w[x] for w, x in zip(white, omega)))
        top = vals >= best - 1e-9
        if not top.any():
            continue
        orbit = [op @ whiten @ vecs[:, top] for op in weyl]
        elements = [v @ v.conj().T for v in orbit]
        total = sum(elements)
        c = np.linalg.eigvalsh(total)[-1]
        accepted = np.trace(rho @ total).real / c
        if accepted > most:
            povm, most = tuple(e / c for e in elements), accepted
    return povm


def trace_norm(a: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix (sum of absolute eigenvalues)."""
    a = np.asarray(a, dtype=complex)
    if np.max(np.abs(a - a.conj().T)) > 1e-9:
        raise ValueError("matrix is not Hermitian within 1e-9")
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def split_relations(family: MubFamily) -> tuple[np.ndarray, np.ndarray]:
    """(z, commute): the split observables Z_theta = 2 P_theta^0 - I and which pairs commute.

    The dense reference behind `security.lambda_exact`.  Checks, by the
    largest entry deviation within 1e-9, that every Z_theta squares to I,
    that every pair commutes or anticommutes, and that commuting is
    transitive, so distinct classes anticommute; ValueError otherwise.
    The products are formed one row (Z_t Z and Z Z_t) at a time:
    Theta(d^4) complex work, 1.8 s at d = 64.
    """
    d = family.d
    cols = family.bases[:, :, : d // 2]
    z = 2.0 * cols @ cols.conj().transpose(0, 2, 1) - np.eye(d)
    commute = np.empty((family.n_bases, family.n_bases), dtype=bool)
    for t, z_t in enumerate(z):
        left, right = z_t @ z, z @ z_t
        commute[t] = np.abs(left - right).max(axis=(1, 2)) <= 1e-9
        anti = np.abs(left + right).max(axis=(1, 2)) <= 1e-9
        if np.abs(left[t] - np.eye(d)).max() > 1e-9 or not np.all(commute[t] | anti):
            raise ValueError(f"split observable {t} breaks the Pauli relations within 1e-9")
    if not (np.array_equal(commute, commute.T) and np.array_equal(commute @ commute, commute)):
        raise ValueError("commutation of the split observables is not symmetric and transitive")
    return z, commute


def commuting_classes(family: MubFamily) -> np.ndarray:
    """Sizes n_g of the classes of pairwise commuting split observables (`split_relations`)."""
    _, commute = split_relations(family)
    first = commute.argmax(axis=1) == np.arange(family.n_bases)  # each class's first member
    return commute.sum(axis=1)[first]


def lambda_from_classes(family: MubFamily) -> float:
    """lambda = (d+1)/d + sqrt(sum_g n_g^2) / d over the `commuting_classes` of any family."""
    d = family.d
    return (d + 1) / d + math.sqrt(sum(int(n) ** 2 for n in commuting_classes(family))) / d


def encoding_average_state(family: MubFamily, x: int) -> np.ndarray:
    """Average signal state for bit x over the sub-index and the basis."""
    if x not in (0, 1):
        raise ValueError(f"x must be 0 or 1, got {x!r}")
    d = family.d
    rho = np.zeros((d, d), dtype=complex)
    for theta in range(d + 1):
        rho += half_projector(family, theta, x)
    return rho * (2.0 / (d * (d + 1.0)))


def helstrom_spectral(family: MubFamily, m: int) -> float:
    """Optimal discrimination probability of the two m-copy bit states of any family.

    The dense reference behind `security.helstrom_exact`: (1 +
    ||rho_0^(x m) - rho_1^(x m)||_1 / 2) / 2 from one eigendecomposition
    rho_0 = V diag(a) V^H, which also diagonalises rho_1 when the two
    states commute; the d^m eigenvalue products are formed, no Kronecker
    power.  ValueError is raised if rho_0's Hermiticity error or the
    residual of V^H rho_1 V off its real diagonal exceeds 1e-9.
    """
    rho0 = encoding_average_state(family, 0)
    rho1 = encoding_average_state(family, 1)
    if np.max(np.abs(rho0 - rho0.conj().T)) > 1e-9:
        raise ValueError("rho_0 is not Hermitian within 1e-9")
    a, v = np.linalg.eigh(rho0)
    rho1_in_v = v.conj().T @ rho1 @ v
    b = np.diagonal(rho1_in_v).real
    if np.max(np.abs(rho1_in_v - np.diag(b))) > 1e-9:
        raise ValueError("rho_1 is not diagonal in rho_0's eigenbasis within 1e-9")
    a_m, b_m = a, b
    for _ in range(m - 1):
        a_m = np.multiply.outer(a_m, a).ravel()
        b_m = np.multiply.outer(b_m, b).ravel()
    return 0.5 + float(np.abs(a_m - b_m).sum()) / 4.0
