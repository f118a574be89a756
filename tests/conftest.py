import functools
import math
from typing import Sequence

import numpy as np
import pytest

from mubqct import MubFamily, build_mub_family, half_projector


# i^w for w = 0..3, split into exact real and imaginary parts
_RE = np.array([1.0, 0.0, -1.0, 0.0])
_IM = np.array([0.0, 1.0, 0.0, -1.0])


def reference_mub_check(e: np.ndarray, h: np.ndarray) -> bool:
    """Exact MUB conditions of the bases i^e[a, x] h[x, j] / sqrt(d), by Gaussian sums.

    The independent reference for `mub.exact_mub_check`, which decides
    the same from Z4 quadratic forms.  e is an (n, d) Z4 exponent table,
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


@functools.lru_cache(maxsize=None)
def cached_family(k: int):
    return build_mub_family(k)


@pytest.fixture(scope="session")
def family():
    """Session-cached family constructor, keyed by the exponent k."""
    return cached_family


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


def trace_norm(a: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix (sum of absolute eigenvalues)."""
    a = np.asarray(a, dtype=complex)
    if np.max(np.abs(a - a.conj().T)) > 1e-9:
        raise ValueError("matrix is not Hermitian within 1e-9")
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def commuting_classes(family: MubFamily) -> np.ndarray:
    """Sizes n_g of the classes of pairwise commuting split observables.

    The dense reference behind `security.lambda_exact`.  Checks, by the
    largest entry deviation within 1e-9, that every Z_theta = 2 P_theta^0
    - I squares to I, that every pair commutes or anticommutes, and that
    commuting is transitive, so distinct classes anticommute; ValueError
    otherwise.  The products are formed one row (Z_t Z and Z Z_t) at a
    time: Theta(d^4) complex work, 1.8 s at d = 64.
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
