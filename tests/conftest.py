import functools
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
