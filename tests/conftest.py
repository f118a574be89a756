import functools
from typing import Sequence

import numpy as np
import pytest

from mubqct import MubFamily, build_mub_family, half_projector


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
