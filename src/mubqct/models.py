"""Validated plain-data definitions shared by the layers, without numpy.

The Hilbert-space dimension, the fiber and detector models with their
presets, the names of the guessing-bound sources and the sweep's cell
cap.  `mub`, `detection`, `protocol`, `security`, `ratemodel` and `cli`
import them from here, so the closed-form layer and the CLI's argument
handling load no array library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# the guessing-bound sources of `security.pguess`, which the rate model and
# the CLI's --bounds-source choices take, and the one they default to
BOUNDS_SOURCES = ("paper", "certified")
DEFAULT_BOUNDS_SOURCE = "paper"

# Largest number of (profile, d, L) cells `ratemodel.sweep` evaluates: a cell
# costs about 650 traced bytes through the sweep and its CSV, so ~1.4 GB at
# the cap.  The CLI checks a grid against it before building the grid.
SWEEP_MAX_CELLS = 1 << 21


@dataclass(frozen=True)
class Dimension:
    """A power-of-two Hilbert space dimension d = 2^k."""

    k: int
    d: int

    def __post_init__(self):
        if type(self.k) is not int or type(self.d) is not int:  # no bool, float or numpy scalar
            raise ValueError(f"k and d must be ints, got k={self.k!r}, d={self.d!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.d != 1 << self.k:
            raise ValueError(f"d must equal 2^k, got d={self.d}, k={self.k}")

    @classmethod
    def from_k(cls, k: int) -> "Dimension":
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        return cls(k=k, d=1 << k)

    @classmethod
    def from_d(cls, d: int) -> "Dimension":
        if not isinstance(d, int) or d < 2 or d & (d - 1):
            raise ValueError(f"d must be a power of two >= 2, got {d!r}")
        return cls(k=d.bit_length() - 1, d=d)


def _check_fiber(length_km: float, alpha_db_per_km: float) -> None:
    if not (math.isfinite(length_km) and length_km >= 0):
        raise ValueError(f"length_km must be finite and >= 0, got {length_km}")
    if not (math.isfinite(alpha_db_per_km) and alpha_db_per_km > 0):
        raise ValueError(f"alpha_db_per_km must be finite and > 0, got {alpha_db_per_km}")


def transmittance(length_km: float, alpha_db_per_km: float = 0.2) -> float:
    """Fiber transmission 10^(-alpha L / 10)."""
    _check_fiber(length_km, alpha_db_per_km)
    return 10.0 ** (-alpha_db_per_km * length_km / 10.0)


@dataclass(frozen=True)
class ChannelModel:
    """Attenuating fiber characterized by a dB/km loss coefficient."""

    alpha_db_per_km: float = 0.2
    length_km: float = 0.0

    def __post_init__(self):
        _check_fiber(self.length_km, self.alpha_db_per_km)

    @property
    def transmittance(self) -> float:
        return transmittance(self.length_km, self.alpha_db_per_km)


@dataclass(frozen=True)
class DetectorModel:
    """Threshold detection stage: efficiency, visibility, dark counts."""

    eta: float = 1.0
    visibility: float = 1.0
    p_dark: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if not 0.0 < self.visibility <= 1.0:
            raise ValueError(f"visibility must be in (0, 1], got {self.visibility}")
        if not 0.0 <= self.p_dark < 1.0:
            raise ValueError(f"p_dark must be in [0, 1), got {self.p_dark}")


DETECTOR_PRESETS = {
    # superconducting nanowire, cryostat-grade dark counts
    "snspd_lab": DetectorModel(eta=0.66, visibility=0.995, p_dark=1e-8),
    # free-running InGaAs avalanche diode, field conditions
    "ingaas_field": DetectorModel(eta=0.20, visibility=0.99, p_dark=1e-5),
}
