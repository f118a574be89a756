"""Validated plain-data definitions shared by the layers, without numpy.

The one check of d = 2^k and of every count (copies m, rounds, samples,
trials, parties), the photon budget, the fiber and detector models with
their presets, the guessing-bound source names and the sweep's cell cap.
`mub`, `detection`, `protocol`, `security`, `ratemodel` and `cli` import
them from here, so the closed-form layer and the CLI's argument handling
load no array library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# the guessing-bound sources of `security.pguess`, which the rate model and
# the CLI's --bounds-source choices take, and the one they default to
BOUNDS_SOURCES = ("paper", "certified")
DEFAULT_BOUNDS_SOURCE = "paper"

# Largest number of (profile, d, L) cells `ratemodel.sweep` evaluates: a cell
# costs about 530 traced bytes through the sweep and its CSV, so ~1.1 GB at
# the cap.  The CLI checks a grid against it before building the grid.
SWEEP_MAX_CELLS = 1 << 21


def dimension_k(d: int) -> int:
    """k for a Hilbert space dimension d = 2^k >= 2; ValueError for any other d."""
    if type(d) is not int or d < 2 or d & (d - 1):  # no bool, float or numpy scalar
        raise ValueError(f"d must be a power of two >= 2, got {d!r}")
    return d.bit_length() - 1


def count(n: int, name: str) -> int:
    """n for a count such as m or n_rounds, a Python int >= 1; ValueError naming it otherwise."""
    if type(n) is not int or n <= 0:  # no bool, float or numpy scalar
        raise ValueError(f"{name} must be >= 1, got {n!r}")
    return n


def coherent_mu_max(d: int) -> float:
    """Largest mean photon number with mu + 4 sqrt(mu) <= sqrt(d), the O(sqrt(d)) budget:
    (sqrt(4 + sqrt(d)) - 2)^2, solving the quadratic in sqrt(mu)."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return (math.sqrt(4.0 + math.sqrt(d)) - 2.0) ** 2


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
