"""Key distribution from basis-hidden multi-copy quantum encodings.

The package provides the complete mutually unbiased basis construction in
power-of-two dimensions, a round-level Monte Carlo model of the protocol,
exact and closed-form adversary bounds, and the detection/key-rate
model used for rate-versus-distance studies.

Importing the package loads none of its submodules.  Each name below
(and each submodule, as `mubqct.<name>`) is imported on first access
(PEP 562), so a command pays only for the layers it runs; `mubqct.cli`
and the closed forms of `mubqct.security` load no numpy.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTED_FROM = {
    "models": ("DETECTOR_PRESETS", "ChannelModel", "DetectorModel", "Dimension", "transmittance"),
    "detection": (
        "DetectionStats",
        "McDetectionStats",
        "conditional_entropy_xy",
        "detection_stats",
        "mc_detection_stats",
        "poisson_detection_stats",
    ),
    "errors": ("CapabilityError", "ConstraintError", "DegenerateModeError"),
    "mub": (
        "MubFamily",
        "VerificationReport",
        "build_mub_family",
        "certify_build",
        "half_projector",
        "verify_unbiasedness",
    ),
    "protocol": (
        "MultipartyResult",
        "ProtocolParams",
        "ProtocolTranscript",
        "multiparty_run",
        "privacy_amplify",
        "run_protocol",
    ),
    "ratemodel": (
        "MaxDistanceResult",
        "RatePoint",
        "SweepRow",
        "coherent_mu_max",
        "key_rate",
        "m_scan_limit",
        "max_distance",
        "optimize_m",
        "sweep",
        "sweep_rows_to_csv",
    ),
    "security": (
        "BoundsReport",
        "EveSimResult",
        "bounds_report",
        "helstrom_exact",
        "helstrom_multi_bound",
        "helstrom_numeric",
        "helstrom_paper_single",
        "hmin_bits",
        "iacc_bound",
        "lambda_exact",
        "lambda_numeric",
        "lambda_paper_bound",
        "pguess",
        "pguess_certified",
        "pguess_multi_paper",
        "pguess_paper",
        "pguess_single_paper",
        "pinsker_delta",
        "simulate_eve_random_basis",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTED_FROM.items() for name in names}
_SUBMODULES = ("cli", "galois", *_EXPORTED_FROM)

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
