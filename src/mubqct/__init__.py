"""Key distribution from basis-hidden multi-copy quantum encodings.

The package provides the complete mutually unbiased basis construction in
power-of-two dimensions, a round-level Monte Carlo model of the protocol,
exact and closed-form adversary bounds, and the detection/key-rate
model used for rate-versus-distance studies.
"""

from .detection import (
    DETECTOR_PRESETS,
    ChannelModel,
    DetectionStats,
    DetectorModel,
    McDetectionStats,
    conditional_entropy_xy,
    detection_stats,
    mc_detection_stats,
    poisson_detection_stats,
    transmittance,
)
from .errors import CapabilityError, ConstraintError, DegenerateModeError
from .mub import (
    Dimension,
    MubFamily,
    VerificationReport,
    basis_state,
    build_mub_family,
    certify_build,
    certify_family,
    half_projector,
    verify_unbiasedness,
)
from .protocol import (
    MultipartyResult,
    ProtocolParams,
    ProtocolTranscript,
    bob_povm,
    encode_index,
    multiparty_run,
    prepare_state,
    privacy_amplify,
    run_protocol,
)
from .ratemodel import (
    MaxDistanceResult,
    RatePoint,
    SweepRow,
    coherent_mu_max,
    key_rate,
    m_scan_limit,
    max_distance,
    optimize_m,
    sweep,
    sweep_rows_to_csv,
)
from .security import (
    BoundsReport,
    EveSimResult,
    bounds_report,
    encoding_average_state,
    helstrom_multi_bound,
    helstrom_numeric,
    helstrom_paper_single,
    hmin_bits,
    iacc_bound,
    lambda_numeric,
    lambda_numeric_for_d,
    lambda_paper_bound,
    pguess,
    pguess_certified,
    pguess_multi_paper,
    pguess_paper,
    pguess_single_paper,
    pinsker_delta,
    simulate_eve_random_basis,
)

__version__ = "0.1.0"
