"""Eavesdropper guessing bounds for the basis-hidden encoding.

For an adversary who must measure before the basis is disclosed, the
optimal single-shot guessing probability is governed by the operator

    F(Omega) = sum_theta (2/d) M_theta(omega_theta),

the uniform mixture over bases of the half-space projector the adversary
would like to certify; P_guess <= lambda / 2 with lambda = max over the
2^(d+1) outcome strings Omega of the largest eigenvalue of F.  This
module holds what the rate model, the `bounds` and `oracle` commands and
the benchmark use: lambda exactly, in small dimensions, from how the
split observables commute, the closed-form bounds used at large d and
assembled into the `bounds` record, and numeric Helstrom discrimination
and a simulated intercept strategy as anchors from below.

The exact computations use the algebra of the construction rather than
generic dense algebra.  The two halves of every basis sum to the
identity, so F(Omega) = (d+1)/d I + (1/d) sum_theta s_theta Z_theta with
signs s_theta = (-1)^omega_theta and split observables Z_theta = P_theta^0
- P_theta^1; in d = 2^k these are Pauli operators whose commuting
classes (sizes 1, d/2 and d/2) pairwise anticommute, which gives the
largest norm over all sign strings in closed form.  rho_0 + rho_1 = 2I/d
makes the two bit states commute, so their tensor powers are
discriminated from the spectra alone.  The size caps
LAMBDA_BRUTE_FORCE_MAX_D, HELSTROM_MAX_DIM and EVE_SIM_MAX_TRIALS are
kept as contracts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .detection import chunk_slices, draw_chunked
from .errors import CapabilityError
from .mub import Dimension, MubFamily, build_mub_family, half_projector

LAMBDA_BRUTE_FORCE_MAX_D = 16
HELSTROM_MAX_DIM = 4096
# trial cap of simulate_eve_random_basis: about 6 traced bytes of peak memory
# per trial at any d, ~0.1 GB at the cap
EVE_SIM_MAX_TRIALS = 1 << 24
BOUNDS_SOURCES = ("paper", "certified")


def _check_lambda_cap(d: int) -> None:
    if d > LAMBDA_BRUTE_FORCE_MAX_D:
        raise CapabilityError(
            f"the exact lambda relation check is capped at d = {LAMBDA_BRUTE_FORCE_MAX_D}, got {d}"
        )


def _commuting_classes(family: MubFamily) -> np.ndarray:
    """Sizes n_g of the classes of pairwise commuting split observables.

    Checks, by the largest entry deviation within 1e-9, that every Z_theta
    = 2 P_theta^0 - I squares to I, that every pair commutes or
    anticommutes, and that commuting is transitive, so distinct classes
    anticommute; ValueError otherwise.  The products are formed one row
    (Z_t Z and Z Z_t) at a time.
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


def lambda_numeric(family: MubFamily) -> float:
    """max over all outcome strings of the largest eigenvalue of F(Omega).

    F(Omega) = (d+1)/d I + (1/d) S with S = sum_theta s_theta Z_theta, and
    flipping every sign negates S, so lambda = (d+1)/d + max ||S|| / d =
    (d+1)/d + sqrt(sum_g n_g^2) / d over the `_commuting_classes` g.
    Proof: S = sum_g alpha_g with alpha_g the signed sum of class g; the
    alpha_g pairwise anticommute, so S^2 = sum_g alpha_g^2 and ||S||^2 <=
    sum_g n_g^2.  A within-class product Z_theta Z_theta' commutes with
    every Z, so these Hermitian products commute and share an eigenvector
    v.  Fix r_g in each class and take s_theta from Z_(r_g) Z_theta v =
    s_theta v; as Z_theta Z_theta' = (Z_(r_g) Z_theta)(Z_(r_g) Z_theta'),
    alpha_g^2 v = n_g^2 v, so S^2 v = (sum_g n_g^2) v: the bound is
    reached.  The built families have classes of sizes 1, d/2 and d/2.
    Offered for d <= LAMBDA_BRUTE_FORCE_MAX_D (16); larger dimensions must
    rely on the closed-form bound.
    """
    d = family.d
    _check_lambda_cap(d)
    return (d + 1) / d + math.sqrt(sum(int(n) ** 2 for n in _commuting_classes(family))) / d


def lambda_paper_bound(d: int) -> float:
    """Closed-form operator-norm bound 1 + (d(d+1) - 2) / (2 d^2 sqrt(d))."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return 1.0 + (d * (d + 1.0) - 2.0) / (2.0 * d * d * math.sqrt(d))


def _clamp_guess(p: float) -> float:
    return min(1.0, max(0.5, p))


def pguess_single_paper(d: int) -> float:
    """Closed-form one-copy guessing bound 1/2 + 1/sqrt(d) - 2/(d(d+1)sqrt(d))."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    rd = math.sqrt(d)
    return _clamp_guess(0.5 + 1.0 / rd - 2.0 / (d * (d + 1.0) * rd))


def _half_power(base: float, m: int) -> float:
    """base^m / 2 clamped into [1/2, 1], without overflow at large m."""
    if m * math.log(base) - math.log(2.0) >= 0.0:
        return 1.0
    return _clamp_guess(0.5 * base**m)


def pguess_multi_paper(d: int, m: int) -> float:
    """Closed-form m-copy guessing bound (1/2)(1 + 2/sqrt(d) - 4/(d^2 sqrt(d)))^m."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    rd = math.sqrt(d)
    return _half_power(1.0 + 2.0 / rd - 4.0 / (d * d * rd), m)


def pguess_paper(d: int, m: int) -> float:
    """The closed-form guessing bound in effect for m copies.

    The one-copy derivation is slightly tighter than the m-copy formula
    evaluated at m = 1, so it is preferred there.
    """
    return pguess_single_paper(d) if m == 1 else pguess_multi_paper(d, m)


def pguess_certified(lam: float, m: int) -> float:
    """Guessing bound lambda^m / 2 clamped into [1/2, 1]."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return _half_power(lam, m)


def pguess(d: int, m: int, source: str) -> float:
    """The m-copy guessing bound at dimension d from one of BOUNDS_SOURCES.

    "paper" is the closed form `pguess_paper`; "certified" is lambda^m / 2
    with the exact lambda, so it is capped at d <= 16.
    """
    if source == "paper":
        return pguess_paper(d, m)
    if source == "certified":
        return pguess_certified(lambda_numeric_for_d(d), m)
    raise ValueError(f"bounds_source must be one of {BOUNDS_SOURCES}, got {source!r}")


def hmin_bits(pguess: float) -> float:
    """Min-entropy -log2(P_guess) of the adversary's bit guess."""
    if not 0.0 < pguess <= 1.0:
        raise ValueError(f"pguess must be in (0, 1], got {pguess}")
    return -math.log2(pguess) + 0.0  # + 0.0 turns -0.0 into 0.0


def iacc_bound(d: int, m: int) -> float:
    """Accessible-information bound log2(1 + 2 m / sqrt(d)) in bits."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return math.log2(1.0 + 2.0 * m / math.sqrt(d))


def pinsker_delta(iacc: float) -> float:
    """Trace-distance bound sqrt(iacc / 2) implied by accessible information."""
    if iacc < 0:
        raise ValueError(f"iacc must be >= 0, got {iacc}")
    return math.sqrt(iacc / 2.0)


def encoding_average_state(family: MubFamily, x: int) -> np.ndarray:
    """Average signal state for bit x over the sub-index and the basis."""
    if x not in (0, 1):
        raise ValueError(f"x must be 0 or 1, got {x!r}")
    d = family.d
    rho = np.zeros((d, d), dtype=complex)
    for theta in range(d + 1):
        rho += half_projector(family, theta, x)
    return rho * (2.0 / (d * (d + 1.0)))


def helstrom_numeric(family: MubFamily, m: int = 1) -> float:
    """Optimal discrimination probability of the two m-copy bit states.

    Evaluates (1 + ||rho_0^(x m) - rho_1^(x m)||_1 / 2) / 2.  Each basis's
    two halves sum to the identity, so rho_0 + rho_1 = 2I/d and the two
    states commute: one eigendecomposition rho_0 = V diag(a) V^H also
    diagonalises rho_1, whose eigenvalues b are read from the diagonal of
    V^H rho_1 V.  The tensor powers share the product eigenbasis, so the
    trace norm is sum |prod a_i - prod b_i| over the d^m products and no
    Kronecker power is formed.  ValueError is raised if rho_0's
    Hermiticity error or the residual of V^H rho_1 V off its real
    diagonal exceeds 1e-9.  The dimension d^m stays capped at
    HELSTROM_MAX_DIM (4096).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    d = family.d
    # d = 2^k, so d^m > HELSTROM_MAX_DIM exactly when k m > floor(log2 cap)
    if (d.bit_length() - 1) * m > HELSTROM_MAX_DIM.bit_length() - 1:
        raise CapabilityError(
            f"Helstrom tensor power of m = {m} copies at d = {d} needs dimension d^m; "
            f"the exact solver is capped at {HELSTROM_MAX_DIM}"
        )
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


def helstrom_paper_single(d: int) -> float:
    """Closed-form one-copy discrimination probability 1/2 + 1/(2 sqrt(d+1))."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return 0.5 + 0.5 / math.sqrt(d + 1.0)


def helstrom_multi_bound(d: int, m: int) -> float:
    """Subadditive m-copy discrimination bound 1/2 + m/(2 sqrt(d+1))."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return min(1.0, 0.5 + 0.5 * m / math.sqrt(d + 1.0))


@dataclass(frozen=True)
class EveSimResult:
    """Empirical success of the intercept-in-a-random-basis strategy."""

    d: int
    n_trials: int
    p_success: float
    p_success_analytic: float

    @property
    def standard_error(self) -> float:
        p = self.p_success_analytic
        return math.sqrt(p * (1.0 - p) / self.n_trials)


def simulate_eve_random_basis(family: MubFamily, n_trials: int, seed: int) -> EveSimResult:
    """Simulate an interceptor who measures in a uniformly random basis.

    After the basis is disclosed, a matching-basis outcome decodes the bit
    exactly; otherwise the outcome is uninformative and the guess falls
    back to a fair coin.  Expected success: 1/2 + 1/(2(d + 1)).  A matched
    trial measures Alice's own vector of an orthonormal basis, whose
    Born-rule outcome is that vector, so only family.d is read.  Each
    trial still draws x, r, theta, Eve's basis, her measurement's uniform
    and a coin, in that order and in chunks (`draw_chunked`), so the
    random stream is that of the Born-rule simulation.  n_trials is
    capped at EVE_SIM_MAX_TRIALS (2^24); beyond it CapabilityError is
    raised before anything is drawn.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if n_trials > EVE_SIM_MAX_TRIALS:
        raise CapabilityError(
            f"intercept simulation of {n_trials} trials is capped at {EVE_SIM_MAX_TRIALS}"
        )
    d = family.d
    rng = np.random.default_rng(seed)
    index = np.min_scalar_type(-(d + 1))  # holds 0..d, so every basis

    def draw(high):
        return draw_chunked(n_trials, index, lambda size: rng.integers(0, high, size))

    xs = draw(2)
    for rows in chunk_slices(n_trials):
        rng.integers(0, d // 2, rows.stop - rows.start)  # r
    hits = draw(d + 1) == draw(d + 1)  # Alice's basis, then Eve's: a match decodes x
    for rows in chunk_slices(n_trials):
        rng.random(rows.stop - rows.start)  # the uniform of Eve's measurement
    hits |= draw(2) == xs  # the other trials guess x by a coin
    return EveSimResult(
        d=d, n_trials=n_trials, p_success=int(np.count_nonzero(hits)) / n_trials,
        p_success_analytic=0.5 + 0.5 / (d + 1.0),
    )


@lru_cache(maxsize=None)
def lambda_numeric_for_d(d: int) -> float:
    """Cached exact lambda of the built family for dimension d (d <= 16)."""
    k = Dimension.from_d(d).k
    _check_lambda_cap(d)
    return lambda_numeric(build_mub_family(k))


@dataclass(frozen=True)
class BoundsReport:
    """All adversary bounds for one (d, m) operating point."""

    d: int
    m: int
    lambda_numeric: Optional[float]
    lambda_paper: float
    pguess_certified: Optional[float]
    pguess_paper_single: float
    pguess_paper_multi: float
    hmin_bits: float
    iacc_bits: float
    helstrom_single: float
    helstrom_multi_bound: float
    delta_pinsker: float
    oracle_used: bool

    def to_dict(self) -> dict:
        """The fields in declaration order, which is the `bounds` JSON key order."""
        return asdict(self)


def bounds_report(d: int, m: int, oracle: bool = False) -> BoundsReport:
    """Assemble every bound for a (d, m) point into one record.

    With oracle enabled the certified guessing bound uses the exact lambda
    (d <= 16 only) and the min-entropy comes from the "certified" source.
    Otherwise pguess_certified is None (JSON null): the closed-form lambda
    gives no certified bound (at d = 16, lambda_paper / 2 = 0.566 while a
    single-copy attack reaches 0.834), and the min-entropy comes from the
    "paper" source.
    """
    Dimension.from_d(d)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    lam_paper = lambda_paper_bound(d)
    lam_num = lambda_numeric_for_d(d) if oracle else None
    iacc = iacc_bound(d, m)
    return BoundsReport(
        d=d,
        m=m,
        lambda_numeric=lam_num,
        lambda_paper=lam_paper,
        pguess_certified=pguess_certified(lam_num, m) if oracle else None,
        pguess_paper_single=pguess_single_paper(d),
        pguess_paper_multi=pguess_multi_paper(d, m),
        hmin_bits=hmin_bits(pguess(d, m, "certified" if oracle else "paper")),
        iacc_bits=iacc,
        helstrom_single=helstrom_paper_single(d),
        helstrom_multi_bound=helstrom_multi_bound(d, m),
        delta_pinsker=pinsker_delta(iacc),
        oracle_used=oracle,
    )
