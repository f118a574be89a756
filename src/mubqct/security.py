"""Eavesdropper guessing bounds for the basis-hidden encoding.

For an adversary who must measure before the basis is disclosed, the
optimal single-shot guessing probability is governed by the operator

    F(Omega) = sum_theta (2/d) M_theta(omega_theta),

the uniform mixture over bases of the half-space projector the adversary
would like to certify; P_guess <= lambda / 2 with lambda = max over the
2^(d+1) outcome strings Omega of the largest eigenvalue of F.  This
module holds what the rate model, the `bounds` and `oracle` commands and
the benchmark use: lambda and the m-copy Helstrom value in closed form at
every d, the closed-form bounds of the paper assembled into the `bounds`
record, and two anchors from below: the success of an m-copy
majority-vote attack in closed form (`majority_attack`) and a simulated
intercept strategy.  Only the intercept simulation and the adapters that
check a family import numpy, when they are called.

Both closed forms come from the algebra of the construction, not from
dense matrices.  The two halves of every basis sum to the identity, so
F(Omega) = (d+1)/d I + (1/d) sum_theta s_theta Z_theta with signs
s_theta = (-1)^omega_theta and split observables Z_theta = P_theta^0 -
P_theta^1; in d = 2^k these are Pauli operators whose commuting classes
(sizes 1, d/2 and d/2) pairwise anticommute, which gives the largest
norm over all sign strings (`lambda_exact`).  rho_0 + rho_1 = 2I/d makes
the two bit states commute, with one pair of eigenvalues, so their
tensor powers are discriminated by a majority vote, the O(m)-term
binomial tail that `majority_attack` also sums (`helstrom_exact`).  The
dense versions of both live in the test suite as references.
HELSTROM_MAX_COPIES and EVE_SIM_MAX_TRIALS are kept as contracts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

from .errors import CapabilityError
from .models import BOUNDS_SOURCES, count, dimension_k

if TYPE_CHECKING:
    from .mub import MubFamily

# copy cap of helstrom_exact and majority_attack: above every m the rate model scans
# (m_scan_limit(65536) = 199); at the cap one call sums 512 terms in about
# 10 ms, within 3e-14 of a 60-digit evaluation
HELSTROM_MAX_COPIES = 1024
# trial cap of simulate_eve_random_basis: about 6 traced bytes of peak memory
# per trial at any d, ~0.1 GB at the cap
EVE_SIM_MAX_TRIALS = 1 << 24


def lambda_exact(d: int) -> float:
    """max over all outcome strings of the largest eigenvalue of F(Omega), in closed form.

    F(Omega) = (d+1)/d I + (1/d) S with S = sum_theta s_theta Z_theta, and
    flipping every sign negates S, so lambda = (d+1)/d + max ||S|| / d.
    The split observables of the built family are signed Paulis in three
    classes of mutually commuting members, of sizes n_g = 1, d/2 and d/2,
    every two classes anticommuting (Bandyopadhyay, Boykin, Roychowdhury
    & Vatan, Algorithmica 34, 2002; the tests check it by a dense relation
    check at d <= 64).  Write S = sum_g alpha_g with alpha_g the signed
    sum of class g.  The alpha_g pairwise anticommute, so S^2 = sum_g
    alpha_g^2 and ||S||^2 <= sum_g n_g^2.  A within-class product
    Z_theta Z_theta' commutes with every Z, so these Hermitian products
    commute and share an eigenvector v.  Fix r_g in each class and take
    s_theta from Z_(r_g) Z_theta v = s_theta v; as Z_theta Z_theta' =
    (Z_(r_g) Z_theta)(Z_(r_g) Z_theta'), alpha_g^2 v = n_g^2 v, so S^2 v =
    (sum_g n_g^2) v and the bound is reached: lambda = (d+1)/d +
    sqrt(1 + d^2/2) / d, which falls toward 1 + 1/sqrt(2).
    """
    dimension_k(d)
    return (d + 1) / d + math.sqrt(1 + d * d // 2) / d


def lambda_paper_bound(d: int) -> float:
    """Closed-form operator-norm bound 1 + (d(d+1) - 2) / (2 d^2 sqrt(d)); d as `dimension_k`."""
    dimension_k(d)
    return 1.0 + (d * (d + 1.0) - 2.0) / (2.0 * d * d * math.sqrt(d))


def _clamp_guess(p: float) -> float:
    return min(1.0, max(0.5, p))


def pguess_single_paper(d: int) -> float:
    """One-copy guessing bound 1/2 + 1/sqrt(d) - 2/(d(d+1)sqrt(d)); d as `dimension_k`."""
    dimension_k(d)
    rd = math.sqrt(d)
    return _clamp_guess(0.5 + 1.0 / rd - 2.0 / (d * (d + 1.0) * rd))


def _half_power(base: float, m: int) -> float:
    """base^m / 2 clamped into [1/2, 1], without overflow at large m."""
    if m * math.log(base) - math.log(2.0) >= 0.0:
        return 1.0
    return _clamp_guess(0.5 * base**m)


def pguess_multi_paper(d: int, m: int) -> float:
    """m-copy guessing bound (1/2)(1 + 2/sqrt(d) - 4/(d^2 sqrt(d)))^m; d and m as in `pguess`."""
    dimension_k(d)
    count(m, "m")
    rd = math.sqrt(d)
    return _half_power(1.0 + 2.0 / rd - 4.0 / (d * d * rd), m)


def pguess(d: int, m: int, source: str) -> float:
    """The m-copy guessing bound at dimension d from one of BOUNDS_SOURCES.

    "paper" is the closed form `pguess_single_paper` at m = 1, where the
    one-copy derivation is slightly tighter than the m-copy formula, and
    `pguess_multi_paper` above.  "certified" is lambda / 2 with
    `lambda_exact`, clamped into [1/2, 1], at m = 1 and 1 at every m >= 2:
    lambda >= 1 + 1/sqrt(2) > sqrt(2) at every d, so the m-copy bound
    lambda^m / 2 exceeds 1 there.  Both sources check d (`dimension_k`)
    and m (`count`) before the source is read.
    """
    dimension_k(d)
    count(m, "m")
    if source == "paper":
        return pguess_single_paper(d) if m == 1 else pguess_multi_paper(d, m)
    if source == "certified":
        return _clamp_guess(lambda_exact(d) / 2) if m == 1 else 1.0
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


def _check_copies(caller: str, d: int, m: int) -> None:
    """Reject d and m as `dimension_k` and `count` do, and m > HELSTROM_MAX_COPIES."""
    dimension_k(d)
    if count(m, "m") > HELSTROM_MAX_COPIES:
        raise CapabilityError(
            f"{caller} of m = {m} copies at d = {d} is capped at {HELSTROM_MAX_COPIES} copies"
        )


def _majority(bias: float, m: int) -> float:
    """Maj(q, m), q = (1 + bias) / 2: P(a Binomial(m, q) count wins the vote, a tie by coin).

    Even m is evaluated as m - 1, which the coin leaves equal; odd m as 1 minus
    the minority tail in log space, so Maj stays finite, <= 1 and monotone in m.
    """
    if m % 2 == 0:
        m -= 1
    log_right, log_wrong = math.log1p(bias) - math.log(2.0), math.log1p(-bias) - math.log(2.0)
    return 1.0 - sum(
        math.exp(math.log(math.comb(m, j)) + j * log_right + (m - j) * log_wrong)
        for j in range(m // 2 + 1)
    )


def helstrom_exact(d: int, m: int = 1) -> float:
    """Optimal discrimination probability of the two m-copy bit states, in closed form.

    On the built family rho_0 - rho_1 = 2 S / (d (d + 1)) with S =
    sum_theta Z_theta and S^2 = (d + 1) I, and rho_0 + rho_1 = 2I/d, so the
    two states commute: rho_0 has eigenvalues (2/d) p and (2/d) q, each
    d/2 times, with p, q = (1 +- 1/sqrt(d + 1)) / 2, and rho_1 has them
    swapped (the tests check both against the dense states).  The tensor
    powers share the product eigenbasis, in which C(m, j) (d/2)^m vectors
    carry j factors p, so the Helstrom (1976) value is

        (1/2) sum_j C(m, j) max(p^j q^(m-j), q^j p^(m-j)) = Maj(p, m),

    a majority vote over m i.i.d. outcomes each right with probability p
    (`_majority`), clamped into [1/2, 1].  Beyond HELSTROM_MAX_COPIES
    (1024) copies CapabilityError is raised before any term is formed.

    At m >= 2 this is the value for rho_x^(x m), independent copies with a
    fresh r each, not for the simulator's m copies of one vector, which
    Eve tells apart better: their dense Helstrom value is 0.7732 at
    (d, m) = (4, 2) and 0.8319 at (8, 2), against 0.7236 and 0.6667 here.
    """
    _check_copies("Helstrom value", d, m)
    return _clamp_guess(_majority(1.0 / math.sqrt(d + 1.0), m))


def majority_attack(d: int, m: int) -> float:
    """Success probability of the m-copy majority-vote attack, in closed form.

    Eve measures each copy with the covariant POVM {(1/d) W |psi><psi| W^+}
    over the d^2 Weyl operators W, psi the top eigenvector of S = sum_theta
    s_theta Z_theta with the signs read off a common eigenvector of the
    within-class products (see `lambda_exact`).  Once theta is disclosed
    she decodes every copy and takes the majority, a fair coin on a tie.
    Each W maps every basis to itself, so given the sent vector the
    copies' outcomes are i.i.d., each right with probability q_theta: on
    psi every Z_theta of a class is s_theta times the class's
    representative, which gives q_0 = 1/2 + 1/(2 sqrt(1 + d^2/2)) on basis
    0 and q = 1/2 + (d/2)/(2 sqrt(1 + d^2/2)) on the d others.  So the
    attack succeeds with

        (Maj(q_0, m) + d Maj(q, m)) / (d + 1),

    Maj as in `_majority`.  At m = 1 that is d lambda / (2 (d + 1)): the
    attack reaches the single-copy bound.  m is capped as in `helstrom_exact`.
    """
    _check_copies("majority attack", d, m)
    root = math.sqrt(1 + d * d // 2)
    return (_majority(1.0 / root, m) + d * _majority(d / 2 / root, m)) / (d + 1)


def helstrom_multi_bound(d: int, m: int) -> float:
    """Subadditive m-copy discrimination bound 1/2 + m/(2 sqrt(d+1)); d and m as in `pguess`."""
    dimension_k(d)
    count(m, "m")
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
    a count (`models.count`) capped at EVE_SIM_MAX_TRIALS (2^24); beyond
    it CapabilityError is raised before anything is drawn.
    """
    import numpy as np

    from .detection import chunk_slices, draw_chunked

    if count(n_trials, "n_trials") > EVE_SIM_MAX_TRIALS:
        raise CapabilityError(
            f"intercept simulation of {n_trials} trials is capped at {EVE_SIM_MAX_TRIALS}"
        )
    d = family.d
    rng = np.random.default_rng(seed)

    def draw(high):
        return draw_chunked(n_trials, lambda size: rng.integers(0, high, size))

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


def _built_d(family: MubFamily) -> int:
    """family.d, after checking that family is `build_mub_family`'s own; ValueError otherwise."""
    from .mub import is_built_family

    if not is_built_family(family):
        raise ValueError("the closed forms hold for the built family only, and this family differs")
    return family.d


def lambda_numeric(family: MubFamily) -> float:
    """`lambda_exact(family.d)` for the built family; ValueError for any other family.

    An adapter for the benchmark's library job and tracer, which call it
    by name; it goes when a benchmark change drops those imports.
    """
    return lambda_exact(_built_d(family))


def helstrom_numeric(family: MubFamily, m: int = 1) -> float:
    """`helstrom_exact(family.d, m)` for the built family; ValueError for any other family.

    An adapter for the benchmark's library job and tracer, which call it
    by name; it goes when a benchmark change drops those imports.
    """
    return helstrom_exact(_built_d(family), m)


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

    With oracle enabled lambda is `lambda_exact` and the guessing bound
    and min-entropy come from the "certified" source of `pguess`.
    Otherwise lambda_numeric and pguess_certified are None (JSON null):
    the paper's lambda gives no certified bound (at d = 16, lambda_paper
    / 2 = 0.566 while a single-copy attack reaches 0.834), and the
    min-entropy comes from the "paper" source.  `pguess` checks d and m.
    """
    guess = pguess(d, m, "certified" if oracle else "paper")
    iacc = iacc_bound(d, m)
    return BoundsReport(
        d=d,
        m=m,
        lambda_numeric=lambda_exact(d) if oracle else None,
        lambda_paper=lambda_paper_bound(d),
        pguess_certified=guess if oracle else None,
        pguess_paper_single=pguess_single_paper(d),
        pguess_paper_multi=pguess_multi_paper(d, m),
        hmin_bits=hmin_bits(guess),
        iacc_bits=iacc,
        helstrom_single=helstrom_multi_bound(d, 1),
        helstrom_multi_bound=helstrom_multi_bound(d, m),
        delta_pinsker=pinsker_delta(iacc),
        oracle_used=oracle,
    )
