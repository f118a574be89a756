"""Adversary bounds: exact closed forms, their dense references, and their ordering."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mubqct import (
    CapabilityError,
    MubFamily,
    bounds_report,
    build_mub_family,
    helstrom_exact,
    helstrom_multi_bound,
    helstrom_numeric,
    hmin_bits,
    iacc_bound,
    lambda_exact,
    lambda_numeric,
    lambda_paper_bound,
    m_scan_limit,
    pguess,
    pguess_multi_paper,
    pguess_single_paper,
    pinsker_delta,
    simulate_eve_random_basis,
)
from mubqct import detection, security
from mubqct.security import majority_attack
from tests.conftest import (
    cached_family,
    commuting_classes,
    encoding_average_state,
    f_operator,
    helstrom_spectral,
    copy_states,
    lambda_from_classes,
    orbit_attack,
    per_outcome_guess,
    split_relations,
    trace_norm,
)

# every dimension the tests sweep the closed forms over, d = 2^k <= 65536
ALL_D = [2**k for k in range(1, 17)]

# maxima over all 2^(d+1) outcome strings, first found by enumerating
# every string and frozen as this repository's reference constants
LAMBDA_REFERENCE = {
    2: 2.3660254037844393,
    4: 2.0,
    8: 1.8430703308172536,
    16: 1.7723635432250342,
}


def _sound_cap(d: int) -> float:
    # projector-sum norm applied to the d(d+1)/2 unscaled encoding
    # projectors, then rescaled by the 2/d weight
    l = d * (d + 1) // 2
    return (2.0 / d) * (1.0 + (l - 1) / math.sqrt(d))


def test_f_operator_d2_spectrum_for_every_outcome_string():
    fam = cached_family(1)
    want = np.array([1.5 - math.sqrt(3) / 2, 1.5 + math.sqrt(3) / 2])
    for omega in itertools.product((0, 1), repeat=3):
        f = f_operator(fam, omega)
        assert np.max(np.abs(f - f.conj().T)) < 1e-12
        eig = np.linalg.eigvalsh(f)
        assert np.max(np.abs(eig - want)) < 1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_f_operator_trace_and_positivity(k):
    fam = cached_family(k)
    d = fam.d
    rng = np.random.default_rng(k)
    for _ in range(10):
        omega = rng.integers(0, 2, size=d + 1)
        f = f_operator(fam, omega)
        assert abs(np.trace(f).real - (d + 1)) < 1e-9
        assert np.min(np.linalg.eigvalsh(f)) > -1e-12


def test_f_operator_rejects_wrong_length():
    with pytest.raises(ValueError):
        f_operator(cached_family(1), (0, 1))


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_lambda_numeric_matches_frozen_reference(d):
    lam = lambda_numeric(cached_family(d.bit_length() - 1))
    assert lam == lambda_exact(d)
    assert lam == pytest.approx(LAMBDA_REFERENCE[d], abs=1e-9)
    assert lam >= (d + 1) / d - 1e-12
    assert lam <= _sound_cap(d) + 1e-9


def test_lambda_numeric_d16_is_pinned_exactly():
    assert lambda_numeric(cached_family(4)) == 1.7723635432250342
    assert lambda_exact(16) == 1.7723635432250342


def test_lambda_numeric_d2_closed_form():
    assert lambda_exact(2) == pytest.approx(1.5 + math.sqrt(3) / 2, abs=1e-9)


def test_lambda_minus_one_decreases_with_d():
    gaps = [LAMBDA_REFERENCE[d] - 1.0 for d in (4, 8, 16)]
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_every_outcome_string_respects_the_sound_cap(d):
    fam = cached_family(d.bit_length() - 1)
    cap = _sound_cap(d)
    for omega in itertools.product((0, 1), repeat=d + 1):
        top = np.linalg.eigvalsh(f_operator(fam, omega))[-1]
        assert top <= cap + 1e-9


def test_lambda_exact_decreases_toward_its_limit():
    values = [lambda_exact(d) for d in ALL_D]
    limit = 1.0 + 1.0 / math.sqrt(2.0)
    assert all(v > limit for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] - limit < 2.0 / ALL_D[-1]  # (d+1)/d + sqrt(1 + d^2/2)/d - limit < 2/d


@pytest.mark.parametrize("k", range(1, 7))
def test_lambda_exact_equals_the_dense_class_size_reference(k):
    # the dense relation check forms every Z_t Z_u: 1.8 s at d = 64
    fam = cached_family(k)
    assert lambda_exact(fam.d) == lambda_from_classes(fam)


@pytest.mark.parametrize("d", [3, 12])
def test_lambda_numeric_for_d_rejects_non_powers_of_two(d):
    # not rounded down to the family of the largest power of two below d
    with pytest.raises(ValueError):
        lambda_exact(d)
    with pytest.raises(ValueError):
        security.pguess(d, 1, "certified")


def test_lambda_paper_bound_examples():
    assert lambda_paper_bound(4) == pytest.approx(1.0 + 18 / 64, abs=1e-12)
    assert lambda_paper_bound(16) == pytest.approx(1.0 + 270 / 2048, abs=1e-12)
    values = [lambda_paper_bound(2**k) for k in range(1, 12)]
    assert all(v > 1.0 for v in values)
    assert values == sorted(values, reverse=True)


def test_pguess_paper_examples():
    assert pguess_single_paper(4) == pytest.approx(0.95, abs=1e-12)
    assert pguess_single_paper(16) == pytest.approx(0.7481618, abs=1e-6)
    assert pguess_multi_paper(4, 1) == pytest.approx(0.9375, abs=1e-12)
    # the two closed forms are distinct at m=1; multi never exceeds single
    for d in (4, 8, 16, 64, 1024):
        assert pguess_multi_paper(d, 1) <= pguess_single_paper(d) + 1e-12
    assert pguess(16, 1, "paper") == pguess_single_paper(16)
    assert pguess(16, 3, "paper") == pguess_multi_paper(16, 3)


def test_pguess_clamping():
    assert pguess_multi_paper(4, 50) == 1.0  # growth clamped at certainty
    assert pguess_single_paper(2) == pytest.approx(
        0.5 + 1 / math.sqrt(2) - 2 / (6 * math.sqrt(2)), abs=1e-12
    )
    big = pguess_multi_paper(4, 10**6)  # log-domain guard: no overflow
    assert big == 1.0
    # the [1/2, 1] window of the shared half-power clamp, at every d and m
    for k in range(1, 64):
        d = 2**k
        rd = math.sqrt(d)
        base = 1.0 + 2.0 / rd - 4.0 / (d * d * rd)
        for m in (*range(1, 200), 1024, 10**6):
            got = pguess_multi_paper(d, m)
            assert 0.5 <= got <= 1.0
            if m * math.log(base) < math.log(2.0):
                assert got == 0.5 * base**m
            else:
                assert got == 1.0
    assert security._half_power(1.0, 5) == 0.5  # floor of the clamp window


def test_pguess_certified():
    assert pguess(2, 1, "certified") == 1.0  # lambda > 2
    assert pguess(4, 1, "certified") == 1.0  # lambda = 2
    assert pguess(8, 1, "certified") == pytest.approx(LAMBDA_REFERENCE[8] / 2, abs=1e-12)
    assert pguess(16, 2, "certified") == 1.0
    for source in ("certified", "paper"):
        with pytest.raises(ValueError, match="m must be >= 1, got 0"):
            pguess(16, 0, source)
    with pytest.raises(ValueError, match="bounds_source must be one of"):
        pguess(16, 1, "folklore")


def _certified_reference(d: int, m: int) -> float:
    """lambda^m / 2 clamped into [1/2, 1], the certified bound as once evaluated at every m."""
    lam = lambda_exact(d)
    if m * math.log(lam) - math.log(2.0) >= 0.0:
        return 1.0
    return min(1.0, max(0.5, 0.5 * lam**m))


def test_pguess_certified_is_the_m_copy_formula():
    # lambda >= 1 + 1/sqrt(2) > sqrt(2), so lambda^m / 2 >= 1 at every m >= 2
    for k in range(1, 64):
        d = 2**k
        for m in (*range(1, 1025), 10**6):
            assert pguess(d, m, "certified") == _certified_reference(d, m)
        # the one-copy Helstrom closed form is the subadditive bound at m = 1
        assert helstrom_multi_bound(d, 1) == 0.5 + 0.5 / math.sqrt(d + 1)


def test_hmin_bits():
    assert hmin_bits(1.0) == 0.0
    assert hmin_bits(0.5) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        hmin_bits(0.0)
    with pytest.raises(ValueError):
        hmin_bits(1.5)


def test_iacc_bound_examples():
    assert iacc_bound(10**6, 10) == pytest.approx(math.log2(1.02), abs=1e-12)
    assert iacc_bound(16, 0) == 0.0


@pytest.mark.parametrize(
    "bound, args, message",
    [
        (lambda_paper_bound, (1,), "d must be >= 2, got 1"),
        (pguess_single_paper, (1,), "d must be >= 2, got 1"),
        (pguess_multi_paper, (1, 1), "d must be >= 2, got 1"),
        (iacc_bound, (1, 1), "d must be >= 2, got 1"),
        (iacc_bound, (16, -1), "m must be >= 0, got -1"),
        (helstrom_multi_bound, (1, 1), "d must be >= 2, got 1"),
        (helstrom_multi_bound, (16, 0), "m must be >= 1, got 0"),
    ],
)
def test_closed_forms_reject_bad_d_and_m(bound, args, message):
    with pytest.raises(ValueError, match=message):
        bound(*args)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=50))
def test_iacc_bound_monotonicity(k, m):
    d = 2**k
    assert iacc_bound(d, m + 1) > iacc_bound(d, m)
    assert iacc_bound(4 * d, m) < iacc_bound(d, m)


def test_pinsker_and_alicki_fannes():
    assert pinsker_delta(0.0) == 0.0
    assert pinsker_delta(0.02) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(ValueError):
        pinsker_delta(-0.1)
    for iacc in np.linspace(0.005, 0.5, 40):
        assert pinsker_delta(iacc) == pytest.approx(math.sqrt(iacc / 2), abs=1e-12)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_helstrom_numeric_matches_closed_form(d):
    fam = cached_family(d.bit_length() - 1)
    closed = 0.5 + 0.5 / math.sqrt(d + 1)
    assert helstrom_numeric(fam, 1) == pytest.approx(closed, abs=1e-9)
    assert helstrom_multi_bound(d, 1) == pytest.approx(closed, abs=1e-12)


def test_helstrom_d2_trace_distance():
    fam = cached_family(1)
    rho0 = encoding_average_state(fam, 0)
    rho1 = encoding_average_state(fam, 1)
    assert trace_norm(rho0 - rho1) == pytest.approx(2 / math.sqrt(3), abs=1e-9)
    for rho in (rho0, rho1):
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


def test_helstrom_multi_copy():
    fam = cached_family(1)
    two_copy = helstrom_numeric(fam, 2)
    assert two_copy <= 0.5 + 2 / (2 * math.sqrt(3)) + 1e-12
    assert two_copy >= helstrom_numeric(fam, 1) - 1e-12
    assert helstrom_multi_bound(2, 2) == 1.0  # closed form clamps at certainty
    assert helstrom_multi_bound(16, 1) == pytest.approx(0.5 + 0.5 / math.sqrt(17), abs=1e-12)


def test_helstrom_copy_cap(monkeypatch):
    cap = security.HELSTROM_MAX_COPIES
    assert helstrom_numeric(cached_family(4), 4) == helstrom_exact(16, 4)  # no d^m cap
    assert 0.5 < helstrom_exact(65536, cap) < 1.0

    def no_term(*args):
        raise AssertionError("the cap must be checked before any term is formed")

    monkeypatch.setattr(math, "comb", no_term)
    for m in (cap + 1, 10**12):
        with pytest.raises(CapabilityError, match=f"m = {m} copies at d = 16"):
            helstrom_exact(16, m)


def test_helstrom_exact_single_copy_is_the_paper_closed_form():
    for d in ALL_D:
        assert abs(helstrom_exact(d, 1) - helstrom_multi_bound(d, 1)) <= 1e-15


def _helstrom_sum(d: int, m: int) -> float:
    """1/2 + (1/2) sum_{j > m/2} C(m, j) p^j q^(m-j) (1 - (q/p)^(2j-m)), each term in log space.

    The trace-norm form of the Helstrom value over the product eigenbasis,
    which `helstrom_exact` evaluates as a majority vote instead.
    """
    c = 1.0 / math.sqrt(d + 1.0)
    log_p, log_q = math.log1p(c) - math.log(2.0), math.log1p(-c) - math.log(2.0)
    total = 0.0
    for j in range(m // 2 + 1, m + 1):
        total += math.exp(
            math.log(math.comb(m, j)) + j * log_p + (m - j) * log_q
            + math.log(-math.expm1((2 * j - m) * (log_q - log_p)))
        )
    return min(1.0, 0.5 + 0.5 * total)


def test_helstrom_exact_is_the_trace_norm_sum():
    for d in ALL_D:
        for m in [*range(1, 200), 511, 512, 1023, 1024]:
            assert abs(helstrom_exact(d, m) - _helstrom_sum(d, m)) <= 1e-13, (d, m)


def test_helstrom_exact_is_monotone_bounded_and_finite_up_to_the_copy_cap():
    cap = security.HELSTROM_MAX_COPIES
    copies = list(range(1, 65)) + [2**j for j in range(7, cap.bit_length())]
    assert copies[-1] == cap
    for d in ALL_D:
        values = [helstrom_exact(d, m) for m in copies]
        assert all(math.isfinite(v) and 0.5 < v <= 1.0 for v in values)
        # an even m gains nothing over m - 1, so equal neighbours differ by roundoff
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_majority_attack_single_copy_reaches_the_exact_bound():
    for d in ALL_D:
        assert abs(majority_attack(d, 1) - d * lambda_exact(d) / (2 * (d + 1))) <= 1e-12


def _majority_direct(q: float, m: int) -> float:
    """P(a Binomial(m, q) count wins the vote), a tie settled by a fair coin, summed directly."""
    def term(j):
        return math.comb(m, j) * q**j * (1.0 - q) ** (m - j)

    tie = 0.5 * term(m // 2) if m % 2 == 0 else 0.0
    return math.fsum([term(j) for j in range(m // 2 + 1, m + 1)] + [tie])


@pytest.mark.parametrize("d", [2, 4, 16, 256, 65536])
def test_majority_attack_matches_the_direct_binomial_sum(d):
    root = math.sqrt(1 + d * d / 2)
    q0, q = 0.5 + 0.5 / root, 0.5 + 0.25 * d / root
    for m in range(1, 41):
        want = (_majority_direct(q0, m) + d * _majority_direct(q, m)) / (d + 1)
        assert abs(majority_attack(d, m) - want) <= 1e-13


@pytest.mark.parametrize("k", range(1, 7))
def test_majority_attack_from_the_numeric_q_theta(k):
    # the attack's per-copy success on the built family: signs s_theta from
    # a common eigenvector of the within-class products Z_r Z_theta, psi the
    # top eigenvector of S = sum s_theta Z_theta, q_theta = (1 + s_theta
    # <psi|Z_theta|psi>) / 2; the closed form is q_0 on the basis of the
    # class of one and q on the d others
    fam = cached_family(k)
    d = fam.d
    z, commute = split_relations(fam)
    rep = commute.argmax(axis=1)  # r, the first member of each basis's class
    products = z[rep] @ z
    weights = np.random.default_rng(k).normal(size=fam.n_bases)
    v = np.linalg.eigh(np.tensordot(weights, products, axes=1))[1][:, 0]
    signs = np.einsum("i,tij,j->t", v.conj(), products, v).real
    assert np.abs(np.abs(signs) - 1).max() <= 1e-12  # v is a common eigenvector
    s_z = np.sign(signs)[:, None, None] * z
    values, vectors = np.linalg.eigh(s_z.sum(axis=0))
    psi = vectors[:, -1]
    q_theta = (1 + np.einsum("i,tij,j->t", psi.conj(), s_z, psi).real) / 2
    root = math.sqrt(1 + d * d // 2)
    assert abs(values[-1] - root) <= 1e-12  # ||S|| = sqrt(sum_g n_g^2), as in lambda_exact
    q0, q = 0.5 + 0.5 / root, 0.5 + 0.25 * d / root
    want = np.where(commute.sum(axis=1) == 1, q0, q)
    assert np.count_nonzero(want == q) >= d
    assert np.abs(q_theta - want).max() <= 1e-12
    for m in range(1, 10):
        numeric = sum(_majority_direct(float(p), m) for p in q_theta) / (d + 1)
        assert abs(majority_attack(d, m) - numeric) <= 1e-12


def test_majority_attack_is_monotone_bounded_and_finite():
    for d in ALL_D:
        values = [majority_attack(d, m) for m in range(1, 200)]
        assert all(math.isfinite(v) and 0.5 < v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))
        # the tie's coin: an even m gains nothing over m - 1
        assert all(values[m - 1] == values[m - 2] for m in range(2, 200, 2))


def test_majority_attack_values():
    assert majority_attack(16, 3) == pytest.approx(0.919, abs=5e-4)
    assert majority_attack(256, 3) == pytest.approx(0.9402, abs=5e-5)
    assert majority_attack(256, 5) == pytest.approx(0.9733, abs=5e-5)
    # the attack refutes the paper's m-copy bound at these points
    for m in (3, 5):
        assert pguess_multi_paper(256, m) < majority_attack(256, m)


# per d = 2^k, k = 4..16: the copy counts m <= m_scan_limit(d) at which the
# paper's P_guess is below 1; at every one of them an attack beats it
PAPER_REFUTED_CELLS = dict(zip(ALL_D[3:], (1, 1, 2, 3, 5, 8, 11, 16, 22, 31, 44, 63, 89)))

# the most one outcome of a joint m-copy measurement guesses right
# (`per_outcome_guess`), at every (d, m) with d <= 8 and d^m <= 64
PER_OUTCOME_GUESS = {
    (2, 1): 0.788675, (4, 1): 0.800000, (8, 1): 0.819142, (2, 2): 0.933013,
    (4, 2): 0.940959, (8, 2): 0.958258, (2, 3): 1.0, (4, 3): 1.0,
}


def test_certified_bound_holds_against_every_attack_and_the_paper_bound_is_refuted():
    # a sound P_guess is at least any attack's success probability, at every
    # (d, m) the rate model scans; the paper's bound fails this at d >= 16
    below_one, refuted = Counter(), Counter()
    for d in ALL_D:
        for m in range(1, m_scan_limit(d) + 1):
            attack = max(majority_attack(d, m), helstrom_exact(d, m))
            assert pguess(d, m, "certified") >= attack, (d, m)
            paper = pguess(d, m, "paper")
            if paper < 1.0:
                below_one[d] += 1
                refuted[d] += paper < attack
    assert +refuted == PAPER_REFUTED_CELLS
    assert all(below_one[d] == n for d, n in PAPER_REFUTED_CELLS.items())
    # at d <= 8 the paper's bound is below 1 at m = 1 only, and no attack beats it there
    assert [below_one[d] for d in ALL_D[:3]] == [1, 1, 1]
    # the best single outcome of a joint measurement, densely at d <= 8
    for d, m in PER_OUTCOME_GUESS:
        assert pguess(d, m, "certified") >= per_outcome_guess(d, m) - 1e-9, (d, m)


@pytest.mark.parametrize("d, m", list(PER_OUTCOME_GUESS))
def test_per_outcome_guess_equals_the_majority_vote_at_one_copy_and_beats_it_beyond(d, m):
    value = per_outcome_guess(d, m)
    assert abs(value - PER_OUTCOME_GUESS[d, m]) <= 1e-6
    if m == 1:
        # forwarding chosen rounds gains Eve nothing: her best outcome guesses as the
        # majority vote does, d lambda / (2(d+1))
        assert abs(value - majority_attack(d, 1)) <= 1e-9
        assert abs(value - d * lambda_exact(d) / (2 * (d + 1))) <= 1e-9
    else:
        assert value > majority_attack(d, m)


# the fraction of rounds Eve's Weyl-orbit attack (`orbit_attack`) forwards, at every
# (d, m) with m >= 2 that `PER_OUTCOME_GUESS` holds.  At (4, 3) the top eigenspace is
# 6-dimensional: the orbit of one vector in it forwards from 0.07 to 0.21 of the rounds
# over the vectors tried, by which one the eigensolver returns; the whole eigenspace's 0.439.
ORBIT_ACCEPTANCE = {(2, 2): 1.000, (4, 2): 0.467, (8, 2): 0.233, (2, 3): 0.634, (4, 3): 0.439}


@pytest.mark.parametrize("d, m", list(ORBIT_ACCEPTANCE))
def test_orbit_attack_forwards_its_acceptance_and_guesses_at_the_per_outcome_value(d, m):
    elements = orbit_attack(d, m)
    powers = copy_states(d, m)
    rho = sum(p0 + p1 for p0, p1 in powers) / (2 * (d + 1))
    total = sum(elements)
    # a POVM once its no-forward element I - total is added
    assert np.linalg.eigvalsh(total)[-1] <= 1 + 1e-9
    accepted = sum(np.trace(rho @ e).real for e in elements)
    assert abs(accepted - ORBIT_ACCEPTANCE[d, m]) <= 1e-3
    # each element guesses, per revealed basis, the half it weighs most
    right = sum(max(np.trace(p @ e).real for p in pair) for e in elements for pair in powers)
    guess = right / (2 * (d + 1)) / accepted
    assert abs(guess - per_outcome_guess(d, m)) <= 1e-9
    if (d, m) == (2, 2):
        # complete on rho's support: Eve forwards every round at no loss and beats
        # the majority vote
        vals, vecs = np.linalg.eigh(rho)
        support = vecs[:, vals > 1e-9 * vals[-1]]
        project = support @ support.conj().T
        assert np.abs(project @ total @ project - project).max() <= 1e-9
        assert abs(guess - 0.9330) <= 1e-4
        assert guess > majority_attack(2, 2)


def test_majority_attack_rejects_bad_input_before_any_term(monkeypatch):
    cap = security.HELSTROM_MAX_COPIES
    assert 0.5 < majority_attack(65536, cap) <= 1.0

    def no_term(*args):
        raise AssertionError("the cap must be checked before any term is formed")

    monkeypatch.setattr(math, "comb", no_term)
    for m in (cap + 1, 10**12):
        with pytest.raises(CapabilityError, match=f"m = {m} copies at d = 16"):
            majority_attack(16, m)
    with pytest.raises(ValueError, match="m must be >= 1"):
        majority_attack(16, 0)
    with pytest.raises(ValueError, match="power of two"):
        majority_attack(12, 3)


@pytest.mark.parametrize(
    "d, m", [(d, m) for d in (2, 4, 8, 16, 32, 64, 128) for m in range(1, 13) if d**m <= 4096]
)
def test_helstrom_exact_matches_the_dense_reference(d, m):
    assert abs(helstrom_exact(d, m) - helstrom_spectral(cached_family(d.bit_length() - 1), m)) < 1e-12


@pytest.mark.parametrize("k", range(1, 8))
def test_bit_states_have_one_pair_of_eigenvalues(k):
    # rho_0 - rho_1 = 2 S / (d (d + 1)) with S^2 = (d + 1) I, and rho_0 +
    # rho_1 = 2I/d: each state has eigenvalues (1 +- c)/d, d/2 times each
    fam = cached_family(k)
    d = fam.d
    c = 1.0 / math.sqrt(d + 1.0)
    want = np.repeat([(1.0 - c) / d, (1.0 + c) / d], d // 2)
    for x in (0, 1):
        assert np.max(np.abs(np.linalg.eigvalsh(encoding_average_state(fam, x)) - want)) < 1e-12


@pytest.mark.parametrize("k", [1, 3, 4])
def test_adapters_raise_on_a_perturbed_family(k):
    built = cached_family(k)
    # the computational basis, one in the middle and the last are each checked
    for theta in (0, 2, built.d):
        bases = built.bases.copy()
        bases[theta][0, 1] += 1e-12
        perturbed = MubFamily(bases)
        for adapter in (lambda_numeric, lambda fam: helstrom_numeric(fam, 2)):
            with pytest.raises(ValueError, match="built family"):
                adapter(perturbed)


@pytest.mark.parametrize("d", [2, 4])
def test_eve_random_basis_simulation(d):
    fam = cached_family(d.bit_length() - 1)
    res = simulate_eve_random_basis(fam, n_trials=10**5, seed=31)
    assert res.p_success_analytic == pytest.approx(0.5 + 0.5 / (d + 1), abs=1e-12)
    assert abs(res.p_success - res.p_success_analytic) < 5 * res.standard_error
    assert 0.5 <= res.p_success <= 1.0


def test_eve_simulation_size_cap(monkeypatch):
    fam = cached_family(6)
    # the certify benchmark's intercept job, 10^5 trials, fits the cap
    assert 10**5 <= security.EVE_SIM_MAX_TRIALS
    monkeypatch.setattr(security, "EVE_SIM_MAX_TRIALS", 100)
    # the cap counts trials alone: d = 64 does not lower it
    assert simulate_eve_random_basis(fam, n_trials=100, seed=7).n_trials == 100

    def no_draw(*args, **kwargs):
        raise AssertionError("the cap must be checked before anything is drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(CapabilityError):
        simulate_eve_random_basis(fam, n_trials=101, seed=7)
    with pytest.raises(ValueError, match="n_trials must be >= 1, got 0"):
        simulate_eve_random_basis(fam, n_trials=0, seed=7)


def test_eve_simulation_is_deterministic():
    fam = cached_family(2)
    a = simulate_eve_random_basis(fam, n_trials=2000, seed=7)
    b = simulate_eve_random_basis(fam, n_trials=2000, seed=7)
    assert a.p_success == b.p_success


def test_bounds_report_keys_and_oracle_modes():
    keys = [
        "d", "m", "lambda_numeric", "lambda_paper", "pguess_certified",
        "pguess_paper_single", "pguess_paper_multi", "hmin_bits", "iacc_bits",
        "helstrom_single", "helstrom_multi_bound", "delta_pinsker", "oracle_used",
    ]
    rep = bounds_report(16, 1, oracle=False)
    assert list(rep.to_dict()) == keys
    assert rep.lambda_numeric is None
    assert rep.pguess_certified is None  # the closed-form lambda certifies nothing
    assert rep.to_dict()["pguess_certified"] is None
    assert rep.oracle_used is False
    assert rep.pguess_paper_single == pytest.approx(0.7481618, abs=1e-6)
    assert rep.hmin_bits == pytest.approx(-math.log2(0.7481617647058824), abs=1e-9)

    cert = bounds_report(2, 1, oracle=True)
    assert cert.oracle_used is True
    assert cert.lambda_numeric == pytest.approx(LAMBDA_REFERENCE[2], abs=1e-9)
    assert cert.pguess_certified == 1.0
    # each field is its own closed form, and the min-entropy the source's bound
    for d, m, oracle in itertools.product((2, 16, 65536), (1, 3), (False, True)):
        rep = bounds_report(d, m, oracle=oracle)
        guess = pguess(d, m, "certified" if oracle else "paper")
        assert rep.pguess_certified == (guess if oracle else None)
        assert rep.hmin_bits == hmin_bits(guess)
        assert rep.helstrom_single == helstrom_multi_bound(d, 1)
        assert rep.helstrom_multi_bound == helstrom_multi_bound(d, m)
    assert cert.hmin_bits == 0.0

    # the exact lambda is a closed form at every d
    for d in (32, 65536):
        assert bounds_report(d, 1, oracle=True).lambda_numeric == lambda_exact(d)
    assert bounds_report(32, 1, oracle=False).lambda_numeric is None


def test_bounds_report_large_d_iacc():
    rep = bounds_report(2**20, 10, oracle=False)
    assert rep.iacc_bits == pytest.approx(math.log2(1 + 20 / 1024), abs=1e-12)
    assert rep.delta_pinsker == pytest.approx(math.sqrt(rep.iacc_bits / 2), abs=1e-12)


def _family(k):
    """Cached family up to k = 7; the 270 MB k = 8 family is built afresh."""
    return cached_family(k) if k <= 7 else build_mub_family(k)


@pytest.mark.parametrize("k", range(1, 9))
def test_bit_states_sum_to_flat_mixture(k):
    fam = _family(k)
    d = fam.d
    total = encoding_average_state(fam, 0) + encoding_average_state(fam, 1)
    assert np.max(np.abs(total - (2.0 / d) * np.eye(d))) < 1e-12


@pytest.mark.parametrize("d", [8, 16])
def test_complement_string_spectrum_law(d):
    fam = cached_family(d.bit_length() - 1)
    flip = 2.0 * (d + 1) / d
    rng = np.random.default_rng(d)
    for _ in range(20):
        omega = rng.integers(0, 2, size=d + 1)
        top_complement = np.linalg.eigvalsh(f_operator(fam, 1 - omega))[-1]
        bottom = np.linalg.eigvalsh(f_operator(fam, omega))[0]
        assert abs(top_complement - (flip - bottom)) < 1e-12


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("seed", [1, 5, 2048])
def test_lambda_numeric_matches_every_string_enumerated(d, seed):
    # the built family with its bases in a random order: lambda does not
    # depend on the order, and neither do the commuting classes
    built = cached_family(d.bit_length() - 1)
    order = np.random.default_rng(seed).permutation(built.n_bases)
    fam = MubFamily(built.bases[order])
    want = max(
        np.linalg.eigvalsh(f_operator(fam, omega))[-1]
        for omega in itertools.product((0, 1), repeat=d + 1)
    )
    assert abs(lambda_from_classes(fam) - want) < 1e-12
    assert abs(lambda_numeric(built) - want) < 1e-12
    assert abs(lambda_exact(d) - want) < 1e-12


@pytest.mark.parametrize("k", range(1, 6))
def test_split_observables_fall_into_classes_of_one_and_two_halves(k):
    # Z_0 anticommutes with every other Z_theta, and Z_1..Z_d split into
    # two halves that commute within and anticommute across
    d = 2**k
    sizes = commuting_classes(cached_family(k))
    assert sorted(sizes.tolist()) == [1, d // 2, d // 2]


@pytest.mark.parametrize("k", range(1, 5))
def test_lambda_numeric_of_a_unitary_image_is_bit_identical(k):
    # U Z_theta U^H keeps every relation, so the class sizes and lambda stay
    built = cached_family(k)
    d = built.d
    z = np.random.default_rng(k).normal(size=(2, d, d))
    u = np.linalg.qr(z[0] + 1j * z[1])[0]
    image = MubFamily(u @ built.bases)
    assert lambda_from_classes(image) == lambda_numeric(built)
    with pytest.raises(ValueError, match="built family"):
        lambda_numeric(image)  # the closed form is not offered for another family


@pytest.mark.parametrize("d", [4, 8, 16])
def test_lambda_numeric_rejects_random_orthonormal_bases(d):
    rng = np.random.default_rng(1)
    z = rng.normal(size=(d + 1, d, d)) + 1j * rng.normal(size=(d + 1, d, d))
    fam = MubFamily(np.linalg.qr(z)[0])
    with pytest.raises(ValueError):
        lambda_numeric(fam)
    with pytest.raises(ValueError):
        commuting_classes(fam)


@pytest.mark.parametrize("d", [2, 4])
def test_lambda_numeric_rejects_bases_that_are_not_orthonormal(d):
    # every Z_theta = diag(3, .., 3, -1, .., -1): they all commute, but none
    # squares to I
    fam = MubFamily(np.broadcast_to(math.sqrt(2) * np.eye(d), (d + 1, d, d)))
    with pytest.raises(ValueError, match="built family"):
        lambda_numeric(fam)
    with pytest.raises(ValueError, match="Pauli relations"):
        commuting_classes(fam)


@pytest.mark.parametrize(
    "k, broken", [(2, "transitive"), (3, "Pauli relations"), (4, "Pauli relations")]
)
def test_lambda_numeric_rejects_a_swapped_basis_vector(k, broken):
    # vectors 0 and d/2 of basis 3 trade halves, so Z_3 is no longer the
    # built split observable
    built = cached_family(k)
    half = built.d // 2
    bases = built.bases.copy()
    bases[3][:, [0, half]] = bases[3][:, [half, 0]]
    fam = MubFamily(bases)
    with pytest.raises(ValueError, match="built family"):
        lambda_numeric(fam)
    with pytest.raises(ValueError, match=broken):
        commuting_classes(fam)


def _helstrom_dense_kron(fam, m):
    rho0 = encoding_average_state(fam, 0)
    rho1 = encoding_average_state(fam, 1)
    rho0_m, rho1_m = rho0, rho1
    for _ in range(m - 1):
        rho0_m = np.kron(rho0_m, rho0)
        rho1_m = np.kron(rho1_m, rho1)
    return 0.5 + trace_norm(rho0_m - rho1_m) / 4.0


@pytest.mark.parametrize(
    "d, m", [(d, m) for d in (2, 4, 8, 16, 32, 64, 128, 256) for m in range(1, 11) if d**m <= 1024]
)
def test_helstrom_spectral_matches_dense_kron(d, m):
    fam = _family(d.bit_length() - 1)
    dense = _helstrom_dense_kron(fam, m)
    assert abs(helstrom_spectral(fam, m) - dense) < 1e-12
    assert abs(helstrom_exact(d, m) - dense) < 1e-12


def test_helstrom_rejects_non_commuting_bit_states():
    fam = cached_family(2)
    bases = fam.bases.copy()
    bases[1][:, 0] += 0.01 * bases[1][:, 3]  # leaks half 1 into half 0
    bad = MubFamily(bases)
    with pytest.raises(ValueError, match="built family"):
        helstrom_numeric(bad, 1)
    with pytest.raises(ValueError, match="not diagonal"):
        helstrom_spectral(bad, 1)


def _eve_full_table(fam, n_trials, seed):
    """The intercept simulation through the whole (d+1)^2 d^2 Born table."""
    d = fam.d
    half = d // 2
    n_bases = d + 1
    overlaps = np.einsum("tji,sjk->tsik", fam.bases.conj(), fam.bases)
    cdf = np.cumsum((np.abs(overlaps) ** 2).transpose(1, 0, 3, 2), axis=-1)
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 2, size=n_trials)
    rs = rng.integers(0, half, size=n_trials)
    thetas = rng.integers(0, n_bases, size=n_trials)
    eve_bases = rng.integers(0, n_bases, size=n_trials)
    u = rng.random(n_trials)
    coins = rng.integers(0, 2, size=n_trials)
    rows = cdf[thetas, eve_bases, half * xs + rs]
    decoded = ((u[:, None] > rows).sum(axis=1) >= half).astype(np.int64)
    guesses = np.where(eve_bases == thetas, decoded, coins)
    return float(np.mean(guesses == xs))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [3, 31, 2024])
def test_eve_simulation_matches_full_table_reference(k, seed):
    fam = cached_family(k)
    got = simulate_eve_random_basis(fam, n_trials=5000, seed=seed).p_success
    assert got == _eve_full_table(fam, 5000, seed)


def test_eve_simulation_in_chunks_of_7_matches_full_table_reference(monkeypatch):
    # the dropped r and uniform draws straddle chunk edges; the stream is the
    # one-call stream
    monkeypatch.setattr(detection, "_CHUNK_ROWS", 7)
    fam = cached_family(2)
    got = simulate_eve_random_basis(fam, n_trials=5000, seed=3).p_success
    assert got == _eve_full_table(fam, 5000, 3)


def _eve_all_rows(fam, n_trials, seed):
    """The intercept simulation with a Born row for every trial, grouped by Eve's basis."""
    d = fam.d
    half = d // 2
    n_bases = d + 1
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 2, size=n_trials)
    rs = rng.integers(0, half, size=n_trials)
    thetas = rng.integers(0, n_bases, size=n_trials)
    eve_bases = rng.integers(0, n_bases, size=n_trials)
    u = rng.random(n_trials)
    coins = rng.integers(0, 2, size=n_trials)
    successes = 0
    for t in range(n_bases):
        trials = np.flatnonzero(eve_bases == t)
        x = xs[trials]
        states = fam.bases[thetas[trials], :, half * x + rs[trials]]
        cdf = np.cumsum(np.abs(states @ fam.bases[t].conj()) ** 2, axis=1)
        decoded = (u[trials, None] > cdf).sum(axis=1) >= half
        guesses = np.where(thetas[trials] == t, decoded, coins[trials])
        successes += int(np.count_nonzero(guesses == x))
    return successes / n_trials


@pytest.mark.parametrize("k", [5, 6, 7])
@pytest.mark.parametrize("seed", [3, 31, 2024])
def test_eve_simulation_matches_all_rows_reference(k, seed):
    fam = cached_family(k)
    got = simulate_eve_random_basis(fam, n_trials=20000, seed=seed).p_success
    assert got == _eve_all_rows(fam, 20000, seed)
