"""Detection statistics, key-rate formula, photon optimization, sweeps."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mubqct import (
    DETECTOR_PRESETS,
    CapabilityError,
    ChannelModel,
    DegenerateModeError,
    DetectorModel,
    MaxDistanceResult,
    SweepRow,
    coherent_mu_max,
    conditional_entropy_xy,
    detection_stats,
    key_rate,
    m_scan_limit,
    max_distance,
    mc_detection_stats,
    optimize_m,
    poisson_detection_stats,
    pguess_single_paper,
    sweep,
    sweep_rows_to_csv,
    transmittance,
)
from mubqct import detection, ratemodel
from mubqct.detection import RIGHT, WRONG, click_events
from mubqct.models import BOUNDS_SOURCES
from mubqct.ratemodel import SWEEP_CSV_HEADER, _channel_row
from mubqct.security import hmin_bits, pguess

IDEAL = DetectorModel(eta=1.0, visibility=1.0, p_dark=0.0)
SNSPD = DETECTOR_PRESETS["snspd_lab"]


def test_transmittance_examples():
    assert transmittance(0.0) == 1.0
    assert transmittance(50.0) == pytest.approx(0.1, abs=1e-15)
    assert transmittance(100.0) == pytest.approx(0.01, abs=1e-15)
    assert transmittance(50.0, alpha_db_per_km=0.4) == pytest.approx(0.01, abs=1e-15)
    with pytest.raises(ValueError):
        transmittance(-1.0)
    with pytest.raises(ValueError):
        transmittance(10.0, alpha_db_per_km=0.0)


@given(
    st.floats(min_value=0.0, max_value=200.0),
    st.floats(min_value=0.0, max_value=200.0),
)
def test_transmittance_is_multiplicative(l1, l2):
    combined = transmittance(l1 + l2)
    split = transmittance(l1) * transmittance(l2)
    assert combined == pytest.approx(split, abs=1e-12, rel=1e-12)


def test_fiber_rejects_non_finite_input():
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha_db_per_km must be finite"):
            transmittance(10.0, alpha_db_per_km=value)
        with pytest.raises(ValueError, match="alpha_db_per_km must be finite"):
            ChannelModel(alpha_db_per_km=value)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="length_km must be finite"):
            transmittance(value)
        with pytest.raises(ValueError, match="length_km must be finite"):
            ChannelModel(length_km=value)


def test_channel_and_detector_validation():
    assert ChannelModel(length_km=50.0).transmittance == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(ValueError):
        ChannelModel(alpha_db_per_km=-0.2)
    with pytest.raises(ValueError):
        ChannelModel(length_km=-1.0)
    with pytest.raises(ValueError):
        DetectorModel(eta=0.0)
    with pytest.raises(ValueError):
        DetectorModel(visibility=1.2)
    with pytest.raises(ValueError):
        DetectorModel(p_dark=1.0)


def test_detector_presets():
    assert SNSPD == DetectorModel(eta=0.66, visibility=0.995, p_dark=1e-8)
    assert DETECTOR_PRESETS["ingaas_field"] == DetectorModel(
        eta=0.20, visibility=0.99, p_dark=1e-5
    )


def _binomial_oracle(s, v, p, m):
    """Right/wrong click masses by explicit enumeration of arrival counts."""
    p_all_good = sum(
        math.comb(m, i) * (s * v) ** i * (1 - s) ** (m - i) for i in range(1, m + 1)
    )
    p_all_bad = sum(
        math.comb(m, i) * (s * (1 - v)) ** i * (1 - s) ** (m - i) for i in range(1, m + 1)
    )
    no_arrival = (1 - s) ** m
    no_dark = (1 - p) ** 2
    right = p_all_good * no_dark + no_arrival * p + p_all_good * p
    wrong = p_all_bad * no_dark + no_arrival * p + p_all_bad * p
    return right, wrong


@pytest.mark.parametrize(
    "t,eta,v,p,m",
    [
        (0.1, 0.2, 0.99, 1e-5, 10),
        (0.5, 0.66, 0.995, 1e-8, 4),
        (0.9, 0.9, 0.9, 0.01, 3),
        (0.02, 0.4, 0.97, 1e-4, 6),
    ],
)
def test_detection_stats_against_binomial_oracle(t, eta, v, p, m):
    det = DetectorModel(eta=eta, visibility=v, p_dark=p)
    stats = detection_stats(t, det, m)
    right, wrong = _binomial_oracle(t * eta, v, p, m)
    assert stats.p_right == pytest.approx(right, rel=1e-12)
    assert stats.p_wrong == pytest.approx(wrong, rel=1e-12)
    assert stats.p_c == pytest.approx(right / (right + wrong), rel=1e-12)


@pytest.mark.parametrize(
    "t,eta,v,p,mu",
    [
        (1.0, 0.66, 0.995, 1e-8, 4.0),
        (0.1, 0.66, 0.995, 1e-8, 1.0),
        (0.9, 0.9, 0.9, 0.01, 2.5),
        (0.02, 0.4, 0.97, 1e-4, 6.0),
    ],
)
def test_poisson_detection_stats_against_a_mixture_of_binomial_oracles(t, eta, v, p, mu):
    det = DetectorModel(eta=eta, visibility=v, p_dark=p)
    stats = poisson_detection_stats(t, det, mu)
    weights = [math.exp(-mu) * mu**m / math.factorial(m) for m in range(80)]
    right, wrong = (
        sum(w * part for w, part in zip(weights, parts))
        for parts in zip(*(_binomial_oracle(t * eta, v, p, m) for m in range(80)))
    )
    assert stats.p_right == pytest.approx(right, rel=1e-12)
    assert stats.p_wrong == pytest.approx(wrong, rel=1e-12)
    assert stats.p_c + stats.p_e == pytest.approx(1.0, abs=1e-15)
    assert stats.p_signal_click == pytest.approx(-math.expm1(-mu * t * eta), rel=1e-15)


def test_poisson_detection_stats_broadcast_is_the_scalar_evaluation():
    # cell by cell: the numpy entries of the grid give the Python-float evaluation
    ts, mus = np.array([[0.0], [0.01], [0.7]]), np.array([0.5, 4.0])
    for t in ts[:, 0]:
        for mu in mus:
            cell = poisson_detection_stats(t, SNSPD, mu)
            point = poisson_detection_stats(float(t), SNSPD, float(mu))
            assert point.p_click == cell.p_click and point.p_c == cell.p_c
    with pytest.raises(ValueError, match="mu must be positive"):
        poisson_detection_stats(0.5, SNSPD, 0.0)


def test_detection_stats_noiseless_point():
    stats = detection_stats(1.0, IDEAL, 1)
    assert stats.p_c == 1.0
    assert stats.p_e == 0.0
    assert stats.p_click == pytest.approx(1.0, abs=1e-15)


def test_detection_stats_dark_counts_only():
    det = DetectorModel(eta=1.0, visibility=1.0, p_dark=1e-3)
    stats = detection_stats(0.0, det, 5)
    assert stats.p_c == pytest.approx(0.5, abs=1e-12)
    assert stats.p_e == pytest.approx(0.5, abs=1e-12)
    assert stats.p_signal_click == 0.0


_valid_point = st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.5),
    st.integers(min_value=1, max_value=40),
)


@given(_valid_point)
@settings(max_examples=200)
def test_normalized_mode_is_a_probability_split(point):
    t, eta, v, p, m = point
    det = DetectorModel(eta=eta, visibility=v, p_dark=p)
    try:
        stats = detection_stats(t, det, m)
    except DegenerateModeError:
        assert p == 0.0  # dark-free and (under)flowed-out signal
        return
    assert 0.0 <= stats.p_c <= 1.0
    assert 0.0 <= stats.p_e <= 1.0
    assert stats.p_c + stats.p_e == pytest.approx(1.0, abs=1e-12)
    # any detector fires: 1 - (1 - t eta)^m (1 - p)^2, in log space so
    # that a tiny t eta does not cancel to 0
    s = t * eta
    any_fires = 1.0 if s >= 1.0 else -math.expm1(m * math.log1p(-s) + 2 * math.log1p(-p))
    # the taxonomy only double-counts the no-signal double-dark class
    slack = (1 - t * eta) ** m * p * p + 1e-15
    assert stats.p_click <= any_fires + slack


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
    st.integers(min_value=1, max_value=30),
)
def test_perfect_visibility_never_errs(t, eta, m):
    det = DetectorModel(eta=eta, visibility=1.0, p_dark=0.0)
    if t * eta == 0.0:  # includes subnormal products that flush to zero
        with pytest.raises(DegenerateModeError):
            detection_stats(t, det, m)
        return
    assert detection_stats(t, det, m).p_e == 0.0


def test_detection_stats_accepts_real_copy_number():
    stats = detection_stats(0.3, SNSPD, 2.5)
    assert 0.0 < stats.p_signal_click < 1.0


def test_mc_oracle_matches_analytic_at_pinned_point():
    det = DetectorModel(eta=0.2, visibility=0.99, p_dark=1e-5)
    stats = detection_stats(0.1, det, 10)
    mc = mc_detection_stats(0.1, det, 10, n_samples=10**6, seed=123)
    se = math.sqrt(stats.p_c * (1 - stats.p_c) / (mc.n_right + mc.n_wrong))
    assert abs(mc.p_c - stats.p_c) < 5 * se
    again = mc_detection_stats(0.1, det, 10, n_samples=10**6, seed=123)
    assert mc.p_c == again.p_c
    with pytest.raises(ValueError):
        mc_detection_stats(0.1, det, 2.5, n_samples=10, seed=1)
    with pytest.raises(ValueError):
        mc_detection_stats(0.1, det, 2, n_samples=0, seed=1)
    # no signal and no dark counts: not one sample clicks
    with pytest.raises(DegenerateModeError, match="no classifiable click events"):
        mc_detection_stats(0.0, DetectorModel(p_dark=0.0), 1, 100, 0)


@pytest.mark.parametrize(
    "t, det, m, seed, counts",
    [
        (0.1, DetectorModel(eta=0.2, visibility=0.99, p_dark=0.05), 10, 123, (21232, 4164)),
    ],
)
def test_mc_oracle_counts_are_pinned(t, det, m, seed, counts):
    # counts drawn by the oracle before it shared its classifier with the protocol
    mc = mc_detection_stats(t, det, m, n_samples=10**5, seed=seed)
    assert (mc.n_right, mc.n_wrong) == counts


def test_classify_clicks_per_round_copies_match_scalar():
    det = DetectorModel(eta=0.5, visibility=0.9, p_dark=0.05)
    scalar = detection._click_class()[click_events(np.random.default_rng(4), 5000, 3, 0.4, det)]
    per_round = detection._click_class()[
        click_events(np.random.default_rng(4), 5000, np.full(5000, 3), 0.4, det)
    ]
    assert np.array_equal(scalar, per_round)


def test_classify_clicks_event_classes():
    # perfect signal, no darks: every round right
    classes = detection._click_class()[click_events(np.random.default_rng(1), 1000, 2, 1.0, IDEAL)]
    assert np.all(classes == RIGHT)
    # no signal: right and wrong are the dark counts on each side, both at
    # once in the coin-resolved overlap class
    det = DetectorModel(p_dark=0.5)
    classes = detection._click_class()[click_events(np.random.default_rng(2), 4000, 2, 0.0, det)]
    right, wrong = (classes & RIGHT) > 0, (classes & WRONG) > 0
    assert abs(right.mean() - 0.5) < 0.05
    assert abs(wrong.mean() - 0.5) < 0.05
    assert abs((right & wrong).mean() - 0.25) < 0.05


def test_conditional_entropy_examples():
    assert conditional_entropy_xy(1.0, 0.0) == 0.0
    assert conditional_entropy_xy(0.5, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert conditional_entropy_xy(0.9, 0.1) == pytest.approx(0.4689955936, abs=1e-9)
    with pytest.raises(ValueError):
        conditional_entropy_xy(0.9, 0.2)
    with pytest.raises(ValueError):
        conditional_entropy_xy(-0.1, 0.5)


def test_key_rate_worked_example():
    point = key_rate(16, 1, 0.0, IDEAL, bounds_source="paper")
    assert point.hxy_bits == 0.0
    assert point.sift_prefactor == 1.0
    assert point.key_rate_bits == pytest.approx(
        -math.log2(pguess_single_paper(16)), abs=1e-12
    )
    assert point.key_rate_bits == pytest.approx(0.41858, abs=5e-5)
    with pytest.raises(ValueError, match="m must be >= 1, got 0"):
        key_rate(16, 0, 0.0, IDEAL)


def test_key_rate_component_identity():
    det = DetectorModel(eta=0.4, visibility=0.98, p_dark=1e-6)
    point = key_rate(64, 3, 40.0, det)
    recomposed = max(0.0, point.sift_prefactor * point.hmin_bits - point.hxy_bits)
    assert point.key_rate_bits == pytest.approx(recomposed, abs=1e-15)
    assert point.t == pytest.approx(transmittance(40.0), abs=1e-15)


def test_key_rate_floors_at_zero():
    # tiny min-entropy at d=2 loses to the dark-count entropy
    det = DetectorModel(eta=0.1, visibility=0.9, p_dark=1e-3)
    point = key_rate(2, 1, 100.0, det)
    assert point.key_rate_bits == 0.0


def test_key_rate_sift_prefactor_includes_eta():
    det = DetectorModel(eta=0.5, visibility=1.0, p_dark=0.0)
    point = key_rate(16, 2, 10.0, det)
    t = transmittance(10.0)
    assert point.sift_prefactor == pytest.approx(1 - (1 - 0.5 * t) ** 2, abs=1e-15)


def test_key_rate_is_non_increasing_in_distance():
    rates = [key_rate(2**10, 2, length, SNSPD, bounds_source="paper").key_rate_bits
             for length in range(0, 160, 10)]
    assert all(a >= b - 1e-15 for a, b in zip(rates, rates[1:]))
    assert rates[0] > 0.0


def test_key_rate_certified_source():
    for d in (8, 32):  # the exact lambda is a closed form at every d
        point = key_rate(d, 1, 0.0, IDEAL, bounds_source="certified")
        want = -math.log2(pguess(d, 1, "certified"))
        assert point.hmin_bits == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        key_rate(16, 1, 0.0, IDEAL, bounds_source="folklore")


def test_coherent_mu_max():
    assert coherent_mu_max(16) == pytest.approx(12 - 8 * math.sqrt(2), abs=1e-12)
    big = coherent_mu_max(10**6)
    assert 850 < big < 900
    assert big < 1e3
    values = [coherent_mu_max(2**k) for k in range(1, 21)]
    assert values == sorted(values)
    with pytest.raises(ValueError):
        coherent_mu_max(1)


def test_m_scan_limit():
    assert m_scan_limit(16) == 1  # mu_max < 1 still admits a single copy
    assert m_scan_limit(2**14) == 90
    mu = coherent_mu_max(2**10)
    assert m_scan_limit(2**10) == math.floor(mu)


def test_optimize_m_noiseless_prefers_single_copy():
    m_star, k_star = optimize_m(16, 0.0, IDEAL, bounds_source="paper")
    assert m_star == 1
    assert k_star == pytest.approx(-math.log2(pguess_single_paper(16)), abs=1e-12)


def test_optimize_m_respects_scan_limit_and_determinism():
    for d, length in [(2**7, 30.0), (2**10, 50.0), (2**14, 80.0)]:
        m_star, k_star = optimize_m(d, length, SNSPD)
        assert 1 <= m_star <= m_scan_limit(d)
        assert optimize_m(d, length, SNSPD) == (m_star, k_star)


def test_max_distance_saturates_with_perfect_detectors():
    result = max_distance(2**10, IDEAL)
    assert result.saturated
    assert result.distance_km == 1000.0


def test_max_distance_bisection_brackets_the_horizon():
    result = max_distance(2**7, SNSPD, bounds_source="paper")
    assert not result.saturated
    assert 40.0 < result.distance_km < 80.0
    assert optimize_m(2**7, result.distance_km, SNSPD, bounds_source="paper")[1] > 0.0
    assert optimize_m(2**7, result.distance_km + 0.2, SNSPD, bounds_source="paper")[1] == 0.0


def test_max_distance_zero_when_rate_vanishes_at_source():
    noisy = DetectorModel(eta=0.1, visibility=0.9, p_dark=1e-2)
    result = max_distance(2, noisy)
    assert result.distance_km == 0.0
    assert not result.saturated


def test_max_distance_non_decreasing_in_d():
    distances = [
        max_distance(d, SNSPD, bounds_source="paper").distance_km for d in (2**7, 2**10, 2**14)
    ]
    assert distances == sorted(distances)


@pytest.mark.parametrize("d", [16, 64, 2**10])
def test_max_distance_scales_inversely_with_fiber_loss(d):
    # the rate depends on L only through T = 10^(-alpha L / 10), so the
    # horizon in dB is the same at every alpha, up to the 0.1 km bisection
    loss_db = [alpha * max_distance(d, SNSPD, alpha).distance_km for alpha in (0.17, 0.2, 0.25)]
    assert loss_db[1] > 0.0
    assert max(loss_db) - min(loss_db) < 0.05


def test_sweep_grid_and_csv():
    rows = sweep([16, 4], [0.0, 25.0, 50.0], ["snspd_lab"])
    assert len(rows) == 6
    key = [(r.profile, r.d, r.length_km) for r in rows]
    assert key == sorted(key)
    single = sweep([16], [25.0], ["snspd_lab"])[0]
    m_star, k_star = optimize_m(16, 25.0, SNSPD)
    assert (single.m_opt, single.key_rate_bits) == (m_star, k_star)

    text = sweep_rows_to_csv(rows, header_comment="config: demo")
    lines = text.splitlines()
    assert lines[0] == "# config: demo"
    assert lines[1] == SWEEP_CSV_HEADER
    assert len(lines) == 8
    assert lines[2].startswith("snspd_lab,4,0,")


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep([15], [0.0], ["snspd_lab"])
    with pytest.raises(ValueError):
        sweep([16], [0.0], ["bolometer"])
    with pytest.raises(ValueError):
        sweep([16], [0.0], ["snspd_lab"], bounds_source="folklore")


@pytest.mark.parametrize("empty", ["ds", "lengths_km", "profiles"])
def test_sweep_rejects_empty_input(empty):
    grid = {"ds": [16], "lengths_km": [0.0], "profiles": ["snspd_lab"], empty: []}
    with pytest.raises(ValueError, match=empty):
        sweep(**grid)


@pytest.mark.parametrize(
    "name, grid",
    [
        ("ds", {"ds": [16, 4, 16]}),
        ("lengths_km", {"lengths_km": [0.0, 5.0, 0.0]}),
        ("profiles", {"profiles": ["snspd_lab", "snspd_lab"]}),
    ],
)
def test_sweep_rejects_a_repeated_entry_before_any_evaluation(monkeypatch, name, grid):
    # a repeated entry would repeat every (profile, d, L) row it is part of
    def no_eval(*args, **kwargs):
        raise AssertionError("duplicates must be rejected before anything is evaluated")

    monkeypatch.setattr(ratemodel, "_hmin_column", no_eval)
    repeated = repr(grid[name][0])
    grid = {"ds": [16], "lengths_km": [0.0], "profiles": ["snspd_lab"], **grid}
    with pytest.raises(ValueError, match=f"sweep got {re.escape(repeated)} more than once in {name}"):
        sweep(**grid)


def test_sweep_cell_cap_is_checked_before_any_evaluation(monkeypatch):
    # the ratecurve benchmark grid, 16 d x 201 L x 2 profiles, fits the cap
    assert 16 * 201 * 2 <= ratemodel.SWEEP_MAX_CELLS
    monkeypatch.setattr(ratemodel, "SWEEP_MAX_CELLS", 12)
    assert len(sweep([16, 64], [0.0, 5.0, 10.0], ["snspd_lab", "ingaas_field"])) == 12

    def no_eval(*args, **kwargs):
        raise AssertionError("the cap must be checked before anything is evaluated")

    monkeypatch.setattr(ratemodel, "_hmin_column", no_eval)
    with pytest.raises(CapabilityError, match="13 cells"):
        sweep([16], list(range(13)), ["snspd_lab"])


def test_copy_scan_cap_is_checked_before_any_entry(monkeypatch):
    # d = 2^20 is the largest d whose scan stays within the Helstrom copy cap
    cap = ratemodel.HELSTROM_MAX_COPIES
    assert m_scan_limit(2**20) <= cap < m_scan_limit(2**21)
    snspd = DETECTOR_PRESETS["snspd_lab"]
    assert optimize_m(2**20, 50.0, snspd, bounds_source="paper")[1] > 0.0
    assert max_distance(2**20, snspd, bounds_source="paper").distance_km > 0.0

    def no_entry(*args, **kwargs):
        raise AssertionError("the cap must be checked before any H_min entry")

    monkeypatch.setattr(ratemodel, "pguess", no_entry)
    for d in (2**21, 2**64):
        message = f"the copy scan at d = {d} covers m = 1..{m_scan_limit(d)}; "
        for call in (
            lambda: optimize_m(d, 50.0, snspd),
            lambda: max_distance(d, snspd),
            lambda: sweep([d], [0.0], ["snspd_lab"]),
        ):
            with pytest.raises(CapabilityError, match=re.escape(message)):
                call()


def _scalar_optimum(d, length, detector, alpha=0.2, bounds_source="paper"):
    """Reference optimizer: `key_rate` at every m, first strict maximum."""
    best = None
    for m in range(1, m_scan_limit(d) + 1):
        point = key_rate(d, m, length, detector, alpha, bounds_source)
        if best is None or point.key_rate_bits > best.key_rate_bits:
            best = point
    return best


def _scalar_sweep(ds, lengths, profiles, alpha, bounds_source):
    rows = []
    for profile in sorted(profiles):
        for d in sorted(ds):
            for length in sorted(lengths):
                best = _scalar_optimum(
                    d, float(length), DETECTOR_PRESETS[profile], alpha, bounds_source
                )
                rows.append(
                    SweepRow(
                        profile=profile,
                        d=d,
                        length_km=float(length),
                        m_opt=best.m,
                        t=best.t,
                        p_c=best.p_c,
                        p_e=best.p_e,
                        hxy_bits=best.hxy_bits,
                        hmin_bits=best.hmin_bits,
                        key_rate_bits=best.key_rate_bits,
                    )
                )
    return rows


@pytest.mark.parametrize(
    "ds, lengths, alpha, bounds_source",
    [
        # unsorted d and L, ints among the floats; 400 km is past every
        # horizon, so all rates there are 0 and m_opt = 1 even where
        # m_scan_limit is 199 (a repeated entry raises ValueError)
        ([1024, 4, 65536, 16], [120.0, 0, 37.5, 400.0, 2], 0.2, "paper"),
        ([2**14, 128], [80.0, 10.0, 33.3], 0.17, "paper"),
        # descending lengths, more than one block of them per profile
        ([4096, 2], list(range(195, -1, -5)), 0.2, "paper"),
        ([16, 2, 8, 4], [30, 0.0, 5.5, 90.0], 0.2, "certified"),
    ],
)
def test_sweep_matches_scalar_oracle(ds, lengths, alpha, bounds_source):
    profiles = ["snspd_lab", "ingaas_field"]
    expected = _scalar_sweep(ds, lengths, profiles, alpha, bounds_source)
    rows = sweep(ds, lengths, profiles, alpha_db_per_km=alpha, bounds_source=bounds_source)
    assert rows == expected
    assert any(r.key_rate_bits == 0.0 for r in rows)
    assert all(r.m_opt == 1 for r in rows if r.key_rate_bits == 0.0)


@pytest.mark.parametrize(
    "detector",
    [
        IDEAL,
        SNSPD,
        DetectorModel(eta=0.4, visibility=0.98, p_dark=1e-6),
        DetectorModel(eta=0.1, visibility=0.9, p_dark=1e-2),
    ],
)
def test_optimize_m_matches_scalar_oracle(detector):
    for d in (2, 16, 2**10, 2**16):
        for length in (0.0, 12.5, 60.0, 250.0):
            best = _scalar_optimum(d, length, detector, 0.25, "paper")
            got = optimize_m(d, length, detector, 0.25, "paper")
            assert got == (best.m, best.key_rate_bits)
            # the docstring's promise: K* is `key_rate` at m*, to the bit
            assert got[1] == key_rate(d, got[0], length, detector, 0.25, "paper").key_rate_bits


# ------------------------------------------------ the pruned scan is exact

# every dimension the rate model takes, 2 .. 65536
ALL_DS = [2**k for k in range(1, 17)]


def _scalar_max_distance(d, detector, alpha, bounds_source):
    """Reference horizon: the bisection of `max_distance` over `_scalar_optimum`,
    which scans every m up to m_scan_limit(d)."""

    def positive(length):
        return _scalar_optimum(d, length, detector, alpha, bounds_source).key_rate_bits > 0.0

    if not positive(0.0):
        return MaxDistanceResult(distance_km=0.0, saturated=False)
    if positive(1000.0):
        return MaxDistanceResult(distance_km=1000.0, saturated=True)
    lo, hi = 0.0, 1000.0
    while hi - lo > 0.1:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if positive(mid) else (lo, mid)
    return MaxDistanceResult(distance_km=lo, saturated=False)


@pytest.mark.parametrize("bounds_source", BOUNDS_SOURCES)
@pytest.mark.parametrize("alpha", [0.2, 0.17])
@given(st.lists(st.floats(min_value=0.0, max_value=400.0), min_size=1, max_size=3, unique=True))
@example([0.0, 400.0])  # the source, and past every horizon, where all rates are 0
@settings(max_examples=8, deadline=None)
def test_pruned_sweep_equals_the_unpruned_scan(alpha, bounds_source, lengths):
    # the sweep stops each d's scan at its last m with H_min > 0
    profiles = ["snspd_lab", "ingaas_field"]
    rows = sweep(ALL_DS, lengths, profiles, alpha, bounds_source)
    assert rows == _scalar_sweep(ALL_DS, lengths, profiles, alpha, bounds_source)


@pytest.mark.parametrize("bounds_source", BOUNDS_SOURCES)
@pytest.mark.parametrize("alpha", [0.2, 0.17])
@given(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.9, max_value=1.0),
    st.floats(min_value=0.0, max_value=1e-3),
    st.floats(min_value=0.0, max_value=400.0),
)
@example(0.66, 0.995, 1e-8, 0.0)
@example(0.2, 0.99, 1e-5, 400.0)
@settings(max_examples=4, deadline=None)
def test_pruned_optimize_m_and_max_distance_equal_the_unpruned_scan(
    alpha, bounds_source, eta, visibility, p_dark, length
):
    det = DetectorModel(eta=eta, visibility=visibility, p_dark=p_dark)
    for d in ALL_DS:
        best = _scalar_optimum(d, length, det, alpha, bounds_source)
        assert optimize_m(d, length, det, alpha, bounds_source) == (best.m, best.key_rate_bits)
        reach = _scalar_max_distance(d, det, alpha, bounds_source)
        assert max_distance(d, det, alpha, bounds_source) == reach


def test_pruning_drops_the_zero_entropy_columns():
    # under the paper bound at d = 65536, 110 of the 199 columns have
    # H_min = 0; under the certified bound every column past m = 1 does
    assert len(ratemodel._hmin_column(65536, "paper")) == 199 - 110
    for d in ALL_DS:
        assert ratemodel._hmin_column(d, "certified") == [
            hmin_bits(pguess(d, 1, "certified"))]


# The ratecurve benchmark grid; the digest was computed with the per-cell
# scan that the factored evaluator replaced.
BENCH_DS = [2**k for k in range(1, 17)]
BENCH_LENGTHS = [2.0 * i for i in range(201)]
BENCH_SWEEP_SHA256 = "6c43c31085af5c17e18e66aa7ed2a3270d67baf94a413b978f3a71b440f9759c"


@pytest.fixture(scope="module")
def bench_rows():
    return sweep(BENCH_DS, BENCH_LENGTHS, ["snspd_lab", "ingaas_field"], bounds_source="paper")


def test_sweep_benchmark_grid_matches_pinned_digest(bench_rows):
    text = sweep_rows_to_csv(bench_rows)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BENCH_SWEEP_SHA256


def test_sweep_benchmark_grid_invariants(bench_rows):
    assert len(bench_rows) == 2 * len(BENCH_DS) * len(BENCH_LENGTHS)
    curves = {}
    for row in bench_rows:
        assert 0.0 <= row.key_rate_bits <= 1.0
        assert 1 <= row.m_opt <= m_scan_limit(row.d)
        curves.setdefault((row.profile, row.d), []).append(row.key_rate_bits)
    for rates in curves.values():
        assert all(a >= b for a, b in zip(rates, rates[1:]))


# ------------------------------------------- closed forms vs the one-point formula



def _scalar_exp_times_expm1(a, x):
    """e^a expm1(x); past expm1's range (x >= 709) as e^(a + x) (-expm1(-x))."""
    return math.exp(a) * math.expm1(x) if x < 709.0 else math.exp(a + x) * -math.expm1(-x)


def _scalar_closed_form(t, det, m):
    """The one-point closed forms of `detection_stats`, operation for operation.

    Returns (p_signal_click, p_right, p_wrong, p_click, p_c, p_e, H(X|Y),
    P_sift) as Python floats from `math` and `**` alone.
    """
    s = t * det.eta
    v, p = det.visibility, det.p_dark
    no_arrival = (1.0 - s) ** m
    p_signal_click = 1.0 if s >= 1.0 else -math.expm1(m * math.log1p(-s))
    if 0.0 < s < 0.5:
        log_none = m * math.log1p(-s)
        p_all_good = _scalar_exp_times_expm1(
            log_none, m * (math.log1p(-s * (1.0 - v)) - math.log1p(-s))
        )
        p_all_bad = _scalar_exp_times_expm1(log_none, m * (math.log1p(-s * v) - math.log1p(-s)))
    else:
        p_all_good = (1.0 - s + s * v) ** m - no_arrival
        p_all_bad = (1.0 - s * v) ** m - no_arrival
    return _scalar_with_dark_counts(det, s, m, p_signal_click, no_arrival, p_all_good, p_all_bad)


def _scalar_poisson_closed_form(t, det, mu):
    """`poisson_detection_stats` at one point, from `math` alone, in the fields of
    `_scalar_closed_form` (its P_sift is that of mu copies)."""
    s = t * det.eta
    mean = mu * s
    no_arrival = math.exp(-mean)
    p_all_good = _scalar_exp_times_expm1(-mean, mean * det.visibility)
    p_all_bad = _scalar_exp_times_expm1(-mean, mean * (1.0 - det.visibility))
    return _scalar_with_dark_counts(
        det, s, mu, -math.expm1(-mean), no_arrival, p_all_good, p_all_bad
    )


def _scalar_with_dark_counts(det, s, m, p_signal_click, no_arrival, p_all_good, p_all_bad):
    """The fields of `_scalar_closed_form` from the arrival classes."""
    p = det.p_dark
    no_dark = (1.0 - p) ** 2
    p_right = p_all_good * no_dark + no_arrival * p + p_all_good * p
    p_wrong = p_all_bad * no_dark + no_arrival * p + p_all_bad * p
    p_click = p_right + p_wrong
    p_c, p_e = p_right / p_click, p_wrong / p_click
    h = 0.0
    if p_c > 0.0:
        h -= p_c * math.log2(p_c)
    if p_e > 0.0:
        h -= p_e * math.log2(p_e)
    prefactor = 1.0 if s >= 1.0 else -math.expm1(m * math.log1p(-s))
    return p_signal_click, p_right, p_wrong, p_click, p_c, p_e, h, prefactor


_EDGE_DETECTORS = {
    "snspd": SNSPD,
    "ingaas": DETECTOR_PRESETS["ingaas_field"],
    "ideal": IDEAL,  # visibility 1 and no dark counts: p_e = 0
    "dark": DetectorModel(eta=1.0, visibility=0.9, p_dark=1e-3),
    "darkfree": DetectorModel(eta=0.8, visibility=0.97, p_dark=0.0),
}
_EDGE_TS = [0.0, 1e-12, 1e-4, 0.05, 0.3, 0.49, 0.5, 0.6, 0.8, 0.99, 1.0]
_EDGE_MS = [1, 2, 2.5, 3, 7, 50, 199]


def _edge_ts(det):
    # t = 0 has no click mass without dark counts
    return [t for t in _EDGE_TS if t > 0.0 or det.p_dark > 0.0]


def test_edge_grid_covers_every_branch():
    points = [(t * det.eta, det) for det in _EDGE_DETECTORS.values() for t in _edge_ts(det)]
    assert any(s == 0.0 and det.p_dark > 0.0 for s, det in points)
    assert any(0.0 < s < 0.5 for s, _ in points)
    assert any(0.5 <= s < 1.0 for s, _ in points)
    assert any(s == 1.0 for s, _ in points)
    assert detection_stats(0.5, IDEAL, 3).p_e == 0.0


@pytest.mark.parametrize("det", list(_EDGE_DETECTORS.values()), ids=list(_EDGE_DETECTORS))
def test_array_kernel_equals_scalar_formula_on_edge_grid(det):
    # every (t, m) cell of the edge grid, against the one-point formula
    for t in _edge_ts(det):
        for m in _EDGE_MS:
            want = _scalar_closed_form(t, det, m)
            one = detection_stats(t, det, m)
            assert all(type(x) is float for x in vars(one).values())
            assert list(vars(one).values()) == list(want[:6]), (t, m)
            assert conditional_entropy_xy(one.p_c, one.p_e) == want[6]
            assert tuple(column[0] for column in _channel_row(t, det, [m])) == want[4:], (t, m)


def test_overflow_fallback_next_to_the_plain_product_equals_the_scalar_formula():
    # s = 0.198 and 0.165: the good class's exponent m (log1p(-s (1 - V))
    # - log1p(-s)) passes expm1's range at m = 3228 and m = 3950, so each
    # row mixes plain entries and e^(a + x) (-expm1(-x)) entries
    for t in (0.3, 0.25):
        s = t * SNSPD.eta
        x_good = [m * (math.log1p(-s * (1.0 - SNSPD.visibility)) - math.log1p(-s))
                  for m in range(1, 5001)]
        assert min(x_good) < 709.0 <= max(x_good)
        for m in range(1, 5001):
            one = detection_stats(t, SNSPD, m)
            assert one.p_right > 0.0
            assert list(vars(one).values()) == list(_scalar_closed_form(t, SNSPD, m)[:6]), (t, m)


_EDGE_MUS = [0.5, 1.0, 2.5, 50.0, 1000.0, 3000.0, 5000.0]


@pytest.mark.parametrize("det", list(_EDGE_DETECTORS.values()), ids=list(_EDGE_DETECTORS))
def test_poisson_kernel_equals_scalar_formula_on_edge_grid(det):
    cells = [(t, mu) for t in _edge_ts(det) for mu in _EDGE_MUS]
    # both sides of the e^(a + x) (-expm1(-x)) fallback of the good class
    good = [t * det.eta * mu * det.visibility for t, mu in cells]
    assert min(good) < 709.0 <= max(good)
    for t, mu in cells:
        want = _scalar_poisson_closed_form(t, det, mu)[:6]
        one = poisson_detection_stats(t, det, mu)
        assert all(type(x) is float for x in vars(one).values())
        assert list(vars(one).values()) == list(want), (t, mu)


def test_numpy_scalar_inputs_give_the_python_number_results():
    # numpy scalars would send pow(x, m) and * to numpy's kernels, which can
    # differ from the C library in the last bit; the closed forms convert
    # them to Python numbers on entry
    for det in _EDGE_DETECTORS.values():
        for t in _edge_ts(det):
            for m in (1, 2, 3, 7, 50, 199):
                got = vars(detection_stats(np.float64(t), det, np.int64(m)))
                assert all(type(x) is float for x in got.values())
                assert got == vars(detection_stats(t, det, m)), (t, m)
            for mu in _EDGE_MUS:
                got = vars(poisson_detection_stats(np.float64(t), det, np.float64(mu)))
                assert all(type(x) is float for x in got.values())
                assert got == vars(poisson_detection_stats(t, det, mu)), (t, mu)
    h = conditional_entropy_xy(np.float64(0.9), np.float64(0.1))
    assert type(h) is float and h == conditional_entropy_xy(0.9, 0.1)


def _first_error(fn, cells):
    """(type, message) of the first ValueError fn raises over cells, evaluated in order."""
    for cell in cells:
        try:
            fn(*cell)
        except ValueError as exc:
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize("kernel, name", [(detection_stats, "m"), (poisson_detection_stats, "mu")])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_source_raises(kernel, name, value):
    message = f"{name} must be positive and finite, got {value}"
    with pytest.raises(ValueError, match=message):
        kernel(0.001, SNSPD, value)
    # the first cell of a grid that raises is the one with the bad source
    assert _first_error(kernel, [(t, SNSPD, m) for t in (0.001, 0.5) for m in (2.0, value, 3.0)]) == (
        ValueError, message)


@pytest.fixture(scope="module")
def bench_tables():
    """Channel rows of the ratecurve grid, m = 1 .. m_scan_limit(65536), one per L."""
    ts = [transmittance(length) for length in BENCH_LENGTHS]
    ms = range(1, m_scan_limit(max(BENCH_DS)) + 1)
    return {
        profile: (ts, ms, [_channel_row(t, DETECTOR_PRESETS[profile], ms) for t in ts])
        for profile in ("snspd_lab", "ingaas_field")
    }


@pytest.mark.parametrize("profile", ["snspd_lab", "ingaas_field"])
def test_channel_table_equals_scalar_formula_on_benchmark_grid(bench_tables, profile):
    ts, ms, rows = bench_tables[profile]
    det = DETECTOR_PRESETS[profile]
    for t, row in zip(ts, rows):
        want = [_scalar_closed_form(t, det, m)[4:] for m in ms]
        assert list(zip(*row)) == want, t


@pytest.mark.parametrize("profile", ["snspd_lab", "ingaas_field"])
def test_channel_table_invariants_on_benchmark_grid(bench_tables, profile):
    for row in bench_tables[profile][2]:
        for p_c, p_e, hxy, prefactor in zip(*row):
            assert all(math.isfinite(x) for x in (p_c, p_e, hxy, prefactor))
            assert abs(p_c + p_e - 1.0) <= 1e-15
            assert all(0.0 <= x <= 1.0 for x in (p_c, p_e, prefactor))
            assert hxy >= 0.0


@pytest.mark.parametrize(
    "det, ts, ms, bad_t, bad_m",
    [
        (SNSPD, [0.2, 1.5, 0.3], [2], 1.5, 2),
        (SNSPD, [0.2, math.nan], [2], math.nan, 2),
        (SNSPD, [-0.1, 0.2], [2], -0.1, 2),
        (SNSPD, [0.3], [1, 0, 2], 0.3, 0),
        (SNSPD, [0.3], [2.5, -1.0], 0.3, -1.0),
        (SNSPD, [0.3], [2.0, math.nan], 0.3, math.nan),
        (IDEAL, [0.5, 0.0], [1, 3], 0.0, 1),
    ],
    ids=["t-above-1", "t-nan", "t-negative", "m-zero", "m-negative", "m-nan", "no-click-mass"],
)
def test_array_with_one_bad_entry_raises_like_the_scalar_call(det, ts, ms, bad_t, bad_m):
    # over the grid's cells in row-major order, the first error is the bad cell's
    with pytest.raises(ValueError) as scalar:
        detection_stats(bad_t, det, bad_m)
    cells = [(t, det, m) for t in ts for m in ms]
    assert _first_error(detection_stats, cells) == (type(scalar.value), str(scalar.value))


@pytest.mark.parametrize(
    "p_c, p_e, bad",
    [
        ([0.9, -0.1], [0.1, 0.5], (-0.1, 0.5)),
        ([0.5, 0.9], [0.5, 0.2], (0.9, 0.2)),
        ([0.5, math.nan], [0.5, 0.5], (math.nan, 0.5)),
    ],
    ids=["negative", "sum-above-1", "nan"],
)
def test_entropy_with_one_bad_entry_raises_like_the_scalar_call(p_c, p_e, bad):
    with pytest.raises(ValueError) as scalar:
        conditional_entropy_xy(*bad)
    assert _first_error(conditional_entropy_xy, list(zip(p_c, p_e))) == (
        ValueError, str(scalar.value))
