"""Acceptance gate: one test per numbered release criterion.

Each test prints a single `[criterion NN] PASS ...` line with the measured
values (visible with `pytest -s` or in captured output), and enforces the
runtime budget where one is part of the criterion.  Run with `pytest -v`
to get exactly one pass/fail line per criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from mubqct.detection import detection_stats, mc_detection_stats
from mubqct.models import DETECTOR_PRESETS, DetectorModel
from mubqct.mub import build_mub_family, verify_unbiasedness
from mubqct.protocol import ChannelModel, ProtocolParams, run_protocol
from mubqct.ratemodel import coherent_mu_max, key_rate, m_scan_limit, max_distance, optimize_m
from mubqct.security import (
    helstrom_numeric,
    hmin_bits,
    iacc_bound,
    lambda_exact,
    lambda_numeric,
    lambda_paper_bound,
    pguess,
    pguess_single_paper,
    simulate_eve_random_basis,
)
from tests.conftest import cached_family, encoding_average_state, trace_norm

SNSPD = DETECTOR_PRESETS["snspd_lab"]
IDEAL = DetectorModel(eta=1.0, visibility=1.0, p_dark=0.0)


def _report(n, detail):
    print(f"[criterion {n:02d}] PASS  {detail}")


def test_criterion_01_mub_validity():
    start = time.perf_counter()
    worst = 0.0
    for k in (1, 2, 3, 4):
        family = cached_family(k)
        report = verify_unbiasedness(family, tol=1e-9)
        assert report.passed
        assert report.max_unbiasedness_dev < 1e-9
        assert report.max_orthonormality_dev < 1e-9
        worst = max(worst, report.max_unbiasedness_dev, report.max_orthonormality_dev)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"d in {{2,4,8,16}} max deviation {worst:.2e} in {elapsed:.2f}s")


def _projector_sum_bound(ops):
    """Theorem 1: ||sum O_i|| <= 1 + (l - 1) cos(phi) for l rank-one projectors,
    with cos(phi) the largest pairwise norm ||O_i O_j||, i != j."""
    pairs = itertools.combinations(ops, 2)
    cos_phi = max((np.linalg.norm(a @ b, 2) for a, b in pairs), default=0.0)
    return 1.0 + (len(ops) - 1) * cos_phi


def test_criterion_02_projector_sum_norm_property():
    start = time.perf_counter()
    rng = np.random.default_rng(20260825)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        l = int(rng.integers(1, 11))
        ops = []
        for _ in range(l):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            ops.append(np.outer(v, v.conj()))
        actual = float(np.linalg.eigvalsh(sum(ops))[-1])
        assert actual <= _projector_sum_bound(ops) + 1e-9
    # equality cases: identical projectors and orthogonal projectors
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    same = [np.outer(v, v.conj())] * 5
    assert np.linalg.eigvalsh(sum(same))[-1] == pytest.approx(5.0, abs=1e-12)
    assert _projector_sum_bound(same) == pytest.approx(5.0, abs=1e-12)
    ortho = [np.diag([1.0 if i == j else 0.0 for i in range(8)]).astype(complex) for j in range(8)]
    assert np.linalg.eigvalsh(sum(ortho))[-1] == pytest.approx(1.0, abs=1e-12)
    assert _projector_sum_bound(ortho) == pytest.approx(1.0, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"200 random sets + equality cases in {elapsed:.2f}s")


def test_criterion_03_lambda_oracle():
    start = time.perf_counter()
    ratios = []
    for k in (1, 2, 3):
        d = 2**k
        lam = lambda_numeric(cached_family(k))
        l = d * (d + 1) // 2
        sound_cap = (2.0 / d) * (1.0 + (l - 1) / math.sqrt(d))
        assert lam <= sound_cap + 1e-9
        ratios.append((d, lam / lambda_paper_bound(d)))
    lam2 = lambda_numeric(cached_family(1))
    assert lam2 == pytest.approx(1.5 + math.sqrt(3.0) / 2.0, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    ratio_text = " ".join(f"d={d}:{r:.4f}" for d, r in ratios)
    _report(3, f"lambda(2)={lam2:.12f}; numeric/paper ratio {ratio_text} in {elapsed:.2f}s")


def test_criterion_04_helstrom_cross_check():
    start = time.perf_counter()
    for k in (1, 2, 3):
        d = 2**k
        closed = 0.5 + 0.5 / math.sqrt(d + 1)
        assert helstrom_numeric(cached_family(k), 1) == pytest.approx(closed, abs=1e-9)
    family = cached_family(1)
    dist = trace_norm(encoding_average_state(family, 0) - encoding_average_state(family, 1))
    assert dist == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, f"d=2 trace distance {dist:.12f} in {elapsed:.2f}s")


def test_criterion_05_bound_ordering():
    start = time.perf_counter()
    n_trials = 100_000
    summary = []
    for k in (1, 2, 3):
        d = 2**k
        family = cached_family(k)
        result = simulate_eve_random_basis(family, n_trials, seed=97 + k)
        lower = 0.5 + 1.0 / (2.0 * (d + 1))
        sigma_lo = math.sqrt(lower * (1.0 - lower) / n_trials)
        assert lambda_numeric(family) == lambda_exact(d)
        cert = pguess(d, 1, "certified")
        sigma_hi = math.sqrt(cert * (1.0 - cert) / n_trials)
        assert result.p_success >= lower - 5.0 * sigma_lo
        assert result.p_success <= cert + 5.0 * sigma_hi
        summary.append(f"d={d}:{result.p_success:.4f} in [{lower:.4f},{cert:.4f}]")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, "; ".join(summary) + f" in {elapsed:.2f}s")


def test_criterion_06_accessible_information_formulas():
    assert iacc_bound(10**6, 10) == pytest.approx(math.log2(1.02), abs=1e-12)
    assert pguess_single_paper(4) == pytest.approx(0.95, abs=1e-12)
    assert pguess_single_paper(16) == pytest.approx(0.7481618, abs=1e-6)
    _report(6, f"iacc(1e6,10)={iacc_bound(10**6, 10):.15f}")


def test_criterion_07_detection_model_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(70)
    n_samples = 1_000_000
    worst_z = 0.0
    for i in range(20):
        t = float(rng.uniform(0.05, 1.0))
        det = DetectorModel(
            eta=float(rng.uniform(0.2, 1.0)),
            visibility=float(rng.uniform(0.8, 1.0)),
            p_dark=float(10.0 ** rng.uniform(-6.0, -2.0)),
        )
        m = int(rng.integers(1, 7))
        stats = detection_stats(t, det, m)
        mc = mc_detection_stats(t, det, m, n_samples, seed=1000 + i)
        for observed, p in ((mc.n_right, stats.p_right), (mc.n_wrong, stats.p_wrong)):
            sigma = math.sqrt(n_samples * p * (1.0 - p))
            assert abs(observed - n_samples * p) <= 5.0 * sigma + 1.0
            if sigma > 0:
                worst_z = max(worst_z, abs(observed - n_samples * p) / sigma)
    noiseless = detection_stats(1.0, IDEAL, 1)
    assert noiseless.p_c == 1.0 and noiseless.p_e == 0.0
    mc0 = mc_detection_stats(1.0, IDEAL, 1, 100_000, seed=3)
    assert mc0.p_c == 1.0 and mc0.n_wrong == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(7, f"20 points x 1e6 samples, worst |z|={worst_z:.2f} in {elapsed:.1f}s")


def test_criterion_08_protocol_simulation():
    start = time.perf_counter()
    params = ProtocolParams(
        d=16,
        m=4,
        n_rounds=100_000,
        seed=20260825,
        channel=ChannelModel(alpha_db_per_km=0.2, length_km=50.0),
        detector=SNSPD,
    )
    first = run_protocol(params)
    stats = detection_stats(params.channel.transmittance, params.detector, params.m)
    n_clicks = first.n_clicks
    assert n_clicks > 0
    z_scores = []
    for empirical, analytic in (
        (first.p_c_empirical, stats.p_c),
        (first.p_e_empirical, stats.p_e),
    ):
        sigma = math.sqrt(stats.p_c * stats.p_e / n_clicks)
        assert abs(empirical - analytic) <= 5.0 * sigma
        z_scores.append(abs(empirical - analytic) / sigma)
    again = run_protocol(params)
    for field in ("x", "r", "theta", "outcome"):
        assert np.array_equal(getattr(first, field), getattr(again, field))
    elapsed = time.perf_counter() - start
    _report(
        8,
        f"p_c z={z_scores[0]:.2f}, p_e z={z_scores[1]:.2f}, reruns identical in {elapsed:.1f}s",
    )


def test_criterion_09_rate_curve_structure():
    start = time.perf_counter()
    dims = (2**7, 2**10, 2**14)
    peak_rates = []
    reaches = []
    for d in dims:
        rates = [optimize_m(d, length, SNSPD, bounds_source="paper")[1]
                 for length in range(0, 81, 10)]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        peak_rates.append(rates[0])
        reaches.append(max_distance(d, SNSPD, bounds_source="paper").distance_km)
    assert peak_rates[0] < peak_rates[1] < peak_rates[2]
    assert reaches[0] < reaches[1] < reaches[2]
    # least-squares slope of L_max against log10(d), quoted per 100x in d
    xs = [math.log10(d) for d in dims]
    xbar = sum(xs) / 3.0
    ybar = sum(reaches) / 3.0
    slope_per_decade = sum((x - xbar) * (y - ybar) for x, y in zip(xs, reaches)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    slope = 2.0 * slope_per_decade
    assert 35.0 <= slope <= 65.0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    reach_text = ", ".join(f"{r:.1f}" for r in reaches)
    _report(9, f"L_max = [{reach_text}] km, slope {slope:.1f} km per 100x d in {elapsed:.1f}s")


def test_criterion_10_depolarization_witness():
    # depolarizing both bit states, rho -> (1 - delta) rho + delta I/d,
    # scales their trace distance 2/sqrt(d + 1) by exactly 1 - delta
    deltas = (0.0, 0.25, 0.5, 0.75, 1.0)
    devs = []
    for k in (1, 2):
        family = cached_family(k)
        d = family.d
        rho0, rho1 = (encoding_average_state(family, x) for x in (0, 1))
        initial = trace_norm(rho0 - rho1)
        assert initial == pytest.approx(2.0 / math.sqrt(d + 1.0), abs=1e-9)
        for delta in deltas:
            noise = delta * np.eye(d) / d
            dist = trace_norm(((1.0 - delta) * rho0 + noise) - ((1.0 - delta) * rho1 + noise))
            assert dist == pytest.approx((1.0 - delta) * initial, abs=1e-9)
            devs.append(abs(dist - (1.0 - delta) * initial))
    _report(10, f"max linearity deviation {max(devs):.2e}")


def test_criterion_11_coherent_constraint(monkeypatch):
    mu = coherent_mu_max(10**6)
    assert 850.0 < mu < 900.0
    assert mu < 1e3
    import mubqct.ratemodel as rm

    seen = []
    real_channel_row = rm._channel_row

    def recording_channel_row(t, detector, ms):
        seen.append(list(ms))
        return real_channel_row(t, detector, ms)

    monkeypatch.setattr(rm, "_channel_row", recording_channel_row)
    for d in (16, 2**10):
        seen.clear()
        limit = m_scan_limit(d)
        assert limit == max(1, math.floor(coherent_mu_max(d)))
        # M_d: the last m with H_min > 0; past it every rate is 0
        m_d = max((m for m in range(1, limit + 1) if hmin_bits(pguess(d, m, "paper")) > 0.0),
                  default=1)
        m_opt, k_opt = optimize_m(d, 10.0, SNSPD, bounds_source="paper")
        assert seen == [list(range(1, m_d + 1))]  # one row, over 1..M_d
        assert 1 <= m_d <= limit  # within the ceiling
        # the unpruned scan over every m up to the ceiling, first maximum
        rates = [key_rate(d, m, 10.0, SNSPD, bounds_source="paper").key_rate_bits
                 for m in range(1, limit + 1)]
        assert (m_opt, k_opt) == (rates.index(max(rates)) + 1, max(rates))
        assert m_opt <= limit
    _report(11, f"mu_max(1e6)={mu:.3f}, scan ceilings respected")
