"""Chunked draws consume the random stream exactly as whole-array draws do.

The references below are the whole-array draws the session, the detection
classifier and the intercept simulation made before they drew in chunks:
one call of size n per distribution, in the same order.  Every chunked
result must equal them at any chunk size.
"""

import numpy as np
import pytest

from mubqct import (
    DETECTOR_PRESETS,
    ChannelModel,
    DetectorModel,
    ProtocolParams,
    multiparty_run,
    run_protocol,
    simulate_eve_random_basis,
)
from mubqct import detection
from mubqct.detection import RIGHT, WRONG, click_events, draw_chunked
from mubqct.models import transmittance
from tests.conftest import cached_family

CHUNKS = [1, 7, 1 << 16]
NOISY = DetectorModel(eta=0.5, visibility=0.9, p_dark=0.05)
DARK = DetectorModel(eta=0.5, visibility=0.98, p_dark=0.1)


def _classify_whole(rng, n, copies, t, detector):
    s = t * detector.eta
    p = detector.p_dark
    arrivals = rng.binomial(copies, s, size=n)
    n_good = rng.binomial(arrivals, detector.visibility)
    dark_good = rng.random(n) < p
    dark_bad = rng.binomial(1, p, size=n) > 0

    got_signal = arrivals > 0
    all_good = got_signal & (n_good == arrivals)
    all_bad = got_signal & (n_good == 0)
    no_arrival = ~got_signal
    dark_none = ~dark_good & ~dark_bad

    right = (all_good & (dark_none | dark_good)) | (no_arrival & dark_good)
    wrong = (all_bad & (dark_none | dark_bad)) | (no_arrival & dark_bad)
    return right, wrong


def _outcome_whole(rng, xs, copies, params):
    n = xs.size
    right, wrong = _classify_whole(
        rng, n, copies, params.channel.transmittance, params.detector
    )
    coin = rng.integers(0, 2, size=n).astype(np.int8)
    overlap = right & wrong
    only_right = right & ~wrong
    only_wrong = wrong & ~right
    outcome = np.full(n, -1, dtype=np.int8)
    outcome[only_right] = xs[only_right]
    outcome[only_wrong] = 1 - xs[only_wrong]
    outcome[overlap] = np.where(coin[overlap] == 0, xs[overlap], 1 - xs[overlap])
    return outcome, overlap


def _session_whole(params, n_receivers):
    """(x, r, theta, [outcome per receiver], [overlap per receiver])."""
    n = params.n_rounds
    children = np.random.SeedSequence(params.seed).spawn(1 + n_receivers)
    alice_rng = np.random.default_rng(children[0])
    xs = alice_rng.integers(0, 2, size=n).astype(np.int8)
    rs = alice_rng.integers(0, params.d // 2, size=n)
    thetas = alice_rng.integers(0, params.d + 1, size=n)
    if params.mu is not None:
        copies = alice_rng.poisson(params.mu, size=n)
    else:
        copies = params.m // n_receivers
    outcomes, overlaps = zip(*(
        _outcome_whole(np.random.default_rng(child), xs, copies, params)
        for child in children[1:]
    ))
    return xs, rs, thetas, outcomes, overlaps


def _eve_whole(family, n_trials, seed):
    d = family.d
    half = d // 2
    n_bases = d + 1
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 2, size=n_trials)
    rs = rng.integers(0, half, size=n_trials)
    thetas = rng.integers(0, n_bases, size=n_trials)
    eve_bases = rng.integers(0, n_bases, size=n_trials)
    u = rng.random(n_trials)
    coins = rng.integers(0, 2, size=n_trials)

    idx = half * xs + rs
    outcomes = np.empty(n_trials, dtype=np.int64)
    for t in range(n_bases):
        trials = np.flatnonzero(eve_bases == t)
        states = family.bases[thetas[trials], :, idx[trials]]
        cdf = np.cumsum(np.abs(states @ family.bases[t].conj()) ** 2, axis=1)
        outcomes[trials] = (u[trials, None] > cdf).sum(axis=1)
    decoded = (outcomes >= half).astype(np.int64)
    guesses = np.where(eve_bases == thetas, decoded, coins)
    return float(np.mean(guesses == xs))


N_ROUNDS = 3001


def _poisson(mu):
    """A Poisson source's per-round copy counts."""
    return np.random.default_rng(5).poisson(mu, size=N_ROUNDS)


CLASSIFY_CASES = {
    "snspd_lab": (DETECTOR_PRESETS["snspd_lab"], 4, transmittance(50.0)),
    "ingaas_field": (DETECTOR_PRESETS["ingaas_field"], 2, transmittance(25.0)),
    "p_dark_0.05": (NOISY, 3, 0.3),
    "p_dark_0.1": (DARK, 2, transmittance(30.0)),
    "poisson_mu_4": (DETECTOR_PRESETS["snspd_lab"], _poisson(4.0), transmittance(10.0)),
    # arrival counts beyond int8 and beyond uint8 must not wrap
    "poisson_mu_200": (DARK, _poisson(200.0), 1.0),
    "poisson_mu_400": (DETECTOR_PRESETS["snspd_lab"], _poisson(400.0), 1.0),
}


def _rng_state_after(classify, copies, t, detector):
    rng = np.random.default_rng(11)
    classify(rng, N_ROUNDS, copies, t, detector)
    return rng.bit_generator.state


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("case", sorted(CLASSIFY_CASES))
def test_classify_clicks_matches_whole_array_draws(monkeypatch, case, chunk):
    detector, copies, t = CLASSIFY_CASES[case]
    monkeypatch.setattr(detection, "_CHUNK_ROWS", chunk)
    codes = click_events(np.random.default_rng(11), N_ROUNDS, copies, t, detector)
    classes = detection._click_class()[codes]
    ref_right, ref_wrong = _classify_whole(
        np.random.default_rng(11), N_ROUNDS, copies, t, detector
    )
    assert np.array_equal(classes, ref_right * RIGHT + ref_wrong * WRONG)
    # the stream is left where the whole-array draws leave it
    assert _rng_state_after(click_events, copies, t, detector) == _rng_state_after(
        _classify_whole, copies, t, detector
    )


def test_poisson_cases_reach_wide_copy_counts():
    assert CLASSIFY_CASES["poisson_mu_200"][1].max() > 127
    assert CLASSIFY_CASES["poisson_mu_400"][1].max() > 255


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("mu, dtype", [(4.0, np.uint8), (220.0, np.uint16), (70000.0, np.uint32)])
def test_copy_counts_widen_as_they_are_drawn(monkeypatch, mu, dtype, chunk):
    # at mu = 220 the first count above 255 is row 123, so the smaller chunks
    # widen an array that already holds uint8 rows
    monkeypatch.setattr(detection, "_CHUNK_ROWS", chunk)
    rng = np.random.default_rng(5)
    counts = draw_chunked(N_ROUNDS, lambda size: rng.poisson(mu, size))
    assert counts.dtype == dtype and np.array_equal(counts, _poisson(mu))
    ref_rng = np.random.default_rng(5)
    ref_rng.poisson(mu, size=N_ROUNDS)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _params(d, m, seed, length_km, detector, **source):
    return ProtocolParams(d=d, m=m, n_rounds=N_ROUNDS, seed=seed,
                          channel=ChannelModel(length_km=length_km), detector=detector, **source)


# (params, receivers)
SESSION_CASES = {
    "snspd_lab": (_params(16, 4, 7, 50.0, DETECTOR_PRESETS["snspd_lab"]), 1),
    "ingaas_field_d65536": (_params(65536, 2, 3, 5.0, DETECTOR_PRESETS["ingaas_field"]), 1),
    "p_dark_0.05": (_params(8, 3, 5, 0.0, NOISY), 1),
    "p_dark_0.1_three_parties": (_params(16, 6, 7, 25.0, DARK), 3),
    "poisson_mu_4": (
        _params(1024, 1, 7, 50.0, DETECTOR_PRESETS["snspd_lab"], mu=4.0), 1),
    "poisson_mu_200_insecure": (
        _params(16, 1, 3, 0.0, DARK, mu=200.0, allow_insecure_mu=True), 1),
}


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("case", sorted(SESSION_CASES))
def test_session_matches_whole_array_draws(monkeypatch, case, chunk):
    params, parties = SESSION_CASES[case]
    monkeypatch.setattr(detection, "_CHUNK_ROWS", chunk)
    if parties == 1:
        transcripts = (run_protocol(params),)
    else:
        transcripts = multiparty_run(params, parties)
    xs, rs, thetas, outcomes, overlaps = _session_whole(params, parties)
    for tr, outcome in zip(transcripts, outcomes):
        for got, ref in ((tr.x, xs), (tr.r, rs), (tr.theta, thetas), (tr.outcome, outcome)):
            assert np.array_equal(got, ref)
    if case.startswith("p_dark"):
        assert all(overlap.any() for overlap in overlaps)  # coin-resolved rounds occur


def test_session_columns_are_compact():
    # each drawn column takes the smallest unsigned type that holds its
    # largest value; the outcome keeps int8 for its -1 erasures
    for case in ("ingaas_field_d65536", "snspd_lab"):
        tr = run_protocol(SESSION_CASES[case][0])
        for column in (tr.x, tr.r, tr.theta):
            assert column.dtype == np.min_scalar_type(int(column.max()))
        assert (tr.x.dtype, tr.outcome.dtype) == (np.uint8, np.int8)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_eve_simulation_matches_whole_array_draws(monkeypatch, k, chunk):
    family = cached_family(k)
    monkeypatch.setattr(detection, "_CHUNK_ROWS", chunk)
    for seed in (13, 31, 2024):
        got = simulate_eve_random_basis(family, 4001, seed=seed).p_success
        assert got == _eve_whole(family, 4001, seed=seed)
