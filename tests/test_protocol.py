"""Protocol mechanics: encoding, measurement, simulation runs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mubqct import (
    ChannelModel,
    ConstraintError,
    DetectorModel,
    ProtocolParams,
    bob_povm,
    decohere,
    detection_stats,
    encode_index,
    multiparty_run,
    prepare_state,
    privacy_amplify,
    run_protocol,
)
from mubqct import protocol
from mubqct.protocol import TRANSCRIPT_HEADER
from tests.conftest import cached_family

IDEAL = DetectorModel(eta=1.0, visibility=1.0, p_dark=0.0)


def test_encode_index_examples():
    assert encode_index(0, 0, 4) == 0
    assert encode_index(1, 0, 4) == 2
    assert encode_index(1, 3, 8) == 7


def test_encode_index_rejects_bad_inputs():
    with pytest.raises(ValueError):
        encode_index(2, 0, 4)
    with pytest.raises(ValueError):
        encode_index(0, 2, 4)
    with pytest.raises(ValueError):
        encode_index(0, -1, 4)


@given(
    st.sampled_from([2, 4, 8, 16]),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=7),
)
def test_encode_index_halves_encode_the_bit(d, x, r):
    r = r % (d // 2)
    i = encode_index(x, r, d)
    assert 0 <= i < d
    assert (i >= d // 2) == bool(x)
    assert i % (d // 2) == r


def test_prepare_state_convention_and_orthogonality():
    fam = cached_family(2)
    assert np.array_equal(prepare_state(fam, 0, 0, 0), np.eye(4)[:, 0])
    for theta in range(5):
        states = [
            prepare_state(fam, x, r, theta) for x in (0, 1) for r in (0, 1)
        ]
        gram = np.array([[abs(np.vdot(a, b)) for b in states] for a in states])
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_bob_povm_completeness_and_projectivity():
    fam = cached_family(3)
    for theta in range(fam.n_bases):
        m0, m1 = bob_povm(fam, theta)
        assert np.max(np.abs(m0 + m1 - np.eye(8))) < 1e-9
        assert np.max(np.abs(m0 @ m0 - m0)) < 1e-9
        assert np.min(np.linalg.eigvalsh(m0)) > -1e-12


def test_matched_basis_measurement_is_deterministic():
    fam = cached_family(2)
    for theta in range(5):
        m = bob_povm(fam, theta)
        for x in (0, 1):
            for r in (0, 1):
                psi = prepare_state(fam, x, r, theta)
                p_hit = np.real(np.vdot(psi, m[x] @ psi))
                assert abs(p_hit - 1.0) < 1e-12


def test_mismatched_basis_measurement_is_a_coin():
    fam = cached_family(2)
    for theta in range(5):
        m0, _ = bob_povm(fam, theta)
        for theta_prep in range(5):
            if theta_prep == theta:
                continue
            psi = prepare_state(fam, 1, 0, theta_prep)
            p0 = np.real(np.vdot(psi, m0 @ psi))
            assert abs(p0 - 0.5) < 1e-9


def test_decohere_endpoints_and_spectrum():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    assert np.allclose(decohere(rho, 0.0), rho, atol=1e-15)
    assert np.allclose(decohere(rho, 1.0), np.eye(4) / 4, atol=1e-15)
    delta = 0.3
    got = np.sort(np.linalg.eigvalsh(decohere(rho, delta)))
    want = np.sort((1 - delta) * np.linalg.eigvalsh(rho) + delta / 4)
    assert np.max(np.abs(got - want)) < 1e-12


def test_decohere_validates_inputs():
    rho = np.eye(2) / 2
    with pytest.raises(ValueError):
        decohere(rho, -0.1)
    with pytest.raises(ValueError):
        decohere(rho, 1.1)
    with pytest.raises(ValueError):
        decohere(np.eye(3)[:2], 0.5)  # not square
    with pytest.raises(ValueError):
        decohere(np.array([[0.5, 1.0], [0.0, 0.5]]), 0.5)  # not Hermitian
    with pytest.raises(ValueError):
        decohere(np.eye(2), 0.5)  # trace 2
    with pytest.raises(ValueError):
        decohere(np.diag([1.5, -0.5]), 0.5)  # negative eigenvalue


def test_protocol_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(d=3, m=1, n_rounds=10, seed=0)
    with pytest.raises(ValueError):
        ProtocolParams(d=4, m=0, n_rounds=10, seed=0)
    with pytest.raises(ValueError):
        ProtocolParams(d=4, m=1, n_rounds=0, seed=0)
    with pytest.raises(ValueError):
        ProtocolParams(d=4, m=1, n_rounds=10, seed=0, photon_statistics="thermal")


def test_poisson_mu_budget_is_enforced():
    # mu + 4 sqrt(mu) = 5 exceeds sqrt(4) = 2
    with pytest.raises(ConstraintError):
        ProtocolParams(d=4, m=1, n_rounds=10, seed=0, photon_statistics="poisson", mu=1.0)
    ok = ProtocolParams(
        d=4, m=1, n_rounds=10, seed=0,
        photon_statistics="poisson", mu=1.0, allow_insecure_mu=True,
    )
    run_protocol(ok)  # override admits the run
    within = ProtocolParams(
        d=2**10, m=1, n_rounds=10, seed=0, photon_statistics="poisson", mu=9.0
    )
    run_protocol(within)


def test_run_protocol_is_deterministic():
    params = ProtocolParams(d=8, m=2, n_rounds=5000, seed=99,
                            channel=ChannelModel(length_km=25.0),
                            detector=DetectorModel(eta=0.5, visibility=0.98, p_dark=1e-6))
    a = run_protocol(params)
    b = run_protocol(params)
    for field in ("x", "r", "theta", "outcome"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_run_protocol_noiseless_limit():
    params = ProtocolParams(d=4, m=1, n_rounds=10**4, seed=5, detector=IDEAL)
    tr = run_protocol(params)
    assert tr.n_clicks == tr.n_rounds
    assert tr.p_c_empirical == 1.0
    assert tr.p_e_empirical == 0.0
    assert np.array_equal(tr.alice_sifted, tr.bob_sifted)


def test_run_protocol_zero_transmittance_erases_everything():
    params = ProtocolParams(
        d=4, m=3, n_rounds=2000, seed=5,
        channel=ChannelModel(length_km=2.0e4), detector=IDEAL,
    )
    assert params.channel.transmittance == 0.0
    tr = run_protocol(params)
    assert tr.n_clicks == 0
    assert np.all(tr.outcome == -1)
    assert math.isnan(tr.p_c_empirical)


def test_run_protocol_matches_analytic_statistics():
    det = DetectorModel(eta=0.2, visibility=0.99, p_dark=1e-5)
    channel = ChannelModel(length_km=25.0)
    params = ProtocolParams(d=4, m=2, n_rounds=2 * 10**5, seed=424242,
                            channel=channel, detector=det)
    tr = run_protocol(params)
    stats = detection_stats(channel.transmittance, det, 2)
    se_click = math.sqrt(stats.p_click * (1 - stats.p_click) / params.n_rounds)
    assert abs(tr.click_rate - stats.p_click) < 5 * se_click
    se_pc = math.sqrt(stats.p_c * (1 - stats.p_c) / tr.n_clicks)
    assert abs(tr.p_c_empirical - stats.p_c) < 5 * se_pc


def test_transcript_csv_format(tmp_path):
    params = ProtocolParams(
        d=4, m=1, n_rounds=50, seed=7,
        channel=ChannelModel(length_km=2.0e4), detector=IDEAL,
    )
    tr = run_protocol(params)
    path = tmp_path / "transcript.csv"
    tr.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == TRANSCRIPT_HEADER == "round,x,r,theta,outcome"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[4] == "-1"  # zero transmittance: every round erased


def _per_row_csv(tr) -> str:
    rows = (
        f"{i},{tr.x[i]},{tr.r[i]},{tr.theta[i]},{tr.outcome[i]}\n" for i in range(tr.n_rounds)
    )
    return TRANSCRIPT_HEADER + "\n" + "".join(rows)


@pytest.mark.parametrize("chunk", [1, 7, 64, 203, 1000])
def test_transcript_csv_chunks_match_per_row_writer(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(protocol, "TRANSCRIPT_CHUNK_ROWS", chunk)
    params = ProtocolParams(
        d=16, m=2, n_rounds=203, seed=9,
        channel=ChannelModel(length_km=30.0), detector=DetectorModel(eta=0.5, p_dark=0.1),
    )
    tr = run_protocol(params)
    assert set(tr.outcome.tolist()) == {-1, 0, 1}
    path = tmp_path / "t.csv"
    tr.to_csv(path)
    assert path.read_text(encoding="utf-8") == _per_row_csv(tr)
    tr.to_csv(path, comment="config: demo")
    assert path.read_text(encoding="utf-8") == "# config: demo\n" + _per_row_csv(tr)


def test_multiparty_single_party_reduces_to_run_protocol():
    params = ProtocolParams(d=16, m=4, n_rounds=3000, seed=3,
                            channel=ChannelModel(length_km=50.0),
                            detector=DetectorModel(eta=0.66, visibility=0.995, p_dark=1e-8))
    result = multiparty_run(params, 1)
    single = run_protocol(params)
    assert result.n_parties == 1
    assert result.copies_per_party == 4
    for field in ("x", "r", "theta", "outcome"):
        assert np.array_equal(getattr(result.transcripts[0], field), getattr(single, field))


def test_multiparty_noiseless_keys_agree_with_alice():
    params = ProtocolParams(d=16, m=3, n_rounds=4000, seed=8, detector=IDEAL)
    result = multiparty_run(params, 3)
    assert result.copies_per_party == 1
    for tr in result.transcripts:
        assert tr.n_clicks == tr.n_rounds
        assert np.array_equal(tr.bob_sifted, tr.alice_sifted)
        assert np.array_equal(tr.x, result.transcripts[0].x)


def test_multiparty_party_cap():
    params = ProtocolParams(d=64, m=8, n_rounds=10, seed=0, detector=IDEAL)
    multiparty_run(params, 8)  # floor(sqrt(64)) = 8 is admitted
    with pytest.raises(ConstraintError) as err:
        multiparty_run(params, 9)
    assert "8" in str(err.value)
    with pytest.raises(ValueError):
        multiparty_run(params, 0)


def test_multiparty_copy_split():
    params = ProtocolParams(d=16, m=10, n_rounds=10, seed=0, detector=IDEAL)
    assert multiparty_run(params, 3).copies_per_party == 3
    with pytest.raises(ConstraintError):
        multiparty_run(
            ProtocolParams(d=16, m=2, n_rounds=10, seed=0, detector=IDEAL), 3
        )


def test_multiparty_rejects_poisson_source():
    params = ProtocolParams(
        d=2**10, m=4, n_rounds=10, seed=0, detector=IDEAL,
        photon_statistics="poisson", mu=4.0,
    )
    with pytest.raises(ConstraintError):
        multiparty_run(params, 2)


def test_privacy_amplify_edges_and_determinism():
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.int64)
    assert privacy_amplify(bits, seed=1, out_len=0).size == 0
    full = privacy_amplify(bits, seed=1, out_len=8)
    assert full.shape == (8,) and set(np.unique(full)) <= {0, 1}
    assert np.array_equal(full, privacy_amplify(bits, seed=1, out_len=8))
    assert not np.array_equal(full, privacy_amplify(bits, seed=2, out_len=8))
    with pytest.raises(ValueError):
        privacy_amplify(bits, seed=1, out_len=9)
    with pytest.raises(ValueError):
        privacy_amplify(np.array([0, 2, 1]), seed=1, out_len=1)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=2**62))
@settings(max_examples=25)
def test_privacy_amplify_is_linear_over_gf2(bits_word, seed):
    rng = np.random.default_rng(bits_word)
    a = rng.integers(0, 2, size=32)
    b = rng.integers(0, 2, size=32)
    ha = privacy_amplify(a, seed=seed, out_len=12)
    hb = privacy_amplify(b, seed=seed, out_len=12)
    hab = privacy_amplify(a ^ b, seed=seed, out_len=12)
    assert np.array_equal(hab, ha ^ hb)


def test_privacy_amplify_diffusion():
    # flipping one input bit flips each output bit about half the time
    n, out_len, n_seeds = 64, 16, 10**4
    rng = np.random.default_rng(2024)
    base = rng.integers(0, 2, size=n)
    flipped = base.copy()
    flipped[n // 2] ^= 1
    flips = np.zeros(out_len, dtype=np.int64)
    for seed in range(n_seeds):
        flips += privacy_amplify(base, seed, out_len) ^ privacy_amplify(flipped, seed, out_len)
    se = math.sqrt(0.25 / n_seeds)
    assert np.all(np.abs(flips / n_seeds - 0.5) < 5 * se)
