"""Protocol mechanics: the measurement premise, simulation runs."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mubqct import (
    CapabilityError,
    ChannelModel,
    ConstraintError,
    DETECTOR_PRESETS,
    DetectorModel,
    ProtocolParams,
    ProtocolTranscript,
    detection_stats,
    multiparty_run,
    privacy_amplify,
    run_protocol,
)
from mubqct import detection, protocol
from mubqct.protocol import TRANSCRIPT_HEADER
from tests.conftest import cached_family, half_projector

IDEAL = DetectorModel(eta=1.0, visibility=1.0, p_dark=0.0)


def test_matched_basis_measurement_is_deterministic():
    # the simulator's premise: Bob's half projector of the sent basis reads
    # the bit of |e_theta((d/2) x + r)> with certainty
    fam = cached_family(2)
    half = fam.d // 2
    for theta in range(fam.n_bases):
        for x in (0, 1):
            m_x = half_projector(fam, theta, x)
            for r in range(half):
                psi = fam.bases[theta][:, half * x + r]
                assert abs(np.real(np.vdot(psi, m_x @ psi)) - 1.0) < 1e-12


def test_mismatched_basis_measurement_is_a_coin():
    fam = cached_family(2)
    half = fam.d // 2
    for theta in range(fam.n_bases):
        m0 = half_projector(fam, theta, 0)
        for theta_prep in range(fam.n_bases):
            if theta_prep == theta:
                continue
            psi = fam.bases[theta_prep][:, half]  # x = 1, r = 0
            assert abs(np.real(np.vdot(psi, m0 @ psi)) - 0.5) < 1e-9


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


@pytest.mark.parametrize("option, value", [("mu", 4.0), ("allow_insecure_mu", True)])
def test_poisson_options_need_poisson_statistics(option, value):
    with pytest.raises(ValueError, match=f"{option} applies to poisson"):
        ProtocolParams(d=16, m=1, n_rounds=10, seed=0, **{option: value})


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
    assert np.array_equal(tr.alice_sifted, tr.outcome[tr.clicked])


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
    assert math.isnan(tr.p_e_empirical)


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


def _mixed_transcript():
    params = ProtocolParams(
        d=16, m=2, n_rounds=203, seed=9,
        channel=ChannelModel(length_km=30.0), detector=DetectorModel(eta=0.5, p_dark=0.1),
    )
    return run_protocol(params)


@pytest.mark.parametrize("chunk", [1, 7, 64, 203, 1000])
def test_transcript_csv_chunks_match_per_row_writer(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(detection, "_CHUNK_ROWS", chunk)
    tr = _mixed_transcript()
    assert set(tr.outcome.tolist()) == {-1, 0, 1}
    path = tmp_path / "t.csv"
    tr.to_csv(path)
    assert path.read_text(encoding="utf-8") == _per_row_csv(tr)
    tr.to_csv(path, comment="config: demo")
    assert path.read_text(encoding="utf-8") == "# config: demo\n" + _per_row_csv(tr)


def test_transcript_csv_at_d65536_matches_per_row_writer(tmp_path):
    params = ProtocolParams(d=65536, m=4, n_rounds=10**5, seed=1,
                            channel=ChannelModel(length_km=50.0),
                            detector=DETECTOR_PRESETS["snspd_lab"])
    tr = run_protocol(params)
    assert tr.theta.dtype == np.uint32 and tr.theta.max() == 65536
    path = tmp_path / "t.csv"
    tr.to_csv(path)
    assert path.read_text(encoding="utf-8") == _per_row_csv(tr)


def _hand_transcript(theta, r, outcome, x=None):
    n = len(theta)
    x = np.arange(n) % 2 if x is None else x
    return ProtocolTranscript(
        m=1,
        x=np.asarray(x, dtype=np.int8),
        r=np.asarray(r, dtype=np.int64),
        theta=np.asarray(theta, dtype=np.int64),
        outcome=np.asarray(outcome, dtype=np.int8),
    )


@pytest.mark.parametrize("chunk", [1, 10, 100, 1000])
def test_transcript_csv_digit_boundaries(tmp_path, monkeypatch, chunk):
    # round numbers cross 9/10, 99/100 and 999/1000 on chunk boundaries;
    # theta and r take every digit width of d = 1024
    monkeypatch.setattr(detection, "_CHUNK_ROWS", chunk)
    n = 1001
    rng = np.random.default_rng(1024)
    theta = rng.integers(0, 1025, size=n)
    r = rng.integers(0, 512, size=n)
    theta[:8] = [0, 9, 10, 99, 100, 999, 1000, 1024]
    r[:6] = [0, 9, 10, 99, 100, 511]
    tr = _hand_transcript(theta, r, rng.integers(-1, 2, size=n))
    assert set(tr.outcome.tolist()) == {-1, 0, 1}
    path = tmp_path / "t.csv"
    tr.to_csv(path)
    assert path.read_text(encoding="utf-8") == _per_row_csv(tr)


@pytest.mark.parametrize("outcome", [-1, 0, 1])
def test_transcript_csv_single_round(tmp_path, outcome):
    tr = _hand_transcript([1024], [511], [outcome], x=[1])
    path = tmp_path / "t.csv"
    tr.to_csv(path, comment="one round")
    assert path.read_text(encoding="utf-8") == "# one round\n" + _per_row_csv(tr)
    assert path.read_text(encoding="utf-8").endswith(f"\n0,1,511,1024,{outcome}\n")


# every digit-count boundary and the ends of the int64 range
_CSV_EDGE_VALUES = sorted(
    {0, 2**63 - 1, -(2**63 - 1), -(2**63)}
    | {sign * v for j in range(1, 19) for v in (10**j - 1, 10**j) for sign in (1, -1)}
)
# the column types a session passes to the writer
_CSV_DTYPES = [np.uint8, np.uint16, np.uint32, np.int8, np.int64]


def _csv_column(dtype, n: int):
    """n values of dtype, drawn from its whole range or from the edge values inside it."""
    info = np.iinfo(dtype)
    edges = [v for v in _CSV_EDGE_VALUES if info.min <= v <= info.max] + [info.min, info.max]
    values = st.one_of(st.integers(info.min, info.max), st.sampled_from(edges))
    return st.lists(values, min_size=n, max_size=n).map(lambda vs: np.array(vs, dtype))


_csv_tables = st.integers(min_value=1, max_value=300).flatmap(
    lambda n: st.lists(st.sampled_from(_CSV_DTYPES).flatmap(lambda dt: _csv_column(dt, n)),
                       min_size=1, max_size=5)
)


@given(_csv_tables, _csv_tables)
@settings(max_examples=100, deadline=None)
def test_csv_rows_matches_str_of_every_field(first, second):
    scratch = {}  # shared by both tables, as to_csv shares it between chunks
    for columns in (first, second):
        rows = zip(*(col.tolist() for col in columns))
        expected = "".join(",".join(map(str, row)) + "\n" for row in rows).encode("ascii")
        assert protocol._csv_rows(columns, scratch).tobytes() == expected


def test_csv_rows_renders_int64_min_exactly():
    col = np.array([-(2**63), 2**63 - 1, -1, 0], dtype=np.int64)
    assert protocol._csv_rows([col]).tobytes() == (
        b"-9223372036854775808\n9223372036854775807\n-1\n0\n"
    )
    assert protocol._csv_rows([col, col[::-1]]).tobytes() == (
        b"-9223372036854775808,0\n9223372036854775807,-1\n"
        b"-1,9223372036854775807\n0,-9223372036854775808\n"
    )


def test_transcript_csv_rejects_non_integer_columns(tmp_path):
    ints = np.array([0, 1])
    tr = ProtocolTranscript(m=1, x=np.array([0.0, 1.5]), r=ints, theta=ints, outcome=ints)
    with pytest.raises(TypeError):
        tr.to_csv(tmp_path / "t.csv")


# chunk sizes that divide 98, so the bad row starts a chunk in the middle
@pytest.mark.parametrize("chunk", [1, 2])
def test_transcript_csv_error_in_middle_chunk_propagates(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(detection, "_CHUNK_ROWS", chunk)
    real_csv_rows = protocol._csv_rows

    def csv_rows_with_float_x_at_row_98(columns, *scratch):
        if columns[0][0] == 98:
            columns = (columns[0], columns[1] + 0.5, *columns[2:])
        return real_csv_rows(columns, *scratch)

    monkeypatch.setattr(protocol, "_csv_rows", csv_rows_with_float_x_at_row_98)
    tr = _mixed_transcript()
    path = tmp_path / "t.csv"
    with pytest.raises(TypeError):
        tr.to_csv(path)
    # the chunks before the bad one were written, in order
    assert path.read_text(encoding="utf-8") == "".join(_per_row_csv(tr).splitlines(True)[:99])


def test_multiparty_single_party_reduces_to_run_protocol():
    params = ProtocolParams(d=16, m=4, n_rounds=3000, seed=3,
                            channel=ChannelModel(length_km=50.0),
                            detector=DetectorModel(eta=0.66, visibility=0.995, p_dark=1e-8))
    transcripts = multiparty_run(params, 1)
    single = run_protocol(params)
    assert len(transcripts) == 1
    assert transcripts[0].m == 4
    for field in ("x", "r", "theta", "outcome"):
        assert np.array_equal(getattr(transcripts[0], field), getattr(single, field))


def test_multiparty_noiseless_keys_agree_with_alice():
    params = ProtocolParams(d=16, m=3, n_rounds=4000, seed=8, detector=IDEAL)
    transcripts = multiparty_run(params, 3)
    assert len(transcripts) == 3
    for tr in transcripts:
        assert tr.m == 1
        assert tr.n_clicks == tr.n_rounds
        assert np.array_equal(tr.outcome[tr.clicked], tr.alice_sifted)
        assert np.array_equal(tr.x, transcripts[0].x)


def test_multiparty_hands_each_transcript_over_in_party_order():
    params = ProtocolParams(d=16, m=6, n_rounds=3000, seed=5,
                            channel=ChannelModel(length_km=25.0), detector=DetectorModel())
    kept = multiparty_run(params, 3)
    handed = multiparty_run(params, 3, lambda p, tr: (p, tr.outcome.copy()))
    assert [p for p, _ in handed] == [0, 1, 2]
    for (_, outcome), tr in zip(handed, kept):
        assert np.array_equal(outcome, tr.outcome)


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
    assert [tr.m for tr in multiparty_run(params, 3)] == [3, 3, 3]
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


@pytest.mark.parametrize(
    "bits", [[0.5, 1, 0.9, 1], [0.0, np.nan], [1.0, 2.0], [1, -1, 0], [1.0, np.inf]]
)
def test_privacy_amplify_rejects_non_bits(bits):
    # checked before any cast: a truncating cast would read 0.5 and 0.9 as 0
    with pytest.raises(ValueError):
        privacy_amplify(bits, seed=1, out_len=2)


@pytest.mark.parametrize("dtype", [bool, np.int8, np.uint8, np.int64, np.float64])
def test_privacy_amplify_accepts_bit_dtypes(dtype):
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0])
    want = privacy_amplify(bits, seed=3, out_len=5)
    assert np.array_equal(privacy_amplify(bits.astype(dtype), seed=3, out_len=5), want)
    assert np.array_equal(privacy_amplify(bits.astype(dtype).tolist(), seed=3, out_len=5), want)


def _toeplitz_reference(bits, seed, out_len):
    n = len(bits)
    diag = np.random.default_rng(seed).integers(0, 2, size=out_len + n - 1)
    j, i = np.meshgrid(np.arange(out_len), np.arange(n), indexing="ij")
    toeplitz = diag[j - i + n - 1]  # T[j, i] = diag[j - i + n - 1]
    return (toeplitz @ np.asarray(bits)) % 2


def test_privacy_amplify_matches_explicit_toeplitz_matrix():
    rng = np.random.default_rng(64)
    for n in range(1, 65):
        bits = rng.integers(0, 2, size=n)
        for out_len in range(1, n + 1):
            seed = n * 100 + out_len
            got = privacy_amplify(bits, seed, out_len)
            assert got.dtype == np.uint8
            assert np.array_equal(got, _toeplitz_reference(bits, seed, out_len)), (n, out_len)


@pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 4097])
def test_privacy_amplify_matches_direct_convolution(n):
    # out_len + n - 1 falls on both sides of the powers of two 1024, 2048 and 8192
    bits = np.random.default_rng(n).integers(0, 2, size=n)
    for out_len in sorted({1, n // 2, n} - {0}):
        diag = np.random.default_rng(7).integers(0, 2, size=out_len + n - 1)
        want = np.convolve(diag, bits)[n - 1 : n - 1 + out_len] % 2
        assert np.array_equal(privacy_amplify(bits, 7, out_len), want), out_len


def test_privacy_amplify_output_is_pinned():
    # SHA-256 of the output of the direct O(n^2) convolution it replaced
    bits = np.random.default_rng(60000).integers(0, 2, size=60000)
    key = privacy_amplify(bits, seed=30000, out_len=30000)
    assert key.dtype == np.uint8 and key.shape == (30000,)
    assert hashlib.sha256(key.tobytes()).hexdigest() == (
        "726109ab7e940c392ad9ba32291c1a737870f647698ef10ecb20fd24f0840def"
    )


def test_privacy_amplify_rejects_inexact_convolution(monkeypatch):
    bits = np.random.default_rng(5).integers(0, 2, size=100)
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kwargs: irfft(*args, **kwargs) + 0.4)
    with pytest.raises(FloatingPointError):
        privacy_amplify(bits, seed=1, out_len=50)


def test_privacy_amplify_size_cap(monkeypatch):
    monkeypatch.setattr(protocol, "PRIVACY_AMPLIFY_MAX_FFT_LEN", 16)
    bits = np.ones(9, dtype=np.int64)
    # out_len + n - 1 = 16 needs an FFT of length 16, at the cap
    assert privacy_amplify(bits, seed=1, out_len=8).size == 8

    def no_draw(*args, **kwargs):
        raise AssertionError("the cap must be checked before the diagonal is drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(CapabilityError):
        privacy_amplify(bits, seed=1, out_len=9)  # 9 + 9 - 1 = 17 needs length 32
    assert privacy_amplify(bits, seed=1, out_len=0).size == 0


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
