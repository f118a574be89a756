"""Peak traced memory of the session, the transcript writer, the
intercept simulation, the family certificate and the closed-form adapters.

numpy reports its array allocations to tracemalloc, so the traced peak of
a call counts every temporary array it makes and the arrays it returns.
"""

import tracemalloc

import pytest

from mubqct import (
    DETECTOR_PRESETS,
    CapabilityError,
    ChannelModel,
    ProtocolParams,
    build_mub_family,
    certify_build,
    helstrom_numeric,
    lambda_numeric,
    multiparty_run,
    run_protocol,
    simulate_eve_random_basis,
)
from tests.conftest import cached_family

SNSPD = DETECTOR_PRESETS["snspd_lab"]


def _traced_peak(fn) -> int:
    """Peak bytes allocated while fn runs, its result included."""
    # numpy loads numpy.random on first use: load it here so that its module
    # objects are not counted against whichever test runs first
    import numpy.random  # noqa: F401

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _session(n_rounds, m=4):
    return ProtocolParams(d=16, m=m, n_rounds=n_rounds, seed=1,
                          channel=ChannelModel(length_km=50.0), detector=SNSPD)


# about 1.3 times the traced peak with one in-place event code per receiver:
# 4.6 B/round for run_protocol, 7.6 for a Poisson source at d = 1024 (whose
# r and theta are int16) and 6.6 for three receivers
def test_run_protocol_peak_bytes_per_round():
    n = 10**6
    assert _traced_peak(lambda: run_protocol(_session(n))) <= 6 * n


def test_poisson_run_protocol_peak_bytes_per_round():
    n = 10**6
    params = ProtocolParams(d=1024, m=1, n_rounds=n, seed=1,
                            channel=ChannelModel(length_km=50.0), detector=SNSPD,
                            photon_statistics="poisson", mu=4.0)
    assert _traced_peak(lambda: run_protocol(params)) <= 10 * n


def test_multiparty_run_peak_bytes_per_round():
    n = 10**6
    assert _traced_peak(lambda: multiparty_run(_session(n, m=3), 3)) <= 9 * n


@pytest.mark.parametrize("n_rounds", [1 << 17, 1 << 20])
def test_transcript_writer_peak_is_flat(tmp_path, n_rounds):
    # 3.1 MiB measured: one set of chunk scratch arrays and one chunk's bytes
    tr = run_protocol(_session(n_rounds))
    path = tmp_path / "t.csv"
    assert _traced_peak(lambda: tr.to_csv(path, comment="memory")) <= 4 * 2**20


# about 1.3 times the traced peak of the count over the kept integer draws:
# 4.3 B/trial at k = 1 and 5.6 at k = 6, where the chunk scratch weighs more
EVE_BYTES_PER_TRIAL = {1: 6, 6: 8}


@pytest.mark.parametrize("k, n_trials", [(1, 2 * 10**5), (6, 10**5)])
def test_eve_simulation_peak_bytes_per_trial(k, n_trials):
    family = cached_family(k)
    peak = _traced_peak(lambda: simulate_eve_random_basis(family, n_trials, seed=5))
    assert peak <= EVE_BYTES_PER_TRIAL[k] * n_trials


def test_certifying_the_largest_family_holds_one_basis_at_a_time():
    # 0.03 MiB measured at k = 8: length-d traces and their check, no
    # d x d table and no complex basis (writing and decoding one basis at
    # a time peaks at 6.3 MiB); the whole complex family alone is 270 MB
    assert _traced_peak(lambda: certify_build(8)) < 2**20


def test_certificate_at_k16_holds_length_d_arrays_only():
    # 6.5 MiB measured with the trace tables built in the call: a dozen
    # int64 arrays of d = 65536 entries, against 32 GiB for the d x d
    # product table that an earlier certificate formed
    assert _traced_peak(lambda: certify_build(16)) < 12 * 2**20


def test_build_beyond_its_cap_raises_before_allocating():
    def build():
        with pytest.raises(CapabilityError):
            build_mub_family(16)

    assert _traced_peak(build) < 2**20


@pytest.mark.parametrize("adapter", [lambda_numeric, helstrom_numeric])
def test_closed_form_adapter_checks_one_basis_at_a_time(adapter):
    # 0.79 MB measured at k = 7: one d x d complex buffer and the build's
    # exponent tables, against 36 MB when a second family was built
    family = cached_family(7)
    assert _traced_peak(lambda: adapter(family)) < 1e6
