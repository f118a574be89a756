"""Construction and verification of the mutually unbiased basis families."""

import hashlib

import numpy as np
import pytest

from mubqct import mub
from mubqct.errors import CapabilityError
from mubqct.galois import IRREDUCIBLE_F2_POLYS, gf_mul, phase_tables
from mubqct import (
    Dimension,
    MubFamily,
    build_mub_family,
    certify_build,
    verify_unbiasedness,
)
from tests.conftest import (
    cached_family,
    exact_mub_check,
    half_projector,
    mul_table,
    reference_mub_check,
    z4_form,
)


def _diagonalizes(basis: np.ndarray, op: np.ndarray) -> bool:
    m = basis.conj().T @ op @ basis
    off = m - np.diag(np.diagonal(m))
    return bool(np.max(np.abs(off)) < 1e-12)


def test_k1_bases_diagonalize_the_three_paulis():
    fam = cached_family(1)
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    pauli_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    pauli_z = np.diag([1.0, -1.0]).astype(complex)
    assert np.array_equal(fam.bases[0], np.eye(2))
    assert _diagonalizes(fam.bases[0], pauli_z)
    flags = sorted(
        (_diagonalizes(fam.bases[t], pauli_x), _diagonalizes(fam.bases[t], pauli_y))
        for t in (1, 2)
    )
    assert flags == [(False, True), (True, False)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_exhaustive_verification_passes(k):
    fam = cached_family(k)
    assert fam.n_bases == fam.d + 1
    report = verify_unbiasedness(fam, tol=1e-9)
    assert report.passed
    assert report.max_orthonormality_dev <= 1e-9
    assert report.max_unbiasedness_dev <= 1e-9


def test_theta_zero_is_the_computational_basis():
    for k in (1, 2, 3, 4):
        fam = cached_family(k)
        assert np.array_equal(fam.bases[0], np.eye(fam.d))


def test_build_is_deterministic():
    a = build_mub_family(3)
    b = build_mub_family(3)
    assert a.bases.tobytes() == b.bases.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_completeness_of_each_basis(k):
    fam = cached_family(k)
    eye = np.eye(fam.d)
    for theta in range(fam.n_bases):
        b = fam.bases[theta]
        resolved = b @ b.conj().T
        assert np.max(np.abs(resolved - eye)) < 1e-9


def test_first_component_phase_convention():
    for k in (1, 2, 3):
        fam = cached_family(k)
        first_rows = fam.bases[1:, 0, :]
        assert np.all(first_rows.imag == 0)
        assert np.all(first_rows.real > 0)


def test_k2_cross_overlaps_are_exactly_half():
    fam = cached_family(2)
    for t1 in range(5):
        for t2 in range(t1 + 1, 5):
            overlaps = np.abs(fam.bases[t1].conj().T @ fam.bases[t2])
            assert np.max(np.abs(overlaps - 0.5)) < 1e-12


def test_perturbed_family_fails_with_located_deviation():
    fam = cached_family(2)
    bases = fam.bases.copy()
    bases[1][:, 2] *= 1.01
    bad = MubFamily(dimension=fam.dimension, bases=bases)
    report = verify_unbiasedness(bad, tol=1e-9)
    assert not report.passed
    assert report.max_orthonormality_dev == pytest.approx(1.01**2 - 1.0, rel=1e-9)
    assert report.worst_orthonormality == (1, 2, 2)
    # the scaled column also skews cross-basis overlaps by one percent of 1/2
    assert report.max_unbiasedness_dev == pytest.approx(0.005, rel=1e-6)


def test_verification_report_to_dict_shape():
    report = verify_unbiasedness(cached_family(1))
    d = report.to_dict()
    assert d["passed"] is True
    assert d["d"] == 2 and d["n_bases"] == 3
    assert set(d["worst_orthonormality"]) == {"theta", "i", "j"}
    assert set(d["worst_unbiasedness"]) == {"theta1", "theta2", "i", "j"}


def test_half_projectors_split_the_identity():
    fam = cached_family(2)
    for theta in range(fam.n_bases):
        p0, p1 = half_projector(fam, theta, 0), half_projector(fam, theta, 1)
        assert np.max(np.abs(p0 + p1 - np.eye(4))) < 1e-12
        assert np.max(np.abs(p0 @ p0 - p0)) < 1e-12
    with pytest.raises(ValueError):
        half_projector(fam, 0, 2)
    with pytest.raises(ValueError):
        half_projector(fam, 5, 0)


def test_dimension_validation():
    assert Dimension.from_k(3) == Dimension(k=3, d=8)
    assert Dimension.from_d(16).k == 4
    with pytest.raises(ValueError):
        Dimension.from_k(0)
    with pytest.raises(ValueError):
        Dimension.from_d(12)
    with pytest.raises(ValueError):
        Dimension.from_d(1)
    with pytest.raises(ValueError):
        Dimension(k=2, d=8)


@pytest.mark.parametrize("value", [True, False, 1.0])
def test_dimension_rejects_bool_and_float(value):
    # bool is an int subclass: True would otherwise pass as k = 1, d = 2
    for make in (Dimension.from_k, Dimension.from_d, lambda v: Dimension(k=v, d=2),
                 lambda v: Dimension(k=1, d=v)):
        with pytest.raises(ValueError):
            make(value)


def test_build_rejects_out_of_range_k():
    for bad in (0, -1, 17, 1.5, True):
        with pytest.raises(ValueError):
            build_mub_family(bad)
    # the field tables reach k = 16, the complex family stops at k = 8
    for k in (9, 16):
        with pytest.raises(CapabilityError, match="built for k <= 8"):
            build_mub_family(k)


def test_family_array_is_read_only():
    fam = cached_family(2)
    with pytest.raises(ValueError):
        fam.bases[0, 0, 0] = 0.0


def test_mub_family_shape_validation():
    with pytest.raises(ValueError):
        MubFamily(dimension=Dimension.from_k(2), bases=np.zeros((4, 4, 4), dtype=complex))


@pytest.mark.parametrize("k", range(1, 9))
def test_row_zero_is_real_positive_for_every_k(k):
    # row 0 of every non-computational basis is i^(Tr(0))/sqrt(d) = 1/sqrt(d)
    fam = cached_family(k) if k <= 7 else build_mub_family(k)
    first_rows = fam.bases[1:, 0, :]
    assert np.all(first_rows.imag == 0)
    assert np.all(first_rows.real > 0)


# sha256 of build_mub_family(k).bases.tobytes(), frozen from the build that
# formed every basis's exponent table from scratch; array_equal cannot see a
# 0.0 that turned into -0.0, the bytes can
FAMILY_SHA256 = {
    1: "b9d9f13c056e51c9795cf0e33dd6ddd1074792360b1236348ab016463bfde4b2",
    2: "bd6ecb7b05bd40d4cab9b27fd7318c1b0ca080ca2904e52afda0d6aed54c0bd6",
    3: "aab31b238dc5e17e1b884543dae37b566e0197321f0dd999026d13954383b856",
    4: "94525f26ef91400f9cf7f575b1b1bfadffb3325b322072a6a1f3b5434e6e3ba8",
    5: "bbdc18bcd22e6468fe64f50dc32a274db2c31bbe26e24dd14fc3388b48b80f7e",
    6: "9987cba717e3d48a458236bcb42af89cccd5dceed6f08b37bd60e94c6fc47398",
    7: "eaff22c7cc072beef411f704874a971f540c571dbb61ebc913c0df40146e4339",
    8: "86054ccb5f656d20521a1a23fa13a858431c4e10f36289c87786ba2fb8d504ef",
}


@pytest.mark.parametrize("k", range(1, 9))
def test_family_bytes_match_pinned_digest(k):
    fam = cached_family(k) if k <= 7 else build_mub_family(k)
    assert hashlib.sha256(fam.bases.tobytes()).hexdigest() == FAMILY_SHA256[k]


def _verify_pairwise(fam):
    """One product per pair of bases: (max ortho dev, where, max unbiased dev, where)."""
    bases, d, n = fam.bases, fam.d, fam.n_bases
    best_o, where_o, best_u, where_u = -1.0, (0, 0, 0), -1.0, (0, 1, 0, 0)
    for t1 in range(n):
        dev = np.abs(bases[t1].conj().T @ bases[t1] - np.eye(d))
        for (i, j), v in np.ndenumerate(dev):
            if v > best_o:
                best_o, where_o = float(v), (t1, i, j)
        for t2 in range(t1 + 1, n):
            dev = np.abs(np.abs(bases[t1].conj().T @ bases[t2]) - 1.0 / np.sqrt(d))
            for (i, j), v in np.ndenumerate(dev):
                if v > best_u:
                    best_u, where_u = float(v), (t1, t2, i, j)
    return best_o, where_o, best_u, where_u


def _perturbed_k3_family():
    fam = cached_family(3)
    bases = fam.bases.copy()
    bases[3][:, 5] *= 1.002
    bases[6][:, 1] = (bases[6][:, 1] + 0.01 * bases[6][:, 2]) / np.sqrt(1.0001)
    return MubFamily(dimension=fam.dimension, bases=bases)


@pytest.mark.parametrize("inverse_tol", [64, 3 * 64, 1 << 20])
@pytest.mark.parametrize("which", ["perturbed", 1, 2, 3, 4])
def test_blocked_verification_matches_pairwise_loop(which, inverse_tol):
    # tol only gates `passed`: the perturbed family (devs 0.0100 and 0.0036)
    # passes at 1/64 and fails at 1/192 and 2^-20
    fam = _perturbed_k3_family() if which == "perturbed" else cached_family(which)
    want = _verify_pairwise(fam)
    for tol in (1e-9, 1.0 / inverse_tol):
        report = verify_unbiasedness(fam, tol=tol)
        assert (
            report.max_orthonormality_dev,
            report.worst_orthonormality,
            report.max_unbiasedness_dev,
            report.worst_unbiasedness,
        ) == want
        assert report.tol == tol
        assert report.passed == (want[0] <= tol and want[2] <= tol)
    if which == "perturbed":
        assert not verify_unbiasedness(fam, tol=1e-9).passed
        assert report.passed == (inverse_tol == 64)
        assert report.worst_unbiasedness[:2] != (0, 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_certificate_agrees_with_the_float_check(k):
    fam = cached_family(k)
    cert, ref = certify_build(k), verify_unbiasedness(fam)
    assert cert.exact and not ref.exact
    assert cert.passed == ref.passed is True
    assert abs(cert.max_orthonormality_dev - ref.max_orthonormality_dev) <= 1.2e-16
    assert abs(cert.max_unbiasedness_dev - ref.max_unbiasedness_dev) <= 1.2e-16
    # d s^2 - 1 and sqrt(d) s^2 - s, with s = 1/sqrt(d) rounded
    assert cert.max_orthonormality_dev == (2.0**-52 if k % 2 else 0.0)
    assert cert.max_unbiasedness_dev == 0.0
    assert cert.to_dict()["exact"] is True


def test_exact_check_needs_a_sign_pattern_and_orthogonal_columns():
    mul, (tr2, tr4) = mul_table(3), phase_tables(3)
    e, h = tr4[mul], 1.0 - 2.0 * tr2[mul]
    assert exact_mub_check(e, h)
    assert not exact_mub_check(e, 2.0 * h)
    repeated = h.copy()
    repeated[:, 3] = repeated[:, 2]
    assert not exact_mub_check(e, repeated)


def test_exact_check_needs_the_closure_of_the_sign_pattern():
    # negating row x = 1 of h, and adding 2 to the second basis's exponent
    # at x = 1, leaves every sum S(c) of the pair as it was; but h[:, i] *
    # h[:, j] is no longer +-h[:, c], the sums no longer cover the Gram
    # matrix, and the two bases are in fact biased
    mul, (tr2, tr4) = mul_table(3), phase_tables(3)
    e, h = tr4[mul][1:3], 1.0 - 2.0 * tr2[mul]
    assert exact_mub_check(e, h)
    row = np.arange(8) == 1
    e2 = np.stack([e[0], (e[1] + 2 * row) % 4])
    h2 = np.where(row[:, None], -h, h)
    assert not exact_mub_check(e2, h2)
    b0, b1 = ((1j ** e2[a])[:, None] * h2 / np.sqrt(8) for a in (0, 1))
    assert np.max(np.abs(np.abs(b0.conj().T @ b1) - 1 / np.sqrt(8))) > 0.1


# ------------------------------------------------- quadratic-form check


def _built_form(k):
    fam = cached_family(k)
    return z4_form(fam.bases[1:], fam.d)


def _agrees(e, h) -> bool:
    """The form check and the Gaussian-sum reference on (e, h); their common verdict."""
    verdict = exact_mub_check(e, h)
    assert verdict == reference_mub_check(e, h)
    return verdict


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_form_check_agrees_with_the_reference_on_the_built_tables(k):
    assert _agrees(*_built_form(k))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_form_check_agrees_with_the_reference_on_every_single_phase_shift(k):
    e, h = _built_form(k)
    d = 1 << k
    kept = 0
    for a in range(d):
        for x in range(d):
            for shift in (1, 2, 3):
                shifted = e.copy()
                shifted[a, x] = (shifted[a, x] + shift) % 4
                kept += _agrees(shifted, h)
    # at k = 1 a shift by 2 only re-signs or swaps the two vectors of a
    # basis (at x = 0 it is a global sign, which the form check must
    # normalise away); from k = 2 on every single shift breaks the set
    assert kept == (4 if k == 1 else 0)


def test_form_check_agrees_with_the_reference_on_sampled_phase_shifts_at_k7():
    e, h = _built_form(7)
    rng = np.random.default_rng(16)
    samples = zip(rng.integers(0, 128, 12), rng.integers(0, 128, 12), rng.integers(1, 4, 12))
    for a, x, shift in samples:
        shifted = e.copy()
        shifted[a, x] = (shifted[a, x] + shift) % 4
        assert not _agrees(shifted, h), (a, x, shift)


def test_form_check_rejects_a_copied_basis_row():
    e, h = _built_form(4)
    e = e.copy()
    e[5] = e[2]  # B_2 ^ B_5 = 0, rank 0
    assert not _agrees(e, h)


def test_form_check_rejects_a_duplicated_column_and_accepts_a_swap():
    e, h = _built_form(4)
    duplicated = h.copy()
    duplicated[:, 7] = duplicated[:, 3]
    assert not _agrees(e, duplicated)
    # a swap only relabels two vectors of every basis: still a MUB set
    assert _agrees(e, h[:, [0, 1, 2, 7, 4, 5, 6, 3, 8, 9, 10, 11, 12, 13, 14, 15]])


def test_form_check_rejects_rows_of_h_swapped_off_the_generators():
    # rows 3 and 5 are no generator rows, so the masks read from h and the
    # forms of e stay valid; only the character test sees the swap
    e, h = _built_form(4)
    assert not _agrees(e, h[[0, 1, 2, 5, 4, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]])


def test_form_check_rejects_the_closure_counterexample():
    mul, (tr2, tr4) = mul_table(3), phase_tables(3)
    e, h = tr4[mul][1:3], 1.0 - 2.0 * tr2[mul]
    row = np.arange(8) == 1
    assert not _agrees(np.stack([e[0], (e[1] + 2 * row) % 4]), np.where(row[:, None], -h, h))


def _tables(tr2, tr4, perm):
    """(E, 1 - T) of `mub._exponent_tables`, formed from the tables the certificate reads."""
    k = len(tr2).bit_length() - 1
    product = gf_mul(np.arange(1 << k)[:, None], perm[None, :], k)
    return tr4[product], 1 - 2 * tr2[product[perm]]


def _lemma_agrees(tr2, tr4, perm) -> bool:
    """The trace-form certificate and the form check of its tables; their common verdict."""
    verdict = mub._trace_form_failure(tr2, tr4, perm) is None
    assert verdict == exact_mub_check(*_tables(tr2, tr4, perm))
    return verdict


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_trace_form_agrees_with_the_reference_on_the_built_tables(k):
    assert _lemma_agrees(*mub._field_tables(k))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
def test_trace_form_agrees_with_the_reference_on_shifted_traces(k):
    tr2, tr4, perm = mub._field_tables(k)
    d = 1 << k
    kept = 0
    for u in range(0, d, max(1, d >> 5)):  # every entry up to k = 5, every 8th at k = 8
        for shift in (1, 2):
            shifted = tr4.copy()
            shifted[u] = (shifted[u] + shift) % 4
            kept += _lemma_agrees(tr2, shifted, perm)
    # at k = 1 a shift by 2 of either entry conjugates the basis, up to a
    # global phase; from k = 2 on every single shift breaks the set
    assert kept == (2 if k == 1 else 0)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_trace_form_agrees_with_the_reference_on_a_flipped_trace(k):
    tr2, tr4, perm = mub._field_tables(k)
    for u in range(1 << k):
        flipped = tr2.copy()
        flipped[u] ^= 1
        assert not _lemma_agrees(flipped, tr4, perm), u


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_trace_form_agrees_with_the_reference_on_a_degenerate_trace_form(k):
    # zero traces pass the character and form laws, but tr(uv) = 0 has
    # rank 0: every basis is the one Hadamard basis
    zero = np.zeros(1 << k, dtype=np.int64)
    assert not _lemma_agrees(zero, zero, mub._field_tables(k)[2])


@pytest.mark.parametrize("k", [3, 4, 5])
def test_trace_form_agrees_with_the_reference_on_a_bad_labeling(k):
    # a swap relabels rows and vectors alike, so the family stays unbiased,
    # but its tables leave the form that both checks decide
    tr2, tr4, perm = mub._field_tables(k)
    for i, j in [(0, 1), (3, 5), (1, (1 << k) - 1)]:
        swapped = perm.copy()
        swapped[[i, j]] = swapped[[j, i]]
        assert not _lemma_agrees(tr2, tr4, swapped), (i, j)
    # a linear labeling of rank k - 1 repeats every column
    assert not _lemma_agrees(tr2, tr4, perm & ~1)


def test_trace_form_agrees_with_the_reference_under_a_reducible_modulus(monkeypatch):
    # x^2 + x = x (x + 1): the ring F2 x F2, with zero divisors
    tr2, tr4, perm = mub._field_tables(2)
    monkeypatch.setitem(IRREDUCIBLE_F2_POLYS, 2, 0b110)
    assert not _lemma_agrees(tr2, tr4, perm)
    # tables that pass every test but the field's: tr2 = the coefficient
    # of x makes tr2(uv) nondegenerate and tr4 refines it, but x (x + 1) =
    # 0, so the bases of a = 1 and a = 3 are biased
    tr2, tr4 = np.array([0, 0, 1, 1]), np.array([0, 0, 1, 3])
    assert not _lemma_agrees(tr2, tr4, perm)
    assert not reference_mub_check(*_tables(tr2, tr4, perm))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_certify_build_decodes_the_bytes_of_build_mub_family(k, monkeypatch):
    # the certificate reads the field tables, the build writes the tables
    # they give, and the bytes of the built family decode back to exactly
    # those tables, so the certificate covers the bytes
    checked, check = [], mub._trace_form_failure

    def spy(tr2, tr4, perm):
        checked.append((tr2.copy(), tr4.copy(), perm.copy()))
        return check(tr2, tr4, perm)

    monkeypatch.setattr(mub, "_trace_form_failure", spy)
    report = mub.certify_build(k)
    assert report.exact and report.passed
    [read] = checked
    e, h = _tables(*read)
    assert exact_mub_check(e, h)
    table_e, table_t = mub._exponent_tables(k)
    assert np.array_equal(e, table_e) and np.array_equal(h, 1 - table_t)
    decoded_e, decoded_h = _built_form(k)
    assert np.array_equal(decoded_e, e) and np.array_equal(decoded_h, h)
    assert decoded_e.dtype == e.dtype and decoded_h.dtype == h.dtype


def _no_call(*args, **kwargs):
    raise AssertionError("the certificate built or float-checked a family")


@pytest.mark.parametrize("k", range(1, 17))
def test_certify_build_proves_every_k_without_building(k, monkeypatch):
    monkeypatch.setattr(mub, "build_mub_family", _no_call)
    monkeypatch.setattr(mub, "verify_unbiasedness", _no_call)
    report = certify_build(k)
    assert report.exact and report.passed
    assert (report.d, report.n_bases) == (2**k, 2**k + 1)
    assert report == mub._exact_report(2**k, 1e-9)


def _one_ulp_out(z):
    return complex(np.nextafter(z.real, 2 * z.real), np.nextafter(z.imag, 2 * z.imag))


@pytest.mark.parametrize(
    "op", [lambda z: -z, lambda z: 1j * z, _one_ulp_out], ids=["sign", "times-i", "one-ulp"]
)
@pytest.mark.parametrize("row", [0, 3])
def test_decoder_refuses_a_moved_entry(op, row):
    # entry (3, 7) of basis 5 is i/4 at d = 16; row 0 holds the real 1/4,
    # which a decoder that skipped the exact on-axis test would misread
    # as an unmoved phase 0.  Only a strict decoder makes the equality of
    # decoded bytes and tables above an equality of bytes
    fam = cached_family(4)
    bases = fam.bases[1:].copy()
    bases[4, row, 7] = op(bases[4, row, 7])
    assert z4_form(bases, 16) is None


def _swap_3_5(table):
    swapped = table.copy()
    swapped[[3, 5]] = swapped[[5, 3]]
    return swapped


# one mutation of the k = 3 tables per check of the certificate, in its
# order: each keeps every earlier check and fails this one
_MUTATIONS = {
    "field": None,  # the tables stay; the modulus becomes reducible
    "character": lambda tr2, tr4, perm: (tr2 ^ (np.arange(8) == 1), tr4, perm),
    "Z4 form": lambda tr2, tr4, perm: (tr2, (tr4 + (np.arange(8) == 1)) % 4, perm),
    "nondegenerate trace form": lambda tr2, tr4, perm: (0 * tr2, 0 * tr4, perm),
    "linear onto perm": lambda tr2, tr4, perm: (tr2, tr4, _swap_3_5(perm)),
}


@pytest.mark.parametrize("check", list(_MUTATIONS), ids=lambda check: check.replace(" ", "-"))
def test_failed_certificate_raises_naming_its_check(check, monkeypatch):
    tables = mub._field_tables(3)
    if _MUTATIONS[check] is None:
        monkeypatch.setitem(IRREDUCIBLE_F2_POLYS, 3, 0b1001)  # x^3 + 1 = (x + 1)(x^2 + x + 1)
    else:
        tables = _MUTATIONS[check](*tables)
    monkeypatch.setattr(mub, "_field_tables", lambda k: tables)
    monkeypatch.setattr(mub, "build_mub_family", _no_call)
    monkeypatch.setattr(mub, "verify_unbiasedness", _no_call)
    with pytest.raises(ValueError) as info:
        mub.certify_build(3)
    assert str(info.value) == f"the trace tables of k = 3 fail the certificate's {check} check"


