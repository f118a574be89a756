"""Field arithmetic and the integer phase tables, checked against brute-force oracles."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mubqct.galois import IRREDUCIBLE_F2_POLYS, MAX_K, gf_mul, phase_tables
from tests.conftest import exact_mub_check, mul_table

ALL_K = sorted(IRREDUCIBLE_F2_POLYS)
# the k whose d x d product table the tests form: 512 KiB of int64 at k = 8
TABLE_K = list(range(1, 9))

# SHA-256 of the int64 bytes of mul_table(k) and the (tr2, tr4) of
# phase_tables(k), recorded from an independent construction of the same
# tables by arithmetic in the Galois ring GR(4, k)
PINNED_TABLE_DIGESTS = {
    1: (
        "013f21dd7052786e2c338b57f23ec2c7feb0c12f7b3b28fbb5affaca27103f51",
        "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
        "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
    ),
    2: (
        "474cf06ceecdd9b03e3393a168cc7647d618e70ce2198a12bd3fc725fbf43a97",
        "b64c0d4ec2af5aba75d0e38754bd4da29669e6bd54220441f3710964fdb4ece3",
        "68cda05c81e57db9bb70e4d3ac1d23ff85aacb852a10836cadbec797ecfe6692",
    ),
    3: (
        "b4c2ddaec51f537d05ddb97b8c98d34fd459015c2542bd52d75be6cb17333385",
        "33215a82af4d2b1a6bdb51d92f68497323c6e25e1c61ada061ddd083e2bb703c",
        "385e51bf809481b7e9ebdf7f44f5656547f567084906ba585c7af990f98661fd",
    ),
    4: (
        "b046715b8028e85995ded1d0c46fda22cb437f4139bac09ae950c835e1cb211b",
        "617e68376fdabdad143eeb7ebecc8ab8b129d6f3cc03d6e70747a6607b2edf6c",
        "f676796898809a81f4bc323177c9874230fa1756cb3f40cb807f24d98717a8ff",
    ),
    5: (
        "9db49a981e72f1d950c2f4f07c8e5d12eea08444efbe3c13db3e8bcb3ebc05f8",
        "9cb24ef6553b7dfcf27ba69e6995074aac2d7e0008236d2ba1ab7ca42f3bc7a5",
        "7fa39130e1b198c3a1b3085be53178abc3c3832393b4f7eb0dca3db418dca235",
    ),
    6: (
        "9acd8acc8ab7fd85c547e23b9434dd56ad81d7f96083dffa48ae285f9825df49",
        "3349fd64e20946142a40ac7985e47e1e490736176003ce3df583adc51c296d3b",
        "c58f1395cd3cc2b72ca52df55fb2f01b5161da4b81c38d731ec7207a70d98d74",
    ),
    7: (
        "3daad9b5dfc1f6b3a5a5a33c26cf6b7508bf80df782a151b2c1a16e3c6a64d5b",
        "a99efd10c504bdcfe331b2f90361e6dd462cb3197faead44b8acc4307323af30",
        "6bddebd06dbc6d73aadf6ccb8bbf388484af53d02b1e9f92da0b8120963d7bfd",
    ),
    8: (
        "23fd2bfb28904303c8ad64cec3dff35b2301ab5872d7212fc4aa205f0adac99c",
        "7d0421ca404dd6852bd8925031b1fc1670b96d4166ad206321c62a15874503d2",
        "bbdb4defa5e4d087b1d9c10263956247b1be976e9ec22d60dc2f1f702d3ee4c5",
    ),
}


def _poly_mul_f2(a: int, b: int) -> int:
    """Carry-less polynomial product, no reduction."""
    acc = 0
    shift = 0
    while b >> shift:
        if (b >> shift) & 1:
            acc ^= a << shift
        shift += 1
    return acc


def _poly_mod_f2(a: int, b: int) -> int:
    """Remainder of the F2 polynomial a divided by the nonzero b."""
    while a.bit_length() >= b.bit_length():
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def _has_small_factor(poly: int) -> bool:
    """Whether some polynomial of degree 1..deg(poly)/2 divides poly."""
    half = (poly.bit_length() - 1) // 2
    return any(_poly_mod_f2(poly, divisor) == 0 for divisor in range(2, 1 << (half + 1)))


def test_table_polynomials_are_irreducible():
    # trial division: a reducible degree-k polynomial has a factor of
    # degree 1..k/2, and there are fewer than 2^(k/2 + 1) of those; all
    # sixteen entries take about 1.4 ms (2 cores, Python 3.11)
    for k, poly in IRREDUCIBLE_F2_POLYS.items():
        assert poly.bit_length() == k + 1, f"k={k} entry has wrong degree"
        assert not _has_small_factor(poly), f"k={k}: {poly:#b} is reducible"


def test_trial_division_finds_a_factor_of_every_product():
    # every product of two nonconstant polynomials of degree <= 4
    for a in range(2, 32):
        for b in range(a, 32):
            assert _has_small_factor(_poly_mul_f2(a, b)), (a, b)


def test_max_k_matches_table():
    assert MAX_K == 16
    assert ALL_K == list(range(1, 17))


@pytest.mark.parametrize("k", TABLE_K)
def test_phase_tables_match_pinned_digests(k):
    tables = (mul_table(k), *phase_tables(k))
    assert all(t.dtype == np.int64 for t in tables)
    digests = tuple(hashlib.sha256(t.tobytes()).hexdigest() for t in tables)
    assert digests == PINNED_TABLE_DIGESTS[k]


def test_phase_tables_rejects_unsupported_k():
    with pytest.raises(ValueError):
        phase_tables(0)
    with pytest.raises(ValueError):
        phase_tables(MAX_K + 1)
    # k is a Python int: True, 1.0 and numpy scalars are refused, before and
    # after the cache holds the int k tables they compare equal to
    phase_tables.cache_clear()
    for warm in (False, True):
        if warm:
            phase_tables(1)
            phase_tables(2)
        for bad in (True, 1.0, np.int64(2)):
            with pytest.raises(ValueError, match=r"k must be an integer in 1\.\.16"):
                phase_tables(bad)


def test_reducible_modulus_trips_the_trace_guard(monkeypatch):
    # x^3 + 1 = (x + 1)(x^2 + x + 1): the "trace" leaves F2
    monkeypatch.setitem(IRREDUCIBLE_F2_POLYS, 3, 0b1001)
    with pytest.raises(AssertionError):
        phase_tables.__wrapped__(3)


_field_point = st.tuples(
    st.sampled_from(ALL_K),
    st.integers(min_value=0, max_value=65535),
    st.integers(min_value=0, max_value=65535),
    st.integers(min_value=0, max_value=65535),
)


@given(_field_point)
def test_gf_mul_field_axioms(point):
    k, a, b, c = point
    mask = (1 << k) - 1
    a, b, c = a & mask, b & mask, c & mask
    assert gf_mul(a, b, k) == gf_mul(b, a, k)
    assert gf_mul(a, gf_mul(b, c, k), k) == gf_mul(gf_mul(a, b, k), c, k)
    assert gf_mul(a, b ^ c, k) == gf_mul(a, b, k) ^ gf_mul(a, c, k)
    assert gf_mul(a, 1, k) == a
    # the array form agrees with the scalar form
    assert gf_mul(np.array([a, c]), np.array([b, b]), k).tolist() == [
        gf_mul(a, b, k),
        gf_mul(c, b, k),
    ]


@pytest.mark.parametrize("k", TABLE_K)
def test_nonzero_rows_of_mul_permute_the_nonzero_elements(k):
    # no zero divisors, which fails when the modulus is reducible
    mul = mul_table(k)
    d = 1 << k
    assert np.array_equal(np.sort(mul[1:, 1:], axis=1), np.tile(np.arange(1, d), (d - 1, 1)))


def test_gf_trace_additive_and_frobenius_invariant():
    for k in ALL_K:
        tr2, _ = phase_tables(k)
        u = np.arange(1 << k)
        for g in 1 << np.arange(k):
            assert np.array_equal(tr2[u ^ g], tr2 ^ tr2[g])
        assert np.array_equal(tr2[gf_mul(u, u, k)], tr2)


def test_gf_trace_is_surjective_onto_f2():
    for k in ALL_K:
        assert set(phase_tables(k)[0].tolist()) == {0, 1}


@pytest.mark.parametrize("k", ALL_K)
def test_teichmuller_lift_residue_and_fixed_point(k):
    # T(u) = u (mod 2) gives Tr(T(u)) = tr(u) (mod 2); T(u)^2 = T(u^2), and
    # the trace is Frobenius invariant, so Tr(T(u^2)) = Tr(T(u))
    tr2, tr4 = phase_tables(k)
    u = np.arange(1 << k)
    assert np.array_equal(tr4 % 2, tr2)
    assert np.array_equal(tr4[gf_mul(u, u, k)], tr4)


@pytest.mark.parametrize("k", TABLE_K)
def test_ring_trace_is_scalar_and_additive(k):
    # additivity of the Z4 trace applied to the Teichmuller sum identity
    # T(u) + T(v) = T(u ^ v) + 2 sqrt(uv), with tr(sqrt(w)) = tr(w)
    mul = mul_table(k)
    tr2, tr4 = phase_tables(k)
    u = np.arange(1 << k)
    assert set(np.unique(tr4).tolist()) <= {0, 1, 2, 3}
    lhs = tr4[:, None] + tr4[None, :]
    rhs = tr4[u[:, None] ^ u[None, :]] + 2 * tr2[mul]
    assert np.array_equal(lhs % 4, rhs % 4)


@pytest.mark.parametrize("k", range(9, 17))
def test_ring_trace_is_additive_on_the_generators_at_large_k(k):
    # the identity above at v = 1 << i, on length-d arrays
    tr2, tr4 = phase_tables(k)
    u = np.arange(1 << k)
    assert set(np.unique(tr4).tolist()) <= {0, 1, 2, 3}
    for g in 1 << np.arange(k):
        assert np.array_equal((tr4 + tr4[g]) % 4, (tr4[u ^ g] + 2 * tr2[gf_mul(u, g, k)]) % 4)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_phase_tables_consistency(k):
    tables = phase_tables(k)
    tr2, tr4 = tables
    d = 1 << k
    assert len(tables) == 2
    assert tr2.shape == (d,) and tr4.shape == (d,)
    assert set(np.unique(tr2)) <= {0, 1}
    assert tr2[0] == 0 and tr4[0] == 0
    assert not any(t.flags.writeable for t in tables)
    mul = mul_table(k)
    assert np.array_equal(mul, mul.T)
    assert mul[0].max() == 0 and mul[1].tolist() == list(range(d))


def _tables_give_exact_mubs(mul, tr2, tr4) -> bool:
    """Vector b of basis a has components i^tr4(ax) (-1)^tr(bx) / sqrt(d)."""
    return exact_mub_check(tr4[mul], 1.0 - 2.0 * tr2[mul])


@pytest.mark.parametrize("k", TABLE_K)
def test_phase_tables_give_exact_mubs(k):
    assert _tables_give_exact_mubs(mul_table(k), *phase_tables(k))


@pytest.mark.parametrize("k", [3, 5, 8])
def test_exact_mub_check_catches_a_shifted_trace(k):
    tr2, tr4 = phase_tables(k)
    d = 1 << k
    for u in range(1, d, max(1, d >> 5)):  # every u up to k = 5, every 8th at k = 8
        shifted = tr4.copy()
        shifted[u] = (shifted[u] + 2) % 4
        assert not _tables_give_exact_mubs(mul_table(k), tr2, shifted), f"shift at u={u} missed"
