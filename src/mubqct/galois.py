"""Arithmetic over GF(2^k) and the integer phase tables of the MUB builder.

Field elements are k-bit integers in the polynomial basis.  The basis
builder needs, besides the field product and the F2 trace tr, the Z4
trace of the Teichmuller lift T(u) in the Galois ring GR(4, k).  That
trace has a closed form over the field itself,

    Tr(T(u)) = tr(u) + 2 Q(u)  (mod 4),   Q(u) = sum_{i<j} u^(2^i + 2^j),

the identity behind the Z4-linear Kerdock and Preparata codes (Hammons,
Kumar, Calderbank, Sloane & Sole, 1994), so no ring arithmetic is needed.
Both traces are length-d arrays formed from O(k) elementwise products,
so the tables cover every k up to MAX_K = 16 (d = 65536).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Irreducible polynomials over F2, bit i = coefficient of x^i.  Low-weight
# classics; irreducibility is re-verified by the test suite.
IRREDUCIBLE_F2_POLYS = {
    1: 0b11,          # x + 1
    2: 0b111,         # x^2 + x + 1
    3: 0b1011,        # x^3 + x + 1
    4: 0b10011,       # x^4 + x + 1
    5: 0b100101,      # x^5 + x^2 + 1
    6: 0b1000011,     # x^6 + x + 1
    7: 0b10001001,    # x^7 + x^3 + 1
    8: 0b100011011,   # x^8 + x^4 + x^3 + x + 1
    9: 0x203,         # x^9 + x + 1
    10: 0x409,        # x^10 + x^3 + 1
    11: 0x805,        # x^11 + x^2 + 1
    12: 0x1009,       # x^12 + x^3 + 1
    13: 0x201B,       # x^13 + x^4 + x^3 + x + 1
    14: 0x4021,       # x^14 + x^5 + 1
    15: 0x8003,       # x^15 + x + 1
    16: 0x1002B,      # x^16 + x^5 + x^3 + x + 1
}

MAX_K = max(IRREDUCIBLE_F2_POLYS)


def gf_mul(a, b, k: int):
    """Carry-less product of field elements a and b reduced by the degree-k modulus.

    Elementwise: a and b may be Python ints or broadcastable numpy integer
    arrays; the k shift, XOR and reduce steps act on whole arrays.
    """
    poly = IRREDUCIBLE_F2_POLYS[k]
    acc = 0
    for i in range(k):
        acc ^= a * ((b >> i) & 1)
        a = a << 1
        a = a ^ poly * ((a >> k) & 1)
    return acc


@lru_cache(maxsize=None)
def phase_tables(k: int):
    """Integer tables driving the basis construction in dimension d = 2^k.

    Returns read-only int64 arrays (tr2, tr4), indexed by bitmask: tr2[u]
    is the F2 trace and tr4[u] the Z4 trace of the Teichmuller lift T(u).
    With t = T(u), the trace S = sum_i t^(2^i) satisfies S^2 = S + 2
    sum_{i<j} t^(2^i + 2^j), where the sum reduces mod 2 to Q(u); and S^2
    = tr(u) (mod 4) because S = tr(u) (mod 2).  So S = tr(u) - 2 Q(u) =
    tr(u) + 2 Q(u) (mod 4).  Q is summed as sum_j c_j (c_0 ^ ... ^ c_(j-1))
    over the conjugates c_j = u^(2^j): k length-d products, no d x d table.
    """
    if k not in IRREDUCIBLE_F2_POLYS:
        raise ValueError(f"k must be in 1..{MAX_K}, got {k}")
    u = np.arange(1 << k, dtype=np.int64)
    square = gf_mul(u, u, k)
    conj, tr2, q = u, u, np.zeros_like(u)  # tr2 is c_0 ^ ... ^ c_(j-1) until the end
    for _ in range(k - 1):
        conj = square[conj]
        q ^= gf_mul(tr2, conj, k)
        tr2 = tr2 ^ conj
    if tr2.max() > 1 or q.max() > 1:
        raise AssertionError("trace left the prime field; modulus not irreducible?")
    tr4 = tr2 + 2 * q
    for table in (tr2, tr4):
        table.setflags(write=False)
    return tr2, tr4
