"""Kronecker packing: a polynomial held as its value at q = 2**W.

When every coefficient lies in [0, 2**W), the value at q = 2**W holds one
W-bit field per coefficient, lowest first, and integer + and * on packed
values are polynomial + and * as long as no field overflows.  This module
is the one codec for it.  The lattice fold (kostant) and the gf sweep
(closedform) run their recurrences on packed integers and read the result
with unpack_fields; QPoly.__mul__ (polyring) multiplies two long
polynomials with packed_product, one big-integer product.

Signed coefficients take a bias: adding 2**(W-1) to every field makes each
field of a coefficient in [-2**(W-1), 2**(W-1)) nonnegative, and the biases
of all n fields are one integer, added or taken off at once.
"""

from __future__ import annotations


def unpack_fields(packed: int, width: int) -> list:
    """Coefficients, lowest first, of a polynomial packed at q = 2**width.

    packed must be nonnegative and every coefficient below 2**width.  The
    integer is converted to bytes once and each field is read back from the
    bytes it spans, so decoding is linear in the size of packed.  The result
    has no trailing zero fields.
    """
    bits = packed.bit_length()
    buf = packed.to_bytes(-(-bits // 8), "little")
    mask = (1 << width) - 1
    return [
        int.from_bytes(buf[lo >> 3:(lo + width + 7) >> 3], "little") >> (lo & 7) & mask
        for lo in range(0, bits, width)
    ]


def _biases(width: int, n: int) -> int:
    """2**(width-1) in each of n width-bit fields; width is a whole number of bytes."""
    return int.from_bytes((1 << (width - 1)).to_bytes(width >> 3, "little") * n, "little")


def packed_product(a: tuple, b: tuple) -> list:
    """The coefficients of a * b, for two nonzero coefficient tuples, from one
    big-integer product at q = 2**W.

    No product coefficient exceeds min(len)*max|a|*max|b| in size, so W is
    that bound's bit length plus a sign bit, rounded up to whole bytes.  A
    factor is packed with the bias added to each coefficient and taken off
    the packed value.  The product's fields are read with the bias added
    and taken off each field again.  When a is b the one packed factor is
    squared, which is faster than a product.
    """
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    width = 8 * (bound.bit_length() // 8 + 1)
    half = 1 << (width - 1)
    size = width >> 3

    def pack(cs):
        fields = b"".join([(c + half).to_bytes(size, "little") for c in cs])
        return int.from_bytes(fields, "little") - _biases(width, len(cs))

    x = pack(a)
    product = x * x if a is b else x * pack(b)
    biased = product + _biases(width, len(a) + len(b) - 1)
    return [f - half for f in unpack_fields(biased, width)]
