"""Kronecker packing: a polynomial held as its value at q = 2**W.

When every coefficient lies in [0, 2**W), the value at q = 2**W holds one
W-bit field per coefficient, lowest first, and integer + and * on packed
values are polynomial + and * as long as no field overflows.  This module
is the one codec for it.  The lattice fold and the transfer DP (kostant),
the gf sweep and the explicit route's surd power (closedform) read their
packed results with decode, which trusts a field only if the value is
nonnegative and the fields have the jet (P(1), P'(1), P''(1)/2), or its
first entries, computed another way (check_jet, which the holonomic route
applies to its unpacked coefficients): a negative coefficient borrows from
the field above it, and a misplaced field or a wrong width moves the jet.
The surd power widens its fields with repack as its values grow.
"""

from __future__ import annotations

from .errors import InternalCancellationFailure
from .polyring import jet_at_one, power_sums


def decode(packed: int, width: int, jet: tuple, what: str) -> list:
    """unpack_fields(packed, width) if packed is nonnegative and its fields
    have the given entries of the jet, else InternalCancellationFailure."""
    if packed < 0:
        raise InternalCancellationFailure(f"{what} is negative at q = 2^{width}")
    coeffs = unpack_fields(packed, width)
    check_jet(coeffs, jet, f"{what} decodes to")
    return coeffs


def check_jet(coeffs, jet: tuple, what: str) -> None:
    """Raise InternalCancellationFailure, its message starting with what,
    unless the coefficients have the given leading entries of the jet
    (P(1), P'(1), P''(1)/2), computing only the power sums they need."""
    got = jet_at_one(coeffs) if len(jet) > 2 else tuple(power_sums(coeffs, len(jet) - 1))
    if got[0] != jet[0]:
        raise InternalCancellationFailure(
            f"{what} coefficients summing to {got[0]}, not P(1) = {jet[0]}"
        )
    if got != jet:
        raise InternalCancellationFailure(
            f"{what} coefficients with (P'(1), P''(1)/2) = {got[1:]}, not {jet[1:]}"
        )


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


def repack(packed: int, width: int, new_width: int) -> int:
    """The polynomial packed at q = 2**width, packed at q = 2**new_width.

    packed must be nonnegative and both widths whole bytes, with new_width
    at least width.  Byte j of every field moves to byte j of its wider
    field in one slice assignment, so the copy takes one step per byte of
    the old width, not per field.
    """
    if new_width == width:
        return packed
    old, new = width >> 3, new_width >> 3
    fields = -(-packed.bit_length() // width)
    buf = packed.to_bytes(fields * old, "little")
    out = bytearray(fields * new)
    for j in range(old):
        out[j::new] = buf[j::old]
    return int.from_bytes(out, "little")
