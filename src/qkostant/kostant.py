"""Graded vector-partition counting over a positive root system.

qanalog(system, target) returns the polynomial sum_k c_k * q**k where c_k
is the number of multisets of exactly k positive roots whose sum is the
target weight.  Evaluating at q = 1 recovers the plain decomposition count.

Algorithm.  A lattice fold over the box prod_i [0, target_i]: roots are
taken in the system's fixed sorted order and folded in one at a time with
unbounded multiplicity, updating f(w) += q * f(w - root) over cells in
ascending packed order.  Because a cell is only read after it has absorbed
the current root itself, a single in-place sweep realizes the full
geometric series in that root, which is exactly multiset (order-free)
semantics.

Each root sweeps only its live sub-box.  A coordinate is live once some
root folded so far (this one included) has it in its support; every other
coordinate is pinned to 0.  A cell with a nonzero coordinate outside that
support is still 0, and so is the cell it would read from, which shares
that coordinate, so skipping it leaves every sum unchanged in any root
order.  Every simple root below the target is folded, so the last live box
is the whole box.

For speed the polynomial at each cell is Kronecker-packed into a single
Python integer (coefficient of q**k occupies the bit field [k*W, (k+1)*W)),
so the inner update is one shift-and-add on native big integers.  The
packed fold is exact integer linear arithmetic, so every cell holds its
polynomial evaluated at q = 2**W, whatever carries cross field borders on
the way.  Only the target cell is decoded, and each of its coefficients is
at most its plain count g(1), so a first integer-only sweep that computes
g(1) gives a width W = g(1).bit_length() in which the decoding is exact.

Boxes over MAX_FOLD_CELLS cells are refused before any table is allocated.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .errors import DimensionMismatch, FoldTooLarge
from .polyring import QPoly, unpack_fields
from .rootsys import RootSystem, Weight, build_root_system

#: Largest box prod_i (target_i + 1) the lattice fold will allocate.
MAX_FOLD_CELLS = 2 ** 22


def qanalog(system: RootSystem, target) -> QPoly:
    """Part-count generating polynomial of the target weight.

    Returns QPoly zero when any coordinate is negative and QPoly one for the
    zero weight (the empty multiset).  Raises FoldTooLarge when the box
    prod_i (target_i + 1) has more than MAX_FOLD_CELLS cells.
    """
    target = tuple(target)
    if len(target) != system.rank:
        raise DimensionMismatch(
            f"weight of length {len(target)} against rank {system.rank}"
        )
    for c in target:
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError("weight coordinates must be ints")
    if any(c < 0 for c in target):
        return QPoly.zero()
    cells = prod(c + 1 for c in target)
    if cells > MAX_FOLD_CELLS:
        raise FoldTooLarge(
            f"lattice fold over {cells} cells exceeds the budget of {MAX_FOLD_CELLS}"
        )
    return _qanalog_cached(system.lie_type, system.rank, target)


def count_decompositions(system: RootSystem, target) -> int:
    """Number of multisets of positive roots summing to the target."""
    return qanalog(system, target)(1)


@lru_cache(maxsize=None)
def _qanalog_cached(lie_type: str, rank: int, target: Weight) -> QPoly:
    system = build_root_system(lie_type, rank)
    roots = [r for r in system.positive_roots if all(a <= b for a, b in zip(r, target))]
    return QPoly(_fold(roots, target))


def _cell_indices(root, sizes, strides):
    """Packed indices of all cells >= root inside the box sizes, ascending."""
    idxs = [0]
    for sz, st, rc in zip(sizes, strides, root):
        offsets = [w * st for w in range(rc, sz)]
        idxs = [base + off for base in idxs for off in offsets]
    return idxs


def _fold(roots, target):
    """Coefficient list of the part-count polynomial for the target."""
    if sum(target) == 0:
        return [1]
    sizes = [t + 1 for t in target]
    strides = [prod(sizes[i + 1:]) for i in range(len(sizes))]
    total = prod(sizes)

    # Each root's live box: full extent on every coordinate some root so
    # far has in its support, extent 1 (pinned to 0) on the rest.
    sweeps = []
    live = [1] * len(sizes)
    for root in roots:
        live = [sz if rc else lv for sz, lv, rc in zip(sizes, live, root)]
        sweeps.append((root, sum(c * s for c, s in zip(root, strides)), live))

    # Sweep 1: plain counts.  The target's count bounds every coefficient
    # of its polynomial, giving the packing width.
    counts = [0] * total
    counts[0] = 1
    for root, delta, box in sweeps:
        for i in _cell_indices(root, box, strides):
            src = counts[i - delta]
            if src:
                counts[i] += src
    if counts[-1] == 0:
        return []
    width = counts[-1].bit_length()
    del counts

    # Sweep 2: same fold with each cell's polynomial packed into one int;
    # multiplying by q is a shift by one field.
    table = [0] * total
    table[0] = 1
    for root, delta, box in sweeps:
        for i in _cell_indices(root, box, strides):
            src = table[i - delta]
            if src:
                table[i] += src << width
    packed = table[-1]
    del table
    return unpack_fields(packed, width)
