"""Graded vector-partition counting over a positive root system.

qanalog(system, target) returns the polynomial sum_k c_k * q**k where c_k
is the number of multisets of exactly k positive roots whose sum is the
target weight.  Evaluating at q = 1 recovers the plain decomposition count.

Algorithm.  A lattice fold over the box prod_i [0, target_i]: roots are
folded in one at a time with unbounded multiplicity, updating
f(w) += q * f(w - root) over cells in ascending packed order.  Because a
cell is only read after it has absorbed the current root itself, a single
in-place sweep realizes the full geometric series in that root, which is
exactly multiset (order-free) semantics, so any root order gives the same
sums.  The fold order groups the roots below the target in blocks by their
first support index, last block first, and takes each block in descending
lexicographic order: the system's sorted listing with each block reversed.

Sweep boxes.  Each root sweeps one box of cells.  A coordinate is live
once some root folded so far (this one included) has it in its support,
and finished at a root when neither that root nor any later one has it in
its support.  A coordinate that is not live yet is pinned to 0: a cell
with a nonzero coordinate outside that support is still 0, and so is the
cell it would read from, which shares that coordinate.  The fold is read
only at its members' cells: the target, or every target qanalogs reads
from it.  Every update after k is finished reads w - beta with beta_k = 0,
so a cell outside the members' range [min m_k, max m_k] never feeds one
inside it, and a finished coordinate is swept only over that range.  A
live coordinate that is not finished is swept over [root_k, target_k]:
below root_k a cell would read outside the box.  So skipping the cells
outside the box leaves every sum unchanged in any root order.  In the fold
order, the last block finishes a coordinate with nearly every root: in A_r
its roots (1, .., 1, 0, .., 0) come longest first, each finishes the
coordinate after its support, and the all-ones weight sweeps 2**r - 1
cells in all.

Runs.  A root's swept cells are updated a run at a time, not a cell at a
time.  The run spans the longest suffix of coordinates swept at full extent,
where the root is therefore 0, together with the coordinate before that
suffix when the root is 0 there too (swept over part of its extent:
pinned, or a finished range).  Its cells are contiguous, so the whole run
is one slice update t[a:b] = map(add, t[a:b], t[a-d:b-d]) with
d = sum_i root_i * strides[i].  Let L be the last coordinate in the root's
support; the run lies after L, so it is at most strides[L] cells long,
while d >= strides[L] since root_L >= 1.  So every source lies before the
run: in an earlier run of the same root, which ascending order has already
finished, or in a cell the root does not sweep, and each run reads exactly
what the cell-by-cell sweep would.  In the fold order every block of a
first support index after L comes before the root, and it holds that
simple root whenever that is below the target, so each coordinate after L
is live already or has extent 1: a root with no finished coordinate does
its work in a few long runs.  Any other order gives the same sums in
shorter runs.  A run of one cell is the scalar step t[a] += t[a-d]
instead of a slice update, which builds two slices and a map for it and
costs about ten times as much: every root that is nonzero at the last
coordinate (strides[L] is 1) or sweeps it over one value has only
one-cell runs, and in a verify request they are over half of all runs.

For speed the polynomial at each cell is Kronecker-packed into a single
Python integer (coefficient of q**k occupies the bit field [k*W, (k+1)*W)),
so the inner update is one shift-and-add on native big integers.  The
packed fold is exact integer linear arithmetic, so every cell holds its
polynomial evaluated at q = 2**W, whatever carries cross field borders on
the way.  Only the members' cells are decoded, and each of their
coefficients is at most the member's plain count g(1), so a first
integer-only sweep that computes g(1) gives a width W, the largest
g(1).bit_length() over the members, in which the decoding is exact.

Many targets.  qanalogs serves a list of targets from one fold per maximal
target.  Walked by descending coordinate sum, each target joins the first
maximal target so far that dominates it componentwise, or becomes one
itself.  The walk keeps, for each coordinate k and value v, the maximal
targets m with m_k >= v as a bitset; a target's dominators are the
intersection of its own buckets (k, t_k), and the first of them is the
lowest bit.  Each maximal target's fold reads all its members from their
own cells of that one table, and finishes coordinates to the members'
range [min, max] on each coordinate.  Roots are nonnegative, so a root
that is not below a member adds nothing to the member's cell, and folding
the maximal target's extra roots leaves it unchanged.  qanalog is the
one-target case, whose range is the target itself.

Boxes over MAX_FOLD_CELLS cells are refused before any table is allocated.
Every fold's box is one target's own box, so for qanalogs the budget
applies to each target's box and no fold allocates more than the largest.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from itertools import compress, repeat
from math import prod
from operator import add, and_, lshift, mul

from .errors import DimensionMismatch, FoldTooLarge
from .kronecker import unpack_fields
from .polyring import QPoly
from .rootsys import RootSystem, Weight

#: Largest box prod_i (target_i + 1) the lattice fold will allocate.
MAX_FOLD_CELLS = 2 ** 22


def qanalog(system: RootSystem, target) -> QPoly:
    """Part-count generating polynomial of the target weight.

    Returns QPoly zero when any coordinate is negative and QPoly one for the
    zero weight (the empty multiset).  Raises FoldTooLarge when the box
    prod_i (target_i + 1) has more than MAX_FOLD_CELLS cells.
    """
    return qanalogs(system, (target,))[0]


def qanalogs(system: RootSystem, targets) -> tuple:
    """qanalog at each of the targets, in input order, one fold per maximal
    target.

    Every target is checked as qanalog checks it, so FoldTooLarge is raised
    when any target's box has more than MAX_FOLD_CELLS cells, and one with a
    negative coordinate gives QPoly zero.  The rest are de-duplicated and
    each is read from the fold of the first maximal target that dominates
    it componentwise.
    """
    targets = [check_target(system.rank, t) for t in targets]
    covers = {}  # maximal target -> the targets read from its fold
    tops = []  # the maximal targets, in the order found
    # Bucket (k, v) holds the maximal targets m with m[k] >= v, as a bitset
    # over tops.  The maximal targets that dominate t are the intersection
    # of t's buckets (k, t[k]), and the first one found is its lowest bit.
    buckets = defaultdict(int)
    live = dict.fromkeys(t for t in targets if all(c >= 0 for c in t))
    for t in sorted(live, key=sum, reverse=True):
        found = reduce(and_, map(buckets.__getitem__, enumerate(t)))
        if found:
            covers[tops[(found & -found).bit_length() - 1]].append(t)
        else:
            covers[t] = [t]
            for k, c in enumerate(t):
                for v in range(c + 1):
                    buckets[k, v] |= 1 << len(tops)
            tops.append(t)
    polys = {}
    for top, members in covers.items():
        polys.update(zip(members, _fold_cells(_roots_below(system, top), top, members)))
    return tuple(QPoly(polys[t]) if t in polys else QPoly.zero() for t in targets)


def check_target(rank: int, target) -> Weight:
    """target as a tuple, after every check qanalog makes before folding.

    Needs only the rank, so a caller can refuse a weight, for instance one
    whose box exceeds MAX_FOLD_CELLS, before building the root system.
    """
    target = tuple(target)
    if len(target) != rank:
        raise DimensionMismatch(f"weight of length {len(target)} against rank {rank}")
    for c in target:
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError("weight coordinates must be ints")
    if all(c >= 0 for c in target):
        cells = prod(c + 1 for c in target)
        if cells > MAX_FOLD_CELLS:
            raise FoldTooLarge(
                f"lattice fold over {cells} cells exceeds the budget of {MAX_FOLD_CELLS}"
            )
    return target


def count_decompositions(system: RootSystem, target) -> int:
    """Number of multisets of positive roots summing to the target.

    Runs the plain count sweep alone, with no packed sweep.
    """
    target = check_target(system.rank, target)
    if any(c < 0 for c in target):
        return 0
    return _count_sweep(*_plan(_roots_below(system, target), target, (target,)))[-1]


def _roots_below(system: RootSystem, target: Weight) -> list:
    """The roots below the target in fold order: in blocks by first support
    index, last block first, each block in descending lexicographic order."""
    # The sorted listing reversed is descending: it holds the blocks by
    # ascending first support index, each already in the order wanted.  A
    # root opens a new block when it is 0 at the current block's first index.
    blocks = []
    for root in reversed(system.positive_roots):
        if all(a <= b for a, b in zip(root, target)):
            if not blocks or not root[lead]:
                lead = next(i for i, c in enumerate(root) if c)
                blocks.append([])
            blocks[-1].append(root)
    return [root for block in reversed(blocks) for root in block]


def _plan(roots, box, members):
    """Each root's sweep as (delta, run starts ascending, run length), and
    the number of cells in the box, for a fold read at the members' cells."""
    n = len(box)
    sizes = [t + 1 for t in box]
    strides = [prod(sizes[i + 1:]) for i in range(n)]
    # A coordinate is live from the first root that has it in its support
    # on, and finished after the last one.
    positions = range(len(roots))
    starting, finishing = {}, {}
    for k, col in enumerate(zip(*roots)):
        touching = list(compress(positions, col))
        if touching:
            starting.setdefault(touching[0], []).append(k)
            finishing.setdefault(touching[-1] + 1, []).append(k)
    lo = [min(c) for c in zip(*members)]
    hi = [max(c) + 1 for c in zip(*members)]
    # Each root's sweep box [floor, ceil): pinned to 0 on the coordinates not
    # live yet, full extent on the live ones, and the members' range
    # [lo, hi) on the finished ones.
    floor, ceil = [0] * n, [1] * n
    plan = []
    for j, root in enumerate(roots):
        for k in starting.get(j, ()):
            ceil[k] = sizes[k]
        for k in finishing.get(j, ()):
            floor[k], ceil[k] = lo[k], hi[k]
        # A finished coordinate is 0 in the root and an unfinished one has
        # floor 0, so root + floor is the box's low corner.
        low, high, run = _runs(root, list(map(add, root, floor)), ceil, sizes, strides)
        plan.append((sum(map(mul, root, strides)), _cell_indices(low, high, strides), run))
    return plan, prod(sizes)


def _runs(root, low, high, sizes, strides):
    """A root's sweep over the cells low <= w < high in runs: the ranges of
    the coordinates that index the runs, and the run length.

    The run spans the longest suffix of coordinates where the root is 0 and
    all but the first span their full extent.
    """
    m = len(sizes)
    while not low[m - 1] and high[m - 1] == sizes[m - 1]:
        m -= 1
    low, high, run = low[:m], high[:m], strides[m - 1]
    if not root[m - 1]:  # the run's first coordinate, swept only in part
        run *= high[-1] - low[-1]
        high[-1] = low[-1] + 1
    return low, high, run


def _cell_indices(low, high, strides):
    """Packed indices of the cells low <= w < high, ascending."""
    idxs = [0]
    for a, b, st in zip(low, high, strides):
        if a or b != 1:  # a coordinate pinned to 0 adds nothing
            offsets = range(a * st, b * st, st)
            idxs = [base + off for base in idxs for off in offsets]
    return idxs


def _count_sweep(plan, total):
    """Plain decomposition count of every cell of the box."""
    counts = [0] * total
    counts[0] = 1
    for delta, starts, run in plan:
        if run == 1:
            for a in starts:
                counts[a] += counts[a - delta]
            continue
        for a in starts:
            b = a + run
            counts[a:b] = map(add, counts[a:b], counts[a - delta:b - delta])
    return counts


def _fold(roots, target):
    """Coefficient list of the part-count polynomial for the target."""
    return _fold_cells(roots, target, (target,))[0]


def _cell(target, box):
    """Packed index of the target's cell in the box prod_i [0, box_i]."""
    idx = 0
    for c, b in zip(target, box):
        idx = idx * (b + 1) + c
    return idx


def _fold_cells(roots, box, targets):
    """Coefficient list of each target's polynomial, from one fold over the
    box, which holds every target."""
    plan, total = _plan(roots, box, targets)
    cells = [_cell(t, box) for t in targets]
    # Sweep 1: plain counts.  Each target's count bounds every coefficient
    # of its polynomial; the largest gives the packing width.
    counts = _count_sweep(plan, total)
    width = max(counts[c] for c in cells).bit_length()
    del counts
    if not width:
        return [[] for _ in cells]

    # Sweep 2: same fold with each cell's polynomial packed into one int;
    # multiplying by q is a shift by one field.
    table = [0] * total
    table[0] = 1
    widths = repeat(width)
    for delta, starts, run in plan:
        if run == 1:
            for a in starts:
                table[a] += table[a - delta] << width
            continue
        for a in starts:
            b = a + run
            table[a:b] = map(add, table[a:b], map(lshift, table[a - delta:b - delta], widths))
    packed = [table[c] for c in cells]
    del table
    return [unpack_fields(p, width) for p in packed]
