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
roots_below lists them so, and verify keys its shared calls by that list.

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
the way.  Only the members' cells are decoded, each coefficient is at
most the member's plain count g(1), and the same sweep at width 0 gives
g(1), so W is the largest g(1).bit_length() over the members; each
member's fields must sum to its g(1), or kronecker.decode raises.

Many targets.  qanalogs serves a list of targets from one fold or DP per
maximal target, and qanalog is its one-target case.  Walked by descending
coordinate sum, each target joins the first maximal target so far that
dominates it componentwise, or becomes one itself.  Each maximal target's
fold reads all its members from their own cells of that one table, and
finishes coordinates to the members' range [min, max] on each coordinate.
Roots are nonnegative, so a root that is not below a member adds nothing
to the member's cell, and folding the maximal target's extra roots leaves
it unchanged.

One target.  The fold's box grows exponentially with the rank even where
the coordinates stay small, as in the all-ones weights and highest roots.
The transfer module's prefix DP gives one target's polynomial in time
polynomial in the rank while the coordinates stay bounded, and counts its
own work as it goes.  A maximal target with no other member runs the DP's
count pass capped at box // UNIT_CELLS units, box = prod_i (target_i + 1)
and UNIT_CELLS the measured time of a DP unit in fold cells.  If the pass
finishes, its count is the DP's first pass; if it stops at the cap, the
target is folded: A17 all-ones takes 903 units against a cap of 26214,
the C10 highest root 3022 against 7873, and the B8 highest root folds at
its cap of 874 (it needs 1586).  A maximal target with other members is
always folded, since the DP reads only its own target.  Either method is
run as the same two passes, a count pass at width 0 and a packed pass at
width W, and count_decompositions runs the count pass alone.

Boxes over MAX_FOLD_CELLS cells are refused before any table is allocated.
Every fold's box is one target's own box, so the budget applies to each
target's box and no fold allocates more than the largest.  The packed
sweep's cell w holds at most (h(w) + 1) * W bits, h(w) its height, so once
the count pass gives W, a box whose cells' bounds sum past MAX_FOLD_BITS
is refused before the packed pass, whichever of the fold and the DP runs:
a weight is refused or served the same way by either.
"""

from __future__ import annotations

from itertools import compress, repeat
from math import prod
from operator import add, ge, lshift, mul

from .errors import DimensionMismatch, FoldTooLarge, count_text, is_int
from .kronecker import decode
from .polyring import QPoly
from .rootsys import RootSystem, Weight

#: Largest box prod_i (target_i + 1) the lattice fold will allocate.
MAX_FOLD_CELLS = 2 ** 22
#: Largest bound on the bits of the packed sweep's table it will allocate.
MAX_FOLD_BITS = 2 ** 32
#: Fold cells swept in about the time of one unit of the transfer DP's work.
UNIT_CELLS = 5


def qanalog(system: RootSystem, target) -> QPoly:
    """Part-count generating polynomial of the target weight.

    Returns QPoly zero when any coordinate is negative and QPoly one for the
    zero weight (the empty multiset).  Raises FoldTooLarge when the box
    prod_i (target_i + 1) has more than MAX_FOLD_CELLS cells, or its packed
    table could hold more than MAX_FOLD_BITS bits, whichever of the fold
    and the transfer DP runs.  It is the one-target case of qanalogs.
    """
    return qanalogs(system, (target,))[0]


def qanalogs(system: RootSystem, targets) -> tuple:
    """qanalog at each of the targets, in input order, one fold or transfer
    DP per maximal target.

    Every target is checked as qanalog checks it, so FoldTooLarge is raised
    when any target's box has more than MAX_FOLD_CELLS cells or a packed
    table could hold more than MAX_FOLD_BITS bits, and one with a negative
    coordinate gives QPoly zero.  The rest are de-duplicated and each is
    read from the passes of the first maximal target that dominates it
    componentwise.
    """
    targets = [check_target(system.rank, t) for t in targets]
    covers = {}  # maximal target -> the targets read from its passes, in the order found
    live = dict.fromkeys(t for t in targets if all(c >= 0 for c in t))
    for t in sorted(live, key=sum, reverse=True):
        top = next((m for m in covers if all(map(ge, m, t))), t)
        covers.setdefault(top, []).append(t)
    polys = {}
    for top, members in covers.items():
        polys.update(zip(members, _decode(_passes(roots_below(system, top), top, members), top)))
    return tuple(QPoly(polys[t]) if t in polys else QPoly.zero() for t in targets)


def check_target(rank: int, target) -> Weight:
    """target as a tuple, after every check qanalog makes before folding.

    Needs only the rank, so a caller can refuse a weight, for instance one
    whose box exceeds MAX_FOLD_CELLS, before building the root system.
    """
    target = tuple(target)
    if len(target) != rank:
        raise DimensionMismatch(f"weight of length {len(target)} against rank {rank}")
    if not all(map(is_int, target)):
        raise TypeError("weight coordinates must be ints")
    if all(c >= 0 for c in target):
        cells = prod(c + 1 for c in target)
        if cells > MAX_FOLD_CELLS:
            raise FoldTooLarge(
                f"lattice fold over {count_text(cells)} cells exceeds the budget of "
                f"{MAX_FOLD_CELLS}"
            )
    return target


def count_decompositions(system: RootSystem, target) -> int:
    """Number of multisets of positive roots summing to the target.

    Runs the count pass alone, of the transfer DP or of the fold as qanalog
    chooses.
    """
    target = check_target(system.rank, target)
    if any(c < 0 for c in target):
        return 0
    return _passes(roots_below(system, target), target, (target,))(0)[0]


def _passes(roots, box, members):
    """The members' values, packed at q = 2**width, as a function of width.

    A lone member, which is the box itself, runs the transfer DP when its
    count pass spends at most box // UNIT_CELLS units, and that pass is the
    width-0 value; every other box is folded.
    """
    if len(members) == 1:
        # Imported here: every fold verify makes reads at least 2 members,
        # so verify never loads it.
        from .transfer import PrefixTransfer

        dp = PrefixTransfer(roots, box)
        count = dp.packed(0, prod(c + 1 for c in box) // UNIT_CELLS)
        if count is not None:
            return lambda width: [dp.packed(width) if width else count]
    plan, total, cells = _plan(roots, box, members)
    # each sweep's table is freed once the members' cells are read
    return lambda width: list(map(_sweep(plan, total, width).__getitem__, cells))


def roots_below(system: RootSystem, target: Weight) -> list:
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
    """Each root's sweep as (delta, run starts ascending, run length), the
    number of cells in the box and the members' packed indices, for a fold
    read at the members' cells."""
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
    return plan, prod(sizes), [sum(map(mul, m, strides)) for m in members]


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
    idxs = [sum(map(mul, low, strides))]
    for a, b, st in zip(low, high, strides):
        if b - a != 1:  # a coordinate swept over one value only shifts the start
            offsets = range(0, (b - a) * st, st)
            idxs = [base + off for base in idxs for off in offsets]
    return idxs


def _sweep(plan, total, width):
    """Every cell of the box after the fold: its plain count at width 0, its
    polynomial packed at q = 2**width otherwise (multiplying by q is a
    shift by one field)."""
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
            src = table[a - delta:b - delta]
            table[a:b] = map(add, table[a:b], map(lshift, src, widths) if width else src)
    return table


def _decode(passes, box):
    """Coefficient list of each member's polynomial, from a count pass and
    a packed pass over the box."""
    # Pass 1: plain counts.  Each member's count bounds every coefficient
    # of its polynomial; the largest gives the packing width, at least 1 for
    # a system without its simple roots, where every count can be 0.
    counts = passes(0)
    width = max(counts).bit_length() or 1
    # Cell w's polynomial has degree <= h(w) (every root has height >= 1)
    # and coefficients <= its count <= the top member's (adding simple roots
    # maps decompositions one to one); h(w) averages sum(box) / 2.  The
    # transfer DP holds no table, and is refused on the same bound.
    total = prod(t + 1 for t in box)
    bits = total * (sum(box) + 2) // 2 * width
    if bits > MAX_FOLD_BITS:
        raise FoldTooLarge(
            f"lattice fold over {count_text(total)} cells packs up to {count_text(bits)} "
            f"bits, exceeding the budget of {count_text(MAX_FOLD_BITS)} bits"
        )
    # Pass 2: each member's polynomial packed into one int, checked by its count.
    return [decode(p, width, (n,), f"packed pass for {box}")
            for p, n in zip(passes(width), counts)]
