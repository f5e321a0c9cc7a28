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

Runs.  A root's swept cells are updated a run at a time, not a cell at a
time.  Let L be the last coordinate in the root's support.  The root is 0
on every coordinate after L, so where those coordinates are live at full
extent, the swept cells that share coordinates 0..L form one contiguous
run of strides[L] cells, and the whole run is one slice update
t[a:b] = map(add, t[a:b], t[a-d:b-d]) with d = sum_i root_i * strides[i].
(In general the run spans the longest suffix of coordinates that are live
at full extent and where the root is 0.)  Since root_L >= 1, d is at least
strides[L], the run's length, so every source lies before the run: in an
earlier run of the same root, which ascending order has already finished,
or in a cell the root does not sweep.  So each run reads exactly what the
cell-by-cell sweep would.  In the system's lexicographic order every
simple root alpha_j with j > L sorts before a root whose support ends at
L (it is 0 where that root's support starts), so each coordinate after L
is live already or has extent 1: nearly every root's work is a few long
runs.  Any other order gives the same sums in shorter runs.

For speed the polynomial at each cell is Kronecker-packed into a single
Python integer (coefficient of q**k occupies the bit field [k*W, (k+1)*W)),
so the inner update is one shift-and-add on native big integers.  The
packed fold is exact integer linear arithmetic, so every cell holds its
polynomial evaluated at q = 2**W, whatever carries cross field borders on
the way.  Only the target cell is decoded, and each of its coefficients is
at most its plain count g(1), so a first integer-only sweep that computes
g(1) gives a width W = g(1).bit_length() in which the decoding is exact.

Many targets.  qanalogs serves a list of targets from one fold per maximal
target.  Walked by descending coordinate sum, each target joins the first
maximal target so far that dominates it componentwise, or becomes one
itself; each maximal target's fold reads all its members from their own
cells of that one table.  Roots are nonnegative, so a root that is not
below a member adds nothing to the member's cell, and folding the maximal
target's extra roots leaves it unchanged.  The packed sweep is exact
integer linear arithmetic, so every cell holds its own polynomial at
q = 2**W, and any cell whose coefficients fit in W bits decodes exactly:
with W the largest bit length of the counts at the members' cells, each
member does.  qanalog is the one-target case, whose width is its own
count's bit length.

Boxes over MAX_FOLD_CELLS cells are refused before any table is allocated.
Every fold's box is one target's own box, so for qanalogs the budget
applies to each target's box and no fold allocates more than the largest.
"""

from __future__ import annotations

from itertools import repeat
from math import prod
from operator import add, lshift

from .errors import DimensionMismatch, FoldTooLarge
from .polyring import QPoly, unpack_fields
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
    live = dict.fromkeys(t for t in targets if all(c >= 0 for c in t))
    for t in sorted(live, key=sum, reverse=True):
        top = next((m for m in covers if all(a <= b for a, b in zip(t, m))), t)
        covers.setdefault(top, []).append(t)
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
    return _count_sweep(*_plan(_roots_below(system, target), target))[-1]


def _roots_below(system: RootSystem, target: Weight) -> list:
    return [r for r in system.positive_roots if all(a <= b for a, b in zip(r, target))]


def _cell_indices(root, sizes, strides):
    """Packed indices of all cells >= root inside the box sizes, ascending."""
    idxs = [0]
    for sz, st, rc in zip(sizes, strides, root):
        offsets = [w * st for w in range(rc, sz)]
        idxs = [base + off for base in idxs for off in offsets]
    return idxs


def _plan(roots, target):
    """Each root's sweep as (delta, run starts ascending, run length), and
    the number of cells in the box."""
    sizes = [t + 1 for t in target]
    strides = [prod(sizes[i + 1:]) for i in range(len(sizes))]
    plan = []
    # Each root's live box: full extent on every coordinate some root so
    # far has in its support, extent 1 (pinned to 0) on the rest.
    live = [1] * len(sizes)
    for root in roots:
        live = [sz if rc else lv for sz, lv, rc in zip(sizes, live, root)]
        # The run: the longest suffix of coordinates that are live at full
        # extent and where the root is 0.
        m = len(sizes)
        while not root[m - 1] and live[m - 1] == sizes[m - 1]:
            m -= 1
        delta = sum(c * s for c, s in zip(root, strides))
        plan.append((delta, _cell_indices(root[:m], live, strides), strides[m - 1]))
    return plan, prod(sizes)


def _count_sweep(plan, total):
    """Plain decomposition count of every cell of the box."""
    counts = [0] * total
    counts[0] = 1
    for delta, starts, run in plan:
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
    plan, total = _plan(roots, box)
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
        for a in starts:
            b = a + run
            table[a:b] = map(add, table[a:b], map(lshift, table[a - delta:b - delta], widths))
    packed = [table[c] for c in cells]
    del table
    return [unpack_fields(p, width) for p in packed]
