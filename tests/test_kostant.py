"""The lattice-fold counter and the prefix transfer DP versus a direct
multiset enumerator and each other."""

import itertools
import math
import operator
import random
import time

import pytest

from qkostant import (
    DimensionMismatch,
    FoldTooLarge,
    InternalCancellationFailure,
    LIE_TYPES,
    MIN_RANK,
    QPoly,
    RootSystem,
    build_root_system,
    count_decompositions,
    explicit_qpoly,
    qanalog,
)
from qkostant import kronecker
from qkostant.kostant import (
    UNIT_CELLS,
    _cell_indices,
    _decode,
    _plan,
    _sweep,
    qanalogs,
    roots_below,
)
from qkostant.kronecker import unpack_fields
from qkostant.transfer import PrefixTransfer

rng = random.Random(977)


def brute_force_qpoly(system, target):
    """Enumerate every multiset of positive roots summing to target.

    Exponential; the canonical nondecreasing-index order guarantees each
    multiset is visited exactly once.  Only usable at desk scale.
    """
    roots = system.positive_roots
    tally = {}

    def rec(idx, residual, used):
        if not any(residual):
            tally[used] = tally.get(used, 0) + 1
            return
        if idx == len(roots):
            return
        rec(idx + 1, residual, used)
        nxt = tuple(a - b for a, b in zip(residual, roots[idx]))
        if min(nxt) >= 0:
            rec(idx, nxt, used + 1)

    rec(0, tuple(target), 0)
    if not tally:
        return QPoly.zero()
    return QPoly([tally.get(k, 0) for k in range(max(tally) + 1)])


def all_weights(rank, max_coeff):
    if rank == 0:
        yield ()
        return
    for head in range(max_coeff + 1):
        for tail in all_weights(rank - 1, max_coeff):
            yield (head,) + tail


def test_exhaustive_small_systems():
    domains = [("A", 1, 3), ("A", 2, 3), ("B", 2, 3), ("C", 3, 3), ("D", 4, 2)]
    for t, r, cmax in domains:
        system = build_root_system(t, r)
        for w in all_weights(r, cmax):
            assert qanalog(system, w) == brute_force_qpoly(system, w), (t, r, w)


def test_sampled_weights_to_rank_6():
    # samples from the coefficient<=3 domain, capped in total size so the
    # exponential enumerator stays fast
    for t in LIE_TYPES:
        for r in range(max(3, MIN_RANK[t]), 7):
            system = build_root_system(t, r)
            for _ in range(8):
                w = tuple(rng.randint(0, 3) for _ in range(r))
                if sum(w) > 8:
                    w = tuple(c if rng.random() < 0.5 else 0 for c in w)
                assert qanalog(system, w) == brute_force_qpoly(system, w), (t, r, w)


def test_heavier_pinned_weights():
    cases = [("A", 4, (3, 3, 3, 3)), ("B", 3, (3, 3, 3)), ("C", 4, (2, 3, 3, 2)),
             ("D", 5, (1, 2, 2, 1, 1))]
    for t, r, w in cases:
        system = build_root_system(t, r)
        assert qanalog(system, w) == brute_force_qpoly(system, w), (t, r, w)


def test_edge_weights():
    system = build_root_system("B", 3)
    assert qanalog(system, (0, 0, 0)) == QPoly.one()
    assert qanalog(system, (-1, 0, 2)) == QPoly.zero()
    assert qanalog(system, (5, 0, 0)).is_zero is False  # 5*alpha_1 = five simple parts
    assert qanalog(system, (5, 0, 0)) == QPoly.term(1, 5)
    with pytest.raises(DimensionMismatch):
        qanalog(system, (1, 2))
    with pytest.raises(TypeError):
        qanalog(system, (1, 2, "3"))


def test_pinned_b2_highest():
    assert qanalog(build_root_system("B", 2), (1, 2)) == QPoly((0, 1, 1, 1))


def test_chain_identity_light():
    for r in range(1, 13):
        system = build_root_system("A", r)
        assert qanalog(system, (1,) * r) == explicit_qpoly("A", r)


def test_degree_and_lowest_exponent_bounds():
    for t in LIE_TYPES:
        for _ in range(12):
            r = rng.randint(MIN_RANK[t], 8)
            system = build_root_system(t, r)
            w = tuple(rng.randint(0, 4) for _ in range(r))
            poly = qanalog(system, w)
            if poly.is_zero:
                continue
            total = sum(w)
            assert poly.degree <= total
            assert all(c >= 0 for c in poly.coeffs)
            biggest_part = max(sum(root) for root in system.positive_roots)
            lowest = next(k for k, c in enumerate(poly.coeffs) if c)
            assert lowest >= math.ceil(total / biggest_part)


def capped_count(system, w):
    """The transfer DP's count pass over the roots below w with qanalog's
    cap: None when qanalog folds a lone w."""
    dp = PrefixTransfer(roots_below(system, w), w)
    return dp.packed(0, math.prod(c + 1 for c in w) // UNIT_CELLS)


def test_count_is_value_at_one():
    # on both methods: C4 (2, 2, 2, 1) spends more than its box of 54 cells
    # allows and folds, A12 all-ones runs the transfer DP
    for lie_type, weight, transfer in (("C", (2, 2, 2, 1), False), ("A", (1,) * 12, True)):
        system = build_root_system(lie_type, len(weight))
        assert (capped_count(system, weight) is not None) == transfer
        assert count_decompositions(system, weight) == qanalog(system, weight)(1)


def test_count_of_a_weight_with_a_negative_coordinate_is_zero():
    system = build_root_system("C", 4)
    assert count_decompositions(system, (2, -1, 2, 1)) == 0


def test_qanalogs_match_per_target_qanalog():
    # duplicates, the zero weight and a negative coordinate in one list
    system = build_root_system("C", 4)
    targets = [(1, 2, 1, 1), (0, 0, 0, 0), (2, 2, 2, 1), (1, 2, 1, 1), (1, -1, 0, 2), (3, 0, 1, 0)]
    assert qanalogs(system, targets) == tuple(qanalog(system, w) for w in targets)
    assert qanalogs(system, [(0, -1, 0, 0)]) == (QPoly.zero(),)
    assert qanalogs(system, []) == ()


def test_qanalogs_over_targets_of_different_shapes():
    pick = random.Random(4242)
    for t in LIE_TYPES:
        for r in range(MIN_RANK[t], 7):
            system = build_root_system(t, r)
            for _ in range(3):
                targets = [tuple(pick.randint(0, 2) for _ in range(r))
                           for _ in range(pick.randint(1, 5))]
                assert qanalogs(system, targets) == tuple(
                    qanalog(system, w) for w in targets), (t, r, targets)


def test_qanalogs_width_fits_the_widest_target():
    # the first target needs a 1-bit field, the second (the B4 highest root,
    # 40 decompositions with coefficients up to 11) a wider one
    system = build_root_system("B", 4)
    narrow, wide = (1, 0, 0, 0), (1, 2, 2, 2)
    assert count_decompositions(system, narrow).bit_length() == 1
    assert count_decompositions(system, wide).bit_length() > 2
    assert qanalogs(system, [narrow, wide]) == (qanalog(system, narrow), qanalog(system, wide))


def test_qanalogs_fold_each_maximal_target_in_its_own_box(monkeypatch):
    # every maximal target here folds: a lone one's capped count pass
    # stops, as each A3 target shares 2048 copies of one prefix 2049 ways
    from qkostant import kostant

    boxes, members = [], []
    plan = kostant._plan

    def counting_plan(roots, box, targets):
        boxes.append(box)
        members.append(list(targets))
        return plan(roots, box, targets)

    monkeypatch.setattr(kostant, "_plan", counting_plan)
    # each target's box has 4098 cells, their join's 2 * 2049**2 > MAX_FOLD_CELLS
    system = build_root_system("A", 3)
    targets = [(2048, 1, 0), (0, 2048, 1)]
    assert [capped_count(system, w) for w in targets] == [None, None]
    want = tuple(qanalog(system, w) for w in targets)
    boxes.clear()
    assert qanalogs(system, targets) == want
    assert boxes == targets

    # duplicates and dominated targets are read from the maximal ones' folds,
    # and the results keep input order
    system = build_root_system("C", 4)
    small, big, side = (1, 2, 1, 1), (2, 2, 2, 1), (3, 0, 1, 0)
    targets = [small, (0, 0, 0, 0), big, small, side, big]
    want = {w: qanalog(system, w) for w in targets}
    for order in (targets, targets[::-1]):
        boxes.clear()
        assert qanalogs(system, order) == tuple(want[w] for w in order)
        assert boxes == [big, side]

    # maximal targets of equal coordinate sum are folded in input order
    system = build_root_system("A", 2)
    for order in ([(2, 0), (1, 0), (0, 2)], [(0, 2), (1, 0), (2, 0)]):
        boxes.clear()
        assert qanalogs(system, order) == tuple(qanalog(system, w) for w in order)
        assert boxes[:2] == [order[0], order[2]]

    # a target below two maximal targets is read from the first one found
    for first, second in [((2, 1), (1, 2)), ((1, 2), (2, 1))]:
        order = [(1, 1), first, second]
        want = tuple(qanalog(system, w) for w in order)
        members.clear()
        assert qanalogs(system, order) == want
        assert members == [[first, (1, 1)], [second]]


def test_qanalogs_budget_is_checked_on_each_target():
    system = build_root_system("A", 2)
    start = time.perf_counter()
    with pytest.raises(FoldTooLarge):
        qanalogs(system, [(1, 1), (3000, 3000)])
    assert time.perf_counter() - start < 1.0


def test_repeat_calls_deterministic():
    system = build_root_system("D", 4)
    assert qanalog(system, (1, 2, 1, 1)) == qanalog(system, (1, 2, 1, 1))


def test_fold_budget_refuses_before_allocating():
    system = build_root_system("A", 30)
    start = time.perf_counter()
    with pytest.raises(FoldTooLarge):
        qanalog(system, (1,) * 30)
    assert time.perf_counter() - start < 1.0


def fold_cells(roots, box, members):
    """Each member's coefficient list from one fold over the box, with the
    roots folded in the order given."""
    plan, total, cells = _plan(roots, box, members)
    return _decode(lambda width: list(map(_sweep(plan, total, width).__getitem__, cells)), box)


def test_fold_width_fits_a_coefficient_equal_to_the_count():
    # two 2-part decompositions and no others: g = 2q^2, so g(1) = 2 needs
    # the whole 2-bit field
    roots = [(0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)]
    assert fold_cells(roots, (1, 1, 1, 1), ((1, 1, 1, 1),))[0] == [0, 0, 2]


def test_a_system_without_its_simple_roots_decodes_zero_counts():
    # no simple root, so a member's count can be 0, and every member's count
    # is 0 for (1, 0, 0), which folds, and for (1, 0, 1), which runs the
    # transfer DP
    roots = ((1, 1, 0), (0, 1, 1), (1, 1, 1))
    system = RootSystem("A", 3, roots, (1, 1, 1))
    zeros = 0
    for w in all_weights(3, 2):
        want = brute_force_qpoly(system, w)
        zeros += want.is_zero
        assert qanalog(system, w) == want, w
        assert qanalogs(system, [w, (1, 0, 0)]) == (want, QPoly.zero()), w
        assert count_decompositions(system, w) == want(1), w
    assert zeros == 17


def per_cell_fold(roots, target):
    """The lattice fold one cell at a time on a dict of coefficient lists.

    Cells are visited in ascending lexicographic order, which is the packed
    order the fold uses, so each root's geometric series is realized in place.
    """
    cells = list(itertools.product(*(range(t + 1) for t in target)))
    table = {cell: [] for cell in cells}
    table[cells[0]] = [1]
    for root in roots:
        for cell in cells:
            src = tuple(c - rc for c, rc in zip(cell, root))
            if min(src) < 0 or not table[src]:
                continue
            shifted = [0] + table[src]
            table[cell] = [a + b for a, b in
                           itertools.zip_longest(table[cell], shifted, fillvalue=0)]
    coeffs = table[tuple(target)]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def test_fold_runs_match_a_per_cell_fold():
    # every weight with coordinates in {0, 1, 2} up to rank 4: zeros at the
    # front, middle and end give size-1 axes, and the reversed root order
    # leaves the trailing axes unlive, so runs shrink to single cells; the
    # fold order finishes coordinates, so runs start partway along an axis
    for t in LIE_TYPES:
        for r in range(MIN_RANK[t], 5):
            system = build_root_system(t, r)
            for w in all_weights(r, 2):
                roots = [root for root in system.positive_roots
                         if all(a <= b for a, b in zip(root, w))]
                orders = (roots, roots[::-1], roots_below(system, w))
                for order in orders:
                    assert fold_cells(order, w, (w,))[0] == per_cell_fold(order, w), (
                        t, r, w, order)
                # members one short of w on one coordinate each: a finished
                # coordinate of size 3 is swept over [1, 2] only, so its
                # runs start partway along it, or shrink to one cell
                members = [w] + [w[:k] + (c - 1,) + w[k + 1:] for k, c in enumerate(w) if c]
                want = [per_cell_fold(roots, m) for m in members]
                for order in orders:
                    assert fold_cells(order, w, members) == want, (t, r, w, order)


def test_sweep_at_width_0_sums_the_fields_of_the_packed_sweep():
    # one loop serves both sweeps: at every member's cell of a multi-member
    # plan, the count is the sum of the packed polynomial's fields, and both
    # agree with the per-cell fold; each plan finishes coordinates short of
    # the box and has slice runs and one-cell runs (in a highest root's box
    # the last root in ascending order touches every coordinate, so nothing
    # finishes; a 0 at coordinate 2 splits the box)
    for t, w in (("B", (1, 0, 1, 3, 3)), ("C", (1, 0, 2, 2, 3)), ("D", (1, 0, 1, 2, 3))):
        r = len(w)
        system = build_root_system(t, r)
        members = [w] + [w[:k] + (c - 1,) + w[k + 1:] for k, c in enumerate(w) if c]
        roots = [root for root in system.positive_roots
                 if all(a <= b for a, b in zip(root, w))]
        for order in (roots, roots[::-1], roots_below(system, w)):
            plan, total, cells = _plan(order, w, members)
            unfinished, _, _ = _plan(order, w, ((0,) * r, w))
            assert (sum(len(starts) * run for _, starts, run in plan)
                    < sum(len(starts) * run for _, starts, run in unfinished)), (t, order)
            assert {run == 1 for _, _, run in plan} == {True, False}, (t, order)
            counts = _sweep(plan, total, 0)
            width = max(counts[c] for c in cells).bit_length()
            packed = _sweep(plan, total, width)
            for m, c in zip(members, cells):
                want = per_cell_fold(order, m)
                assert unpack_fields(packed[c], width) == want, (t, m, order)
                assert counts[c] == sum(want), (t, m, order)


def test_fold_order_keeps_blocks_and_descends_inside_each():
    for t in LIE_TYPES:
        for r in range(MIN_RANK[t], 7):
            system = build_root_system(t, r)
            w = system.highest_root
            order = roots_below(system, w)
            assert sorted(order) == list(system.positive_roots)
            leads = [next(i for i, c in enumerate(root) if c) for root in order]
            assert leads == sorted(leads, reverse=True)
            for a, b, lead_a, lead_b in zip(order, order[1:], leads, leads[1:]):
                assert lead_a != lead_b or a > b


def test_a_all_ones_sweeps_one_cell_less_than_its_box():
    # each root (1, .., 1, 0, .., 0) of the last block sweeps the target's
    # cell alone once the coordinates after its support are finished
    for r in range(1, 13):
        w = (1,) * r
        plan, total, _ = _plan(roots_below(build_root_system("A", r), w), w, (w,))
        assert total == 2 ** r
        assert sum(len(starts) * run for _, starts, run in plan) == 2 ** r - 1


# The seed-0 oracle-fold benchmark targets: (type, rank, support or None for
# the highest root).
_ORACLE_FOLD_TARGETS = (
    ("C", 10, None), ("B", 10, None), ("A", 17, None), ("A", 15, ((3, 3), (9, 1))),
    ("A", 12, ((3, 3),)), ("A", 14, None), ("B", 14, ((8, 1), (11, 1))),
    ("D", 13, ((7, 1), (9, 2))), ("B", 8, None), ("C", 13, ((9, 2),)), ("D", 11, None),
    ("A", 16, None),
)


def test_finished_ranges_never_sweep_more_cells(monkeypatch):
    from qkostant import kostant, verify
    from qkostant.closedform import SupportSpec, weight_of

    folds = []
    plan = kostant._plan

    def recording_plan(roots, box, targets):
        folds.append((roots, box, targets))
        return plan(roots, box, targets)

    monkeypatch.setattr(kostant, "_plan", recording_plan)
    verify.run_all(8)
    assert len(folds) == 16
    for t, r, support in _ORACLE_FOLD_TARGETS:
        system = build_root_system(t, r)
        w = system.highest_root if support is None else weight_of(SupportSpec(t, r, support))
        folds.append((roots_below(system, w), w, (w,)))
    work = []  # (cells, runs) swept by each fold
    for roots, box, targets in folds:
        # members spanning the whole box finish no coordinate short of it
        unfinished, _, _ = _plan(roots, box, ((0,) * len(box), box))
        finished, _, _ = _plan(roots, box, targets)
        for root, (_, starts, run), (_, plain_starts, plain_run) in zip(
                roots, finished, unfinished):
            assert len(starts) * run <= len(plain_starts) * plain_run, (box, root)
        work.append((sum(len(starts) * run for _, starts, run in finished),
                     sum(len(starts) for _, starts, _ in finished)))
    # the plans are deterministic: verify's 16 folds, then the oracle targets
    assert tuple(map(sum, zip(*work[:16]))) == (42922, 9594)
    assert tuple(map(sum, zip(*work[16:]))) == (632927, 16552)


@pytest.mark.parametrize("lie_type, rank, cells, runs", [
    ("B", 8, 6672, 1116), ("C", 10, 40378, 4062), ("D", 11, 79477, 5074),
])
def test_highest_root_plans_are_pinned(lie_type, rank, cells, runs):
    # the (cells, runs) each single-target highest-root fold sweeps
    system = build_root_system(lie_type, rank)
    w = system.highest_root
    plan, _, _ = _plan(roots_below(system, w), w, (w,))
    assert sum(len(starts) * run for _, starts, run in plan) == cells
    assert sum(len(starts) for _, starts, _ in plan) == runs


def test_property_cell_indices_enumerate_the_range():
    # ascending packed indices of every cell low <= w < high, against
    # itertools.product: coordinates pinned to 0, swept over one nonzero
    # value, swept over part of their extent or over all of it
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def ranges(draw):
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
        low = [draw(st.integers(0, n - 1)) for n in sizes]
        high = [draw(st.integers(a + 1, n)) for a, n in zip(low, sizes)]
        return sizes, low, high

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(ranges())
    @hypothesis.example(([3, 1, 4, 2], [2, 0, 1, 0], [3, 1, 4, 1]))
    @hypothesis.example(([2, 3, 3], [0, 1, 2], [1, 2, 3]))
    def check(case):
        sizes, low, high = case
        strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]
        want = [sum(map(operator.mul, cell, strides))
                for cell in itertools.product(*map(range, low, high))]
        assert _cell_indices(low, high, strides) == want

    check()


def _small_weights():
    """Strategy of (type, rank, weight) with coordinates <= 3 and sum <= 8."""
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def weights(draw):
        t = draw(st.sampled_from(LIE_TYPES))
        r = draw(st.integers(MIN_RANK[t], 5))
        w = draw(st.lists(st.integers(0, 3), min_size=r, max_size=r)
                 .filter(lambda w: sum(w) <= 8))
        return t, r, tuple(w)

    return weights()


def test_property_oracle_matches_brute_force():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(_small_weights())
    def check(case):
        t, r, w = case
        system = build_root_system(t, r)
        assert qanalog(system, w) == brute_force_qpoly(system, w)

    check()


def test_property_fold_is_independent_of_root_order():
    # the live boxes depend on the order roots are folded in
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(_small_weights(), st.data())
    def check(case, data):
        t, r, w = case
        roots = [root for root in build_root_system(t, r).positive_roots
                 if all(a <= b for a, b in zip(root, w))]
        shuffled = data.draw(st.permutations(roots))
        assert fold_cells(shuffled, w, (w,)) == fold_cells(roots, w, (w,))

    check()


def test_property_qanalogs_read_members_over_finished_ranges():
    # the members of one fold differ on coordinates that finish, so later
    # roots sweep those coordinates over the members' range only
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(_small_weights(), st.data())
    def check(case, data):
        t, r, top = case
        below = st.tuples(*(st.integers(0, c) for c in top))
        targets = [top, *data.draw(st.lists(below, min_size=1, max_size=4))]
        system = build_root_system(t, r)
        assert qanalogs(system, targets) == tuple(qanalog(system, w) for w in targets)

    check()


def test_property_qanalogs_passes_once_per_maximal_target(monkeypatch):
    # any target list, negative and repeated targets included: one pass per
    # maximal nonnegative target, found here by comparing every pair
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from qkostant import kostant

    boxes = []
    passes = kostant._passes

    def counting_passes(roots, box, members):
        boxes.append(box)
        return passes(roots, box, members)

    @st.composite
    def target_lists(draw):
        t = draw(st.sampled_from(LIE_TYPES))
        r = draw(st.integers(MIN_RANK[t], 5))
        target = st.tuples(*[st.integers(-1, 2)] * r)
        return t, r, draw(st.lists(target, max_size=8))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(target_lists())
    def check(case):
        t, r, targets = case
        system = build_root_system(t, r)
        live = {w for w in targets if min(w) >= 0}
        maximal = [w for w in live
                   if not any(u != w and all(map(operator.ge, u, w)) for u in live)]
        boxes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(kostant, "_passes", counting_passes)
            found = qanalogs(system, targets)
        assert sorted(boxes) == sorted(maximal)
        assert found == tuple(qanalog(system, w) for w in targets)

    check()


def transfer_coefficients(system, w):
    """Both passes of the transfer DP over the roots below w, uncapped,
    checking that the count pass sums the packed pass's fields."""
    dp = PrefixTransfer(roots_below(system, w), w)
    count = dp.packed(0)
    width = count.bit_length()
    coeffs = unpack_fields(dp.packed(width), width)
    assert sum(coeffs) == count
    return coeffs


def fold_coefficients(system, w):
    return fold_cells(roots_below(system, w), w, (w,))[0]


def test_transfer_matches_the_fold_on_a_small_grid():
    # every weight of each box, zeros included; D4 and D5 reach the fork
    # roots e_i + e_r, which are 0 at alpha_{r-1}
    grid = [("A", 1, 5), ("A", 2, 4), ("A", 3, 3), ("A", 4, 2), ("B", 2, 4), ("B", 3, 3),
            ("B", 4, 2), ("C", 3, 3), ("C", 4, 2), ("D", 4, 2), ("D", 5, 2)]
    weights = 0
    for t, r, cmax in grid:
        system = build_root_system(t, r)
        for w in all_weights(r, cmax):
            assert transfer_coefficients(system, w) == fold_coefficients(system, w), (t, r, w)
            weights += 1
    assert weights == 815


def test_property_transfer_matches_the_fold():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def weights(draw):
        t = draw(st.sampled_from(LIE_TYPES))
        r = draw(st.integers(MIN_RANK[t], 7))
        return t, r, tuple(draw(st.lists(st.integers(0, 4), min_size=r, max_size=r)))

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(weights())
    # q + q**2: the fork root e_3 + e_5, or alpha_3 and alpha_5; then fork
    # roots beside e_i - e_{r-1}, which closes where the forks hold their 0
    @hypothesis.example(("D", 5, (0, 0, 1, 0, 1)))
    @hypothesis.example(("D", 6, (1, 1, 1, 1, 0, 2)))
    @hypothesis.example(("D", 7, (0, 1, 2, 3, 3, 0, 2)))
    @hypothesis.example(("C", 7, (4, 0, 4, 4, 0, 4, 4)))
    def check(case):
        t, r, w = case
        system = build_root_system(t, r)
        assert transfer_coefficients(system, w) == fold_coefficients(system, w)

    check()


@pytest.mark.parametrize("lie_type, rank, weight, transfer", [
    ("A", 17, None, True), ("A", 20, None, True), ("B", 12, None, True),
    ("B", 8, None, False), ("C", 4, (5, 5, 5, 5), False), ("B", 2, (60, 60), False),
    ("B", 2, (1023, 1023), False), ("C", 10, None, True), ("A", 2, (4000, 0), True),
])
def test_qanalog_runs_the_transfer_dp_below_the_box(monkeypatch, lie_type, rank, weight,
                                                    transfer):
    # the count pass's work against the box prod(t + 1) // UNIT_CELLS; it
    # counts work, not states, so B2 (1023, 1023) folds: its DP has few
    # states but shares one prefix's 1023 copies 524,800 ways.  A2
    # (4000, 0) builds only the one fill it reads.  qanalog, qanalogs and
    # count_decompositions make the same choice.
    from qkostant import kostant

    system = build_root_system(lie_type, rank)
    w = system.highest_root if weight is None else weight
    count = capped_count(system, w)
    assert (count is not None) == transfer

    class Folded(Exception):
        pass

    def no_fold(*args):
        raise Folded

    monkeypatch.setattr(kostant, "_plan", no_fold)
    monkeypatch.setattr(kostant, "_sweep", no_fold)
    if not transfer:
        for call in (qanalog, lambda system, w: qanalogs(system, [w]), count_decompositions):
            with pytest.raises(Folded):
                call(system, w)
        return
    want = QPoly(transfer_coefficients(system, w))
    assert qanalog(system, w) == want
    assert qanalogs(system, [w]) == (want,)
    assert count_decompositions(system, w) == count


@pytest.mark.parametrize("lie_type, rank, weight, transfer", [
    ("B", 8, None, False), ("A", 12, (1,) * 12, True),
])
def test_each_member_is_decoded_against_its_own_count(monkeypatch, lie_type, rank, weight,
                                                      transfer):
    # fields read one bit too narrow no longer sum to the count pass's value,
    # on the fold and on the transfer DP alike
    system = build_root_system(lie_type, rank)
    w = system.highest_root if weight is None else weight
    assert (capped_count(system, w) is not None) == transfer
    real_unpack = kronecker.unpack_fields
    monkeypatch.setattr(kronecker, "unpack_fields",
                        lambda packed, width: real_unpack(packed, width - 1))
    with pytest.raises(InternalCancellationFailure, match=r"packed pass .* summing to"):
        qanalog(system, w)


def test_capped_count_pass_builds_no_share_list_over_the_cap():
    # B2 (1023, 1023) would share one prefix's 1023 copies 524,800 ways; the
    # count pass charges that list before building it, stops, and the fold's
    # bit budget refuses the weight
    system = build_root_system("B", 2)
    w = (1023, 1023)
    cap = math.prod(c + 1 for c in w) // UNIT_CELLS
    dp = PrefixTransfer(roots_below(system, w), w)
    assert dp.packed(0, cap) is None
    assert all(len(shares) <= cap for step in dp.steps for shares in step.values())
    start = time.perf_counter()
    with pytest.raises(FoldTooLarge, match="bits"):
        qanalog(system, w)
    assert time.perf_counter() - start < 1.0


# The seed-0 oracle-fold benchmark's weights, each read alone by qpoly:
# (type, rank, weight, method, the work units of its full count pass).
# The DP serves a weight when units <= box // UNIT_CELLS.
_ORACLE_FOLD_CHOICES = [
    ("C", 10, (2, 2, 2, 2, 2, 2, 2, 2, 2, 1), "dp", 3022),
    ("B", 10, (1, 2, 2, 2, 2, 2, 2, 2, 2, 2), "dp", 3098),
    ("A", 17, (1,) * 17, "dp", 903),
    ("A", 15, (1, 1, 4, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1), "dp", 747),
    ("A", 12, (1, 1, 4, 1, 1, 1, 1, 1, 1, 1, 1, 1), "dp", 471),
    ("A", 14, (1,) * 14, "dp", 618),
    ("B", 14, (1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 1, 1, 1), "dp", 675),
    ("D", 13, (1, 1, 1, 1, 1, 1, 2, 1, 3, 1, 1, 1, 1), "dp", 678),
    ("B", 8, (1, 2, 2, 2, 2, 2, 2, 2), "fold", 1586),
    ("C", 13, (1, 1, 1, 1, 1, 1, 1, 1, 3, 1, 1, 1, 1), "dp", 564),
    ("D", 11, (1, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1), "dp", 3566),
    ("A", 16, (1,) * 16, "dp", 802),
]


@pytest.mark.parametrize("lie_type, rank, weight, method, units", _ORACLE_FOLD_CHOICES)
def test_oracle_fold_weights_pin_their_method_and_units(monkeypatch, lie_type, rank, weight,
                                                        method, units):
    from qkostant import kostant

    system = build_root_system(lie_type, rank)
    roots = roots_below(system, weight)
    # a fresh pass finishes with exactly `units` to spend and stops with one less
    assert PrefixTransfer(roots, weight).packed(0, units) is not None
    assert PrefixTransfer(roots, weight).packed(0, units - 1) is None
    assert (units <= math.prod(c + 1 for c in weight) // UNIT_CELLS) == (method == "dp")

    folds = []
    plan = kostant._plan

    def counting_plan(*args):
        folds.append(args[1])
        return plan(*args)

    monkeypatch.setattr(kostant, "_plan", counting_plan)
    qanalog(system, weight)
    assert folds == ([weight] if method == "fold" else [])
