"""The lattice-fold counter versus a direct multiset enumerator."""

import itertools
import math
import random
import time

import pytest

from qkostant import (
    DimensionMismatch,
    FoldTooLarge,
    LIE_TYPES,
    MIN_RANK,
    QPoly,
    build_root_system,
    count_decompositions,
    explicit_qpoly,
    qanalog,
)
from qkostant.kostant import _fold, _fold_cells, _plan, _roots_below, qanalogs

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


def test_count_is_value_at_one():
    system = build_root_system("C", 4)
    w = (2, 2, 2, 1)
    assert count_decompositions(system, w) == qanalog(system, w)(1)


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
    from qkostant import kostant

    boxes, members = [], []
    fold_cells = kostant._fold_cells

    def counting_fold_cells(roots, box, targets):
        boxes.append(box)
        members.append(list(targets))
        return fold_cells(roots, box, targets)

    monkeypatch.setattr(kostant, "_fold_cells", counting_fold_cells)
    # each target's box has 4001 cells, their join's 4001**2 > MAX_FOLD_CELLS
    system = build_root_system("A", 2)
    targets = [(4000, 0), (0, 4000)]
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


def test_fold_width_fits_a_coefficient_equal_to_the_count():
    # two 2-part decompositions and no others: g = 2q^2, so g(1) = 2 needs
    # the whole 2-bit field
    roots = [(0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)]
    assert _fold(roots, (1, 1, 1, 1)) == [0, 0, 2]


def per_cell_fold(roots, target):
    """The lattice fold one cell at a time on a dict of coefficient lists.

    Cells are visited in ascending lexicographic order, which is the packed
    order _fold uses, so each root's geometric series is realized in place.
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
                orders = (roots, roots[::-1], _roots_below(system, w))
                for order in orders:
                    assert _fold(order, w) == per_cell_fold(order, w), (t, r, w, order)
                # members one short of w on one coordinate each: a finished
                # coordinate of size 3 is swept over [1, 2] only, so its
                # runs start partway along it, or shrink to one cell
                members = [w] + [w[:k] + (c - 1,) + w[k + 1:] for k, c in enumerate(w) if c]
                want = [per_cell_fold(roots, m) for m in members]
                for order in orders:
                    assert _fold_cells(order, w, members) == want, (t, r, w, order)


def test_fold_order_keeps_blocks_and_descends_inside_each():
    for t in LIE_TYPES:
        for r in range(MIN_RANK[t], 7):
            system = build_root_system(t, r)
            w = system.highest_root
            order = _roots_below(system, w)
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
        plan, total = _plan(_roots_below(build_root_system("A", r), w), w, (w,))
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
    fold_cells = kostant._fold_cells

    def recording_fold_cells(roots, box, targets):
        folds.append((roots, box, targets))
        return fold_cells(roots, box, targets)

    monkeypatch.setattr(kostant, "_fold_cells", recording_fold_cells)
    verify.run_all(8)
    assert len(folds) == 23
    for t, r, support in _ORACLE_FOLD_TARGETS:
        system = build_root_system(t, r)
        w = system.highest_root if support is None else weight_of(SupportSpec(t, r, support))
        folds.append((_roots_below(system, w), w, (w,)))
    work = []  # (cells, runs) swept by each fold
    for roots, box, targets in folds:
        # members spanning the whole box finish no coordinate short of it
        unfinished, _ = _plan(roots, box, ((0,) * len(box), box))
        finished, _ = _plan(roots, box, targets)
        for root, (_, starts, run), (_, plain_starts, plain_run) in zip(
                roots, finished, unfinished):
            assert len(starts) * run <= len(plain_starts) * plain_run, (box, root)
        work.append((sum(len(starts) * run for _, starts, run in finished),
                     sum(len(starts) for _, starts, _ in finished)))
    # the plans are deterministic: verify's 23 folds, then the oracle targets
    assert tuple(map(sum, zip(*work[:23]))) == (54852, 11372)
    assert tuple(map(sum, zip(*work[23:]))) == (632927, 16552)


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
        assert _fold(shuffled, w) == _fold(roots, w)

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
