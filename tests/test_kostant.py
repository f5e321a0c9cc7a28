"""The lattice-fold counter versus a direct multiset enumerator."""

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
from qkostant.kostant import _fold

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
