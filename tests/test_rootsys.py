"""Root listings: counts, examples, coefficient shape, determinism."""

import pytest

from qkostant import (
    LIE_TYPES,
    MIN_RANK,
    RankTooSmall,
    build_root_system,
    highest_root,
    positive_root_count,
)


def test_counts_match_formulas_to_rank_30():
    for t in LIE_TYPES:
        for r in range(MIN_RANK[t], 31):
            system = build_root_system(t, r)
            assert system.count == positive_root_count(t, r)
            assert len(set(system.positive_roots)) == system.count


def test_count_formulas():
    assert positive_root_count("A", 3) == 6
    assert positive_root_count("B", 2) == 4
    assert positive_root_count("C", 3) == 9
    assert positive_root_count("D", 4) == 12


def test_a3_listing():
    assert build_root_system("A", 3).positive_roots == (
        (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1),
    )


def test_b2_listing():
    assert build_root_system("B", 2).positive_roots == ((0, 1), (1, 0), (1, 1), (1, 2))


def test_highest_roots():
    assert highest_root("A", 5) == (1, 1, 1, 1, 1)
    assert highest_root("B", 4) == (1, 2, 2, 2)
    assert highest_root("C", 3) == (2, 2, 1)
    assert highest_root("D", 5) == (1, 2, 2, 1, 1)


def test_highest_root_is_listed():
    for t in LIE_TYPES:
        for r in range(MIN_RANK[t], 31):
            assert highest_root(t, r) in build_root_system(t, r)


def test_coefficients_and_support_shape():
    # all coords in {0,1,2}; support contiguous except the D-type forks,
    # whose one gap sits exactly at the next-to-last simple root.
    for t in LIE_TYPES:
        for r in range(MIN_RANK[t], 12):
            for root in build_root_system(t, r).positive_roots:
                assert set(root) <= {0, 1, 2}
                support = [i for i, c in enumerate(root) if c]
                contiguous = support[-1] - support[0] + 1 == len(support)
                if not contiguous:
                    assert t == "D"
                    gap = set(range(support[0], support[-1] + 1)) - set(support)
                    assert gap == {r - 2}


def test_lower_ranks_embed_on_the_last_simple_roots():
    # the roots of X_R that vanish on alpha_1..alpha_{R-r} are the roots of
    # X_r on the remaining diagram, in the same sorted order, and each
    # padded highest root lies below the rank-R one
    for t in LIE_TYPES:
        for big in range(MIN_RANK[t], 15):
            roots = build_root_system(t, big).positive_roots
            top = highest_root(t, big)
            for r in range(MIN_RANK[t], big + 1):
                pad = big - r
                below = tuple(root[pad:] for root in roots if not any(root[:pad]))
                assert below == build_root_system(t, r).positive_roots, (t, big, r)
                padded = (0,) * pad + highest_root(t, r)
                assert all(a <= b for a, b in zip(padded, top)), (t, big, r)


def test_simple_roots_present():
    for t in LIE_TYPES:
        r = MIN_RANK[t] + 2
        system = build_root_system(t, r)
        for i in range(r):
            e = tuple(1 if j == i else 0 for j in range(r))
            assert e in system


def test_sorted_and_deterministic():
    for t in LIE_TYPES:
        system = build_root_system(t, MIN_RANK[t] + 3)
        assert system.positive_roots == tuple(sorted(system.positive_roots))
        again = build_root_system(t, MIN_RANK[t] + 3)
        assert again.positive_roots == system.positive_roots


def test_root_system_cache_is_bounded_and_serves_verify():
    from qkostant import verify

    info = build_root_system.cache_info()
    assert info.maxsize is not None and info.maxsize >= 32
    build_root_system.cache_clear()
    verify.run_all(8)
    info = build_root_system.cache_info()
    # every miss built a distinct system and none was evicted and built again
    assert info.misses == info.currsize == 26


def test_rank_validation():
    for t, bad in (("A", 0), ("B", 1), ("C", 2), ("D", 3)):
        with pytest.raises(RankTooSmall):
            build_root_system(t, bad)
    with pytest.raises(ValueError):
        build_root_system("E", 8)
    with pytest.raises(TypeError):
        build_root_system("A", "3")
