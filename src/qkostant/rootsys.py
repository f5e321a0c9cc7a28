"""Positive root systems of the classical families A, B, C, D.

Roots are stored as integer coordinate vectors over the simple roots
alpha_1..alpha_r, so a root (c_1, ..., c_r) means c_1*alpha_1 + ... +
c_r*alpha_r.  The vectors are generated from the standard orthogonal-basis
descriptions and then sorted lexicographically, which makes every listing
deterministic:

* A_r (r >= 1): e_i - e_j for i < j <= r+1, giving the interval sums
  alpha_i + ... + alpha_j for 1 <= i <= j <= r.  Count r(r+1)/2.
* B_r (r >= 2): e_i - e_j gives intervals not reaching past r; e_i gives
  the all-ones tails alpha_i + ... + alpha_r; e_i + e_j gives ones on
  [i, j-1] followed by twos on [j, r].  Count r^2.
* C_r (r >= 3): e_i - e_j gives intervals inside [1, r-1]; e_i + e_j with
  j < r gives ones on [i, j-1], twos on [j, r-1], one at r; e_i + e_r gives
  the all-ones tail; 2e_i gives twos on [i, r-1], one at r.  Count r^2.
* D_r (r >= 4): e_i - e_j gives intervals inside [1, r-1]; e_i + e_r gives
  ones on [i, r-2] plus alpha_r (skipping alpha_{r-1}, the one fork-shaped
  support in these tables); e_i + e_j with j <= r-1 gives ones on [i, j-1],
  twos on [j, r-2], then one each at r-1 and r.  Count r(r-1).

Every coordinate lies in {0, 1, 2} and supports are contiguous except for
the documented D-type fork vectors.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record
from .errors import RankTooSmall

LIE_TYPES = ("A", "B", "C", "D")

#: Families a convergence sweep understands: the four highest-root families
#: plus the bumped product-form family over type A.
FAMILIES = LIE_TYPES + ("product",)

#: Smallest rank at which each family is defined in this package.
MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4}

Weight = tuple  # tuple[int, ...], length == rank


def validate_type_rank(lie_type: str, rank: int) -> None:
    """Raise unless (lie_type, rank) names a supported root system."""
    if lie_type not in LIE_TYPES:
        raise ValueError(f"unknown family {lie_type!r}, expected one of {LIE_TYPES}")
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise TypeError("rank must be an int")
    if rank < MIN_RANK[lie_type]:
        raise RankTooSmall(
            f"type {lie_type} needs rank >= {MIN_RANK[lie_type]}, got {rank}"
        )


def positive_root_count(lie_type: str, rank: int) -> int:
    """Closed-form size of the positive system (independent of the listing)."""
    validate_type_rank(lie_type, rank)
    if lie_type == "A":
        return rank * (rank + 1) // 2
    if lie_type in ("B", "C"):
        return rank * rank
    return rank * (rank - 1)


def highest_root(lie_type: str, rank: int) -> Weight:
    """The highest root in simple-root coordinates."""
    validate_type_rank(lie_type, rank)
    if lie_type == "A":
        return (1,) * rank
    if lie_type == "B":
        return (1,) + (2,) * (rank - 1)
    if lie_type == "C":
        return (2,) * (rank - 1) + (1,)
    return (1,) + (2,) * (rank - 3) + (1, 1)


def _interval(rank: int, lo: int, hi: int) -> tuple:
    """Ones on 1-indexed positions [lo, hi], zeros elsewhere."""
    v = [0] * rank
    for p in range(lo, hi + 1):
        v[p - 1] = 1
    return tuple(v)


def _roots_a(rank: int):
    return [_interval(rank, i, j) for i in range(1, rank + 1) for j in range(i, rank + 1)]


def _roots_b(rank: int):
    roots = [_interval(rank, i, j) for i in range(1, rank + 1) for j in range(i, rank + 1)]
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            v = [0] * rank
            for p in range(i, j):
                v[p - 1] = 1
            for p in range(j, rank + 1):
                v[p - 1] = 2
            roots.append(tuple(v))
    return roots


def _roots_c(rank: int):
    roots = [_interval(rank, i, j) for i in range(1, rank + 1) for j in range(i, rank + 1)]
    for i in range(1, rank):
        for j in range(i + 1, rank):
            v = [0] * rank
            for p in range(i, j):
                v[p - 1] = 1
            for p in range(j, rank):
                v[p - 1] = 2
            v[rank - 1] = 1
            roots.append(tuple(v))
    for i in range(1, rank):
        v = [0] * rank
        for p in range(i, rank):
            v[p - 1] = 2
        v[rank - 1] = 1
        roots.append(tuple(v))
    return roots


def _roots_d(rank: int):
    roots = [
        _interval(rank, i, j)
        for i in range(1, rank)
        for j in range(i, rank)
    ]
    for i in range(1, rank):
        # e_i + e_r: support forks around the absent alpha_{r-1}.
        v = [0] * rank
        for p in range(i, rank - 1):
            v[p - 1] = 1
        v[rank - 1] = 1
        roots.append(tuple(v))
    for i in range(1, rank):
        for j in range(i + 1, rank):
            v = [0] * rank
            for p in range(i, j):
                v[p - 1] = 1
            for p in range(j, rank - 1):
                v[p - 1] = 2
            v[rank - 2] = 1
            v[rank - 1] = 1
            roots.append(tuple(v))
    return roots


_BUILDERS = {"A": _roots_a, "B": _roots_b, "C": _roots_c, "D": _roots_d}


class RootSystem(Record):
    """An immutable positive root system in simple-root coordinates."""

    __slots__ = ("lie_type", "rank", "positive_roots", "highest_root")

    def __init__(self, lie_type: str, rank: int, positive_roots: tuple, highest_root: Weight):
        self._assign(lie_type, rank, positive_roots, highest_root)

    @property
    def count(self) -> int:
        return len(self.positive_roots)

    def __contains__(self, weight) -> bool:
        return tuple(weight) in self.positive_roots

    def __repr__(self) -> str:
        return f"RootSystem({self.lie_type}{self.rank}, {self.count} positive roots)"


# verify --max-rank m builds 4m - 6 distinct systems, so 64 serves every max
# rank the fold budget admits (up to 14) without building one twice.
@lru_cache(maxsize=64)
def build_root_system(lie_type: str, rank: int) -> RootSystem:
    """Construct the positive system, sorted lexicographically."""
    validate_type_rank(lie_type, rank)
    roots = _BUILDERS[lie_type](rank)
    uniq = sorted(set(roots))
    if len(uniq) != len(roots) or len(uniq) != positive_root_count(lie_type, rank):
        raise AssertionError(
            f"root listing for {lie_type}{rank} is inconsistent with its count formula"
        )
    top = highest_root(lie_type, rank)
    if top not in uniq:
        raise AssertionError(f"highest root of {lie_type}{rank} missing from listing")
    return RootSystem(lie_type, rank, tuple(uniq), top)
