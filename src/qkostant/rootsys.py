"""Positive root systems of the classical families A, B, C, D.

Roots are stored as integer coordinate vectors over the simple roots
alpha_1..alpha_r, so a root (c_1, ..., c_r) means c_1*alpha_1 + ... +
c_r*alpha_r.  They come from the standard orthogonal-basis forms (Bourbaki,
Lie Groups and Lie Algebras, Ch. VI, Plates I-IV), with n = r+1 for A_r
(r >= 1) and n = r for B_r (r >= 2), C_r (r >= 3) and D_r (r >= 4):

* e_i - e_j for i < j <= n, in every family;
* e_i + e_j for i < j <= n, in B, C and D;
* e_i in B and 2e_i in C.

A root with e-coordinates x_1..x_n has partial sums S_k = x_1 + ... + x_k,
and its simple-root coordinates are c_k = S_k for k <= r, except that
C (alpha_r = 2e_r) sets c_r = S_r/2 and D (alpha_r = e_{r-1} + e_r) sets
c_r = S_r/2 and c_{r-1} = S_{r-1} - S_r/2.  The counts are r(r+1)/2 for A,
r^2 for B and C and r(r-1) for D; the listing is sorted lexicographically,
which makes it deterministic.

Every coordinate lies in {0, 1, 2} and supports are contiguous except for
the D-type fork vectors e_i + e_r, which skip alpha_{r-1}.
build_root_system keeps no cache: verify builds each of its systems once.
"""

from __future__ import annotations

from ._record import Record
from .errors import ListingTooLarge, RankTooSmall, count_text

LIE_TYPES = ("A", "B", "C", "D")

#: Families a convergence sweep understands: the four highest-root families
#: plus the bumped product-form family over type A.
FAMILIES = LIE_TYPES + ("product",)

#: Smallest rank at which each family is defined in this package.
MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4}

#: Largest root listing, rank * positive_root_count entries, that
#: check_listing admits: A120 (871,200 entries) is inside, A128 is not.
MAX_LISTING_ENTRIES = 2 ** 20

Weight = tuple  # tuple[int, ...], length == rank


def validate_type_rank(lie_type: str, rank: int) -> None:
    """Raise unless (lie_type, rank) names a supported root system."""
    if lie_type not in LIE_TYPES:
        raise ValueError(f"unknown family {lie_type!r}, expected one of {LIE_TYPES}")
    check_rank_type(rank)
    if rank < MIN_RANK[lie_type]:
        raise RankTooSmall(
            f"type {lie_type} needs rank >= {MIN_RANK[lie_type]}, got {rank}"
        )


def check_rank_type(rank) -> None:
    """Raise TypeError unless rank is an int and not a bool."""
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise TypeError("rank must be an int")


def positive_root_count(lie_type: str, rank: int) -> int:
    """Closed-form size of the positive system (independent of the listing)."""
    validate_type_rank(lie_type, rank)
    if lie_type == "A":
        return rank * (rank + 1) // 2
    if lie_type in ("B", "C"):
        return rank * rank
    return rank * (rank - 1)


def check_listing(lie_type: str, rank: int) -> None:
    """Raise ListingTooLarge when the listing of the positive roots has
    more than MAX_LISTING_ENTRIES entries, before any root is built."""
    entries = rank * positive_root_count(lie_type, rank)
    if entries > MAX_LISTING_ENTRIES:
        raise ListingTooLarge(
            f"root listing of {count_text(entries)} entries exceeds the budget of "
            f"{MAX_LISTING_ENTRIES}"
        )


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


def _positive_roots(lie_type: str, rank: int) -> list:
    """The positive roots, listed in the e-basis and converted to simple-root
    coordinates through their partial sums (see the module docstring)."""
    n = rank + 1 if lie_type == "A" else rank
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # (i, j, tail): partial sums 0 before i, 1 on [i, j), tail from j on.
    shapes = [(i, j, 0) for i, j in pairs]  # e_i - e_j
    if lie_type != "A":
        shapes += [(i, j, 2) for i, j in pairs]  # e_i + e_j
    if lie_type == "B":
        shapes += [(i, n, 1) for i in range(n)]  # e_i
    if lie_type == "C":
        shapes += [(i, i, 2) for i in range(n)]  # 2e_i
    sums = [((0,) * i + (1,) * (j - i) + (tail,) * (n - j))[:rank] for i, j, tail in shapes]
    if lie_type == "C":  # alpha_r = 2e_r
        return [s[:-1] + (s[-1] // 2,) for s in sums]
    if lie_type == "D":  # alpha_r = e_{r-1} + e_r
        return [s[:-2] + (s[-2] - s[-1] // 2, s[-1] // 2) for s in sums]
    return sums


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


def build_root_system(lie_type: str, rank: int) -> RootSystem:
    """Construct the positive system, sorted lexicographically.

    The listing is not checked here: verify's root-counts and
    highest-root-membership checks compare it with positive_root_count and
    highest_root, so a fault in it is reported as a FAIL, not a traceback.
    """
    validate_type_rank(lie_type, rank)
    roots = tuple(sorted(_positive_roots(lie_type, rank)))
    return RootSystem(lie_type, rank, roots, highest_root(lie_type, rank))
