"""Graded vector-partition counting by a transfer matrix over root prefixes.

A dynamic program that gives the polynomial kostant.qanalog gives, in time
polynomial in the rank while the target's coordinates stay bounded, where
the lattice fold sweeps a box that grows exponentially with the rank
(Stanley, Enumerative Combinatorics 1, Sec. 4.7).

Prefixes.  A root's support runs from its first to its last nonzero
coordinate; only D's fork roots e_i + e_r have a 0 inside it, at
alpha_{r-1}.  At coordinate k the open prefixes are root[:k+1] for the
roots below the target whose support holds k, and roots sharing a prefix
are not told apart yet.  A state is the multiset of open prefixes, held as
their multiplicities, with its polynomial: the roots started so far give
its q-degree.

Steps.  Between coordinates k - 1 and k, the m copies of each open prefix
are shared out, as one composition of m, among its bins: its children
among the prefixes open at k, and "close" when it is a whole root that
ends at k - 1.  A fork prefix ending in its 0 never closes: the root it
would close, e_i - e_{r-1}, ends one coordinate earlier and closed there.
New roots starting at k, each class of them one prefix (0, .., 0, c),
make up the rest of w_k, and each multiplies the state's polynomial by q.
After the last coordinate every open prefix must close, and the empty
state holds the polynomial.  Every multiset of roots summing to the
target is one path of steps: a child prefix has one parent, so the
compositions at a step are its shares, and every path is one multiset.

Passes.  As for the fold, a pass at width 0 gives the plain count g(1),
whose bit length W bounds every coefficient, and a pass with each
polynomial packed at q = 2**W gives the polynomial; both are exact integer
linear arithmetic, so carries on the way do not matter.

Cost.  The step into k makes at most C(E_k + w_{k-1}, w_{k-1}) shares,
E_k the number of (open prefix, bin) pairs, since the prefixes open at
k - 1 hold at most w_{k-1} roots (a fork's 0 aside), and each is completed
by at most (w_k + 1)**s_k choices of starts, s_k the number of start
classes at k.  PrefixTransfer.bound sums these before any pass, so a
caller can compare it with the fold's box.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, product
from math import comb
from operator import itemgetter


class PrefixTransfer:
    """The transfer DP over the given roots, which lie below the target.

    steps[k], for k = 0..r, is the step into coordinate k; step r opens no
    prefix.  bound is the transition bound.
    """

    __slots__ = ("target", "steps", "bound")

    def __init__(self, roots, target):
        spans = []  # (root, first, last nonzero coordinate)
        for root in roots:
            support = [i for i, c in enumerate(root) if c]
            spans.append((root, support[0], support[-1]))
        ends = {root[:last + 1] for root, _, last in spans}
        self.target, self.steps, parents = tuple(target), [], []
        for k in range(len(target) + 1):
            level = sorted({root[:k + 1] for root, first, last in spans if first <= k <= last})
            kids = defaultdict(tuple)  # open prefix at k - 1 -> its children's indices
            for j, p in enumerate(level):
                kids[p[:k]] += (j,)
            bins = [((None,) if p in ends else ()) + kids[p] for p in parents]
            starts = [j for j, p in enumerate(level) if not any(p[:k])]
            self.steps.append(_Step(bins, [p[k] for p in level], starts))
            parents = level
        self.bound, before = 0, 0
        for step, w in zip(self.steps, target):
            edges = sum(map(len, step.bins))
            self.bound += comb(edges + before, before) * (w + 1) ** len(step.starts)
            before = w

    def packed(self, width) -> int:
        """The target's polynomial packed at q = 2**width (its count at 0).

        A state is keyed by its open prefixes' (index, multiplicity) pairs
        with multiplicity > 0, in ascending index order: start classes,
        which begin with k zeros, sort first, and each parent's children
        follow one another in the parents' order.
        """
        states = {(): 1}
        for step, w in zip(self.steps, (*self.target, 0)):
            fills = [list(_fills(rem, step.starts, step.coords)) for rem in range(w + 1)]
            nxt = defaultdict(int)
            for state, value in states.items():
                for choice in product(*map(step.__getitem__, state)):
                    used = sum(map(itemgetter(0), choice))
                    if used > w:
                        continue
                    kids = tuple(chain.from_iterable(map(itemgetter(1), choice)))
                    for fill, count in fills[w - used]:
                        nxt[fill + kids] += value << (width * count)
            states = nxt
        return states.get((), 0)


class _Step(dict):
    """The step into one coordinate k, mapping (parent, m) to the parent's
    shares of m copies, built on first use and kept for the next pass.

    bins holds each prefix open at k - 1 as the tuple of its bins (an index
    among the prefixes open at k, or None for close), coords each prefix
    open at k's coordinate k, and starts the indices of the start classes.
    """

    def __init__(self, bins, coords, starts):
        super().__init__()
        self.bins, self.coords, self.starts = bins, coords, starts

    def __missing__(self, key):
        i, m = key
        self[key] = shares = _shares(m, self.bins[i], self.coords)
        return shares


def _shares(m, bins, coords):
    """Every way to share m copies among the bins, one composition of m, as
    (coordinate k used, the (child, copies) pairs with copies > 0)."""
    j, rest = bins[0], bins[1:]
    if not rest:
        if j is None or not m:
            return [(0, ())]
        return [(m * coords[j], ((j, m),))]
    out = []
    for n in range(m + 1):
        used, head = (0, ()) if j is None or not n else (n * coords[j], ((j, n),))
        out += [(used + u, head + pairs) for u, pairs in _shares(m - n, rest, coords)]
    return out


def _fills(rem, starts, coords):
    """Every (start multiplicities, roots started) whose coordinates sum to
    rem."""
    if not starts:
        if not rem:
            yield (), 0
        return
    h = coords[starts[0]]
    for n in range(rem // h + 1):
        for rest, count in _fills(rem - n * h, starts[1:], coords):
            yield ((starts[0], n),) * (n > 0) + rest, count + n
