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

Work.  A pass counts its work in units: one transition (each choice of
one share per open prefix of a state, and each fill that completes one),
one entry of a fill list as it is built, and one entry of a share list,
charged by its size C(m + b - 1, b - 1), m copies among b bins, before it
is built.  Given a cap, a pass stops with None once it has spent more
than cap units, so a caller can try the count pass against another
method's cost and lose little more than that.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from math import comb, inf, prod


class PrefixTransfer:
    """The transfer DP over the given roots, which lie below the target.

    steps[k], for k = 0..r, is the step into coordinate k; step r opens no
    prefix.
    """

    __slots__ = ("steps",)

    def __init__(self, roots, target):
        spans = []  # (root, first, last nonzero coordinate)
        for root in roots:
            support = [i for i, c in enumerate(root) if c]
            spans.append((root, support[0], support[-1]))
        ends = {root[:last + 1] for root, _, last in spans}
        self.steps, parents = [], []
        for k, w in enumerate((*target, 0)):
            level = sorted({root[:k + 1] for root, first, last in spans if first <= k <= last})
            kids = defaultdict(tuple)  # open prefix at k - 1 -> its children's indices
            for j, p in enumerate(level):
                kids[p[:k]] += (j,)
            bins = [((None,) if p in ends else ()) + kids[p] for p in parents]
            starts = [j for j, p in enumerate(level) if not any(p[:k])]
            self.steps.append(_Step(bins, [p[k] for p in level], starts, w))
            parents = level

    def packed(self, width, cap=None):
        """The target's polynomial packed at q = 2**width (its count at 0),
        or None once the pass has spent more than cap units of work.

        A state is keyed by its open prefixes' (index, multiplicity) pairs
        with multiplicity > 0, in ascending index order: start classes,
        which begin with k zeros, sort first, and each parent's children
        follow one another in the parents' order.  A state's shares are
        joined one parent at a time, keeping the combinations that use at
        most w_k, and each is completed by the fills of what is left.
        """
        left = inf if cap is None else cap
        states = {(): 1}
        for step in self.steps:
            nxt, w, fills_of = defaultdict(int), step.w, step.fills
            for state, value in states.items():
                shares = list(map(step.get, state))
                if None in shares:  # charged before they are built
                    left -= sum(comb(m + len(step.bins[i]) - 1, m) for i, m in state
                                if (i, m) not in step)
                    if left < 0:
                        return None
                    shares = list(map(step.__getitem__, state))
                left -= prod(map(len, shares))
                if left < 0:
                    return None
                combos = shares[0] if shares else [(0, ())]
                for more in shares[1:]:
                    combos = [(u + v, p + q) for u, p in combos for v, q in more if u + v <= w]
                for used, kids in combos:
                    fills = fills_of.get(w - used)
                    if fills is None:
                        found = _fills(w - used, step.starts, step.coords)
                        fills = list(islice(found, None if cap is None else left + 1))
                        if len(fills) > left:  # never keep a list cut short
                            return None
                        left -= len(fills)
                        fills_of[w - used] = fills
                    left -= len(fills)
                    if left < 0:
                        return None
                    for fill, count in fills:
                        nxt[fill + kids] += value << (width * count)
            states = nxt
        return states.get((), 0)


class _Step(dict):
    """The step into one coordinate k, mapping (parent, m) to the parent's
    shares of m copies that use at most w of coordinate k, built on first
    use and kept for the next pass.

    bins holds each prefix open at k - 1 as the tuple of its bins (an index
    among the prefixes open at k, or None for close), coords each prefix
    open at k's coordinate k, starts the indices of the start classes, and
    w the target's coordinate k (0 at k = r).  fills maps a remainder of w
    to its _fills, also built on first use.
    """

    def __init__(self, bins, coords, starts, w):
        super().__init__()
        self.bins, self.coords, self.starts, self.w, self.fills = bins, coords, starts, w, {}

    def __missing__(self, key):
        i, m = key
        self[key] = shares = [s for s in _shares(m, self.bins[i], self.coords) if s[0] <= self.w]
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
    rem.  What is left fixes the last class's multiplicity."""
    if not starts:
        if not rem:
            yield (), 0
        return
    h, rest = coords[starts[0]], starts[1:]
    for n in range(rem // h + 1) if rest else (rem // h,) * (rem % h == 0):
        for more, count in _fills(rem - n * h, rest, coords):
            yield ((starts[0], n),) * (n > 0) + more, count + n
