"""Seeded request lists for the four benchmark workloads.

Each workload is a fixed list of slots. A slot fixes what sets a request's
cost (subcommand, family, box size or rank band); the seed picks the rest:
bump positions, the order of equal extras, rank offsets of one or two, output
formats, custom t-grids and the order of the requests. Different seeds thus
send different argv while a pass costs about the same, so run-to-run spread
measures the machine rather than the seed.

A request is its argv (everything after `python -m qkostant.cli`) plus an
`expect` dict that tells checks.py what a correct answer looks like.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("oracle-fold", "closed-highest", "converge-sweep", "verify-suite")

# The request a set-up probe sends: interpreter start plus package import.
SETUP_ARGV = ("roots", "--type", "A", "--rank", "1")


@dataclass(frozen=True)
class Request:
    argv: tuple
    expect: dict = field(compare=False)


def _bump_entries(rng, lie_type, rank, extras):
    """Seeded nonconsecutive interior indices carrying the given extras."""
    hi = rank - 1 if lie_type == "A" else rank - 3
    extras = list(extras)
    rng.shuffle(extras)
    while True:
        idxs = sorted(rng.sample(range(2, hi + 1), len(extras)))
        if all(b - a >= 2 for a, b in zip(idxs, idxs[1:])):
            return tuple(zip(idxs, extras))


def _qpoly(lie_type, rank, fmt, route="all", entries=None, strict=False):
    argv = ["qpoly", "--type", lie_type, "--rank", str(rank)]
    if entries is not None:
        argv += ["--support", ",".join(f"{i}:{c}" for i, c in entries)]
        routes = ["oracle", "product"]
    else:
        routes = ["oracle", "explicit"] if lie_type == "A" else ["oracle", "gf", "explicit"]
    argv += ["--route", route]
    if strict:
        argv.append("--strict")
    argv += ["--format", fmt]
    return Request(tuple(argv), {
        "kind": "qpoly", "type": lie_type, "rank": rank, "format": fmt,
        "support": entries, "routes": routes if route == "all" else [route],
    })


# oracle-fold: (type, rank, bump extras or None for the highest root).
# Boxes run from 2*3**7 = 4374 cells (B8) to 2**17 = 131072 cells (A17).
_ORACLE_SLOTS = (
    ("A", 17, None), ("A", 16, None), ("A", 14, None),
    ("B", 10, None), ("C", 10, None), ("D", 11, None), ("B", 8, None),
    ("A", 15, (3, 1)), ("A", 12, (3,)), ("B", 14, (1, 1)),
    ("C", 13, (2,)), ("D", 13, (2, 1)),
)


def oracle_fold(rng):
    out = []
    for lie_type, rank, extras in _ORACLE_SLOTS:
        entries = None if extras is None else _bump_entries(rng, lie_type, rank, extras)
        out.append(_qpoly(lie_type, rank, rng.choice(("csv", "json")),
                          entries=entries, strict=True))
    return out


# closed-highest: (subcommand, type, rank, route). qpoly requests also build
# the root system (rank**2 roots of rank coordinates), which the CLI does for
# every qpoly request; stats requests skip it, so they reach rank 800.
# Latency percentiles of a mix are order statistics, so the slots come in
# cost tiers whose members cost about the same: 2 light, 5 middle (where the
# median falls) and 3 heavy (where the 90th percentile falls).
_CLOSED_SLOTS = (
    ("stats", "A", 400, None), ("qpoly", "C", 80, "gf"),
    ("qpoly", "B", 55, "explicit"), ("qpoly", "D", 60, "explicit"),
    ("qpoly", "B", 110, "gf"), ("stats", "D", 280, None), ("stats", "C", 280, None),
    ("stats", "B", 800, None), ("stats", "D", 800, None), ("qpoly", "C", 160, "explicit"),
)


def closed_highest(rng):
    out = []
    for cmd, lie_type, rank, route in _CLOSED_SLOTS:
        rank += rng.randint(-1, 1)
        fmt = rng.choice(("csv", "json"))
        if cmd == "qpoly":
            out.append(_qpoly(lie_type, rank, fmt, route=route))
        else:
            argv = ("stats", "--type", lie_type, "--rank", str(rank), "--format", fmt)
            out.append(Request(argv, {"kind": "stats", "type": lie_type, "rank": rank,
                                      "format": fmt}))
    return out


DEFAULT_T_GRID = (-1.0, -0.5, 0.5, 1.0)
_T_CHOICES = (-1.5, -1.25, -1.0, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)

# converge-sweep: (family, ranks, bumps), in two cost tiers: 5 middle and
# 2 heavy. The top rank of each request crosses the Horner/log-sum-exp switch
# (g(1) over 900 bits): rank > 900 for A and product, rank > ~490 for B/C/D.
# The two heavy requests reuse the gf recurrence across four ranks.
_CONVERGE_SLOTS = (
    ("product", (550, 950), 2), ("A", (300, 650, 950), 0),
    ("B", (180, 500), 0), ("C", (280, 505), 0), ("D", (240, 505), 0),
    ("B", (100, 300, 500, 680), 0), ("D", (100, 300, 500, 680), 0),
)


def converge_sweep(rng):
    out = []
    for family, ranks, bumps in _CONVERGE_SLOTS:
        ranks = tuple(rank + rng.randint(-2, 2) for rank in ranks)
        fmt = rng.choice(("csv", "json"))
        argv = ["converge", "--family", family, "--ranks", ",".join(map(str, ranks))]
        if bumps:
            argv += ["--bumps", str(bumps)]
        t_grid = DEFAULT_T_GRID
        if rng.random() < 0.5:
            t_grid = tuple(sorted(rng.sample(_T_CHOICES, 4)))
            argv.append("--t-grid=" + ",".join(repr(t) for t in t_grid))
        argv += ["--format", fmt]
        out.append(Request(tuple(argv), {
            "kind": "converge", "family": family, "ranks": ranks, "bumps": bumps,
            "t_grid": t_grid, "format": fmt,
        }))
    return out


def verify_suite(rng):
    return [
        Request(("verify", "--max-rank", "8", "--format", fmt),
                {"kind": "verify", "max_rank": 8, "format": fmt})
        for fmt in ("text", "csv", "json")
    ]


_GENERATORS = {
    "oracle-fold": oracle_fold,
    "closed-highest": closed_highest,
    "converge-sweep": converge_sweep,
    "verify-suite": verify_suite,
}


def requests_for(workload: str, seed: int):
    """The workload's requests for this seed, in the order they are sent."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = _GENERATORS[workload](rng)
    rng.shuffle(reqs)
    return reqs


def setup_request():
    return Request(SETUP_ARGV, {"kind": "roots-a1"})
