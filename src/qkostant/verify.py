"""Cross-route verification suite.

Every check here compares independently computed exact quantities and
reports PASS, WARN, or FAIL with a deterministic detail string.  WARN is
reserved for the one documented defect (the family-B closed-form variance
token, see stats.TYPE_B_VARIANCE_NOTE); everything else is strict.

run_all(max_rank) drives the whole suite and is what the CLI's verify
subcommand prints.  Identical inputs produce byte-identical reports.  It
builds each input (root system, fold, product form, gf or explicit
polynomial) once, into tables that every check reads, fixed-examples too.
The bump-weight tables are lists aligned with the list of specs, so no check
hashes a spec, and a weight's label ("A7 ((2, 1),)") is built only when its
case fails.  The product form reads only (rank, bump count, total extra), so
it and its moments are computed once per such key: 46 times for the 461
bump weights at max rank 8.

The gf and explicit tables stop at max_rank (20 pairs at max rank 8):
gf-vs-explicit carries their agreement to every rank by the recurrence rule
closedform.shared_recurrence states, and fails when the rule does not hold.

Every fold runs in the max-rank system of its type.  The positive roots of
X_R that vanish on alpha_1..alpha_{R-r} are the positive roots of X_r on the
remaining diagram (Bourbaki, Lie Groups and Lie Algebras, Ch. VI), and every
positive root is a nonnegative combination of simple roots, so padding a
rank-r weight w with R - r leading zeros gives K_{X_R}(0, ..., 0, w) =
K_{X_r}(w), coefficient for coefficient.  So every bump weight and B/C/D
highest root is read from a kostant.qanalogs call at max_rank, which folds
once per maximal padded weight, over that weight's own box.

K(w) reads only the roots below w, so two systems with the same roots below
a weight give it the same polynomial.  There is one fold request per type
for its padded bump weights and one per B/C/D family for its padded highest
roots; requests share one qanalogs call when kostant.roots_below lists the
same roots below the join (componentwise max) of their weights.  Every root
of B_R or C_R with a coefficient 2 has a 2 at alpha_R (B) or alpha_{R-1}
(C), where every padded bump weight is 1, so the A, B and C bump weights
share one call; D's have their own, and each family's highest roots, which
reach all its roots, one more: 5 calls and 16 folds at max rank 8.  The key
is the computed list, not that theorem, so a request whose roots below its
join differed would get its own call, and each request reads only its own
call's polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from ._record import Record
from .closedform import (
    EXPLICIT,
    SupportSpec,
    check_bender_conditions,
    explicit_qpoly,
    gf_coefficient,
    iter_support_specs,
    product_qpoly,
    shared_recurrence,
    weight_of,
)
from .errors import RankTooSmall, is_int
from .kostant import check_target, qanalogs, roots_below
from .polyring import QPoly
from .rootsys import LIE_TYPES, MIN_RANK, build_root_system, highest_root, positive_root_count
from .stats import (
    MEAN_GROWTH_LIMIT,
    TYPE_B_VARIANCE_NOTE,
    MomentPair,
    closed_moments,
    moments_from_poly,
    product_moments,
)


class CheckResult(Record):
    __slots__ = ("name", "status", "detail")  # status is PASS, WARN, or FAIL

    def __init__(self, name: str, status: str, detail: str):
        self._assign(name, status, detail)


def _check(name, cases, detail, label=str):
    """PASS with detail, or FAIL naming the first four (key, ok) cases that
    are not ok, each by label(key)."""
    failures = [label(key) for key, ok in cases if not ok]
    if failures:
        shown = "; ".join(failures[:4])
        more = "" if len(failures) <= 4 else f" (+{len(failures) - 4} more)"
        return CheckResult(name, "FAIL", shown + more)
    return CheckResult(name, "PASS", detail)


def _systems(max_rank, lie_types=LIE_TYPES):
    for t in lie_types:
        for r in range(MIN_RANK[t], max_rank + 1):
            yield t, r


def _spec_suite(max_rank):
    for t, r in _systems(max_rank):
        yield from iter_support_specs(t, r)


def _spec_label(spec):
    return f"{spec.lie_type}{spec.rank} {spec.entries}"


def _variance_cases(moments, lie_types):
    return [
        (f"{t}{r}", var.as_fraction() == pair.variance)
        for (t, r), ((_, var), pair) in moments.items() if t in lie_types
    ]


def _check_closed_variance_b(moments):
    cases = _variance_cases(moments, "B")
    if not all(ok for _, ok in cases):
        return _check("closed-variance-B", cases, "")
    return CheckResult(
        "closed-variance-B",
        "WARN",
        f"{TYPE_B_VARIANCE_NOTE}; corrected reading matches the gf route at {len(cases)} ranks",
    )


def _check_bender():
    report = check_bender_conditions()
    vals = ", ".join(f"{k}={v}" for k, v in sorted(report.numerator_values.items()))
    return _check("bender-conditions", [(f"hypothesis violated: {vals}", report.passed)],
                  f"dominant root {report.small_root} simple; numerators nonzero: {vals}")


def _check_mean_growth():
    r0 = 60
    cases = []
    limit = float(MEAN_GROWTH_LIMIT)
    for t in ("B", "C", "D"):
        older, _ = closed_moments(t, r0 - 1)
        newer, _ = closed_moments(t, r0)
        inc = float(newer.as_fraction() - older.as_fraction())
        cases.append((f"{t}: increment {inc!r} vs limit {limit!r}", abs(inc - limit) <= 1e-9))
    return _check(
        "mean-growth-limit", cases, f"increment at rank {r0} within 1e-09 of (7+sqrt(5))/10"
    )


def _check_fixed_examples(built, folds, gf, chain_explicit):
    b2 = built["B", 2]
    b2_poly = folds["B", 2]
    c3_poly = gf["C", 3]
    a3_poly = chain_explicit[3]
    checks = [
        ("A3 root count", built["A", 3].count == 6),
        ("B2 roots", b2.positive_roots == ((0, 1), (1, 0), (1, 1), (1, 2))),
        ("D4 root count", built["D", 4].count == 12),
        ("C3 highest root", highest_root("C", 3) == (2, 2, 1)),
        ("B4 highest root", highest_root("B", 4) == (1, 2, 2, 2)),
        ("B2 highest-root poly", b2_poly == QPoly((0, 1, 1, 1))),
        ("C3 gf poly", c3_poly == QPoly((0, 1, 2, 4, 2, 1))),
        ("D4 gf poly", gf["D", 4] == QPoly((0, 1, 4, 6, 3, 1))),
        ("A3 chain poly", a3_poly == QPoly((0, 1, 2, 1))),
        ("A3 stats", moments_from_poly(a3_poly) == MomentPair(2, Fraction(1, 2))),
        ("B2 stats", moments_from_poly(b2_poly) == MomentPair(2, Fraction(2, 3))),
        ("C3 stats", moments_from_poly(c3_poly) == MomentPair(3, Fraction(6, 5))),
        ("bump moments r5", product_moments(SupportSpec("A", 5, ())) == MomentPair(3, 1)),
        ("bump moments r5 idx3", product_moments(SupportSpec("A", 5, ((3, 1),)))
         == MomentPair(Fraction(19, 5), Fraction(53, 50))),
    ]
    return _check("fixed-examples", checks, f"{len(checks)} pinned values")


def run_all(max_rank: int = 8):
    """The full suite, in a fixed order, as a list of CheckResult."""
    if not is_int(max_rank):
        raise TypeError("max_rank must be an int")
    if max_rank < 5:
        raise RankTooSmall("max_rank must be at least 5 so every family participates")
    # Refuse an over-budget max_rank before any check runs.  The highest
    # roots, whose boxes outgrow the budget soonest, are checked first, one
    # at a time, before anything that grows with max_rank is built.  Every
    # bump weight is checked once, by qanalogs before any fold: padding
    # leaves its box the same.
    for t, r in _systems(max_rank, "BCD"):
        check_target(r, highest_root(t, r))
    systems = list(_systems(max_rank))
    built = {key: build_root_system(*key) for key in systems}
    highest = [(t, r) for t, r in systems if t != "A"]
    specs = list(_spec_suite(max_rank))

    # Each distinct polynomial is computed once; the checks below read these
    # tables.
    def pad(w):
        return (0,) * (max_rank - len(w)) + w

    # One fold request per type for its padded bump weights, in spec order,
    # then one per B/C/D family for its padded highest roots, in ascending
    # rank; requests with the same roots below their join share one call.
    requests = [(t, [pad(weight_of(s)) for s in group])
                for t, group in groupby(specs, key=lambda s: s.lie_type)]
    requests += [(t, [pad(highest_root(*key)) for key in group])
                 for t, group in groupby(highest, key=lambda key: key[0])]
    shared = {}  # roots below a join -> (the first such system, weight -> poly)
    reads = []  # (the table a request reads, its padded weights)
    for t, weights in requests:
        system = built[t, max_rank]
        join = tuple(map(max, zip(*weights)))
        key = tuple(roots_below(system, join))
        table = shared.setdefault(key, (system, {}))[1]
        table.update(dict.fromkeys(weights))
        reads.append((table, weights))
    for system, table in shared.values():
        weights = list(table)
        table.update(zip(weights, qanalogs(system, weights)))
    found = [table[w] for table, weights in reads for w in weights]
    # oracle is aligned with specs, which holds each type's specs together
    oracle, folds = found[:len(specs)], dict(zip(highest, found[len(specs):]))
    # The product form and its moments read only (rank, bumps, extra).
    form_keys = [(s.rank, s.bump_count, s.total_extra) for s in specs]
    forms = {}  # key -> (product form, do its moments match the form's)
    for s, key in zip(specs, form_keys):
        if key not in forms:
            g = product_qpoly(s)
            forms[key] = g, product_moments(s) == moments_from_poly(g)
    product = [forms[key] for key in form_keys]
    # the all-ones weight of A_r is the A_r bump weight with no bumps
    chain = {s.rank: g for s, g in zip(specs, oracle) if s.lie_type == "A" and not s.entries}
    chain_explicit = {r: explicit_qpoly("A", r) for r in range(1, max_rank + 1)}
    # The B/C/D highest-root gf and explicit polynomials from each family's
    # first explicit rank up to max_rank; shared_recurrence carries their
    # agreement to every rank.
    gf, explicit = {}, {}
    for t, (_, _, lo) in EXPLICIT.items():
        for r in range(lo, max_rank + 1):
            gf[t, r], explicit[t, r] = gf_coefficient(t, r), explicit_qpoly(t, r)
    moments = {(t, r): (closed_moments(t, r), moments_from_poly(gf[t, r])) for t, r in highest}
    holds, starts = shared_recurrence()
    cd_ranks = sum(1 for t, _ in highest if t in "CD")
    counts = [(t, r, built[t, r].count, positive_root_count(t, r)) for t, r in systems]
    return [
        _check("root-counts", [(f"{t}{r}: {n} != {want}", n == want) for t, r, n, want in counts],
               f"{len(systems)} systems up to rank {max_rank}"),
        _check("highest-root-membership", [
            (f"{t}{r}: highest root not in listing", highest_root(t, r) in built[t, r])
            for t, r in systems
        ], f"{len(systems)} systems"),
        _check_fixed_examples(built, folds, gf, chain_explicit),
        _check("chain-identity-A", [
            (f"A{r}", chain[r] == chain_explicit[r]) for r in range(1, max_rank + 1)
        ], f"ranks 1..{max_rank}"),
        _check("product-vs-oracle", [(s, g == p) for s, g, (p, _) in zip(specs, oracle, product)],
               f"{len(specs)} bump weights", _spec_label),
        _check("total-counts", [
            (s, g(1) == 2 ** (s.rank - 1 - 2 * s.bump_count) * 5 ** s.bump_count)
            for s, g in zip(specs, oracle)
        ], f"{len(specs)} bump weights", _spec_label),
        _check("route-agreement", [
            (f"{t}{r}", folds[t, r] == gf[t, r] == explicit[t, r])
            for t, r in highest
        ], f"oracle=gf=explicit, {len(highest)} highest roots"),
        _check("gf-vs-explicit", [(f"{t}{r}", gf[t, r] == explicit[t, r]) for t, r in gf] + [
            ("2*beta_plus not a root of y^2 - 2*S1*y + 4*S2", holds)] + [
            (f"{t}: recurrence from rank {s} needs max rank {s + 1}", s + 1 <= max_rank)
            for t, s in starts.items()
        ], f"agree at every rank: {len(gf)} ranks up to {max_rank}, then a shared recurrence"),
        _check("product-moments", [(s, ok) for s, (_, ok) in zip(specs, product)],
               f"{len(specs)} bump weights", _spec_label),
        _check("closed-mean", [
            (f"{t}{r}", mean.as_fraction() == pair.mean)
            for (t, r), ((mean, _), pair) in moments.items()
        ], f"B/C/D, {len(moments)} ranks"),
        _check("closed-variance-CD", _variance_cases(moments, "CD"), f"C/D, {cd_ranks} ranks"),
        _check_closed_variance_b(moments),
        _check_bender(),
        _check_mean_growth(),
    ]


_TALLY_KEYS = {"PASS": "passed", "WARN": "warnings", "FAIL": "failed"}


def tally(results) -> dict:
    """The number of results per status, as {passed, warnings, failed}."""
    counts = dict.fromkeys(_TALLY_KEYS.values(), 0)
    for c in results:
        counts[_TALLY_KEYS[c.status]] += 1
    return counts


def summary_line(results) -> str:
    n = tally(results)
    plural = "" if n["warnings"] == 1 else "s"
    return f"verify: {n['passed']} passed, {n['warnings']} warning{plural}, {n['failed']} failed"
