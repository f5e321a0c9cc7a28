"""Cross-route verification suite.

Every check here compares independently computed exact quantities and
reports PASS, WARN, or FAIL with a deterministic detail string.  WARN is
reserved for the one documented defect (the family-B closed-form variance
token, see stats.TYPE_B_VARIANCE_NOTE); everything else is strict.

run_all(max_rank) drives the whole suite and is what the CLI's verify
subcommand prints.  Identical inputs produce byte-identical reports.  It
computes each polynomial once: the checks read tables built before the first
check runs, except for the polynomials only one check needs (the type-A rows
of chain-identity-A and the pinned values of fixed-examples).

Every fold runs in the max-rank system of its type.  The positive roots of
X_R that vanish on alpha_1..alpha_{R-r} are the positive roots of X_r on the
remaining diagram (Bourbaki, Lie Groups and Lie Algebras, Ch. VI), and every
positive root is a nonnegative combination of simple roots, so padding a
rank-r weight w with R - r leading zeros gives K_{X_R}(0, ..., 0, w) =
K_{X_r}(w), coefficient for coefficient.  So the bump weights of each type
are read from one kostant.qanalogs call at max_rank, as are the B/C/D
highest roots of each family, and each call folds once per maximal padded
weight: no fold is larger than one requested weight's own box.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .closedform import (
    _EXPLICIT,
    SupportSpec,
    check_bender_conditions,
    explicit_qpoly,
    gf_coefficient,
    gf_coefficients,
    iter_support_specs,
    product_qpoly,
    weight_of,
)
from .kostant import check_target, qanalog, qanalogs
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

#: Rank reached by the pure closed-form checks, as a multiple of max_rank.
_EXTENDED_FACTOR = 2


class CheckResult(Record):
    __slots__ = ("name", "status", "detail")  # status is PASS, WARN, or FAIL

    def __init__(self, name: str, status: str, detail: str):
        self._assign(name, status, detail)


def _check(name, cases, detail):
    """PASS with detail, or FAIL naming the first four (label, ok) cases
    that are not ok."""
    failures = [label for label, ok in cases if not ok]
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
    if report.passed:
        return CheckResult(
            "bender-conditions",
            "PASS",
            f"dominant root {report.small_root} simple; numerators nonzero: {vals}",
        )
    return CheckResult("bender-conditions", "FAIL", f"hypothesis violated: {vals}")


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


def _check_fixed_examples():
    b2 = build_root_system("B", 2)
    b2_poly = qanalog(b2, (1, 2))
    c3_poly = gf_coefficient("C", 3)
    a3_poly = explicit_qpoly("A", 3)
    checks = [
        ("A3 root count", build_root_system("A", 3).count == 6),
        ("B2 roots", b2.positive_roots == ((0, 1), (1, 0), (1, 1), (1, 2))),
        ("D4 root count", build_root_system("D", 4).count == 12),
        ("C3 highest root", highest_root("C", 3) == (2, 2, 1)),
        ("B4 highest root", highest_root("B", 4) == (1, 2, 2, 2)),
        ("B2 highest-root poly", b2_poly == QPoly((0, 1, 1, 1))),
        ("C3 gf poly", c3_poly == QPoly((0, 1, 2, 4, 2, 1))),
        ("D4 gf poly", gf_coefficient("D", 4) == QPoly((0, 1, 4, 6, 3, 1))),
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
    if max_rank < 5:
        raise ValueError("max_rank must be at least 5 so every family participates")
    # Refuse an over-budget max_rank before any check runs: every weight
    # the suite folds goes through the fold's own budget check first.  The
    # highest roots come first, one at a time, before anything that grows
    # with max_rank is built; their boxes outgrow the budget soonest.
    for t, r in _systems(max_rank, "BCD"):
        check_target(r, highest_root(t, r))
    systems = list(_systems(max_rank))
    highest = [(t, r) for t, r in systems if t != "A"]
    bumps = {spec: weight_of(spec) for spec in _spec_suite(max_rank)}
    for spec, weight in bumps.items():
        check_target(spec.rank, weight)

    # Each polynomial is computed once; the checks below read these tables.
    def nested(t, weights):
        """qanalogs in type t's max-rank system, each weight padded to it."""
        return qanalogs(build_root_system(t, max_rank),
                        [(0,) * (max_rank - len(w)) + w for w in weights])

    oracle, folds = {}, {}
    for t in LIE_TYPES:
        specs = [s for s in bumps if s.lie_type == t]
        oracle.update(zip(specs, nested(t, [bumps[s] for s in specs])))
    for t in "BCD":
        keys = [key for key in highest if key[0] == t]
        folds.update(zip(keys, nested(t, [highest_root(*key) for key in keys])))
    product = {spec: product_qpoly(spec) for spec in bumps}
    label = {spec: f"{spec.lie_type}{spec.rank} {spec.entries}" for spec in bumps}
    # The B/C/D highest-root gf and explicit polynomials from each family's
    # first explicit rank up to the extended rank, one gf sweep per family.
    top = _EXTENDED_FACTOR * max_rank
    gf, explicit = {}, {}
    for t, (_, _, lo) in _EXPLICIT.items():
        ranks = range(lo, top + 1)
        gf.update(zip([(t, r) for r in ranks], gf_coefficients(t, ranks)))
        explicit.update(((t, r), explicit_qpoly(t, r)) for r in ranks)
    moments = {(t, r): (closed_moments(t, r), moments_from_poly(gf[t, r])) for t, r in highest}
    cd_ranks = sum(1 for t, _ in highest if t in "CD")
    counts = [(t, r, build_root_system(t, r).count, positive_root_count(t, r)) for t, r in systems]
    return [
        _check("root-counts", [(f"{t}{r}: {n} != {want}", n == want) for t, r, n, want in counts],
               f"{len(systems)} systems up to rank {max_rank}"),
        _check("highest-root-membership", [
            (f"{t}{r}: highest root not in listing", highest_root(t, r) in build_root_system(t, r))
            for t, r in systems
        ], f"{len(systems)} systems"),
        _check_fixed_examples(),
        # the all-ones weight of A_r is the A_r bump weight with no bumps
        _check("chain-identity-A", [
            (f"A{r}", oracle[SupportSpec("A", r, ())] == explicit_qpoly("A", r))
            for r in range(1, max_rank + 1)
        ], f"ranks 1..{max_rank}"),
        _check("product-vs-oracle", [(label[s], oracle[s] == product[s]) for s in bumps],
               f"{len(bumps)} bump weights"),
        _check("total-counts", [
            (label[s], oracle[s](1) == 2 ** (s.rank - 1 - 2 * s.bump_count) * 5 ** s.bump_count)
            for s in bumps
        ], f"{len(bumps)} bump weights"),
        _check("route-agreement", [
            (f"{t}{r}", folds[t, r] == gf[t, r] == explicit[t, r])
            for t, r in highest
        ], f"oracle=gf=explicit, {len(highest)} highest roots"),
        _check("gf-vs-explicit", [(f"{t}{r}", gf[t, r] == explicit[t, r]) for t, r in gf],
               f"{len(gf)} ranks up to {top}"),
        _check("product-moments", [
            (label[s], product_moments(s) == moments_from_poly(product[s])) for s in bumps
        ], f"{len(bumps)} bump weights"),
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
