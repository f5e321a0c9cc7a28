"""Cross-route verification suite.

Every check here compares independently computed exact quantities and
reports PASS, WARN, or FAIL with a deterministic detail string.  WARN is
reserved for the one documented defect (the family-B closed-form variance
token, see stats.TYPE_B_VARIANCE_NOTE); everything else is strict.

run_all(max_rank) drives the whole suite and is what the CLI's verify
subcommand prints.  Identical inputs produce byte-identical reports.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .closedform import (
    SupportSpec,
    check_bender_conditions,
    explicit_qpoly,
    gf_coefficient,
    iter_support_specs,
    product_qpoly,
    weight_of,
)
from .kostant import check_target, qanalog
from .polyring import QPoly
from .rootsys import LIE_TYPES, MIN_RANK, build_root_system, highest_root, positive_root_count
from .stats import (
    MEAN_GROWTH_LIMIT,
    TYPE_B_VARIANCE_NOTE,
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


def _result(name, failures, detail_ok):
    if failures:
        shown = "; ".join(failures[:4])
        more = "" if len(failures) <= 4 else f" (+{len(failures) - 4} more)"
        return CheckResult(name, "FAIL", shown + more)
    return CheckResult(name, "PASS", detail_ok)


def _ranks(lie_type, max_rank):
    return range(MIN_RANK[lie_type], max_rank + 1)


def _check_root_counts(max_rank):
    failures, n = [], 0
    for t in LIE_TYPES:
        for r in _ranks(t, max_rank):
            n += 1
            system = build_root_system(t, r)
            if system.count != positive_root_count(t, r):
                failures.append(f"{t}{r}: {system.count} != {positive_root_count(t, r)}")
    return _result("root-counts", failures, f"{n} systems up to rank {max_rank}")


def _check_highest_membership(max_rank):
    failures, n = [], 0
    for t in LIE_TYPES:
        for r in _ranks(t, max_rank):
            n += 1
            if highest_root(t, r) not in build_root_system(t, r):
                failures.append(f"{t}{r}: highest root not in listing")
    return _result("highest-root-membership", failures, f"{n} systems")


def _check_chain_identity(max_rank, oracle):
    # the all-ones weight of A_r is the A_r bump weight with no bumps
    failures = []
    for r in range(1, max_rank + 1):
        if oracle[SupportSpec("A", r, ())] != explicit_qpoly("A", r):
            failures.append(f"A{r}")
    return _result("chain-identity-A", failures, f"ranks 1..{max_rank}")


def _spec_suite(max_rank):
    for t in LIE_TYPES:
        for r in _ranks(t, max_rank):
            yield from iter_support_specs(t, r)


def _check_product_vs_oracle(oracle):
    failures = []
    for spec, poly in oracle.items():
        if poly != product_qpoly(spec):
            failures.append(f"{spec.lie_type}{spec.rank} {spec.entries}")
    return _result("product-vs-oracle", failures, f"{len(oracle)} bump weights")


def _check_total_counts(oracle):
    failures = []
    for spec, poly in oracle.items():
        expect = 2 ** (spec.rank - 1 - 2 * spec.bump_count) * 5 ** spec.bump_count
        if poly(1) != expect:
            failures.append(f"{spec.lie_type}{spec.rank} {spec.entries}")
    return _result("total-counts", failures, f"{len(oracle)} bump weights")


def _check_route_agreement(max_rank):
    failures, n = [], 0
    for t in ("B", "C", "D"):
        for r in _ranks(t, max_rank):
            n += 1
            system = build_root_system(t, r)
            oracle = qanalog(system, system.highest_root)
            if not (oracle == gf_coefficient(t, r) == explicit_qpoly(t, r)):
                failures.append(f"{t}{r}")
    return _result("route-agreement", failures, f"oracle=gf=explicit, {n} highest roots")


def _check_gf_vs_explicit(max_rank):
    top = _EXTENDED_FACTOR * max_rank
    failures, n = [], 0
    for t, lo in (("B", 2), ("C", 1), ("D", 4)):
        for r in range(lo, top + 1):
            n += 1
            if gf_coefficient(t, r) != explicit_qpoly(t, r):
                failures.append(f"{t}{r}")
    return _result("gf-vs-explicit", failures, f"{n} ranks up to {top}")


def _check_product_moments(max_rank):
    failures, n = [], 0
    for spec in _spec_suite(max_rank):
        n += 1
        if product_moments(spec) != moments_from_poly(product_qpoly(spec)):
            failures.append(f"{spec.lie_type}{spec.rank} {spec.entries}")
    return _result("product-moments", failures, f"{n} bump weights")


def _check_closed_mean(max_rank):
    failures, n = [], 0
    for t in ("B", "C", "D"):
        for r in _ranks(t, max_rank):
            n += 1
            mean, _ = closed_moments(t, r)
            if mean.as_fraction() != moments_from_poly(gf_coefficient(t, r)).mean:
                failures.append(f"{t}{r}")
    return _result("closed-mean", failures, f"B/C/D, {n} ranks")


def _check_closed_variance_cd(max_rank):
    failures, n = [], 0
    for t in ("C", "D"):
        for r in _ranks(t, max_rank):
            n += 1
            _, var = closed_moments(t, r)
            if var.as_fraction() != moments_from_poly(gf_coefficient(t, r)).variance:
                failures.append(f"{t}{r}")
    return _result("closed-variance-CD", failures, f"C/D, {n} ranks")


def _check_closed_variance_b(max_rank):
    failures, n = [], 0
    for r in _ranks("B", max_rank):
        n += 1
        _, var = closed_moments("B", r)
        if var.as_fraction() != moments_from_poly(gf_coefficient("B", r)).variance:
            failures.append(f"B{r}")
    if failures:
        return _result("closed-variance-B", failures, "")
    return CheckResult(
        "closed-variance-B",
        "WARN",
        f"{TYPE_B_VARIANCE_NOTE}; corrected reading matches the gf route at {n} ranks",
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
    failures = []
    limit = float(MEAN_GROWTH_LIMIT)
    for t in ("B", "C", "D"):
        older, _ = closed_moments(t, r0 - 1)
        newer, _ = closed_moments(t, r0)
        inc = float(newer.as_fraction() - older.as_fraction())
        if abs(inc - limit) > 1e-9:
            failures.append(f"{t}: increment {inc!r} vs limit {limit!r}")
    return _result(
        "mean-growth-limit", failures, f"increment at rank {r0} within 1e-09 of (7+sqrt(5))/10"
    )


def _check_fixed_examples():
    b2 = build_root_system("B", 2)
    checks = [
        ("A3 root count", build_root_system("A", 3).count == 6),
        ("B2 roots", b2.positive_roots == ((0, 1), (1, 0), (1, 1), (1, 2))),
        ("D4 root count", build_root_system("D", 4).count == 12),
        ("C3 highest root", highest_root("C", 3) == (2, 2, 1)),
        ("B4 highest root", highest_root("B", 4) == (1, 2, 2, 2)),
        ("B2 highest-root poly", qanalog(b2, (1, 2)) == QPoly((0, 1, 1, 1))),
        ("C3 gf poly", gf_coefficient("C", 3) == QPoly((0, 1, 2, 4, 2, 1))),
        ("D4 gf poly", gf_coefficient("D", 4) == QPoly((0, 1, 4, 6, 3, 1))),
        ("A3 chain poly", explicit_qpoly("A", 3) == QPoly((0, 1, 2, 1))),
        ("A3 stats", (lambda m: m.mean == 2 and m.variance == Fraction(1, 2))(
            moments_from_poly(explicit_qpoly("A", 3)))),
        ("B2 stats", (lambda m: m.mean == 2 and m.variance == Fraction(2, 3))(
            moments_from_poly(qanalog(b2, (1, 2))))),
        ("C3 stats", (lambda m: m.mean == 3 and m.variance == Fraction(6, 5))(
            moments_from_poly(gf_coefficient("C", 3)))),
        ("bump moments r5", (lambda m: m.mean == 3 and m.variance == 1)(
            product_moments(SupportSpec("A", 5, ())))),
        ("bump moments r5 idx3", (lambda m: (m.mean, m.variance)
         == (Fraction(19, 5), Fraction(53, 50)))(
            product_moments(SupportSpec("A", 5, ((3, 1),))))),
    ]
    failures = [name for name, ok in checks if not ok]
    return _result("fixed-examples", failures, f"{len(checks)} pinned values")


def run_all(max_rank: int = 8):
    """The full suite, in a fixed order, as a list of CheckResult."""
    if max_rank < 5:
        raise ValueError("max_rank must be at least 5 so every family participates")
    # Refuse an over-budget max_rank before any check runs: every weight
    # the suite folds goes through the fold's own budget check first.  The
    # highest roots come first; their boxes outgrow the budget soonest.
    for t in ("B", "C", "D"):
        for r in _ranks(t, max_rank):
            check_target(r, highest_root(t, r))
    bumps = {spec: weight_of(spec) for spec in _spec_suite(max_rank)}
    for spec, weight in bumps.items():
        check_target(spec.rank, weight)
    # Each bump weight is folded once; three checks read its polynomial.
    oracle = {
        spec: qanalog(build_root_system(spec.lie_type, spec.rank), weight)
        for spec, weight in bumps.items()
    }
    return [
        _check_root_counts(max_rank),
        _check_highest_membership(max_rank),
        _check_fixed_examples(),
        _check_chain_identity(max_rank, oracle),
        _check_product_vs_oracle(oracle),
        _check_total_counts(oracle),
        _check_route_agreement(max_rank),
        _check_gf_vs_explicit(max_rank),
        _check_product_moments(max_rank),
        _check_closed_mean(max_rank),
        _check_closed_variance_cd(max_rank),
        _check_closed_variance_b(max_rank),
        _check_bender(),
        _check_mean_growth(),
    ]


def summary_line(results) -> str:
    passed = sum(1 for c in results if c.status == "PASS")
    warned = sum(1 for c in results if c.status == "WARN")
    failed = sum(1 for c in results if c.status == "FAIL")
    plural = "" if warned == 1 else "s"
    return f"verify: {passed} passed, {warned} warning{plural}, {failed} failed"
