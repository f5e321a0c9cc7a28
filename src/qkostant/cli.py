"""Command-line interface.

Subcommands: roots, qpoly, stats, converge, verify.  Exit codes: 0 success,
1 verification failure, 2 invalid input, 3 route disagreement under
--strict, 64 malformed flags.

Output is deterministic byte for byte: CSV uses a header row with minimal
RFC-style quoting and "\n" line endings, JSON is an envelope
{schema_version, command, parameters, payload} serialized with sorted keys,
and every float is rounded through the %.12g format first.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

from .closedform import SupportSpec, explicit_qpoly, gf_coefficient, product_qpoly, weight_of
from .errors import KostantError
from .gaussianity import DEFAULT_T_GRID, FAMILIES, convergence_sweep
from .kostant import qanalog
from .rootsys import LIE_TYPES, build_root_system, highest_root, validate_type_rank
from .stats import TYPE_B_VARIANCE_NOTE, closed_moments, moments_from_poly
from . import verify as verify_mod

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DISAGREEMENT = 3
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose flag errors map to exit code 64."""

    def error(self, message):
        raise _UsageError(message)


def _fmt_float(x: float) -> str:
    return format(x, ".12g")


def _json_float(x: float) -> float:
    return float(_fmt_float(x))


def _fmt_frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _parse_int_list(text: str):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _parse_t_grid(text: str):
    """Comma-separated t values; t*t/2 must be finite, so the MGF error is."""
    try:
        values = tuple(float(p) for p in text.split(","))
        if not all(math.isfinite(v * v / 2.0) for v in values):
            raise ValueError(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats t with finite t*t/2, got {text!r}"
        )
    return values


def _parse_weight(text: str):
    if text == "highest":
        return "highest"
    return _parse_int_list(text)


def _parse_support(text: str):
    entries = []
    for part in text.split(","):
        halves = part.split(":")
        if len(halves) != 2:
            raise argparse.ArgumentTypeError(
                f"support entries look like index:extra, got {part!r}"
            )
        try:
            entries.append((int(halves[0]), int(halves[1])))
        except ValueError:
            raise argparse.ArgumentTypeError(f"non-integer support entry {part!r}")
    return tuple(entries)


def _emit_json(command, parameters, payload):
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "payload": payload,
    }
    print(json.dumps(record, indent=2, sort_keys=True))


def _emit_csv(header, rows):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _build_parser():
    parser = _Parser(prog="qkostant", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="list the positive roots of one system")
    p.add_argument("--type", required=True, choices=LIE_TYPES, dest="lie_type")
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("qpoly", help="part-count polynomial of a weight, by any route")
    p.add_argument("--type", required=True, choices=LIE_TYPES, dest="lie_type")
    p.add_argument("--rank", required=True, type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--weight", type=_parse_weight, default="highest",
                       help='comma-separated coordinates, or "highest" (default)')
    group.add_argument("--support", type=_parse_support,
                       help="bump pattern index:extra,index:extra over the all-ones weight")
    p.add_argument("--route", choices=("oracle", "product", "gf", "explicit", "all"),
                   default="all")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 if the computed routes disagree")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("stats", help="exact part-count mean and variance at the highest root")
    p.add_argument("--type", required=True, choices=LIE_TYPES, dest="lie_type")
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("converge", help="Gaussian-convergence diagnostics across ranks")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--ranks", type=_parse_int_list, default=(25, 100, 400))
    p.add_argument("--bumps", type=int, default=0,
                   help="bumped index count for the product family")
    p.add_argument("--t-grid", type=_parse_t_grid, default=DEFAULT_T_GRID,
                   dest="t_grid")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify", help="run the cross-route verification suite")
    p.add_argument("--max-rank", type=int, default=8, dest="max_rank")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    return parser


def _cmd_roots(args) -> int:
    system = build_root_system(args.lie_type, args.rank)
    params = {"type": args.lie_type, "rank": args.rank}
    if args.format == "json":
        payload = [
            {"index": i, "coeffs": list(root)}
            for i, root in enumerate(system.positive_roots)
        ]
        _emit_json("roots", params, payload)
    else:
        rows = [
            (i, ",".join(str(c) for c in root))
            for i, root in enumerate(system.positive_roots)
        ]
        _emit_csv(("index", "coeffs"), rows)
    return EXIT_OK


def _qpoly_tasks(args):
    """Resolve the weight and the ordered list of applicable route names."""
    if args.support is not None:
        spec = SupportSpec(args.lie_type, args.rank, args.support)
        return weight_of(spec), spec, ["oracle", "product"]
    if args.weight == "highest":
        weight = highest_root(args.lie_type, args.rank)
        routes = ["oracle", "explicit"] if args.lie_type == "A" else ["oracle", "gf", "explicit"]
        return weight, None, routes
    validate_type_rank(args.lie_type, args.rank)
    return tuple(args.weight), None, ["oracle"]


def _cmd_qpoly(args) -> int:
    weight, spec, applicable = _qpoly_tasks(args)
    if args.route == "all":
        routes = applicable
    elif args.route in applicable:
        routes = [args.route]
    else:
        raise _InputError(
            f"route {args.route} does not apply here (applicable: {', '.join(applicable)})"
        )
    computed = []
    for name in routes:
        if name == "oracle":
            poly = qanalog(build_root_system(args.lie_type, args.rank), weight)
        elif name == "product":
            poly = product_qpoly(spec)
        elif name == "gf":
            poly = gf_coefficient(args.lie_type, args.rank)
        else:
            poly = explicit_qpoly(args.lie_type, args.rank)
        computed.append((name, poly))
    agree = None
    if len(computed) > 1:
        first = computed[0][1]
        agree = all(poly == first for _, poly in computed[1:])

    params = {
        "type": args.lie_type,
        "rank": args.rank,
        "weight": list(weight),
        "route": args.route,
        "strict": args.strict,
    }
    if args.format == "json":
        payload = {
            "weight": list(weight),
            "routes": [
                {"route": name, "degree": poly.degree, "coeffs": list(poly.coeffs)}
                for name, poly in computed
            ],
            "agree": agree,
        }
        _emit_json("qpoly", params, payload)
    else:
        agree_text = "" if agree is None else ("true" if agree else "false")
        rows = [
            (name, poly.degree, ",".join(str(c) for c in poly.coeffs), agree_text)
            for name, poly in computed
        ]
        _emit_csv(("route", "degree", "coeffs", "agree"), rows)
    if args.strict and agree is False:
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _highest_poly(lie_type, rank):
    validate_type_rank(lie_type, rank)
    if lie_type == "A":
        return explicit_qpoly("A", rank)
    return gf_coefficient(lie_type, rank)


def _cmd_stats(args) -> int:
    pair = moments_from_poly(_highest_poly(args.lie_type, args.rank))
    closed_mean, closed_var = closed_moments(args.lie_type, args.rank)
    closed_mean = closed_mean.as_fraction()
    closed_var = closed_var.as_fraction()
    note = TYPE_B_VARIANCE_NOTE if args.lie_type == "B" else ""
    values = {
        "mean": _fmt_frac(pair.mean),
        "mean_float": _json_float(float(pair.mean)),
        "variance": _fmt_frac(pair.variance),
        "variance_float": _json_float(float(pair.variance)),
        "closed_mean": _fmt_frac(closed_mean),
        "closed_variance": _fmt_frac(closed_var),
        "mean_agrees": closed_mean == pair.mean,
        "variance_agrees": closed_var == pair.variance,
        "note": note,
    }
    params = {"type": args.lie_type, "rank": args.rank}
    if args.format == "json":
        _emit_json("stats", params, values)
    else:
        header = (
            "type", "rank", "mean", "mean_float", "variance", "variance_float",
            "closed_mean", "closed_variance", "mean_agrees", "variance_agrees", "note",
        )
        row = (
            args.lie_type, args.rank, values["mean"], _fmt_float(float(pair.mean)),
            values["variance"], _fmt_float(float(pair.variance)),
            values["closed_mean"], values["closed_variance"],
            "true" if values["mean_agrees"] else "false",
            "true" if values["variance_agrees"] else "false",
            note,
        )
        _emit_csv(header, [row])
    return EXIT_OK


def _cmd_converge(args) -> int:
    if args.family != "product" and args.bumps:
        raise _InputError("--bumps only applies to the product family")
    summaries = convergence_sweep(args.family, args.ranks, args.t_grid, bumps=args.bumps)
    params = {
        "family": args.family,
        "ranks": list(args.ranks),
        "bumps": args.bumps,
        "t_grid": [_json_float(t) for t in args.t_grid],
    }
    if args.format == "json":
        payload = [
            {
                "family": s.family,
                "rank": s.rank,
                "mean": _fmt_frac(s.mean),
                "variance": _fmt_frac(s.variance),
                "ks_distance": _json_float(s.ks_distance),
                "skewness": _json_float(s.skewness),
                "excess_kurtosis": _json_float(s.excess_kurtosis),
                "max_mgf_error": _json_float(s.max_mgf_error),
                "mgf_errors": [
                    {"t": _json_float(t), "abs_error": _json_float(e)}
                    for t, e in s.mgf_errors
                ],
            }
            for s in summaries
        ]
        _emit_json("converge", params, payload)
    else:
        header = ["family", "rank", "mean", "variance", "ks_distance", "skewness",
                  "excess_kurtosis", "max_mgf_error"]
        header += [f"mgf_err[t={_fmt_float(t)}]" for t in args.t_grid]
        rows = []
        for s in summaries:
            row = [
                s.family, s.rank, _fmt_frac(s.mean), _fmt_frac(s.variance),
                _fmt_float(s.ks_distance), _fmt_float(s.skewness),
                _fmt_float(s.excess_kurtosis), _fmt_float(s.max_mgf_error),
            ]
            row += [_fmt_float(e) for _, e in s.mgf_errors]
            rows.append(row)
        _emit_csv(header, rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.max_rank < 5:
        raise _InputError("--max-rank must be at least 5 so every family participates")
    results = verify_mod.run_all(args.max_rank)
    failed = any(c.status == "FAIL" for c in results)
    params = {"max_rank": args.max_rank}
    if args.format == "json":
        payload = {
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail} for c in results
            ],
            "summary": {
                "passed": sum(1 for c in results if c.status == "PASS"),
                "warnings": sum(1 for c in results if c.status == "WARN"),
                "failed": sum(1 for c in results if c.status == "FAIL"),
            },
        }
        _emit_json("verify", params, payload)
    elif args.format == "csv":
        _emit_csv(("name", "status", "detail"),
                  [(c.name, c.status, c.detail) for c in results])
    else:
        for c in results:
            print(f"{c.status} {c.name}: {c.detail}")
        print(f"{verify_mod.summary_line(results)} (max rank {args.max_rank})")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


_HANDLERS = {
    "roots": _cmd_roots,
    "qpoly": _cmd_qpoly,
    "stats": _cmd_stats,
    "converge": _cmd_converge,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except (_InputError, KostantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
