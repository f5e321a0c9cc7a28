"""Command-line interface.

Subcommands: roots, qpoly, stats, converge, verify.  Exit codes: 0 success,
1 verification failure, 2 invalid input, 3 route disagreement under
--strict, 64 malformed flags, 141 (128 + SIGPIPE) when the reader closes
stdout before the output is written, as in `qkostant roots ... | head -1`.

Each subcommand computes its result once, as one _Output record of typed
values (parameters, payload, CSV header and rows, text lines, exit code),
and _emit renders that record in the requested format, deterministic byte
for byte: JSON is an envelope {schema_version, command, parameters,
payload} serialized with sorted keys, CSV a header row with minimal
RFC-style quoting and "\n" line endings, text (verify only) one line per
check.  There is one rounding rule: every float is rounded through %.12g
where it is computed (_round), so CSV and JSON print the same value.  Exact
fractions stay Fractions in the record, and _emit writes each as
numerator/denominator.  CPython refuses to convert an int of over 4300
digits to text (sys.set_int_max_str_digits), and exact output can be longer
(the B11000 variance), so main lifts that limit while _emit writes and
restores the caller's value after.  Argument parsing keeps the limit.

Every request is a fresh process, so start-up and exit count: the module
level imports only what the parser needs, and each subcommand imports the
layers it uses (and json or csv where it emits them) when it runs.  At exit,
entry() freezes the heap (gc.freeze) before sys.exit, so the interpreter's
shutdown collections skip the objects the request leaves behind; main()
does not, because in-process callers keep running after it returns.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from ._record import Record
from .errors import KostantError
from .rootsys import (
    FAMILIES,
    LIE_TYPES,
    build_root_system,
    check_listing,
    highest_root,
    validate_type_rank,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DISAGREEMENT = 3
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose flag errors map to exit code 64."""

    def error(self, message):
        raise _UsageError(message)


def _round(x: float) -> float:
    """x rounded through %.12g: the one rounding rule for every output float."""
    return float(format(x, ".12g"))


def _fmt_frac(f) -> str:
    """A Fraction as numerator/denominator."""
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
                f"support entries look like index:extra, got {part!r}")
        try:
            entries.append((int(halves[0]), int(halves[1])))
        except ValueError:
            raise argparse.ArgumentTypeError(f"non-integer support entry {part!r}")
    return tuple(entries)


class _Output(Record):
    """One request's result, held once as typed values for every renderer.

    params and payload fill the JSON envelope, header and rows the CSV
    table; text holds verify's text lines, and code is the exit code.
    """

    __slots__ = ("params", "payload", "header", "rows", "text", "code")

    def __init__(self, params, payload, header, rows, text=(), code=EXIT_OK):
        self._assign(params, payload, header, rows, text, code)


def _cell(v):
    """One CSV cell: %.12g floats, true/false, an empty None, comma-joined
    int sequences, ints and strings as they are, and any other value, a
    Fraction, as numerator/denominator."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    if v is None:
        return ""
    if isinstance(v, tuple):
        return ",".join(map(str, v))
    if isinstance(v, (int, str)):
        return v
    return _fmt_frac(v)


def _emit(fmt: str, command: str, out: _Output) -> None:
    """Write one request's output in its format: json, csv or text."""
    if fmt == "json":
        import json

        print(json.dumps({"schema_version": SCHEMA_VERSION, "command": command,
                          "parameters": out.params, "payload": out.payload},
                         indent=2, sort_keys=True, default=_fmt_frac))
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(out.header)
        writer.writerows([_cell(v) for v in row] for row in out.rows)
    else:
        print("\n".join(out.text))


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
    p.add_argument("--t-grid", type=_parse_t_grid, dest="t_grid",
                   help="comma-separated t values (default: gaussianity.DEFAULT_T_GRID)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify", help="run the cross-route verification suite")
    p.add_argument("--max-rank", type=int, default=8, dest="max_rank")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    return parser


def _cmd_roots(args) -> _Output:
    check_listing(args.lie_type, args.rank)
    system = build_root_system(args.lie_type, args.rank)
    header = ("index", "coeffs")
    rows = list(enumerate(system.positive_roots))
    payload = [dict(zip(header, row)) for row in rows]
    return _Output({"type": args.lie_type, "rank": args.rank}, payload, header, rows)


def _cmd_qpoly(args) -> _Output:
    from . import closedform

    def oracle():
        from .kostant import check_target, qanalog

        # Refuse an oversized box before the system is built.
        target = check_target(args.rank, weight)
        return qanalog(build_root_system(args.lie_type, args.rank), target)

    # The applicable routes, in output order: route name -> computation.
    routes = {"oracle": oracle}
    if args.support is not None:
        spec = closedform.SupportSpec(args.lie_type, args.rank, args.support)
        weight = closedform.weight_of(spec)
        routes["product"] = lambda: closedform.product_qpoly(spec)
    elif args.weight == "highest":
        weight = highest_root(args.lie_type, args.rank)
        if args.lie_type != "A":
            routes["gf"] = lambda: closedform.gf_coefficient(args.lie_type, args.rank)
        routes["explicit"] = lambda: closedform.explicit_qpoly(args.lie_type, args.rank)
    else:
        validate_type_rank(args.lie_type, args.rank)
        weight = args.weight
    if args.route != "all" and args.route not in routes:
        raise KostantError(
            f"route {args.route} does not apply here (applicable: {', '.join(routes)})"
        )
    chosen = routes if args.route == "all" else (args.route,)
    computed = [(name, routes[name]()) for name in chosen]
    agree = None
    if len(computed) > 1:
        first = computed[0][1]
        agree = all(poly == first for _, poly in computed[1:])

    params = {"type": args.lie_type, "rank": args.rank, "weight": weight,
              "route": args.route, "strict": args.strict}
    header = ("route", "degree", "coeffs", "agree")
    rows = [(name, poly.degree, poly.coeffs, agree) for name, poly in computed]
    payload = {
        "weight": weight,
        "routes": [dict(zip(header[:3], row)) for row in rows],
        "agree": agree,
    }
    code = EXIT_DISAGREEMENT if args.strict and agree is False else EXIT_OK
    return _Output(params, payload, header, rows, code=code)


def _cmd_stats(args) -> _Output:
    from .closedform import highest_jet
    from .stats import TYPE_B_VARIANCE_NOTE, closed_moments, moments_from_jet

    pair = moments_from_jet(highest_jet(args.lie_type, args.rank))
    closed_mean, closed_var = (m.as_fraction() for m in closed_moments(args.lie_type, args.rank))
    params = {"type": args.lie_type, "rank": args.rank}
    payload = {
        "mean": pair.mean,
        "mean_float": _round(float(pair.mean)),
        "variance": pair.variance,
        "variance_float": _round(float(pair.variance)),
        "closed_mean": closed_mean,
        "closed_variance": closed_var,
        "mean_agrees": closed_mean == pair.mean,
        "variance_agrees": closed_var == pair.variance,
        "note": TYPE_B_VARIANCE_NOTE if args.lie_type == "B" else "",
    }
    header = (*params, *payload)
    rows = [(*params.values(), *payload.values())]
    return _Output(params, payload, header, rows)


def _cmd_converge(args) -> _Output:
    from .gaussianity import DEFAULT_T_GRID, convergence_sweep

    t_grid = DEFAULT_T_GRID if args.t_grid is None else args.t_grid
    summaries = convergence_sweep(args.family, args.ranks, t_grid, bumps=args.bumps)
    params = {"family": args.family, "ranks": args.ranks, "bumps": args.bumps,
              "t_grid": tuple(_round(t) for t in t_grid)}
    payload = [
        {
            "family": s.family,
            "rank": s.rank,
            "mean": s.mean,
            "variance": s.variance,
            "ks_distance": _round(s.ks_distance),
            "skewness": _round(s.skewness),
            "excess_kurtosis": _round(s.excess_kurtosis),
            "max_mgf_error": _round(s.max_mgf_error),
            "mgf_errors": [{"t": _round(t), "abs_error": _round(e)} for t, e in s.mgf_errors],
        }
        for s in summaries
    ]
    columns = ("family", "rank", "mean", "variance", "ks_distance", "skewness",
               "excess_kurtosis", "max_mgf_error")
    header = [*columns, *(f"mgf_err[t={_cell(t)}]" for t in params["t_grid"])]
    rows = [[*(s[k] for k in columns), *(m["abs_error"] for m in s["mgf_errors"])]
            for s in payload]
    return _Output(params, payload, header, rows)


def _cmd_verify(args) -> _Output:
    from . import verify as verify_mod

    results = verify_mod.run_all(args.max_rank)
    counts = verify_mod.tally(results)
    header = ("name", "status", "detail")
    rows = [(c.name, c.status, c.detail) for c in results]
    payload = {"checks": [dict(zip(header, row)) for row in rows], "summary": counts}
    text = [f"{c.status} {c.name}: {c.detail}" for c in results]
    text.append(f"{verify_mod.summary_line(results)} (max rank {args.max_rank})")
    code = EXIT_VERIFY_FAILED if counts["failed"] else EXIT_OK
    return _Output({"max_rank": args.max_rank}, payload, header, rows, text, code)


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
        out = _HANDLERS[args.command](args)
    except KostantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _emit(args.format, args.command, out)
    finally:
        sys.set_int_max_str_digits(limit)
    return out.code


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Nobody reads stdout any more: send it to devnull, so the flush at
        # shutdown writes nothing, and exit as a SIGPIPE-killed process would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    # The shutdown collections skip frozen objects, so exit no longer walks
    # and frees the module graph (5-8 ms a request, 2-core machine); atexit
    # handlers still run.
    # Only entry() freezes: in-process callers of main() would pin garbage.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
