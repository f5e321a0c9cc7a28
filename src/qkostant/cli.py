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

_parse_args reads argv against one flag table, _COMMANDS, which also
generates the -h/--help text; a malformed argv is one `usage error:` line
and exit 64.

Every request is a fresh process, so start-up and exit count: the module
level imports only what the parser needs (not argparse, whose import, with
gettext's and locale's, cost more than the parsing), and each subcommand
imports the layers it uses (and json or csv where it emits them) when it
runs.  At exit,
entry() freezes the heap (gc.freeze) before sys.exit, so the interpreter's
shutdown collections skip the objects the request leaves behind; main()
does not, because in-process callers keep running after it returns.
"""

from __future__ import annotations

import gc
import math
import os
import sys
from types import SimpleNamespace

from ._record import Record
from .errors import KostantError
from .rootsys import (
    FAMILIES,
    LIE_TYPES,
    build_root_system,
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
        raise _UsageError(f"expected comma-separated ints, got {text!r}")


def _parse_t_grid(text: str):
    """Comma-separated t values; t*t/2 must be finite, so the MGF error is."""
    try:
        values = tuple(float(p) for p in text.split(","))
        if not all(math.isfinite(v * v / 2.0) for v in values):
            raise ValueError(text)
    except ValueError:
        raise _UsageError(
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
            raise _UsageError(
                f"support entries look like index:extra, got {part!r}")
        try:
            entries.append((int(halves[0]), int(halves[1])))
        except ValueError:
            raise _UsageError(f"non-integer support entry {part!r}")
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
                         indent=2, sort_keys=True, default=_fmt_frac, allow_nan=False))
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(out.header)
        writer.writerows([_cell(v) for v in row] for row in out.rows)
    else:
        print("\n".join(out.text))


# The flag table.  A flag is (name, attribute, converter, default, help):
# the converter is None for a switch, the tuple of allowed values for a
# choice, or a function of the value's text that raises ValueError or
# _UsageError; a default of _REQUIRED makes the flag required.
_REQUIRED = object()
_TYPE = ("--type", "lie_type", LIE_TYPES, _REQUIRED, "Lie type")
_RANK = ("--rank", "rank", int, _REQUIRED, "rank")
_FORMAT = ("--format", "format", ("csv", "json"), "csv", "output format (default: csv)")
_HELP = ("--help", None, None, False, "show this help and exit")

# Each subcommand -> its help line and its flags.
_COMMANDS = {
    "roots": ("list the positive roots of one system", (_TYPE, _RANK, _FORMAT)),
    "qpoly": ("part-count polynomial of a weight, by any route", (
        _TYPE, _RANK,
        ("--weight", "weight", _parse_weight, "highest",
         'comma-separated coordinates, or "highest" (default)'),
        ("--support", "support", _parse_support, None,
         "bump pattern index:extra,index:extra over the all-ones weight"),
        ("--route", "route", ("oracle", "product", "gf", "explicit", "all"), "all",
         "the route to compute (default: all that apply)"),
        ("--strict", "strict", None, False, "exit 3 if the computed routes disagree"),
        _FORMAT)),
    "stats": ("exact part-count mean and variance at the highest root",
              (_TYPE, _RANK, _FORMAT)),
    "converge": ("Gaussian-convergence diagnostics across ranks", (
        ("--family", "family", FAMILIES, _REQUIRED, "family of weights"),
        ("--ranks", "ranks", _parse_int_list, (25, 100, 400),
         "comma-separated ranks (default: 25,100,400)"),
        ("--bumps", "bumps", int, 0, "bumped index count for the product family"),
        ("--t-grid", "t_grid", _parse_t_grid, None,
         "comma-separated t values (default: gaussianity.DEFAULT_T_GRID)"),
        _FORMAT)),
    "verify": ("run the cross-route verification suite", (
        ("--max-rank", "max_rank", int, 8, "largest rank checked (default: 8)"),
        ("--format", "format", ("text", "csv", "json"), "text",
         "output format (default: text)"))),
}


def _lookup(token, flags):
    """The flag a --name[=value] token names, in full or by a unique prefix
    of its name, and the value after "=" (None without one).  -h is --help.
    No flag name is a prefix of another, so a full name is a unique prefix."""
    name, eq, value = ("--help", "", "") if token == "-h" else token.partition("=")
    found = [f for f in flags if f[0].startswith(name)]
    if not (name.startswith("--") and len(name) > 2 and found):
        raise _UsageError(f"unrecognized arguments: {token}")
    if len(found) > 1:
        raise _UsageError(
            f"ambiguous option: {name} could match {', '.join(f[0] for f in found)}")
    return found[0], value if eq else None


def _form(flag) -> str:
    """How a flag is written in a usage line: --rank RANK, --type {A,B,C,D}."""
    name, attr, convert = flag[:3]
    if convert is None:
        return name
    if isinstance(convert, tuple):
        return f"{name} {{{','.join(convert)}}}"
    return f"{name} {attr.upper()}"


def _help(command) -> str:
    """The -h/--help text of the top level (command None) or of one command."""
    if command is None:
        return "\n".join([
            f"usage: qkostant {{{','.join(_COMMANDS)}}} [flags]", "",
            __doc__.splitlines()[0], "", "commands:",
            *(f"  {name:9} {line}" for name, (line, _) in _COMMANDS.items()), "",
            "`qkostant <command> --help` lists the flags of one command."])
    line, flags = _COMMANDS[command]
    usage = [_form(f) if f[3] is _REQUIRED else f"[{_form(f)}]" for f in flags]
    rows = [(_form(f), f[4] + (" (required)" if f[3] is _REQUIRED else "")) for f in flags]
    rows.append(("-h, --help", _HELP[4]))
    width = max(len(form) for form, _ in rows)
    return "\n".join([f"usage: qkostant {command} {' '.join(usage)}", "", line, "", "flags:",
                      *(f"  {form:{width}}  {text}" for form, text in rows)])


def _parse_args(argv):
    """The request argv names, as a namespace holding the command and every
    attribute of that command's flags, or None once the help it asks for is
    printed.  A malformed argv raises _UsageError.

    A flag's value is the next token unless that token starts with "--", or
    follows "=" in the same token; a repeated flag's last value wins.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    if command is None or command.startswith("-"):
        command, flags, tokens = None, (), iter(argv)  # only help comes before a command
    elif command in _COMMANDS:
        flags, tokens = _COMMANDS[command][1], iter(argv[1:])
    else:
        raise _UsageError(f"argument command: invalid choice: {command!r} "
                          f"(choose from {', '.join(_COMMANDS)})")
    values = {"command": command, **{f[1]: f[3] for f in flags}}
    given = set()
    for token in tokens:
        flag, value = _lookup(token, (*flags, _HELP))
        name, attr, convert = flag[:3]
        if convert is None:
            if value is not None:
                raise _UsageError(f"argument {name}: ignored explicit argument {value!r}")
            if flag is _HELP:
                print(_help(command))
                return None
            value = True
        else:
            if value is None:
                value = next(tokens, None)
                if value is None or value.startswith("--"):
                    raise _UsageError(f"argument {name}: expected one argument")
            value = _convert(name, convert, value)
        values[attr] = value
        given.add(name)
    missing = [f[0] for f in flags if values[f[1]] is _REQUIRED]
    if command is None or missing:
        raise _UsageError("the following arguments are required: "
                          + ", ".join(missing or ["command"]))
    if {"--weight", "--support"} <= given:
        raise _UsageError("argument --support: not allowed with argument --weight")
    return SimpleNamespace(**values)


def _convert(name, convert, text):
    """One flag's value from its text, through a choice tuple or a converter."""
    try:
        if not isinstance(convert, tuple):
            return convert(text)
        if text in convert:
            return text
        detail = f"invalid choice: {text!r} (choose from {', '.join(convert)})"
    except ValueError:  # only int raises it: the other converters raise _UsageError
        detail = f"invalid {convert.__name__} value: {text!r}"
    except _UsageError as exc:
        detail = exc
    raise _UsageError(f"argument {name}: {detail}")


def _cmd_roots(args) -> _Output:
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
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args is None:  # the help was asked for and printed
        return EXIT_OK
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
