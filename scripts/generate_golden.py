"""Regenerate the golden files under tests/golden.

Run from the repository root after any intentional change to the
convergence diagnostics:

    python3 scripts/generate_golden.py

It writes convergence_metrics.json, which pins every diagnostic at fixed
family/rank points, rounded through %.12g so the comparison tolerance in
the test suite (1e-9) is meaningful, together with the acceptance
thresholds the metrics must stay inside.

After any intentional change to CLI stdout:

    python3 scripts/generate_golden.py --cli

writes cli_stdout.json instead: the exit code and the sha256 of stdout for
each argv in CLI_ARGV, every subcommand in every format.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib

from qkostant import DEFAULT_T_GRID, cli, convergence_sweep

GOLDEN_DIR = pathlib.Path("tests/golden")

FAMILIES = ("A", "B", "C", "D", "product")
METRIC_RANKS = (25, 100, 400)
MGF_RANKS = (20, 320)
BUMPS = 3  # bumped indices for the product family only

THRESHOLDS = {
    "ks_max_at_top_rank": 0.05,
    "abs_skewness_max_at_top_rank": 0.1,
    "abs_excess_kurtosis_max_at_top_rank": 0.1,
    "mgf_max_at_top_rank": 0.05,
}


def rounded(x: float) -> float:
    return float(format(x, ".12g"))


def build_payload():
    families = {}
    for family in FAMILIES:
        bumps = BUMPS if family == "product" else 0
        rows = {}
        for s in convergence_sweep(family, METRIC_RANKS, bumps=bumps):
            rows[str(s.rank)] = {
                "ks_distance": rounded(s.ks_distance),
                "skewness": rounded(s.skewness),
                "excess_kurtosis": rounded(s.excess_kurtosis),
            }
        mgf = {}
        for s in convergence_sweep(family, MGF_RANKS, bumps=bumps):
            mgf[str(s.rank)] = {
                format(t, ".12g"): rounded(e) for t, e in s.mgf_errors
            }
        families[family] = {"metrics": rows, "mgf_errors": mgf}
    return {
        "metric_ranks": list(METRIC_RANKS),
        "mgf_ranks": list(MGF_RANKS),
        "t_grid": [rounded(t) for t in DEFAULT_T_GRID],
        "product_bumps": BUMPS,
        "thresholds": THRESHOLDS,
        "families": families,
    }


CLI_ARGV = (
    ("roots", "--type", "A", "--rank", "3"),
    ("roots", "--type", "D", "--rank", "4", "--format", "json"),
    ("qpoly", "--type", "C", "--rank", "5"),
    ("qpoly", "--type", "C", "--rank", "5", "--format", "json"),
    ("qpoly", "--type", "D", "--rank", "5", "--strict", "--format", "json"),
    ("qpoly", "--type", "A", "--rank", "4", "--weight", "1,2,2,1"),
    ("qpoly", "--type", "B", "--rank", "3", "--weight", "0,0,0", "--format", "json"),
    ("qpoly", "--type", "B", "--rank", "3", "--route", "gf", "--format", "json"),
    ("qpoly", "--type", "C", "--rank", "161", "--route", "explicit"),
    ("qpoly", "--type", "B", "--rank", "6", "--support", "3:2"),
    ("qpoly", "--type", "A", "--rank", "7", "--support", "3:2,5:1", "--format", "json"),
    ("stats", "--type", "B", "--rank", "9"),
    ("stats", "--type", "D", "--rank", "12", "--format", "json"),
    ("converge", "--family", "D", "--ranks", "12,40"),
    ("converge", "--family", "product", "--ranks", "8,12", "--bumps", "2", "--format", "json"),
    ("converge", "--family", "A", "--ranks", "10,20", "--t-grid", "0.5,1,-0.25"),
    ("converge", "--family", "B", "--ranks", "30", "--t-grid", "1000,5000,-5000"),
    ("converge", "--family", "C", "--ranks", "30", "--t-grid", "1000,5000,-5000",
     "--format", "json"),
    ("verify", "--max-rank", "5"),
    ("verify", "--max-rank", "5", "--format", "csv"),
    ("verify", "--max-rank", "5", "--format", "json"),
    ("verify", "--max-rank", "8"),
    ("verify", "--max-rank", "8", "--format", "csv"),
    ("verify", "--max-rank", "8", "--format", "json"),
    ("verify", "--max-rank", "10", "--format", "json"),
)


def build_cli_payload():
    """The exit code and stdout sha256 of each CLI_ARGV request, in process."""
    cases = {}
    for argv in CLI_ARGV:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        cases[" ".join(argv)] = {"exit": code, "sha256": digest}
    return cases


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cli", action="store_true",
                        help="record the CLI stdout digests instead of the metrics")
    parser.add_argument("--output", type=pathlib.Path,
                        help="default: tests/golden/cli_stdout.json with --cli, "
                             "else tests/golden/convergence_metrics.json")
    args = parser.parse_args()
    if args.cli:
        payload, name = build_cli_payload(), "cli_stdout.json"
    else:
        payload, name = build_payload(), "convergence_metrics.json"
    output = args.output or GOLDEN_DIR / name
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
