"""Check CLI stdout byte for byte under every installed CPython 3.10 or newer.

A development tool, not part of the test suite.  Run from the repository
root:

    python3 scripts/interpreter_matrix.py

For each CPython 3.10 or newer installed under $PYENV_ROOT/versions
(~/.pyenv/versions by default), it runs `scripts/generate_golden.py --cli
--output <tmp>` with that interpreter and src on PYTHONPATH, and compares
the file byte for byte with tests/golden/cli_stdout.json.  Versions that are
not installed are skipped.  The big-integer paths the digests cover
(int.to_bytes/from_bytes, squaring) are the interpreter's own code, so this
is where a change in them would show.  It also runs every malformed argv in
USAGE_CASES through `python -m qkostant.cli` with each version and compares
the exit code and stderr with those of the interpreter running this script,
so the flag parser refuses the same argv with the same message everywhere.

It prints one JSON summary: per version, under "golden", "identical", the
requests whose digest differs, or the failed run's exit code and last stderr
line, and under "usage", "identical" or the argv whose exit code or stderr
differs.  The exit code is 0 only if at least one version ran and every one
is identical on both.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_stdout.json"
MIN_VERSION = (3, 10)
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")

# Malformed argv, the cases of the usage-error tests in tests/test_cli.py.
USAGE_CASES = (
    [], ["nonsense"], ["--type", "A", "roots"], ["roots", "-x"],
    ["roots", "--rank", "3"],
    ["roots", "--type", "Q", "--rank", "3"],
    ["roots", "--type", "A", "--rank"],
    ["roots", "--type", "--rank", "3"],
    ["roots", "--type", "A", "--rank", "3", "extra"],
    ["roots", "--type", "A", "--rank", "3", "--"],
    ["roots", "--type", "A", "--rank", "3", "--max-rank", "4"],
    ["stats", "--type", "B", "--rank", "7" * 5000],
    ["qpoly", "--type", "A", "--r", "3"],
    ["qpoly", "--type", "A", "--r=3"],
    ["qpoly", "--type", "A", "--rank", "3", "--route", "magic"],
    ["qpoly", "--type", "A", "--rank", "3", "--weight", "1,x"],
    ["qpoly", "--type", "A", "--rank", "3", "--support", "3"],
    ["qpoly", "--type", "A", "--rank", "3", "--support", "2:x"],
    ["qpoly", "--type", "A", "--rank", "3", "--strict=yes"],
    ["qpoly", "--type", "A", "--rank", "6", "--weight", "highest", "--support", "3:1"],
    ["qpoly", "--type", "A", "--rank", "6", "--support", "3:1", "--weight=highest"],
    ["converge", "--family", "E"],
    ["converge", "--family", "B", "--ranks", "1,x"],
    ["converge", "--family", "B", "--t-grid", "nan"],
    ["converge", "--family", "B", "--t-grid", "0.5,inf"],
    ["converge", "--family", "B", "--t-grid", "1e200"],
    ["verify", "--nonsense", "-h"],
)


def interpreters() -> dict:
    """version -> python executable, for each installed CPython >= MIN_VERSION."""
    pyenv = pathlib.Path(os.environ.get("PYENV_ROOT", pathlib.Path.home() / ".pyenv"))
    found = {}
    for entry in sorted((pyenv / "versions").glob("[0-9]*")):
        parts = entry.name.split(".")
        if len(parts) != 3 or not all(p.isdigit() for p in parts):
            continue  # not a plain CPython release such as 3.12.1
        python = entry / "bin" / "python3"
        if tuple(map(int, parts[:2])) >= MIN_VERSION and python.exists():
            found[entry.name] = python
    return found


def check(python: pathlib.Path, output: pathlib.Path):
    """'identical', the requests whose digest differs, or how the run failed."""
    proc = subprocess.run(
        [str(python), "scripts/generate_golden.py", "--cli", "--output", str(output)],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return {"exit": proc.returncode, "stderr": lines[-1] if lines else ""}
    if output.read_bytes() == GOLDEN.read_bytes():
        return "identical"
    got, want = json.loads(output.read_text()), json.loads(GOLDEN.read_text())
    return {"differs": sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))}


def usage_results(python) -> list:
    """(exit code, stderr) of each USAGE_CASES argv under one interpreter."""
    runs = [subprocess.run([str(python), "-m", "qkostant.cli", *argv], cwd=ROOT, env=ENV,
                           capture_output=True, text=True, timeout=60) for argv in USAGE_CASES]
    return [(proc.returncode, proc.stderr) for proc in runs]


def main() -> int:
    results = {}
    reference = usage_results(sys.executable)
    with tempfile.TemporaryDirectory() as tmp:
        for version, python in interpreters().items():
            differs = [" ".join(argv) for argv, got, want
                       in zip(USAGE_CASES, usage_results(python), reference) if got != want]
            results[version] = {
                "golden": check(python, pathlib.Path(tmp) / f"{version}.json"),
                "usage": {"differs": differs} if differs else "identical",
            }
    summary = {
        "golden": str(GOLDEN.relative_to(ROOT)),
        "reference": sys.version.split()[0],
        "results": results,
        "all_identical": bool(results) and all(
            r == {"golden": "identical", "usage": "identical"} for r in results.values()),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["all_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
