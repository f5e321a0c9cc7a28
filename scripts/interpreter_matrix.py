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
is where a change in them would show.

It prints one JSON summary: per version "identical", the requests whose
digest differs, or the failed run's exit code and last stderr line.  The
exit code is 0 only if at least one version ran and every one is identical.
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
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [str(python), "scripts/generate_golden.py", "--cli", "--output", str(output)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return {"exit": proc.returncode, "stderr": lines[-1] if lines else ""}
    if output.read_bytes() == GOLDEN.read_bytes():
        return "identical"
    got, want = json.loads(output.read_text()), json.loads(GOLDEN.read_text())
    return {"differs": sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))}


def main() -> int:
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for version, python in interpreters().items():
            results[version] = check(python, pathlib.Path(tmp) / f"{version}.json")
    summary = {
        "golden": str(GOLDEN.relative_to(ROOT)),
        "results": results,
        "all_identical": bool(results) and all(r == "identical" for r in results.values()),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["all_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
