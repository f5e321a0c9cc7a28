#!/usr/bin/env python3
"""qkostant benchmark: seeded CLI workloads, end to end and layer by layer.

Run from the root of a checkout:

    python3 benchmark/run.py --workload oracle-fold --seed 0 --seconds 28 --trace 0

One closed-loop client sends the workload's requests one at a time; every
request is a fresh `python -m qkostant.cli ...` process with the checkout's
src on PYTHONPATH, so the package's caches start cold as they do for a CLI
user. Passes over the request list repeat until --seconds is spent (at least
one pass). Every output is checked after the timed passes (checks.py).

Times are scaled to a reference machine speed. Right after each request the
client runs a fixed pure-Python reference process (REF_CODE); a request's
times are multiplied by REF_NOMINAL_S / (median latency of the REF_WINDOW
reference runs nearest to it in time). On a shared machine whose speed
drifts by tens of percent from one minute to the next, this roughly halves
the run-to-run spread. The unscaled figures are in the context line.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
passes with traced ones (traced_cli.py wraps the package's public functions
in spans) and prints the per-layer metrics, summed over one pass and taken
as the median over traced passes.

The last stdout line is the result object {correct, attempted, failed,
metrics}; the line before it holds the run's context (Python version, nproc,
seed, source size, sample counts, failures, digest mismatches).
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import Checker
from traced_cli import TRACE_MARKER
from workloads import WORKLOADS, requests_for, setup_request

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 0

SETUP_PROBES = 9

# The reference: fixed interpreter work of the kinds the package does (list
# indexing, small and big integer arithmetic), about 0.1 s on a 2-core x86
# cloud VM. Scaled times are seconds on a machine where it takes
# REF_NOMINAL_S.
REF_CODE = """\
t = [0] * 4096
x = 0
for i in range(100000):
    t[i & 4095] += i << 7
    x ^= i * i
m = 11 ** 3000
b = 7 ** 3000
for _ in range(60):
    b = b * b % m
"""
REF_NOMINAL_S = 0.1
# One reference run is as noisy as a request; a median over neighbours in
# time still follows drift that lasts tens of seconds.
REF_WINDOW = 7
REQUEST_TIMEOUT_S = 60.0
# Stop sending requests this long after start, so a run ends within 180 s.
HARD_LIMIT_S = 140.0

PLAIN_CMD = [sys.executable, "-m", "qkostant.cli"]
TRACED_CMD = [sys.executable, str(BENCH_DIR / "traced_cli.py")]


@dataclass
class Outcome:
    req: object
    latency_s: float
    maxrss_kb: int
    returncode: int
    stdout: bytes
    trace: dict | None
    startup_s: float | None
    ref_s: float = 0.0  # latency of the reference run right after this request
    scale: float = 1.0  # set by set_scales()


class Spawner:
    """The spawner.py process, which forks every request (see its docstring)."""

    def __init__(self):
        env = dict(os.environ)
        env.pop("KOSTANT_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self._proc = subprocess.Popen(
            (sys.executable, str(BENCH_DIR / "spawner.py")), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def run(self, cmd):
        self._proc.stdin.write(json.dumps({"cmd": cmd, "timeout": REQUEST_TIMEOUT_S}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()


def run_request(req, traced, spawner):
    """Run one request, then one reference run."""
    res = spawner.run((TRACED_CMD if traced else PLAIN_CMD) + list(req.argv))
    trace, startup = None, None
    for line in base64.b64decode(res["stderr"]).decode(errors="replace").splitlines():
        if line.startswith(TRACE_MARKER + " "):
            trace = json.loads(line[len(TRACE_MARKER) + 1:])
    if trace and trace.get("main_start") is not None:
        startup = trace["main_start"] - res["spawned"]
    ref = spawner.run([sys.executable, "-c", REF_CODE])
    return Outcome(req, res["latency_s"], res["maxrss_kb"], res["returncode"],
                   base64.b64decode(res["stdout"]), trace, startup, ref["latency_s"])


def set_scales(outcomes):
    """Scale each outcome by the reference runs nearest it; outcomes in time order."""
    half = REF_WINDOW // 2
    refs = [out.ref_s for out in outcomes]
    for i, out in enumerate(outcomes):
        lo = min(max(0, i - half), max(0, len(refs) - REF_WINDOW))
        out.scale = REF_NOMINAL_S / statistics.median(refs[lo:lo + REF_WINDOW])


def measure(reqs, seconds, trace, spawner, started):
    """Set-up probes, then timed passes until the budget is spent.

    Returns (passes, probes); each pass is (traced, wall seconds, outcomes).
    """
    modes = (False, True) if trace else (False,)
    budget_start = time.perf_counter()
    probes = [] if trace else [run_request(setup_request(), False, spawner)
                               for _ in range(SETUP_PROBES)]
    passes, walls = [], {}  # walls: mode -> longest pass so far
    while True:
        traced = modes[len(passes) % len(modes)]
        pass_start = time.perf_counter()
        outcomes = []
        for req in reqs:
            if time.perf_counter() - started > HARD_LIMIT_S:
                outcomes.append(None)  # not sent: counts as a failure
                continue
            outcomes.append(run_request(req, traced, spawner))
        end = time.perf_counter()
        passes.append((traced, end - pass_start, outcomes))
        walls[traced] = max(walls.get(traced, 0.0), end - pass_start)
        if None in outcomes:
            break
        estimate = walls.get(modes[len(passes) % len(modes)], walls[traced])
        if len(passes) >= len(modes) and end - budget_start + estimate > seconds:
            break
    return passes, probes


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _key(argv):
    return " ".join(argv)


def check_all(outcomes, checker):
    """Check each distinct (argv, exit code, stdout) once; return failure reasons."""
    verdicts, failures = {}, []
    for out in outcomes:
        if out is None:
            failures.append("request not sent before the hard time limit")
            continue
        key = (out.req.argv, out.returncode, _digest(out.stdout))
        if key not in verdicts:
            verdicts[key] = checker.check(out.req, out.returncode, out.stdout)
        if verdicts[key] is not None:
            failures.append(f"{_key(out.req.argv)}: {verdicts[key]}")
    return failures


def digest_mismatches(outcomes):
    """Requests whose stdout differs from the digest recorded for the same argv."""
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    compared, mismatched = set(), set()
    for out in outcomes:
        if _key(out.req.argv) in recorded:
            compared.add(out.req.argv)
            if recorded[_key(out.req.argv)] != _digest(out.stdout):
                mismatched.add(out.req.argv)
    return len(compared), len(mismatched)


def src_lines():
    return sum(
        len(path.read_bytes().splitlines())
        for path in sorted(SRC.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
    )


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _pass_s(outcomes, scaled=True):
    """A pass's time: its requests back to back, without the reference runs."""
    return sum(out.latency_s * (out.scale if scaled else 1.0) for out in outcomes if out)


def end_to_end(passes, probes, scaled=True):
    plain = [out for traced, _, outs in passes if not traced for out in outs if out]
    latencies = sorted(out.latency_s * (out.scale if scaled else 1.0) for out in plain)
    setup = [p.latency_s * (p.scale if scaled else 1.0) for p in probes]
    return {
        "run_s": _metric(statistics.median(
            _pass_s(outs, scaled) for t, _, outs in passes if not t), "s"),
        "latency_p50_s": _metric(statistics.median(latencies), "s"),
        "latency_p90_s": _metric(_p90(latencies), "s"),
        "peak_rss_mb": _metric(max(out.maxrss_kb for out in plain) / 1024, "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# Per-layer metrics: name -> unit. Span metrics are "<module>.<function>.calls"
# and ".time_s"; the rest are counters from traced_cli.py or derived below.
PER_LAYER_UNITS = {
    "kostant.qanalog.calls": "count",
    "kostant.qanalog.time_s": "s",
    "kostant.qanalog.cells": "count",
    "kostant.qanalog.roots_folded": "count",
    "kostant.qanalog.cells_per_s": "1/s",
    "kostant.qanalog.repeat_calls": "count",
    "closedform.explicit_qpoly.calls": "count",
    "closedform.explicit_qpoly.time_s": "s",
    "closedform.explicit_qpoly.exponent": "count",
    "closedform.gf_coefficient.calls": "count",
    "closedform.gf_coefficient.time_s": "s",
    "closedform.gf_coefficient.steps": "count",
    "closedform.product_qpoly.calls": "count",
    "closedform.product_qpoly.time_s": "s",
    "closedform.out_coeff_bits": "bit",
    "gaussianity.family_poly.time_s": "s",
    "gaussianity.summarize.calls": "count",
    "gaussianity.summarize.time_s": "s",
    "gaussianity.summarize.coeffs": "count",
    "gaussianity.summarize.lse_calls": "count",
    "stats.moments_from_poly.time_s": "s",
    "stats.closed_moments.time_s": "s",
    "rootsys.build_root_system.calls": "count",
    "rootsys.build_root_system.time_s": "s",
    "verify.run_all.calls": "count",
    "verify.run_all.time_s": "s",
    "cli.main.time_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.stdout_mismatches": "count",
    "process.startup_s": "s",
    "trace.overhead_ratio": "ratio",
    "package.src_lines": "lines",
    "failed_ratio": "ratio",
}


def _pass_layers(outcomes):
    """Per-layer totals over one traced pass."""
    totals = {"cli.stdout_bytes": 0, "process.startup_s": 0.0}
    for out in filter(None, outcomes):
        totals["cli.stdout_bytes"] += len(out.stdout)
        totals["process.startup_s"] += (out.startup_s or 0.0) * out.scale
        for name, span in (out.trace or {}).get("spans", {}).items():
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + span["calls"]
            totals[f"{name}.time_s"] = totals.get(f"{name}.time_s", 0.0) + span["time_s"] * out.scale
            if name == "cli.main":
                totals["cli.self_s"] = totals.get("cli.self_s", 0.0) + span["self_s"] * out.scale
        for name, count in (out.trace or {}).get("counts", {}).items():
            totals[name] = totals.get(name, 0) + count
    qtime = totals.get("kostant.qanalog.time_s", 0.0)
    totals["kostant.qanalog.cells_per_s"] = (
        totals.get("kostant.qanalog.cells", 0) / qtime if qtime else 0.0)
    return totals


def per_layer(passes, mismatches, failed_ratio):
    traced = [_pass_layers(outs) for t, _, outs in passes if t]
    pass_s = {mode: statistics.median(_pass_s(outs) for t, _, outs in passes if t == mode)
              for mode in (False, True)}
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [totals.get(name, 0) for totals in traced]
        metrics[name] = _metric(statistics.median(values), unit)
    metrics["cli.stdout_mismatches"] = _metric(mismatches, "count")
    metrics["trace.overhead_ratio"] = _metric(pass_s[True] / pass_s[False], "ratio")
    metrics["package.src_lines"] = _metric(src_lines(), "lines")
    metrics["failed_ratio"] = _metric(failed_ratio, "ratio")
    return metrics


def record_digests(spawner):
    """Write digests.json: the stdout digest of every default-seed request."""
    checker = Checker(SRC)
    digests, failures = {}, []
    for workload in WORKLOADS:
        for req in [setup_request()] + requests_for(workload, DEFAULT_SEED):
            out = run_request(req, False, spawner)
            failures += check_all([out], checker)
            digests[_key(req.argv)] = _digest(out.stdout)
    if failures:
        sys.exit("not recording digests of failing requests:\n" + "\n".join(failures))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS.relative_to(ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=None,
                        help="send only the first N requests of each pass (smoke test)")
    parser.add_argument("--record-digests", action="store_true",
                        help="record the stdout digests of the default seed and exit")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "qkostant" / "cli.py").is_file():
        sys.exit(f"error: no qkostant package under {SRC}; run from a full checkout")
    if args.record_digests:
        with Spawner() as spawner:
            record_digests(spawner)
        return
    if args.workload is None:
        parser.error("--workload is required")

    reqs = requests_for(args.workload, args.seed)[:args.requests]
    with Spawner() as spawner:
        # Untimed warm-up: the first process may write the package's bytecode
        # cache and pulls the sources into the file cache.
        warmup = [run_request(setup_request(), traced, spawner)
                  for traced in ((False, True) if args.trace else (False,))]
        passes, probes = measure(reqs, args.seconds, args.trace, spawner, started)

    outcomes = warmup + probes + [out for _, _, outs in passes for out in outs]
    sent = [out for out in outcomes if out is not None]
    set_scales(sent)
    failures = check_all(outcomes, Checker(SRC))
    compared, mismatches = digest_mismatches(sent)
    attempted = len(outcomes)
    plain_latencies = sum(1 for t, _, outs in passes if not t for _ in outs)
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "package.src_lines": src_lines(), "requests_per_pass": len(reqs),
        "passes": len(passes), "latency_samples": plain_latencies,
        "setup_samples": len(probes), "digests_compared": compared,
        "stdout_mismatches": mismatches, "failures": failures[:10],
        "reference_median_s": statistics.median(out.ref_s for out in sent),
    }
    if not args.trace:
        context["unscaled"] = {name: metric["value"] for name, metric
                               in end_to_end(passes, probes, scaled=False).items()}
    print(json.dumps({"context": context}, sort_keys=True))
    for reason in failures[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(passes, mismatches, len(failures) / attempted)
    else:
        metrics = end_to_end(passes, probes)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
