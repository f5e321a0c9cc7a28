"""Run one qkostant CLI request with spans around the package's public functions.

Usage: python traced_cli.py <qkostant argv...>   (with the package's src on
PYTHONPATH). stdout and the exit code are exactly those of
`python -m qkostant.cli <argv...>`. After the request, one line
`TRACE_MARKER <json>` goes to stderr. It holds, per span name, the call
count, the inclusive seconds and the self seconds (the duration minus that
of direct child spans); the counters below; and the monotonic time at which
`cli.main` started, from which the caller derives process start-up time.

Every public function of the traced modules is wrapped, and the wrapper
replaces the original under every name any qkostant module binds it to, so
calls made through `from .x import f` are caught too. The package source is
not touched. Counters come from call arguments and results, after the span
has ended, so they repeat exactly for the same argv:

* kostant.qanalog: cells (product of target_i + 1), roots_folded (positive
  roots <= target), repeat_calls ((type, rank, target) seen before in this
  process);
* closedform.explicit_qpoly: exponent (rank minus the family's shift);
* closedform.gf_coefficient: steps (advance of the family's rank high-water
  mark, i.e. new recurrence terms);
* closedform routes: out_coeff_bits (bit lengths of returned coefficients);
* gaussianity.summarize: coeffs, and lse_calls for polynomials past the
  Horner limit (degree > 2000 or g(1) over 900 bits).
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

TRACE_MARKER = "QKOSTANT-BENCH-TRACE"
MODULES = ("rootsys", "kostant", "closedform", "stats", "gaussianity", "verify", "cli")

# Mirrors of package constants that define the counters above.
_EXPLICIT_SHIFT = {"B": 2, "C": 1, "D": 4}
_HORNER_MAX_DEGREE = 2000
_HORNER_MAX_BITS = 900


class Tracer:
    def __init__(self):
        self.spans = {}  # span name -> {"calls": n, "time_s": t, "self_s": t}
        self.counts = {}  # "layer.function.counter" -> n
        self._child_time = [0.0]  # per open span: time covered by direct children
        self._seen_targets = set()
        self._gf_high = {}
        self.main_start = None

    def _count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn):
        counters = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "cli.main" and self.main_start is None:
                self.main_start = time.monotonic()
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._child_time.pop()
                self._child_time[-1] += elapsed
                span = self.spans.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
                span["calls"] += 1
                span["time_s"] += elapsed
                span["self_s"] += elapsed - children
            if counters is not None:
                counters(return_value, *args, **kwargs)
            return return_value

        return traced

    def _out_bits(self, poly):
        self._count("closedform.out_coeff_bits", sum(abs(c).bit_length() for c in poly.coeffs))

    def _count_kostant_qanalog(self, poly, system, target):
        target = tuple(target)
        key = (system.lie_type, system.rank, target)
        if key in self._seen_targets:
            self._count("kostant.qanalog.repeat_calls")
        self._seen_targets.add(key)
        if all(t >= 0 for t in target):
            self._count("kostant.qanalog.cells", math.prod(t + 1 for t in target))
            self._count("kostant.qanalog.roots_folded", sum(
                1 for root in system.positive_roots
                if all(a <= b for a, b in zip(root, target))))

    def _count_closedform_explicit_qpoly(self, poly, lie_type, rank):
        self._count("closedform.explicit_qpoly.exponent",
                    rank - 1 if lie_type == "A" else rank - _EXPLICIT_SHIFT[lie_type])
        self._out_bits(poly)

    def _count_closedform_gf_coefficient(self, poly, lie_type, rank):
        high = self._gf_high.get(lie_type, 0)
        self._count("closedform.gf_coefficient.steps", max(0, rank - high))
        self._gf_high[lie_type] = max(high, rank)
        self._out_bits(poly)

    def _count_closedform_product_qpoly(self, poly, spec):
        self._out_bits(poly)

    def _count_gaussianity_summarize(self, summary, g, *args, **kwargs):
        self._count("gaussianity.summarize.coeffs", len(g.coeffs))
        if g.degree > _HORNER_MAX_DEGREE or sum(g.coeffs).bit_length() > _HORNER_MAX_BITS:
            self._count("gaussianity.summarize.lse_calls")

    def install(self):
        """Wrap every public function of MODULES wherever qkostant binds it."""
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module("qkostant." + short)
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == module.__name__):
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "qkostant" or mod_name.startswith("qkostant."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrappers:
                        setattr(module, attr, wrappers[id(obj)])


def main(argv):
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["qkostant.cli"]
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        record = {"main_start": tracer.main_start, "spans": tracer.spans,
                  "counts": tracer.counts}
        sys.stderr.write(f"{TRACE_MARKER} {json.dumps(record)}\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
