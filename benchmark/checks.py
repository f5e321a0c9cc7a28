"""Correctness checks for one request's exit code and stdout.

Every check runs after the timed passes. Each request gets its format
checked (CSV parses with the expected header, JSON validates against the
package's output schema) and at least one value that the benchmark computes
itself:

* bump weights: total count 2**(r-1-2L) * 5**L and the product form
  q**(m+1) (1+q)**(r-1-2L) (2+2q+q**2)**L, expanded here;
* highest roots: g(1) from an integer recurrence at q = 1;
* stats and converge: exact mean and variance from the package's closed
  forms (closed_moments, product_moments), which no CLI path prints for
  converge and which stats must reproduce from the polynomial;
* verify: the summary 13 passed, 1 warning, 0 failed.

check(request, returncode, stdout) returns None when the answer is right
and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from fractions import Fraction

import jsonschema

EXIT_OK = 0

# Numerators of the B/C/D highest-root generating function at q = 1:
# P_r = 5 P_{r-1} - 5 P_{r-2} + N_r, P_0 = P_{-1} = 0.
_GF_AT_ONE = {"B": {1: 1, 2: -2, 3: 1}, "C": {1: 1, 2: -2}, "D": {4: 15, 5: -20}}

VERIFY_SUMMARY = {"passed": 13, "warnings": 1, "failed": 0}


def highest_root(lie_type, rank):
    if lie_type == "A":
        return (1,) * rank
    if lie_type == "B":
        return (1,) + (2,) * (rank - 1)
    if lie_type == "C":
        return (2,) * (rank - 1) + (1,)
    return (1,) + (2,) * (rank - 3) + (1, 1)


def highest_total(lie_type, rank):
    """g(1) for the highest root: the number of decompositions."""
    if lie_type == "A":
        return 2 ** (rank - 1)
    prev2, prev1 = 0, 0
    for k in range(1, rank + 1):
        prev2, prev1 = prev1, 5 * prev1 - 5 * prev2 + _GF_AT_ONE[lie_type].get(k, 0)
    return prev1


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pow(a, e):
    out = [1]
    for _ in range(e):
        out = _mul(out, a)
    return out


def product_form(rank, entries):
    """Coefficients of q**(m+1) (1+q)**(r-1-2L) (2+2q+q**2)**L."""
    ell, m = len(entries), sum(c for _, c in entries)
    return [0] * (m + 1) + _mul(_pow([1, 1], rank - 1 - 2 * ell), _pow([2, 2, 1], ell))


def _frac(text):
    num, den = text.split("/")
    return Fraction(int(num), int(den))


class Checker:
    """Checks outputs; holds the JSON schema and the package's closed forms."""

    def __init__(self, src_dir):
        sys.path.insert(0, str(src_dir))
        from qkostant.closedform import SupportSpec
        from qkostant.stats import closed_moments, product_moments

        schema_path = src_dir / "qkostant" / "schemas" / "output.schema.json"
        schema = json.loads(schema_path.read_text())
        self._validator = jsonschema.Draft202012Validator(schema)
        self._closed_moments = closed_moments
        self._product_moments = product_moments
        self._spec = SupportSpec

    def check(self, req, returncode, stdout):
        if returncode != EXIT_OK:
            return f"exit code {returncode}"
        try:
            text = stdout.decode()
            return getattr(self, "_" + req.expect["kind"].replace("-", "_"))(req.expect, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparsable output: {type(exc).__name__}: {exc}"

    def _json(self, text, command):
        record = json.loads(text)
        errors = sorted(self._validator.iter_errors(record), key=str)
        if errors:
            raise ValueError(f"schema: {errors[0].message}")
        if record["command"] != command:
            raise ValueError(f"command {record['command']!r}")
        return record

    @staticmethod
    def _csv(text, header):
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != list(header):
            raise ValueError(f"header {rows[0]}")
        return rows[1:]

    def _moments(self, family, rank, bumps=0):
        if family == "product":
            spec = self._spec("A", rank, tuple((2 * i, 1) for i in range(1, bumps + 1)))
            pair = self._product_moments(spec)
            return pair.mean, pair.variance
        mean, var = self._closed_moments(family, rank)
        return mean.as_fraction(), var.as_fraction()

    def _roots_a1(self, exp, text):
        return None if text == "index,coeffs\n0,1\n" else f"roots A1 printed {text!r}"

    def _qpoly(self, exp, text):
        t, r, entries = exp["type"], exp["rank"], exp["support"]
        if exp["format"] == "json":
            payload = self._json(text, "qpoly")["payload"]
            routes = [(d["route"], d["coeffs"]) for d in payload["routes"]]
            agree = payload["agree"]
            if entries is None and tuple(payload["weight"]) != highest_root(t, r):
                return "wrong weight"
        else:
            rows = self._csv(text, ("route", "degree", "coeffs", "agree"))
            routes = [(row[0], [int(c) for c in row[2].split(",")]) for row in rows]
            agree = {"": None, "true": True, "false": False}[rows[0][3]]
        if [name for name, _ in routes] != exp["routes"]:
            return f"routes {[name for name, _ in routes]}"
        if agree is not (None if len(routes) == 1 else True):
            return f"agree is {agree}"
        if entries is not None:
            expect = product_form(r, entries)
            if sum(expect) != 2 ** (r - 1 - 2 * len(entries)) * 5 ** len(entries):
                return "product form total count"
            bad = [name for name, coeffs in routes if coeffs != expect]
            return f"{bad} differ from the product form" if bad else None
        total = highest_total(t, r)
        bad = [name for name, coeffs in routes if sum(coeffs) != total]
        return f"{bad} g(1) differs from the recurrence" if bad else None

    def _stats(self, exp, text):
        if exp["format"] == "json":
            values = self._json(text, "stats")["payload"]
            agrees = (values["mean_agrees"], values["variance_agrees"])
        else:
            header = ("type", "rank", "mean", "mean_float", "variance", "variance_float",
                      "closed_mean", "closed_variance", "mean_agrees", "variance_agrees",
                      "note")
            values = dict(zip(header, self._csv(text, header)[0]))
            agrees = (values["mean_agrees"] == "true", values["variance_agrees"] == "true")
        mean, var = self._moments(exp["type"], exp["rank"])
        for key, exact in (("mean", mean), ("variance", var)):
            if _frac(values[key]) != exact or _frac(values["closed_" + key]) != exact:
                return f"{key} differs from closed_moments"
            if float(values[key + "_float"]) != float(format(float(exact), ".12g")):
                return f"{key}_float is not the rounded {key}"
        return None if agrees == (True, True) else f"agrees flags {agrees}"

    def _converge(self, exp, text):
        if exp["format"] == "json":
            payload = self._json(text, "converge")["payload"]
            rows = [(d["rank"], d["mean"], d["variance"],
                     [d["ks_distance"], d["skewness"], d["excess_kurtosis"],
                      d["max_mgf_error"]] + [e["abs_error"] for e in d["mgf_errors"]])
                    for d in payload]
        else:
            header = ["family", "rank", "mean", "variance", "ks_distance", "skewness",
                      "excess_kurtosis", "max_mgf_error"]
            header += [f"mgf_err[t={format(t, '.12g')}]" for t in exp["t_grid"]]
            rows = [(int(row[1]), row[2], row[3], [float(x) for x in row[4:]])
                    for row in self._csv(text, header)]
        if tuple(rank for rank, *_ in rows) != exp["ranks"]:
            return "ranks differ"
        for rank, mean, var, floats in rows:
            if len(floats) != 4 + len(exp["t_grid"]):
                return f"rank {rank}: {len(floats)} diagnostics"
            if not all(math.isfinite(x) for x in floats) or not 0 < floats[0] < 1:
                return f"rank {rank}: diagnostics {floats[:4]}"
            if (_frac(mean), _frac(var)) != self._moments(exp["family"], rank, exp["bumps"]):
                return f"rank {rank}: mean/variance differ from the closed forms"
        return None

    def _verify(self, exp, text):
        if exp["format"] == "json":
            summary = self._json(text, "verify")["payload"]["summary"]
        elif exp["format"] == "csv":
            statuses = [row[1] for row in self._csv(text, ("name", "status", "detail"))]
            summary = {"passed": statuses.count("PASS"), "warnings": statuses.count("WARN"),
                       "failed": statuses.count("FAIL")}
        else:
            expect = (f"verify: 13 passed, 1 warning, 0 failed "
                      f"(max rank {exp['max_rank']})")
            last = text.splitlines()[-1]
            return None if last == expect else f"summary {last!r}"
        return None if summary == VERIFY_SUMMARY else f"summary {summary}"
