"""End-to-end CLI behavior: output bytes, JSON schema, exit codes."""

import csv
import hashlib
import io
import json
import math
import pathlib
import shutil
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import pytest

from qkostant import (
    FAMILIES,
    LIE_TYPES,
    MIN_RANK,
    QPoly,
    TYPE_B_VARIANCE_NOTE,
    cli,
    closedform,
    highest_root,
    qanalog,
    rootsys,
)


def run_cli(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def load_schema():
    text = resources.files("qkostant.schemas").joinpath("output.schema.json").read_text()
    return json.loads(text)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def check_json(stdout):
    # RFC 8259 JSON has no NaN or Infinity
    record = json.loads(stdout, parse_constant=_reject_constant)
    jsonschema.validate(record, load_schema())
    return record


# ---------------------------------------------------------- pinned stdout

# Exit code and stdout sha256 per argv, every subcommand in every format;
# re-record after an intended output change with
# `python3 scripts/generate_golden.py --cli`.
_PINNED = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "cli_stdout.json").read_text())


@pytest.mark.parametrize("key", sorted(_PINNED))
def test_cli_stdout_matches_pinned_digest(capsys, key):
    rc, out, _ = run_cli(key.split(" "), capsys)
    assert rc == _PINNED[key]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED[key]["sha256"]


# One pinned request per subcommand, run through `python -m qkostant.cli`, so
# the bytes entry() flushes before it exits are pinned too, not only what
# main() writes in process.
_ENTRY_KEYS = (
    "roots --type D --rank 4 --format json",
    "qpoly --type B --rank 6 --support 3:2",
    "stats --type B --rank 9",
    "converge --family D --ranks 12,40",
    "verify --max-rank 5",
)


def _run_entry(argv):
    return subprocess.run([sys.executable, "-m", "qkostant.cli", *argv], capture_output=True)


def test_entry_stdout_matches_pinned_digest():
    for key in _ENTRY_KEYS:
        proc = _run_entry(key.split(" "))
        assert proc.returncode == _PINNED[key]["exit"], (key, proc.stderr)
        assert hashlib.sha256(proc.stdout).hexdigest() == _PINNED[key]["sha256"], key
    # Invalid input: exit 2 and nothing on stdout.
    proc = _run_entry(["qpoly", "--type", "B", "--rank", "3", "--weight", "1,2"])
    assert proc.returncode == cli.EXIT_BAD_INPUT
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error:")


def test_entry_flushes_redirected_stdout(tmp_path):
    # A file is block-buffered, so the last block is written at exit.
    path = tmp_path / "roots.csv"
    with path.open("wb") as f:
        proc = subprocess.run(
            [sys.executable, "-m", "qkostant.cli", "roots", "--type", "A", "--rank", "120"],
            stdout=f, stderr=subprocess.PIPE,
        )
    assert proc.returncode == 0, proc.stderr
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 120 * 121 // 2  # header and the 7,260 positive roots
    assert lines[-1] == ",".join(["7259", '"' + ",".join(["1"] * 120) + '"'])


# ----------------------------------------------------------------- roots

def test_roots_csv_exact_bytes(capsys):
    rc, out, _ = run_cli(["roots", "--type", "A", "--rank", "2"], capsys)
    assert rc == 0
    assert out == "index,coeffs\n0,\"0,1\"\n1,\"1,0\"\n2,\"1,1\"\n"


def test_roots_json_schema(capsys):
    rc, out, _ = run_cli(["roots", "--type", "D", "--rank", "4", "--format", "json"], capsys)
    assert rc == 0
    record = check_json(out)
    assert record["command"] == "roots"
    assert record["parameters"] == {"rank": 4, "type": "D"}
    assert len(record["payload"]) == 12
    assert record["payload"][0] == {"index": 0, "coeffs": [0, 0, 0, 1]}


# ----------------------------------------------------------------- qpoly

def test_qpoly_highest_all_routes(capsys):
    rc, out, _ = run_cli(["qpoly", "--type", "C", "--rank", "4"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "route,degree,coeffs,agree"
    routes = [ln.split(",")[0] for ln in lines[1:]]
    assert routes == ["oracle", "gf", "explicit"]
    assert all(ln.endswith("true") for ln in lines[1:])
    # all three rows carry the same coefficient string
    assert len({ln.split('"')[1] for ln in lines[1:]}) == 1


def test_qpoly_type_a_routes(capsys):
    rc, out, _ = run_cli(["qpoly", "--type", "A", "--rank", "5"], capsys)
    assert rc == 0
    routes = [ln.split(",")[0] for ln in out.splitlines()[1:]]
    assert routes == ["oracle", "explicit"]


def test_qpoly_explicit_weight_single_route(capsys):
    rc, out, _ = run_cli(
        ["qpoly", "--type", "A", "--rank", "3", "--weight", "1,1,1"], capsys
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == 'oracle,3,"0,1,2,1",'
    assert len(lines) == 2


def test_qpoly_support_routes(capsys):
    rc, out, _ = run_cli(
        ["qpoly", "--type", "B", "--rank", "6", "--support", "3:2", "--format", "json"],
        capsys,
    )
    assert rc == 0
    record = check_json(out)
    assert record["payload"]["agree"] is True
    assert [r["route"] for r in record["payload"]["routes"]] == ["oracle", "product"]
    assert record["payload"]["weight"] == [1, 1, 3, 1, 1, 1]


def test_qpoly_json_single_route_null_agree(capsys):
    rc, out, _ = run_cli(
        ["qpoly", "--type", "B", "--rank", "3", "--route", "gf", "--format", "json"],
        capsys,
    )
    assert rc == 0
    record = check_json(out)
    assert record["payload"]["agree"] is None
    coeffs = record["payload"]["routes"][0]["coeffs"]
    assert QPoly(coeffs) == QPoly((0, 1, 3, 4, 2, 1))


def test_qpoly_inapplicable_route_is_input_error(capsys):
    rc, _, err = run_cli(
        ["qpoly", "--type", "A", "--rank", "4", "--route", "gf"], capsys
    )
    assert rc == 2
    assert "does not apply" in err
    rc, _, err = run_cli(
        ["qpoly", "--type", "B", "--rank", "5", "--weight", "1,1,1,1,1",
         "--route", "explicit"], capsys
    )
    assert rc == 2


def test_qpoly_closed_routes_skip_the_root_system(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("root system built for a closed route")

    monkeypatch.setattr(cli, "build_root_system", refuse)
    for fam, route in [("C", "gf"), ("C", "explicit"), ("B", "gf"), ("A", "explicit")]:
        rc, out, _ = run_cli(["qpoly", "--type", fam, "--rank", "40", "--route", route], capsys)
        assert rc == 0, (fam, route)
        assert out.splitlines()[1].startswith(f"{route},")


def test_qpoly_fold_budget_refused_before_the_root_system(capsys, monkeypatch):
    # A300 has 45,150 roots; its 2^300-cell box is refused before they are built
    def refuse(*args):
        raise AssertionError("root system built for a refused fold")

    monkeypatch.setattr(cli, "build_root_system", refuse)
    rc, out, err = run_cli(["qpoly", "--type", "A", "--rank", "300", "--route", "oracle"],
                           capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: lattice fold over")


def _refuse_listing(*args):
    raise AssertionError("roots listed for a refused listing")


def test_roots_listing_budget_refused_before_the_root_system(capsys, monkeypatch):
    from qkostant.rootsys import MAX_LISTING_ENTRIES, check_listing

    check_listing("A", 120)  # the broken-pipe test's listing is inside the budget
    monkeypatch.setattr(rootsys, "_positive_roots", _refuse_listing)
    start = time.perf_counter()
    for t, r in [("A", 128), ("B", 102), ("D", 100000)]:
        rc, out, err = run_cli(["roots", "--type", t, "--rank", str(r)], capsys)
        assert rc == 2, (t, r)
        assert out == ""
        assert err.startswith("error: root listing of")
        assert f"budget of {MAX_LISTING_ENTRIES}" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("lie_type, rank", [("A", 128), ("B", 102), ("C", 102), ("D", 102)])
def test_oracle_listing_budget_refused_before_any_root(capsys, monkeypatch, lie_type, rank):
    # a sparse weight's box is small, but the listing the oracle folds from
    # is over budget; one rank lower it is inside
    from qkostant.rootsys import MAX_LISTING_ENTRIES, check_listing

    check_listing(lie_type, rank - 1)
    monkeypatch.setattr(rootsys, "_positive_roots", _refuse_listing)
    weight = ",".join(["0"] * (rank - 1) + ["1"])
    rc, out, err = run_cli(["qpoly", "--type", lie_type, "--rank", str(rank),
                            "--weight", weight, "--route", "oracle"], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: root listing of")
    assert err.endswith(f"exceeds the budget of {MAX_LISTING_ENTRIES}\n")


def test_qpoly_strict_disagreement_exit_code(capsys, monkeypatch):
    # force one route to lie so the disagreement path is reachable
    # the handler imports its routes when it runs, so patch them at the source
    monkeypatch.setattr(closedform, "gf_coefficient", lambda t, r: QPoly((0, 9)))
    rc, out, _ = run_cli(["qpoly", "--type", "C", "--rank", "5"], capsys)
    assert rc == 0
    assert "false" in out
    rc, _, _ = run_cli(["qpoly", "--type", "C", "--rank", "5", "--strict"], capsys)
    assert rc == 3


# ----------------------------------------------------------------- stats

def test_stats_csv_b_note(capsys):
    rc, out, _ = run_cli(["stats", "--type", "B", "--rank", "7"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("type,rank,mean,")
    assert ",true,true," in lines[1]
    assert TYPE_B_VARIANCE_NOTE.split(";")[0] in lines[1]


def test_stats_json_values(capsys):
    rc, out, _ = run_cli(["stats", "--type", "A", "--rank", "9", "--format", "json"], capsys)
    assert rc == 0
    record = check_json(out)
    payload = record["payload"]
    assert payload["mean"] == "5/1"
    assert payload["variance"] == "2/1"
    assert payload["mean_agrees"] is True and payload["variance_agrees"] is True
    assert payload["note"] == ""


@pytest.mark.parametrize("lie_type", ["B", "C", "D"])
def test_stats_runs_no_packed_sweep(capsys, monkeypatch, lie_type):
    from qkostant.stats import moments_from_poly

    pair = moments_from_poly(closedform.gf_coefficient(lie_type, 800))

    def refuse(*args):
        raise AssertionError("stats decoded a packed gf sweep")

    monkeypatch.setattr(closedform, "decode", refuse)
    rc, out, _ = run_cli(["stats", "--type", lie_type, "--rank", "800"], capsys)
    assert rc == 0
    row = out.splitlines()[1].split(",")
    assert row[:6] == [
        lie_type, "800", cli._fmt_frac(pair.mean), format(float(pair.mean), ".12g"),
        cli._fmt_frac(pair.variance), format(float(pair.variance), ".12g"),
    ]
    assert row[8:10] == ["true", "true"]


def test_stats_type_a_builds_no_binomial_row(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("stats built a binomial row")

    monkeypatch.setattr(closedform, "_binomial_row", refuse)
    rc, out, _ = run_cli(["stats", "--type", "A", "--rank", "20000"], capsys)
    assert rc == 0
    assert out == (
        "type,rank,mean,mean_float,variance,variance_float,closed_mean,closed_variance,"
        "mean_agrees,variance_agrees,note\n"
        "A,20000,20001/2,10000.5,19999/4,4999.75,20001/2,19999/4,true,true,\n"
    )


# -------------------------------------------------------------- converge

def test_converge_csv_shape_and_determinism(capsys):
    argv = ["converge", "--family", "A", "--ranks", "10,20", "--t-grid", "0.5,1"]
    rc, first, _ = run_cli(argv, capsys)
    assert rc == 0
    rc, second, _ = run_cli(argv, capsys)
    assert first == second
    lines = first.splitlines()
    head = lines[0].split(",")
    assert head[:4] == ["family", "rank", "mean", "variance"]
    assert head[-2:] == ["mgf_err[t=0.5]", "mgf_err[t=1]"]
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "A"


def test_converge_json_schema(capsys):
    rc, out, _ = run_cli(
        ["converge", "--family", "product", "--ranks", "8,12", "--bumps", "2",
         "--format", "json"],
        capsys,
    )
    assert rc == 0
    record = check_json(out)
    assert record["parameters"]["bumps"] == 2
    assert [s["rank"] for s in record["payload"]] == [8, 12]
    for s in record["payload"]:
        assert set(s) >= {"ks_distance", "skewness", "excess_kurtosis", "mgf_errors"}


def test_converge_bumps_only_for_product(capsys):
    rc, _, err = run_cli(["converge", "--family", "B", "--bumps", "1"], capsys)
    assert rc == 2
    assert "--bumps" in err


@pytest.mark.parametrize("argv", [
    ["converge", "--family", "B", "--ranks", "-3"],
    ["converge", "--family", "C", "--ranks", "2"],
    ["converge", "--family", "product", "--ranks", "20", "--bumps", "-1"],
    ["converge", "--family", "product", "--ranks", "10", "--bumps", "5"],
    ["converge", "--family", "product", "--ranks", "20,3", "--bumps", "2"],
])
def test_converge_out_of_range_exit_2(capsys, argv):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")
    if "--bumps" in argv and argv[argv.index("--bumps") + 1] != "-1":
        # the error names the option the user gave, not an interior index
        assert "--bumps" in err and "index" not in err


def test_converge_mgf_output_is_finite(capsys):
    # in float arithmetic these t overflow or underflow the sum at rank 30,
    # and B1300's coefficients are over 1024 bits; +-1.3e154 is near the
    # largest t whose t*t/2 is finite
    argv = ["converge", "--family", "B", "--ranks", "30,1300",
            "--t-grid", "1000,5000,-5000,1.3e154,-1.3e154"]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 2
    assert all(math.isfinite(float(v)) for row in rows for v in row[4:])
    rc, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert rc == 0
    record = check_json(out)
    for summary in record["payload"]:
        errors = summary["mgf_errors"]
        assert len(errors) == 5
        assert all(math.isfinite(e["abs_error"]) for e in errors)


# ---------------------------------------------------------------- verify

def test_verify_text_passes(capsys):
    rc, out, _ = run_cli(["verify", "--max-rank", "5"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert all(ln.split(" ")[0] in ("PASS", "WARN", "FAIL") for ln in lines[:-1])
    assert "0 failed" in lines[-1]
    assert any(ln.startswith("WARN closed-variance-B") for ln in lines)


def test_verify_json_schema(capsys):
    rc, out, _ = run_cli(["verify", "--max-rank", "5", "--format", "json"], capsys)
    assert rc == 0
    record = check_json(out)
    assert record["payload"]["summary"]["failed"] == 0
    assert record["payload"]["summary"]["warnings"] == 1
    names = [c["name"] for c in record["payload"]["checks"]]
    assert len(names) == len(set(names)) == 14


def test_verify_rejects_small_max_rank(capsys):
    rc, _, err = run_cli(["verify", "--max-rank", "4"], capsys)
    assert rc == 2
    assert "at least 5" in err


def test_run_all_refuses_small_max_rank():
    from qkostant import KostantError, RankTooSmall, verify

    for max_rank in (4, 0, -3):
        with pytest.raises(RankTooSmall, match="max_rank must be at least 5"):
            verify.run_all(max_rank)
    # an input error for the CLI, and still a ValueError for library callers
    assert issubclass(RankTooSmall, KostantError) and issubclass(RankTooSmall, ValueError)


def test_run_all_refuses_a_max_rank_that_is_not_an_int():
    # True would be refused as a rank below 5, and 8.0 reach range() as a float
    from qkostant import verify

    for max_rank in (True, 8.0):
        with pytest.raises(TypeError, match="max_rank must be an int"):
            verify.run_all(max_rank)


def test_verify_over_budget_max_rank_refused_before_any_check(capsys, monkeypatch):
    # B15's highest root has a 2*3^14-cell box; no root system is built first
    from qkostant import verify

    def refuse(*args):
        raise AssertionError("verify started work on a refused max rank")

    monkeypatch.setattr(verify, "build_root_system", refuse)
    start = time.perf_counter()
    rc, out, err = run_cli(["verify", "--max-rank", "15"], capsys)
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert out == ""
    assert err.startswith("error: lattice fold over")


def test_fold_bit_budget_refuses_before_the_packed_sweep(capsys, monkeypatch):
    # B2 (1023, 1023) has 2**20 cells, inside the cell budget, but its packed
    # table would hold up to 20401094656 bits (2.4 GiB); the count sweep
    # alone sets the width, and nothing is allocated after it
    import tracemalloc

    from qkostant import kostant

    widths = []

    def traced_sweep(plan, total, width):
        widths.append(width)
        table = sweep(plan, total, width)
        tracemalloc.start()
        return table

    sweep = kostant._sweep
    monkeypatch.setattr(kostant, "_sweep", traced_sweep)
    start = time.perf_counter()
    try:
        rc, out, err = run_cli(["qpoly", "--type", "B", "--rank", "2", "--weight", "1023,1023"],
                               capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5.0
    assert widths == [0]
    assert peak < 2 ** 20
    assert (rc, out) == (2, "")
    assert err == (
        "error: lattice fold over 1048576 cells packs up to 20401094656 bits, exceeding the "
        f"budget of {2 ** 32} bits\n"
    )


def test_oracle_on_a22_all_ones_runs_in_small_memory(capsys):
    # the A22 all-ones box has 2**22 cells, the most the fold admits; the
    # transfer DP runs instead, and each of its states holds one open root
    import tracemalloc

    start = time.perf_counter()
    tracemalloc.start()
    try:
        rc, out, err = run_cli(["qpoly", "--type", "A", "--rank", "22", "--weight",
                                ",".join(["1"] * 22), "--route", "oracle"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2.0
    assert peak < 16 * 2 ** 20
    assert (rc, err) == (0, "")
    # q * (1 + q)**21
    coeffs = ",".join(map(str, [0] + [math.comb(21, k) for k in range(22)]))
    assert out.splitlines()[1] == f'oracle,22,"{coeffs}",'


def _record_verify_calls(monkeypatch):
    """Record run_all's qanalogs calls as (type, rank, targets), every fold
    as (box, members), and every spec product_qpoly is called on."""
    from qkostant import kostant, verify

    calls, folds, products = [], [], []

    def counting_qanalogs(system, targets):
        targets = [tuple(w) for w in targets]
        calls.append((system.lie_type, system.rank, targets))
        return kostant.qanalogs(system, targets)

    def counting_plan(roots, box, members):
        folds.append((box, list(members)))
        return plan(roots, box, members)

    def counting_product(spec):
        products.append(spec)
        return closedform.product_qpoly(spec)

    plan = kostant._plan
    monkeypatch.setattr(verify, "qanalogs", counting_qanalogs)
    monkeypatch.setattr(kostant, "_plan", counting_plan)
    monkeypatch.setattr(verify, "product_qpoly", counting_product)
    return calls, folds, products


def test_verify_folds_each_maximal_weight_once(monkeypatch):
    for max_rank, fold_count, form_count in ((5, 6, 19), (8, 16, 46)):
        with monkeypatch.context() as patch:
            _check_verify_folds(patch, max_rank, fold_count, form_count)


def _check_verify_folds(monkeypatch, max_rank, fold_count, form_count):
    from qkostant import kostant, verify

    folded, explicits = [], []

    def counting_qanalog(system, target):
        folded.append((system.lie_type, system.rank, tuple(target)))
        return qanalog(system, target)

    def counting_explicit(lie_type, rank):
        explicits.append((lie_type, rank))
        return closedform.explicit_qpoly(lie_type, rank)

    calls, folds, products = _record_verify_calls(monkeypatch)
    monkeypatch.setattr(kostant, "qanalog", counting_qanalog)
    monkeypatch.setattr(verify, "explicit_qpoly", counting_explicit)
    verify.run_all(max_rank)
    # no single-target fold: the pinned B2 example reads the B highest-root
    # table
    assert folded == []
    # one qanalogs call per distinct set of roots below the bump weights: the
    # A, B and C bump weights have the same roots below them and share A's
    # call, D's have their own; then one call per B/C/D family for the
    # highest roots, all in the max-rank system
    assert [(t, r) for t, r, _ in calls] == [
        ("A", max_rank), ("D", max_rank), ("B", max_rank), ("C", max_rank), ("D", max_rank)]

    def padded(weight):
        return (0,) * (max_rank - len(weight)) + weight

    specs = list(verify._spec_suite(max_rank))
    # every padded bump weight is requested exactly once, in the call of its
    # type's root set
    for (_, _, targets), types in zip(calls[:2], ("ABC", "D")):
        assert len(set(targets)) == len(targets)
        assert set(targets) == {
            padded(closedform.weight_of(s)) for s in specs if s.lie_type in types}
    assert [(t, targets) for t, _, targets in calls[2:]] == [
        (t, [padded(highest_root(t, r)) for r in range(MIN_RANK[t], max_rank + 1)])
        for t in "BCD"]
    # one fold per maximal weight, each over one requested weight's own box
    assert len(folds) == fold_count
    requested = {w for _, _, targets in calls for w in targets}
    assert {box for box, _ in folds} <= requested
    # every fold reads at least 2 members: no maximal weight is alone, so
    # none can take the transfer DP
    assert min(len(members) for _, members in folds) >= 2
    # the product form is computed once per (rank, bumps, extra)
    keys = [(s.rank, s.bump_count, s.total_extra) for s in products]
    assert len(keys) == len(set(keys)) == form_count
    assert set(keys) == {(s.rank, s.bump_count, s.total_extra) for s in specs}
    # every explicit polynomial is computed once
    assert {key for key in explicits if explicits.count(key) > 1} == set()
    assert set(explicits) == {("A", r) for r in range(1, max_rank + 1)} | {
        (t, r) for t, lo in (("B", 2), ("C", 1), ("D", 4))
        for r in range(lo, max_rank + 1)
    }


def test_verify_folds_a_different_root_set_on_its_own(monkeypatch):
    # C5 without its simple root alpha_1 has other roots below the join of
    # its bump weights than A5: its bump weights get their own qanalogs call
    # and are read from that system's folds, where every one of them fails
    from qkostant import RootSystem, verify

    real = verify.build_root_system

    def c5_without_alpha_1(lie_type, rank):
        system = real(lie_type, rank)
        if (lie_type, rank) != ("C", 5):
            return system
        roots = tuple(root for root in system.positive_roots if root != (1, 0, 0, 0, 0))
        return RootSystem("C", 5, roots, system.highest_root)

    calls, _, _ = _record_verify_calls(monkeypatch)
    monkeypatch.setattr(verify, "build_root_system", c5_without_alpha_1)
    results = verify.run_all(5)
    assert [t for t, _, _ in calls] == ["A", "C", "D", "B", "C", "D"]
    assert sorted(calls[1][2]) == sorted(
        closedform.weight_of(s) for s in closedform.iter_support_specs("C", 5))
    c5_specs = "C5 (); C5 ((2, 1),); C5 ((2, 2),); C5 ((2, 3),)"
    assert [(c.name, c.status, c.detail) for c in results if c.status != "PASS"] == [
        ("root-counts", "FAIL", "C5: 24 != 25"),
        ("product-vs-oracle", "FAIL", c5_specs),
        ("total-counts", "FAIL", c5_specs),
        ("route-agreement", "FAIL", "C5"),
        ("closed-variance-B", "WARN",
         f"{TYPE_B_VARIANCE_NOTE}; corrected reading matches the gf route at 4 ranks"),
    ]


def test_verify_budget_check_allocates_nothing_per_rank():
    # the highest roots are checked one at a time, so a huge max rank is
    # refused at B15 before any list of its systems or weights is built
    import tracemalloc

    from qkostant import FoldTooLarge, verify

    tracemalloc.start()
    try:
        with pytest.raises(FoldTooLarge, match="lattice fold over 9565938 cells"):
            verify.run_all(10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


_WARN_B = (
    "closed-variance-B", "WARN",
    f"{TYPE_B_VARIANCE_NOTE}; corrected reading matches the gf route at 7 ranks",
)
# the first four of the 127 rank-7 specs of A, B, C and D
_RANK7_SPECS = "A7 (); A7 ((2, 1),); A7 ((2, 2),); A7 ((2, 3),) (+123 more)"


def _wrong_explicit(lie_type, rank):
    if (lie_type, rank) in {("B", 7), ("A", 4)}:
        return QPoly((0, 9))
    return closedform.explicit_qpoly(lie_type, rank)


def _wrong_product(spec):
    # the product form reads no type, so verify computes it once per
    # (rank, bumps, extra) and a wrong form fails every type at its rank
    if spec.rank == 7:
        return QPoly((0, 9))
    return closedform.product_qpoly(spec)


def _wrong_closed_moments(lie_type, rank):
    from qkostant import stats

    mean, var = stats.closed_moments(lie_type, rank)
    if (lie_type, rank) == ("C", 5):
        mean = mean + 1
    if lie_type == "B":
        var = var + 1
    return mean, var


_REAL_DECODE = closedform.decode


def _wrong_gf_decode(packed, width, jet, what):
    if what == "gf sweep for D6":
        return [0, 9]
    return _REAL_DECODE(packed, width, jet, what)


_VERIFY_FAULTS = [
    ("verify", "explicit_qpoly", _wrong_explicit, [
        ("chain-identity-A", "FAIL", "A4"),
        ("route-agreement", "FAIL", "B7"),
        ("gf-vs-explicit", "FAIL", "B7"),
        _WARN_B,
    ]),
    ("verify", "product_qpoly", _wrong_product, [
        ("product-vs-oracle", "FAIL", _RANK7_SPECS),
        ("product-moments", "FAIL", _RANK7_SPECS),
        _WARN_B,
    ]),
    ("verify", "closed_moments", _wrong_closed_moments, [
        ("closed-mean", "FAIL", "C5"),
        ("closed-variance-B", "FAIL", "B2; B3; B4; B5 (+3 more)"),
    ]),
    ("closedform", "decode", _wrong_gf_decode, [
        ("route-agreement", "FAIL", "D6"),
        ("gf-vs-explicit", "FAIL", "D6"),
        ("closed-mean", "FAIL", "D6"),
        ("closed-variance-CD", "FAIL", "D6"),
        _WARN_B,
    ]),
]


def test_verify_gf_vs_explicit_fails_when_the_recurrence_starts_past_max_rank(monkeypatch):
    # a B numerator at rank 20 leaves gf unchanged up to rank 8, but the two
    # routes share their recurrence only from rank 19 on, so agreement up to
    # rank 8 carries no further
    from qkostant import verify

    monkeypatch.setitem(closedform._GF_NUMERATORS["B"], 20, QPoly((0, 1)))
    results = verify.run_all(8)
    assert [(c.name, c.status, c.detail) for c in results if c.status != "PASS"] == [
        ("gf-vs-explicit", "FAIL", "B: recurrence from rank 19 needs max rank 20"),
        _WARN_B,
    ]


@pytest.mark.parametrize("module, name, fault, expected", _VERIFY_FAULTS,
                         ids=[f"{m}.{n}" for m, n, _, _ in _VERIFY_FAULTS])
def test_verify_checks_fail_on_injected_faults(monkeypatch, module, name, fault, expected):
    from qkostant import verify

    assert sum(s.rank == 7 for s in verify._spec_suite(8)) == 127
    monkeypatch.setattr({"verify": verify, "closedform": closedform}[module], name, fault)
    results = verify.run_all(8)
    assert [(c.name, c.status, c.detail) for c in results if c.status != "PASS"] == expected


@pytest.mark.parametrize("spec, system_type, failing", [
    pytest.param(spec, system_type, failing, id=repr(spec))
    for spec, system_type, failing in (
        (closedform.SupportSpec("A", 7, ((3, 2),)), "A", "ABC"),
        (closedform.SupportSpec("C", 8, ((2, 1), (4, 3))), "A", "ABC"),
        (closedform.SupportSpec("A", 7, ((6, 1),)), "A", "A"),
        (closedform.SupportSpec("D", 7, ((3, 2),)), "D", "D"),
    )
])
def test_verify_reads_each_oracle_polynomial_at_its_spec(monkeypatch, spec, system_type,
                                                         failing):
    # one padded bump weight comes back from the fold of its root set wrong
    # by one count: A, B and C share a root set, so exactly the specs of
    # those types with that weight fail, in the two checks that read the
    # oracle table, and the same weight of D, folded in D's own system,
    # fails only D's spec
    from qkostant import kostant, verify

    wrong = (0,) * (8 - spec.rank) + closedform.weight_of(spec)

    def one_wrong(system, targets):
        targets = [tuple(w) for w in targets]
        polys = kostant.qanalogs(system, targets)
        if system.lie_type != system_type or wrong not in targets:
            return polys
        return tuple(g + 1 if w == wrong else g for w, g in zip(targets, polys))

    monkeypatch.setattr(verify, "qanalogs", one_wrong)
    results = verify.run_all(8)
    label = "; ".join(f"{t}{spec.rank} {spec.entries}" for t in failing)
    assert [(c.name, c.status, c.detail) for c in results if c.status != "PASS"] == [
        ("product-vs-oracle", "FAIL", label),
        ("total-counts", "FAIL", label),
        _WARN_B,
    ]


@pytest.mark.parametrize("dropped, failures", [
    ((0, 0, 1, 1), [("root-counts", "FAIL", "B4: 15 != 16")]),
    ((1, 2, 2, 2), [("root-counts", "FAIL", "B4: 15 != 16"),
                    ("highest-root-membership", "FAIL", "B4: highest root not in listing")]),
])
def test_verify_reports_a_faulty_root_listing(monkeypatch, dropped, failures):
    # the builder does not re-check its listing, so a root missing from B4's
    # reaches verify's own checks as FAIL lines instead of a traceback
    from qkostant import rootsys, verify

    listing = rootsys._positive_roots

    def one_missing(lie_type, rank):
        roots = listing(lie_type, rank)
        if (lie_type, rank) == ("B", 4):
            roots.remove(dropped)
        return roots

    monkeypatch.setattr(rootsys, "_positive_roots", one_missing)
    results = verify.run_all(8)
    assert [(c.name, c.status, c.detail) for c in results if c.status != "PASS"] == [
        *failures, _WARN_B,
    ]


def test_verify_failure_exits_1(capsys, monkeypatch):
    from qkostant import verify

    monkeypatch.setattr(verify, "product_qpoly", lambda spec: QPoly((0, 9)))
    rc, out, _ = run_cli(["verify", "--max-rank", "5"], capsys)
    assert rc == 1
    assert any(line.startswith("FAIL product-vs-oracle: ") for line in out.splitlines())


def test_verify_bender_failure_line(capsys, monkeypatch):
    from qkostant import Root5, verify
    from qkostant.closedform import BenderReport

    values = {"B": Root5(0), "C": Root5(1, 2)}
    report = BenderReport(Root5(1), Root5(2), values, False)
    monkeypatch.setattr(verify, "check_bender_conditions", lambda: report)
    rc, out, _ = run_cli(["verify", "--max-rank", "5"], capsys)
    assert rc == 1
    assert "FAIL bender-conditions: hypothesis violated: B=0 + 0*sqrt(5), C=1 + 2*sqrt(5)" \
        in out.splitlines()


# ------------------------------------------------------------- exit codes

def test_usage_errors_exit_64(capsys):
    cases = [
        ["roots", "--rank", "3"],
        ["roots", "--type", "Q", "--rank", "3"],
        ["qpoly", "--type", "A", "--rank", "3", "--route", "magic"],
        ["qpoly", "--type", "A", "--rank", "3", "--weight", "1,x"],
        ["qpoly", "--type", "A", "--rank", "3", "--support", "3"],
        ["converge", "--family", "E"],
        ["converge", "--family", "B", "--t-grid", "nan"],
        ["converge", "--family", "B", "--t-grid", "0.5,inf"],
        ["converge", "--family", "B", "--t-grid", "1e200"],
        ["nonsense"],
        [],
        ["qpoly", "--type", "A", "--r", "3"],  # ambiguous: --rank or --route
        ["roots", "--type", "A", "--rank"],  # value missing at the end
        ["roots", "--type", "--rank", "3"],  # a flag where the value should be
        ["qpoly", "--type", "A", "--rank", "3", "--strict=yes"],
        ["roots", "--type", "A", "--rank", "3", "--max-rank", "4"],  # verify's flag
        ["qpoly", "--type", "A", "--rank", "6", "--weight", "highest", "--support", "3:1"],
        ["qpoly", "--type", "A", "--rank", "6", "--support", "3:1", "--weight=highest"],
        ["roots", "--type", "A", "--rank", "3", "extra"],
        ["roots", "--type", "A", "--rank", "3", "--"],
        ["roots", "-x"],
        ["--type", "A", "roots"],
    ]
    for argv in cases:
        rc, out, err = run_cli(argv, capsys)
        assert (rc, out) == (64, ""), argv
        assert err.startswith("usage error: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err


def test_usage_error_messages(capsys):
    for argv, message in [
        (["qpoly", "--type", "A", "--r=3"], "ambiguous option: --r could match --rank, --route"),
        (["roots", "--type", "A", "--rank"], "argument --rank: expected one argument"),
        (["qpoly", "--type", "A", "--rank", "3", "--strict=1"],
         "argument --strict: ignored explicit argument '1'"),
        (["qpoly", "--type", "A", "--rank", "6", "--weight", "highest", "--support", "3:1"],
         "argument --support: not allowed with argument --weight"),
        (["roots", "--rank", "3"], "the following arguments are required: --type"),
        (["roots", "--type", "Q", "--rank", "3"],
         "argument --type: invalid choice: 'Q' (choose from A, B, C, D)"),
        (["converge", "--family", "B", "--ranks", "1,x"],
         "argument --ranks: expected comma-separated ints, got '1,x'"),
    ]:
        assert run_cli(argv, capsys) == (64, "", f"usage error: {message}\n"), argv


def test_unique_prefix_and_equals_forms_parse_like_the_full_flag(capsys):
    # a full flag name is a unique prefix only while no name prefixes another
    for _, flags in cli._COMMANDS.values():
        names = [f[0] for f in (*flags, cli._HELP)]
        assert not [(a, b) for a in names for b in names if a != b and b.startswith(a)]
    full = cli._parse_args(["qpoly", "--type", "B", "--rank", "4", "--strict", "--route", "gf"])
    for argv in (["qpoly", "--typ", "B", "--ra", "4", "--st", "--ro", "gf"],
                 ["qpoly", "--type=B", "--ran=4", "--strict", "--rou=gf"],
                 # a repeated flag: the last one wins
                 ["qpoly", "--type", "C", "--rank", "9", "--type", "B", "--rank=4", "--strict",
                  "--route", "gf"]):
        assert cli._parse_args(argv) == full, argv
    assert run_cli(["qpoly", "--typ", "B", "--rank", "4"], capsys) == \
        run_cli(["qpoly", "--type", "B", "--rank", "4"], capsys)


def test_values_may_start_with_a_single_dash(capsys):
    # `--t-grid -0.5,1` reads the next token as the value, as `--t-grid=-0.5,1` does
    base = ["converge", "--family", "B", "--ranks", "6,8"]
    rc, out, err = run_cli([*base, "--t-grid", "-0.5,1"], capsys)
    assert (rc, err) == (0, "")
    assert out.splitlines()[0].endswith("mgf_err[t=-0.5],mgf_err[t=1]")
    assert run_cli([*base, "--t-grid=-0.5,1"], capsys) == (rc, out, err)
    # a negative rank is a value too, refused by the layer, not the parser
    rc, out, err = run_cli(["roots", "--type", "A", "--rank", "-3"], capsys)
    assert (rc, out) == (2, "") and err.startswith("error:")


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_prints_usage_and_returns_0(capsys, command):
    for flag in ("-h", "--help", "--he"):
        argv = [flag] if command is None else [command, flag]
        rc, out, err = run_cli(argv, capsys)  # main returns: no SystemExit
        assert (rc, err) == (0, ""), argv
        assert out.startswith(f"usage: qkostant {command or ''}")
        flags = () if command is None else cli._COMMANDS[command][1]
        assert all(f[0] in out for f in flags)
    # help wins over the flags after it, but not over an error before it
    if command is not None:
        assert run_cli([command, "-h", "--nonsense"], capsys)[0] == 0
        assert run_cli([command, "--nonsense", "-h"], capsys)[0] == 64


# ------------------------------------------------------------- argv fuzz

# Tokens built from the flag table itself: every command's flags, prefixes
# of them, unknown flags and stray tokens.  Values are empty, negative, not
# numbers, or numbers up to 6 (the only digit the random text holds is 0), so
# no request runs past rank 6; no token can ask for --help.
_FUZZ_VALUES = ("", "-1", "0", "1", "3", "6", "x", "1,2", "-1,2", "1,,2", "highest", "3:1",
                "2:x", "0.5,-1", "-0.5", "nan", "1e400", "A", "B", "D", "product", "csv",
                "json", "text", "oracle", "gf", "all")


def _fuzz_argv(st):
    """argv of a command (or a stray word), a valid start with a format and
    up to four tokens: a flag of the command or of any, a prefix of one, or junk, with
    a value after it, after "=", or none."""
    every = sorted({f[0] for _, flags in cli._COMMANDS.values() for f in flags})
    value = st.one_of(st.sampled_from(_FUZZ_VALUES), st.text("0,:-.xAe ", max_size=6))

    def tokens(names):
        name = st.one_of(
            st.sampled_from(names),
            st.sampled_from(every),
            st.tuples(st.sampled_from(every), st.integers(3, 9)).map(lambda t: t[0][:t[1]]),
            st.sampled_from(["--zzz", "--", "-x", "x", "--rank 3"]),
        )
        token = st.one_of(
            st.tuples(name, value).map(list),
            st.tuples(name, value).map(lambda t: [f"{t[0]}={t[1]}"]),
            name.map(lambda n: [n]),
        )
        return st.lists(token, max_size=4).map(lambda groups: sum(groups, []))

    # Each command starts from valid flags (converge and verify default to
    # ranks up to 400 and 8, so they start from small ones); the tokens after
    # them add to or override those.
    small = st.integers(-1, 6).map(str)
    typed = st.tuples(st.sampled_from(LIE_TYPES), small).map(
        lambda t: ["--type", t[0], "--rank", t[1]])
    start = {
        "roots": typed, "qpoly": typed, "stats": typed,
        "converge": st.tuples(st.sampled_from(FAMILIES), small).map(
            lambda t: ["--family", t[0], "--ranks", f"{t[1]},6"]),
        "verify": small.map(lambda r: ["--max-rank", r]),
    }
    # ... and a format, so the JSON and CSV checks see every command
    for command, flags in start.items():
        choices = next(f[2] for f in cli._COMMANDS[command][1] if f[0] == "--format")
        start[command] = st.tuples(flags, st.sampled_from(choices)).map(
            lambda t: [*t[0], "--format", t[1]])

    def argv(command):
        names = [f[0] for f in cli._COMMANDS[command][1]] if command in start else every
        return st.tuples(start.get(command, st.just([])), tokens(names)).map(
            lambda t: [command, *t[0], *t[1]])

    return st.sampled_from([*cli._COMMANDS, "nonsense", ""]).flatmap(argv)


def test_fuzzed_argv_parse_or_refuse():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(_fuzz_argv(hypothesis.strategies))
    @hypothesis.example(["qpoly", "--we", "highest", "--su", "3:1"])
    @hypothesis.example(["converge", "--ranks", "2,4", "--t-grid", "-0.5,1", "--fa=A"])
    def check(argv):
        try:
            args = cli._parse_args(argv)
        except cli._UsageError:
            return
        attrs = {f[1] for f in cli._COMMANDS[argv[0]][1]}
        assert set(vars(args)) == {"command", *attrs}
        assert args.command == argv[0]

    check()


def test_fuzzed_argv_exit_codes(capsys):
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(_fuzz_argv(hypothesis.strategies))
    def check(argv):
        capsys.readouterr()
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert rc in (0, 1, 2, 3, 64), argv
        if rc in (2, 64):
            prefix = "error: " if rc == 2 else "usage error: "
            assert err.startswith(prefix) and err.count("\n") == 1, (argv, err)
            return
        assert err == "", (argv, err)
        args = cli._parse_args(argv)  # None when the help was printed
        if args is None:
            return
        if args.format == "json":
            check_json(out)
        elif args.format == "csv":
            for cell in (c for row in csv.reader(io.StringIO(out)) for c in row):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (argv, cell)

    check()


def test_json_refuses_a_non_finite_float(capsys):
    # RFC 8259 has no Infinity or NaN: _emit raises rather than print one
    for bad in (float("inf"), float("-inf"), float("nan")):
        out = cli._Output({}, {"value": bad}, ("value",), [(bad,)])
        with pytest.raises(ValueError):
            cli._emit("json", "stats", out)
    assert capsys.readouterr().out == ""


def test_non_integer_support_entry_exits_64(capsys):
    rc, _, err = run_cli(["qpoly", "--type", "A", "--rank", "3", "--support", "2:x"], capsys)
    assert rc == 64
    assert "non-integer support entry" in err


def test_exact_output_past_the_int_str_digit_limit(capsys):
    # the B11000 variance has a numerator of over 4300 digits, CPython's
    # default limit on int to text; the request still prints it and exits 0,
    # and the caller's limit is back in force afterwards
    limit = sys.get_int_max_str_digits()
    rc, out, err = run_cli(["stats", "--type", "B", "--rank", "11000"], capsys)
    assert (rc, err) == (0, "")
    header, row = csv.reader(io.StringIO(out))
    numerator, denominator = dict(zip(header, row))["variance"].split("/")
    assert len(numerator) > 4300 and numerator.isdigit() and denominator.isdigit()
    assert sys.get_int_max_str_digits() == limit


@pytest.fixture
def digit_limit_640():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


def test_exact_output_under_a_lowered_digit_limit(capsys, digit_limit_640):
    # the A2300 binomial row and the C1700 variance both need over 640 digits
    rc, out, _ = run_cli(["qpoly", "--type", "A", "--rank", "2300", "--route", "explicit"],
                         capsys)
    assert rc == 0
    assert sys.get_int_max_str_digits() == 640
    header, row = out.splitlines()
    assert header == "route,degree,coeffs,agree"
    route_degree, coeffs, agree = row.split('"')
    assert (route_degree, agree) == ("explicit,2300,", ",")
    coeffs = coeffs.split(",")
    assert len(coeffs) == 2301 and max(map(len, coeffs)) > 640
    assert coeffs[1] == "1" and coeffs[2] == "2299"
    rc, out, _ = run_cli(["converge", "--family", "C", "--ranks", "1700", "--format", "json"],
                         capsys)
    assert rc == 0
    assert sys.get_int_max_str_digits() == 640
    variance = check_json(out)["payload"][0]["variance"]
    assert len(variance.split("/")[1]) > 640


def test_overlong_rank_still_exits_64(capsys):
    # argument parsing keeps the interpreter's digit limit
    rc, out, err = run_cli(["stats", "--type", "B", "--rank", "7" * 5000], capsys)
    assert (rc, out) == (64, "")
    assert err.startswith("usage error: argument --rank: invalid int value")


_N4000, _N4300 = "9" * 4000, "9" * 4300


@pytest.mark.parametrize("argv, message", [
    (["qpoly", "--type", "A", "--rank", "3", "--weight", ",".join([_N4000] * 3)],
     "lattice fold over ~10**12000 cells exceeds the budget of 4194304"),
    (["roots", "--type", "A", "--rank", _N4000],
     "root listing of ~10**12000 entries exceeds the budget of 1048576"),
    (["converge", "--family", "product", "--ranks", "10", "--bumps", _N4300],
     f"product family with --bumps {_N4300} needs rank > ~10**4300, got 10"),
], ids=["qpoly", "roots", "converge"])
def test_refused_count_past_the_int_str_digit_limit(capsys, argv, message):
    # the refused count has over 4300 digits, CPython's default limit on int
    # to text, so the message gives its order of magnitude instead
    start = time.perf_counter()
    rc, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_count_text_writes_out_only_ints_inside_the_digit_limit(digit_limit_640):
    from qkostant.errors import count_text

    assert count_text(9565938) == "9565938"
    assert count_text(2 ** 1920 - 1) == str(2 ** 1920 - 1)  # 578 digits
    assert count_text(2 ** 1920) == "~10**578"


def test_input_errors_exit_2(capsys):
    cases = [
        ["roots", "--type", "C", "--rank", "1"],
        ["qpoly", "--type", "A", "--rank", "3", "--weight", "1,2"],
        ["qpoly", "--type", "B", "--rank", "6", "--support", "2:1,3:1"],
        ["stats", "--type", "D", "--rank", "2"],
        ["qpoly", "--type", "A", "--rank", "30"],
    ]
    for argv in cases:
        rc, _, err = run_cli(argv, capsys)
        assert rc == 2, argv
        assert err.startswith("error:")


def test_cli_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "qkostant.cli", "roots", "--type", "A", "--rank", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("index,coeffs\n")


def test_closed_stdout_pipe_exits_141_without_traceback():
    # A120 lists 7260 roots, far more than a pipe buffer holds, so the CLI is
    # still writing when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "qkostant.cli", "roots", "--type", "A", "--rank", "120"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"index,coeffs\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err, err


# Prints the modules loaded by one CLI request, after it exits.
_MODULES_AT_EXIT = """\
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write("\\nMODULES " + " ".join(sorted(sys.modules))))
runpy.run_module("qkostant.cli", run_name="__main__", alter_sys=True)
"""

_NEVER_LOADED = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
_IMPORT_CASES = [
    (["roots", "--type", "B", "--rank", "3", "--format", "json"],
     {"qkostant.closedform", "qkostant.kostant", "qkostant.polyring", "qkostant.kronecker",
      "fractions"}),
    (["qpoly", "--type", "B", "--rank", "5", "--format", "json"],
     {"qkostant.stats", "qkostant.gaussianity", "qkostant.verify", "qkostant.holonomic",
      "fractions", "decimal"}),
    (["qpoly", "--type", "A", "--rank", "6", "--support", "3:1"],
     {"qkostant.stats", "qkostant.gaussianity", "qkostant.verify", "qkostant.holonomic",
      "fractions", "decimal"}),
    # a closed route loads neither the lattice fold nor fractions
    (["qpoly", "--type", "C", "--rank", "20", "--route", "explicit"],
     {"qkostant.kostant", "qkostant.transfer", "qkostant.stats", "qkostant.gaussianity",
      "qkostant.verify", "qkostant.holonomic", "fractions", "decimal"}),
    (["qpoly", "--type", "B", "--rank", "12", "--route", "gf"],
     {"qkostant.kostant", "qkostant.transfer", "qkostant.stats", "qkostant.gaussianity",
      "qkostant.verify", "qkostant.holonomic", "fractions", "decimal"}),
    (["stats", "--type", "C", "--rank", "6"],
     {"qkostant.kostant", "qkostant.transfer", "qkostant.gaussianity", "qkostant.verify",
      "qkostant.holonomic"}),
    (["converge", "--family", "D", "--ranks", "12,8"],
     {"qkostant.kostant", "qkostant.transfer", "qkostant.stats", "qkostant.verify"}),
    # verify reads every oracle polynomial from qanalogs, and every maximal
    # weight it folds has other members, so none takes the transfer DP
    (["verify", "--max-rank", "5", "--format", "csv"],
     {"qkostant.transfer", "qkostant.gaussianity", "qkostant.holonomic"}),
]


@pytest.mark.parametrize("argv, absent", _IMPORT_CASES, ids=[c[0][0] for c in _IMPORT_CASES])
def test_subcommands_import_only_their_layers(argv, absent):
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AT_EXIT, *argv], capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.rsplit("MODULES ", 1)[1].split())
    assert "qkostant.rootsys" in loaded
    assert not loaded & (_NEVER_LOADED | absent)


# Reports, from an atexit hook, how many objects the request froze.
_FREEZE_AT_EXIT = """\
import atexit, gc, runpy, sys
atexit.register(lambda: sys.stderr.write("\\nFROZEN %d" % gc.get_freeze_count()))
runpy.run_module("qkostant.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv, code", [
    (["roots", "--type", "A", "--rank", "3"], cli.EXIT_OK),
    (["roots", "--type", "A", "--rank", "0"], cli.EXIT_BAD_INPUT),
    (["roots", "--type", "Z", "--rank", "3"], cli.EXIT_USAGE),
], ids=["ok", "bad-input", "usage"])
def test_entry_freezes_the_heap_and_still_runs_atexit(argv, code):
    proc = subprocess.run(
        [sys.executable, "-c", _FREEZE_AT_EXIT, *argv], capture_output=True, text=True,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert int(proc.stderr.rsplit("FROZEN ", 1)[1]) > 0


def test_entry_freezes_the_heap_on_a_closed_pipe_too():
    proc = subprocess.Popen(
        [sys.executable, "-c", _FREEZE_AT_EXIT, "roots", "--type", "A", "--rank", "120"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"index,coeffs\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
    assert "Traceback" not in err, err
    assert int(err.rsplit("FROZEN ", 1)[1]) > 0


@pytest.mark.skipif(
    shutil.which("qkostant") is None,
    reason="qkostant console script not on PATH (package not installed)",
)
def test_console_script_installed():
    proc = subprocess.run(
        ["qkostant", "stats", "--type", "C", "--rank", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("C,6,")
