"""End-to-end CLI behavior: output bytes, JSON schema, exit codes."""

import json
import math
import shutil
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from qkostant import QPoly, TYPE_B_VARIANCE_NOTE, cli


def run_cli(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def load_schema():
    text = resources.files("qkostant.schemas").joinpath("output.schema.json").read_text()
    return json.loads(text)


def check_json(stdout):
    record = json.loads(stdout)
    jsonschema.validate(record, load_schema())
    return record


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


def test_qpoly_strict_disagreement_exit_code(capsys, monkeypatch):
    # force one route to lie so the disagreement path is reachable
    monkeypatch.setattr(cli, "gf_coefficient", lambda t, r: QPoly((0, 9)))
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
])
def test_converge_out_of_range_exit_2(capsys, argv):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_converge_mgf_output_is_finite(capsys):
    # at rank 30 the Horner sum overflows at t = 1000, exp(t/sigma) overflows
    # at t = 5000 and underflows to a zero sum at t = -5000; each time the
    # log-sum-exp path must take over
    argv = ["converge", "--family", "B", "--ranks", "30", "--t-grid", "1000,5000,-5000"]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    row = out.splitlines()[1].split(",")
    assert all(math.isfinite(float(v)) for v in row[4:])
    rc, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert rc == 0
    record = json.loads(out, parse_constant=_reject_constant)
    errors = record["payload"][0]["mgf_errors"]
    assert len(errors) == 3
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
    ]
    for argv in cases:
        rc, _, err = run_cli(argv, capsys)
        assert rc == 64, argv
        assert "usage error" in err


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
