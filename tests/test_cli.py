import csv
import json

import pytest

from wallcross import js
from wallcross.cli import main
from wallcross.lattice import theory_by_name
from wallcross.spectrum import spectrum_table


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--output", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def test_spectrum(tmp_path):
    code, rep = run(tmp_path, "spectrum", "nf0", "weak")
    assert code == 0
    entries = {tuple(g): w for g, w in rep["entries"]}
    assert entries[(1, 1)] == -2


def test_spectrum_csv(tmp_path):
    csv_path = tmp_path / "table.csv"
    code, rep = run(tmp_path, "spectrum", "nf0", "strong",
                    "--csv", str(csv_path))
    assert code == 0
    rows = list(csv.reader(csv_path.open()))
    assert len(rows) == 1 + len(rep["entries"])


def test_js(tmp_path):
    code, rep = run(tmp_path, "js", "nf0", "1,1")
    assert code == 0
    assert rep["dt_weak"] == "-2"


def test_gmn(tmp_path):
    code, rep = run(tmp_path, "gmn", "nf0", "1,1")
    assert code == 0
    assert len(rep["diagrams"]) == 1
    assert rep["diagrams"][0]["diagram"] == "(1+0)[(0+1)]"


def test_decay_trace(tmp_path):
    code, rep = run(tmp_path, "decay-trace", "nf0", "1,1", "--index", "0")
    assert code == 0
    assert rep["steps"]


def test_check_conjecture(tmp_path):
    code, rep = run(tmp_path, "check-conjecture", "nf0", "1,2")
    assert code == 0
    assert rep["ok"] is True


def test_ks_oracle(tmp_path):
    code, rep = run(tmp_path, "ks-oracle", "nf0", "--N", "6")
    assert code == 0
    assert rep["ok"] is True


def test_numeric_subset(tmp_path):
    code, rep = run(tmp_path, "numeric", "decay_fit", "--nodes", "120")
    assert code == 0
    assert rep["checks"]["decay_fit"]["ok"] is True


def test_unknown_theory_exit_2(tmp_path):
    code, _ = run(tmp_path, "js", "nf9", "1,1")
    assert code == 2


def test_bad_charge_exit_2(tmp_path):
    code, _ = run(tmp_path, "js", "nf0", "1,1,1")
    assert code == 2


def test_library_error_exit_2(tmp_path, capsys):
    # 8 parts exceed the labelled-tree bound: one line, no traceback
    code, rep = run(tmp_path, "js", "nf0", "3,5")
    assert code == 2 and rep is None
    err = capsys.readouterr().err
    assert err == "error: ValueError: tree size 8 exceeds bound 7\n"


def test_config_file_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target": "1,1"}))
    out = tmp_path / "r.json"
    code = main(["--config", str(cfg), "js", "nf0", "9,9",
                 "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["dt_weak"] == "-2"


def test_config_file_invalid(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["--config", str(cfg), "js", "nf0", "1,1"]) == 2


def test_ks_oracle_needs_a_positive_degree(tmp_path, capsys):
    # N = 0 compares two identity products: nothing would be checked
    code, rep = run(tmp_path, "ks-oracle", "nf0", "--N", "0")
    assert code == 2 and rep is None
    assert capsys.readouterr().err == (
        "error: ValueError: truncation degree N must be at least 1, got 0\n")


@pytest.mark.parametrize("check", ["scale_invariance", "ov_fixed_point"])
def test_numeric_rejects_zero_zeta(tmp_path, capsys, check):
    code, rep = run(tmp_path, "numeric", check, "--nodes", "40",
                    "--zeta-re", "0", "--zeta-im", "0")
    assert code == 2 and rep is None
    assert capsys.readouterr().err.startswith("config error: zeta")


@pytest.mark.parametrize("overrides,message", [
    ({"fn": 3}, "'fn' is not an option of wallcross gmn"),
    ({"max_vertices": "x"}, "'max_vertices' cannot be 'x'"),
    ({"schedule": "sideways"}, "'schedule' cannot be 'sideways'"),
])
def test_config_file_checks_keys_and_values(tmp_path, capsys, overrides,
                                            message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    code = main(["--config", str(cfg), "gmn", "nf0", "1,1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: " + message)


def test_config_file_typed_values(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max-vertices": 2, "schedule": "leaf-first"}))
    out = tmp_path / "r.json"
    code = main(["--config", str(cfg), "gmn", "nf0", "1,2",
                 "--output", str(out)])
    assert code == 0
    diagrams = json.loads(out.read_text())["diagrams"]
    assert [d["diagram"] for d in diagrams] == ["(1+0)[(0+2)]"]


def test_js_reports_the_weak_invariant_with_refinement(tmp_path):
    # sigma is not trivial on nf1: the weak table has no state at 2,2,-1
    code, rep = run(tmp_path, "js", "nf1", "2,2,-1")
    assert code == 0
    assert rep["dt_weak"] == "0"


@pytest.mark.parametrize("theory,target", [("nf0", "0,1"), ("nf1", "0,1,-1")])
def test_check_conjecture_needs_a_framing_coordinate(tmp_path, capsys,
                                                     theory, target):
    code, rep = run(tmp_path, "check-conjecture", theory, target)
    assert code == 2 and rep is None
    assert "has framing coordinate 0" in capsys.readouterr().err


def test_decay_trace_without_diagrams(tmp_path, capsys):
    code, rep = run(tmp_path, "decay-trace", "nf0", "0,1")
    assert code == 2 and rep is None
    assert capsys.readouterr().err == (
        "config error: no framed diagrams with total charge (0, 1)\n")


@pytest.mark.parametrize("argv", [("check-conjecture", "nf0", "2,3"),
                                  ("js", "nf0", "1,1"),
                                  ("gmn", "nf0", "1,1")])
def test_max_vertices_must_be_positive(tmp_path, capsys, argv):
    code, rep = run(tmp_path, *argv, "--max-vertices", "0")
    assert code == 2 and rep is None
    assert capsys.readouterr().err == (
        "error: ValueError: max_vertices must be at least 1, got 0\n")


def test_spectrum_rejects_negative_truncation(tmp_path, capsys):
    code, rep = run(tmp_path, "spectrum", "nf0", "weak", "--K", "-3")
    assert code == 2 and rep is None
    assert capsys.readouterr().err == (
        "error: ValueError: family truncation K must be at least 0, got -3\n")


def test_js_runs_the_decomposition_loop_once(tmp_path, monkeypatch):
    # dt_weak is the sum of the tree totals, so each of the 37 ordered
    # decompositions of nf0 2,3 gets one U symbol, not one per quantity
    calls = []
    u_symbol = js.u_symbol

    def counted(*args):
        calls.append(args)
        return u_symbol(*args)

    monkeypatch.setattr(js, "u_symbol", counted)
    code, rep = run(tmp_path, "js", "nf0", "2,3")
    assert code == 0
    assert rep["dt_weak"] == "1"
    assert len(calls) == len(js.decompositions(
        theory_by_name("nf0"), spectrum_table("nf0", "strong"), (2, 3))) == 37
