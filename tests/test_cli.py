import csv
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import wallcross
from wallcross import cli, js, ks, lattice, tba
from wallcross.cli import main
from wallcross.lattice import theory_by_name
from wallcross.spectrum import MAX_K, spectrum_table

from test_ks import RADICAL_THEORY


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


def test_check_conjecture_failure_exits_1(tmp_path, capsys):
    # four star trees, g1 with -g3 leaves pinned on one ray, read gmn 0
    # against nonzero js: the report says "ok": false and main exits 1,
    # whether the report goes to a file or to stdout
    code, rep = run(tmp_path, "check-conjecture", "nf1", "1,0,-4")
    assert code == 1 and rep["ok"] is False
    assert sum(not t["ok"] for t in rep["trees"]) == 4
    code = main(["check-conjecture", "nf1", "1,0,-4"])
    out, err = capsys.readouterr()
    assert code == 1 and err == "" and json.loads(out)["ok"] is False


def test_ks_oracle(tmp_path):
    code, rep = run(tmp_path, "ks-oracle", "nf0", "--N", "6")
    assert code == 0
    assert rep["ok"] is True


def test_ks_oracle_against_table_covers_N(tmp_path, monkeypatch):
    # a default-K catalog table that stops below N would fail the check
    # although the identity holds: the command widens K to N
    monkeypatch.setattr(cli, "DEFAULT_K", 1)
    code, rep = run(tmp_path, "ks-oracle", "nf0", "--N", "4", "--against-table")
    assert code == 0
    assert rep["checks"]["catalog_weak_table"] == {"ok": True, "agree_through": 4}


def test_ks_oracle_reuses_the_inference_round_trip(tmp_path, monkeypatch):
    # infer_weak_spectrum checks its table against the strong product at N,
    # so the round trip builds no product of its own: the inference's
    # strong product, one weak product per degree and the final one.  The
    # catalog check reads the cached strong product, and nf0's catalog
    # operators through N are the inferred ones, so it builds nothing
    Ns = []
    compose = ks.compose

    def counted(theory, ops, N):
        Ns.append(N)
        return compose(theory, ops, N)
    monkeypatch.setattr(ks, "compose", counted)
    code, rep = run(tmp_path, "ks-oracle", "nf0", "--N", "6", "--against-table")
    assert code == 0
    assert rep["checks"]["round_trip"] == {"ok": True, "agree_through": 6}
    assert Ns == [6, 1, 2, 3, 4, 5, 6, 6]


def test_ks_oracle_refuses_an_incomplete_table_before_any_product(
        tmp_path, monkeypatch, capsys):
    # nf3's hand-entered weak table lists a few states only: its product
    # would lack the others and the check would report a false failure
    Ns = []
    compose = ks.compose

    def counted(theory, ops, N):
        Ns.append(N)
        return compose(theory, ops, N)
    monkeypatch.setattr(ks, "compose", counted)
    code, rep = run(tmp_path, "ks-oracle", "nf3", "--N", "3", "--against-table")
    assert (code, rep, Ns) == (2, None, [])
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "UnknownSpectrumError: nf3/weak" in err[0]


def test_ks_oracle_refuses_a_charge_in_the_radical(tmp_path, monkeypatch,
                                                  capsys):
    # e1 pairs to zero with e0 and e2, so every operator of k e1 is the
    # identity and no product shows Omega(k e1), which js gives as 1/k^2:
    # the inference is refused, with exit 2 and the charge named
    monkeypatch.setitem(lattice.CATALOG, "r3", RADICAL_THEORY)
    code, rep = run(tmp_path, "ks-oracle", "r3", "--N", "3")
    assert (code, rep) == (2, None)
    assert capsys.readouterr().err == (
        "error: FactorizationError: r3: the effective charge (0, 1, 0) of "
        "degree 1 pairs to zero with every basis charge, so no KS product "
        "determines its Omega through N=3\n")


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


def test_config_help_says_the_file_overrides():
    # the help states what test_config_file_overrides shows
    config = next(a for a in cli.build_parser()._actions
                  if a.dest == "config")
    assert "override the command line" in config.help


def test_unknown_theory_is_a_config_error(capsys):
    # theory_by_name refuses a name with ValueError, which main reports
    # as bad configuration
    assert main(["js", "nf9", "1,1"]) == 2
    assert capsys.readouterr().err == "config error: unknown theory 'nf9'\n"


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


def test_ks_oracle_degree_is_bounded(tmp_path, capsys):
    # the round trip's cost grows about as N^6: past MAX_N it exits at once
    code, rep = run(tmp_path, "ks-oracle", "nf0", "--N", str(ks.MAX_N + 1))
    assert code == 2 and rep is None
    assert capsys.readouterr().err == (
        f"error: ValueError: truncation degree N must be at most {ks.MAX_N}, "
        f"got {ks.MAX_N + 1}\n")


def test_ks_oracle_against_table_names_the_degree_it_refuses(tmp_path, capsys):
    # the flag sizes the catalog table by N, but the N check comes first,
    # so the refusal is the one without the flag, not the table's K bound
    code, rep = run(tmp_path, "ks-oracle", "nf0", "--N", "20000",
                    "--against-table")
    assert code == 2 and rep is None
    assert capsys.readouterr().err == (
        f"error: ValueError: truncation degree N must be at most {ks.MAX_N}, "
        f"got 20000\n")


@pytest.mark.parametrize("check", ["scale_invariance", "ov_fixed_point"])
def test_numeric_rejects_zero_zeta(tmp_path, capsys, check):
    code, rep = run(tmp_path, "numeric", check, "--nodes", "40",
                    "--zeta-re", "0", "--zeta-im", "0")
    assert code == 2 and rep is None
    assert capsys.readouterr().err.startswith("config error: zeta")


def _ray_node():
    # a node of the ray of Z_(1,0) that residue_move and the decay_fit chain
    # integrate over at --nodes 40
    spec = tba.QuadratureSpec(nodes=40)
    zc = tba.near_wall_context(R=3.0, scale=0.1)
    return complex(tba.ray_points(zc.z((1, 0)), spec)[0][20])


def _on_a_ray_node():
    # --zeta-re/--zeta-im exactly on that node
    p = _ray_node()
    return ("--nodes", "40", "--zeta-re", repr(p.real),
            "--zeta-im", repr(p.imag))


@pytest.mark.parametrize("argv,message", [
    (("--R", "1e10"), "at R = 10000000000.0 x_sf underflows to 0 on the ray "
                      "of (1, 0), so the residue move's relative residual "
                      "|lhs - rhs| / |rhs| is 0/0"),
    (("decay_fit", *_on_a_ray_node()),
     f"zeta = {_ray_node()} lies on a quadrature node of the "
     "integration ray of (1, 0), where the rho kernel is singular"),
    (("--T", "800"), f"T must be at most {tba.MAX_T}, got 800.0"),
    (("--T", "500"), f"T must be at most {tba.MAX_T}, got 500.0"),
    (("decay_fit", "--T", "500"), f"T must be at most {tba.MAX_T}, got 500.0"),
    (("--R", "60"), "at R = 60.0 x_sf underflows to 0 on the ray of (1, 0), "
                    "so the residue move's relative residual |lhs - rhs| / "
                    "|rhs| is 0/0"),
    # residue_move runs first and integrates over the same ray
    (_on_a_ray_node(),
     f"zeta = {_ray_node()} lies on a quadrature node of the "
     "integration ray of (1, 0), where the rho kernel is singular")])
def test_numeric_overflow_is_bad_input(tmp_path, capsys, argv, message):
    # From R = 60 x_sf underflows to 0 on every node, so residue_move's
    # relative residual would be 0/0.  With zeta on a node of the ray of
    # Z_(1,0) the Cauchy kernel would divide by zero.  T above tba.MAX_T is refused before any check runs:
    # from T = 354 the dense rho overflows to nan, and at T = 800 exp(-T)
    # puts ray nodes on zeta' = 0.  None is a failed check, and none may
    # print a warning, a traceback, NaN in a report or CSV rows
    rows = tmp_path / "rows.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run(tmp_path, "numeric", *argv, "--csv", str(rows))
    assert code == 2 and rep is None and not rows.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ValueError: {message}\n"


def test_numeric_reports_every_check_at_the_largest_T(tmp_path):
    # the bound on T is where every check still gives finite numbers
    # (residue_move is under-resolved there and fails, which is a result)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run(tmp_path, "numeric", "--T", str(tba.MAX_T))
    assert code == 1 and set(rep["checks"]) == set(cli.NUMERIC_CHECKS)
    assert [n for n, c in rep["checks"].items() if not c["ok"]] == [
        "residue_move"]


def test_numeric_residue_move_fails_when_under_resolved(tmp_path):
    # at 50 nodes lhs is 79 % off rhs, yet |lhs - rhs| is far below the
    # absolute 1e-8, because |rhs| is about 1e-18
    code, rep = run(tmp_path, "numeric", "residue_move", "--nodes", "50")
    check = rep["checks"]["residue_move"]
    assert code == 1 and not check["ok"]
    assert check["residual"] < 1e-8
    assert check["relative_residual"] > 0.5


def test_numeric_residue_move_reports_its_relative_residual(tmp_path):
    code, rep = run(tmp_path, "numeric", "residue_move")
    check = rep["checks"]["residue_move"]
    assert code == 0 and check["ok"]
    assert check["relative_residual"] <= cli.RESIDUE_MOVE_REL_TOL
    lhs, rhs = complex(*check["lhs"]), complex(*check["rhs"])
    assert check["relative_residual"] == pytest.approx(abs(lhs - rhs) / abs(rhs))


def test_numeric_rejects_unknown_check_before_running(tmp_path, capsys,
                                                      monkeypatch):
    # a bad name must not cost the quadrature of the checks before it
    def never(*args, **kwargs):
        raise AssertionError("residue_move_check ran")
    monkeypatch.setattr(tba, "residue_move_check", never)
    code, rep = run(tmp_path, "numeric", "residue_move", "bogus")
    assert code == 2 and rep is None
    assert capsys.readouterr().err == (
        "config error: unknown numeric check 'bogus'\n")


@pytest.mark.parametrize("option,value,message", [
    ("--R", "0", "R must be positive and finite, got 0.0"),
    ("--R=-1", None, "R must be positive and finite, got -1.0"),
    ("--R", "nan", "R must be positive and finite, got nan"),
    ("--R", "inf", "R must be positive and finite, got inf"),
    ("--zeta-re", "nan", "zeta = --zeta-re + i --zeta-im must be nonzero "
                         "and finite"),
    ("--zeta-im", "inf", "zeta = --zeta-re + i --zeta-im must be nonzero "
                         "and finite"),
])
def test_numeric_rejects_bad_R_or_zeta_before_running(tmp_path, capsys,
                                                      monkeypatch, option,
                                                      value, message):
    # R <= 0 gave a residual and a slope of nothing, and NaN R or zeta gave
    # NaN, which is not JSON: each is bad input, not a failed check
    def never(*args, **kwargs):
        raise AssertionError("a check ran")
    for name in ("residue_move_check", "scale_invariance_check",
                 "chain_magnitudes", "ov_fixed_point_residual"):
        monkeypatch.setattr(tba, name, never)
    argv = [option] if value is None else [option, value]
    code, rep = run(tmp_path, "numeric", *argv)
    assert code == 2 and rep is None
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_numeric_csv_needs_decay_fit(tmp_path, capsys, monkeypatch):
    # only decay_fit writes CSV rows: without it the file would silently
    # never appear
    def never(*args, **kwargs):
        raise AssertionError("residue_move_check ran")
    monkeypatch.setattr(tba, "residue_move_check", never)
    rows = tmp_path / "rows.csv"
    code, rep = run(tmp_path, "numeric", "residue_move", "--csv", str(rows))
    assert code == 2 and rep is None and not rows.exists()
    assert capsys.readouterr().err == (
        "config error: --csv writes the decay_fit rows, but decay_fit is not "
        "among the checks\n")


def test_ov_model_rejects_nan_R():
    with pytest.raises(ValueError, match="R must be positive and finite"):
        tba.OVModel(R=float("nan"))


@pytest.mark.parametrize("option,value,message", [
    ("--T", "0", "T must be positive and finite, got 0.0"),
    ("--T", "-2", "T must be positive and finite, got -2.0"),
    ("--tol", "-1", "tol must be positive and finite, got -1.0"),
    ("--tol", "inf", "tol must be positive and finite, got inf"),
    ("--T", "nan", "T must be positive and finite, got nan"),
    ("--nodes", "0", "nodes must be at least 1, got 0"),
])
def test_numeric_rejects_vacuous_quadrature(tmp_path, capsys, option, value,
                                            message):
    # T = 0 would make every integral 0, and tol = inf would pass every
    # residual: each check would pass without checking anything
    code, rep = run(tmp_path, "numeric", "ov_fixed_point", option, value)
    assert code == 2 and rep is None
    assert capsys.readouterr().err == f"error: ValueError: {message}\n"


def test_numeric_rejects_nodes_above_the_bound(tmp_path, capsys,
                                               monkeypatch):
    # refused before any rule is built: a 10^9-node rule would take
    # 10^18 flops
    def never(n):
        raise AssertionError("a Gauss-Legendre rule was built")
    monkeypatch.setattr(tba, "_legendre_rule", never)
    code, rep = run(tmp_path, "numeric", "ov_fixed_point",
                    "--nodes", str(10 ** 9))
    assert code == 2 and rep is None
    assert capsys.readouterr().err == (
        f"error: ValueError: nodes must be at most {tba.MAX_NODES}, "
        f"got {10 ** 9}\n")


def test_numeric_decay_fit_reports_an_underflowing_prefix(tmp_path, capsys):
    # at R = 60 the chain prefixes past the first underflow to |G_n| = 0,
    # whose log has no value: bad input, not a failed check or a traceback
    code, rep = run(tmp_path, "numeric", "decay_fit", "--R", "60",
                    "--nodes", "40")
    assert code == 2 and rep is None
    assert capsys.readouterr().err == (
        "error: ValueError: |G_2| underflows to 0, so log|G_2| and the "
        "decay slope are undefined\n")


@pytest.mark.parametrize("overrides,message", [
    ({"fn": 3}, "'fn' is not an option of wallcross gmn"),
    ({"max_vertices": "x"}, "'max_vertices' cannot be 'x'"),
])
def test_config_file_checks_keys_and_values(tmp_path, capsys, overrides,
                                            message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    code = main(["--config", str(cfg), "gmn", "nf0", "1,1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: " + message)


def test_config_file_checks_choices(tmp_path, capsys):
    # an option with choices takes only one of them from the config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"region": "sideways"}))
    assert main(["--config", str(cfg), "spectrum", "nf0", "strong"]) == 2
    assert capsys.readouterr().err == \
        "config error: 'region' cannot be 'sideways'\n"
    cfg.write_text(json.dumps({"region": "weak"}))
    code, rep = run(tmp_path, "--config", str(cfg), "spectrum", "nf0", "strong")
    assert code == 0 and rep["region"] == "weak"


def test_unparsable_charge_is_a_config_error(capsys):
    assert main(["js", "nf0", "1,x"]) == 2
    assert capsys.readouterr().err == "config error: cannot parse charge '1,x'\n"


def test_decay_trace_index_out_of_range(capsys):
    assert main(["decay-trace", "nf0", "2,3", "--index", "99"]) == 2
    assert capsys.readouterr().err == \
        "config error: diagram index 99 out of range (0..10)\n"


def test_config_file_sets_a_flag_and_a_list(tmp_path):
    # a flag takes a JSON boolean and a list option a list of strings
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"against_table": True, "N": 3}))
    code, rep = run(tmp_path, "--config", str(cfg), "ks-oracle", "nf0")
    assert code == 0
    assert rep["checks"]["catalog_weak_table"] == {"ok": True,
                                                   "agree_through": 3}
    cfg.write_text(json.dumps({"checks": ["decay_fit"]}))
    code, rep = run(tmp_path, "--config", str(cfg), "numeric")
    assert code == 0 and list(rep["checks"]) == ["decay_fit"]


@pytest.mark.parametrize("argv,overrides,message", [
    (["ks-oracle", "nf0"], {"against_table": "yes"},
     "'against_table' cannot be 'yes'"),
    (["numeric"], {"checks": "decay_fit"}, "'checks' cannot be 'decay_fit'"),
])
def test_config_file_checks_flag_and_list_values(tmp_path, capsys, argv,
                                                 overrides, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    assert main(["--config", str(cfg), *argv]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_config_file_typed_values(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max-vertices": 2}))
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


def test_spectrum_rejects_truncation_above_the_bound(tmp_path, capsys):
    code, rep = run(tmp_path, "spectrum", "nf0", "weak", "--K", "1000000000")
    assert code == 2 and rep is None
    assert capsys.readouterr().err == (
        "error: ValueError: family truncation K must be at most "
        f"{MAX_K}, got 1000000000\n")


def test_js_vertex_bound_limits_the_orderings(tmp_path):
    # nf0 9,9 has 33.7 million orderings, but only 9 multisets of at most
    # 3 parts; the bound must apply before any multiset is ordered
    code, rep = run(tmp_path, "js", "nf0", "9,9", "--max-vertices", "3")
    assert code == 0
    assert rep["trees"] and all(len(t["charges"]) <= 3 for t in rep["trees"])


def test_js_on_a_thousand_strong_parts(tmp_path):
    # nf0 500,500 has 1,000 strong parts; no single one is the target
    code, rep = run(tmp_path, "js", "nf0", "500,500", "--max-vertices", "1")
    assert code == 0
    assert rep["partial_sum"] == "0" and rep["trees"] == []


def test_js_vertex_bound_reports_a_partial_sum(tmp_path):
    # a bound leaves out the larger multisets: nf0 3,3 summed up to 3
    # vertices gives 34/9, but its weak DT is -2/9, so a bounded report
    # names the bound and does not call its sum the invariant
    code, rep = run(tmp_path, "js", "nf0", "3,3", "--max-vertices", "3")
    assert code == 0
    assert "dt_weak" not in rep
    assert rep["max_vertices"] == 3 and rep["partial_sum"] == "34/9"
    code, rep = run(tmp_path, "js", "nf0", "3,3")
    assert code == 0
    assert "max_vertices" not in rep and rep["dt_weak"] == "-2/9"


def test_check_conjecture_vertex_bound_is_reported(tmp_path):
    # nf0 3,3 checked up to 3 vertices leaves out its 4- to 6-vertex
    # trees, so a bounded report names the bound next to its "ok"
    code, rep = run(tmp_path, "check-conjecture", "nf0", "3,3",
                    "--max-vertices", "3")
    assert code == 0
    assert list(rep)[:5] == ["command", "theory", "target", "max_vertices", "ok"]
    assert rep["max_vertices"] == 3 and rep["ok"] is True
    code, rep = run(tmp_path, "check-conjecture", "nf0", "1,2")
    assert code == 0 and "max_vertices" not in rep


@pytest.mark.parametrize("argv,after", [
    (("gmn", "nf0", "3,3"), "target"),
    (("decay-trace", "nf0", "3,3", "--index", "0"), "theory")])
def test_gmn_and_decay_trace_vertex_bound_is_reported(tmp_path, argv, after):
    # a bounded run lists, and indexes, only the diagrams within its bound,
    # so its report names the bound; an unbounded one does not
    code, rep = run(tmp_path, *argv, "--max-vertices", "3")
    keys = list(rep)
    assert code == 0 and keys[keys.index(after) + 1] == "max_vertices"
    assert rep["max_vertices"] == 3
    code, rep = run(tmp_path, *argv)
    assert code == 0 and "max_vertices" not in rep


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


@pytest.mark.parametrize("argv", [
    ["js", "nf0", "1,1", "--output"],
    ["numeric", "decay_fit", "--nodes", "40", "--csv"],
])
def test_unwritable_path_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out"
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: FileNotFoundError: [Errno 2] No such file or directory: "
        f"{str(path)!r}\n")


def test_closed_output_pipe_is_quiet():
    src = Path(wallcross.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen([sys.executable, "-m", "wallcross.cli", "js",
                             "nf0", "1,1"], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()          # the reader goes away before the report
    err = proc.stderr.read()
    assert proc.wait() == 2
    assert err == b""


def test_decay_fit_propagates_each_prefix_once(tmp_path, monkeypatch):
    # the CSV rows and the slope share the 4 chain-prefix propagators
    top, depth = [], [0]
    propagator = tba.propagator

    def counted(*args, **kwargs):
        if not depth[0]:
            top.append(args[1])
        depth[0] += 1
        try:
            return propagator(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(tba, "propagator", counted)
    rows = tmp_path / "rows.csv"
    code, rep = run(tmp_path, "numeric", "decay_fit", "--nodes", "40",
                    "--csv", str(rows))
    assert code == 0
    assert len(top) == 4
    with open(rows) as fh:
        assert [r[0] for r in csv.reader(fh)] == ["n", "1", "2", "3", "4"]


def test_readme_command_lines_parse():
    # every example in README's command-line block must still parse, and
    # together they must show every subcommand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()
             if line.startswith("wallcross ")]
    parser = cli.build_parser()
    shown = {parser.parse_args(shlex.split(line)[1:]).command
             for line in lines}
    sub = next(a for a in parser._actions if a.dest == "command")
    assert shown == set(sub.choices)
