from fractions import Fraction
from pathlib import Path

import pytest

from wallcross import cli, decay
from wallcross.cli import main
from wallcross.decay import conjecture_check, gmn_contribution, run_decay
from wallcross.gmn import enumerate_diagrams, weight_W
from wallcross.symbolic import Value
from wallcross.spectrum import spectrum_table
from wallcross.lattice import theory_by_name

from conftest import diagram_by_describe
from test_acceptance import CATALOG

Q = Fraction
DATA = Path(__file__).parent / "data"


def test_single_interaction_chain(nf0, nf0_strong):
    d = diagram_by_describe(nf0, nf0_strong, (1, 1), "(1+0)[(0+1)]")
    trace = run_decay(nf0, d)
    assert trace.eps_sum == 1
    assert not trace.singular
    w = weight_W(nf0, nf0_strong, d)
    assert gmn_contribution(nf0, d, w) == Value.rational(-2)


def test_star_two_photons(nf0, nf0_strong):
    d = diagram_by_describe(nf0, nf0_strong, (1, 2), "(1+0)[(0+1),(0+1)]")
    trace = run_decay(nf0, d)
    assert trace.eps_sum == 1
    w = weight_W(nf0, nf0_strong, d)
    assert gmn_contribution(nf0, d, w) == Value.rational(2)


def test_worked_vanishing_chain(nf0, nf0_strong):
    # delta -> gamma_m -> delta -> 2gamma_m dies out entirely
    d = diagram_by_describe(nf0, nf0_strong, (2, 3),
                            "(1+0)[(0+1)[(1+0)[(0+2)]]]")
    trace = run_decay(nf0, d)
    assert trace.eps_sum == 0
    w = weight_W(nf0, nf0_strong, d)
    assert gmn_contribution(nf0, d, w) == Value.zero()


def test_worked_star_cancellation(nf0, nf0_strong):
    # the two surviving singletons carry opposite signs: +1 - 1 = 0
    d = diagram_by_describe(nf0, nf0_strong, (2, 3),
                            "(1+0)[(0+1)[(1+0)[(0+1),(0+1)]]]")
    trace = run_decay(nf0, d)
    assert trace.eps_sum == 0


def test_minus_four_contributions(nf0, nf0_strong):
    for text in ["(1+0)[(0+1),(0+2)[(1+0)]]",
                 "(1+0)[(0+2)[(1+0)[(0+1)]]]"]:
        d = diagram_by_describe(nf0, nf0_strong, (2, 3), text)
        w = weight_W(nf0, nf0_strong, d)
        assert gmn_contribution(nf0, d, w) == Value.rational(-4)


def test_trace_log_is_populated(nf0, nf0_strong):
    d = diagram_by_describe(nf0, nf0_strong, (1, 2), "(1+0)[(0+1),(0+1)]")
    trace = run_decay(nf0, d)
    assert trace.steps
    assert any("terminal singleton" in s for s in trace.steps)


def test_singular_endpoints_nf1():
    th = theory_by_name("nf1")
    table = spectrum_table("nf1", "strong")
    sides = set()
    for d in enumerate_diagrams(th, table, (1, 1, -1)):
        trace = run_decay(th, d)
        for s in trace.singular:
            assert s.coeff in (1, -1)
            sides.add(s.side)
            assert s.symbol == f"{s.key}|{s.side}"
    # the pinned flavour ray freezes some branches on a definite side
    assert sides


def test_jump_constraints_nf2():
    th = theory_by_name("nf2")
    rep = conjecture_check(th, (1, 1, 1, 1))
    assert rep.ok
    # each coincident ray contributes one below/above pair with jump 1:
    # the solved sided values are +-1/2 around it
    assert len(rep.constraints) == 2
    for below, above in rep.constraints:
        assert below.endswith("|below") and above.endswith("|above")
        assert rep.ledger[below] - rep.ledger[above] == 1
        assert rep.ledger[below] == Q(1, 2)


def test_conjecture_vector_multiplet(nf0):
    rep = conjecture_check(nf0, (1, 1))
    assert rep.ok
    (tc,) = rep.trees.values()
    assert tc.js_total == Value.rational(-2)
    assert tc.resolved_gmn == Value.rational(-2)


def test_conjecture_underdetermined_is_reported(nf0):
    rep = conjecture_check(nf0, (2, 3))
    assert rep.ok
    assert len(rep.free_symbols) == 1
    assert rep.free_symbols[0] in rep.ledger


def test_conjecture_per_tree_totals(nf0):
    rep = conjecture_check(nf0, (1, 2))
    assert rep.ok
    assert sorted(tc.js_total for tc in rep.trees.values()) == [-1, 2]
    for tc in rep.trees.values():
        assert tc.resolved_gmn == tc.js_total


@pytest.mark.parametrize("name, target, index", [
    ("nf0", "2,3", 8), ("nf2", "1,1,1,1", 0), ("nf1", "2,2,-1", 17)])
def test_decay_trace_reports_are_frozen(tmp_path, name, target, index):
    # together the three cover promote, rebalance, residue, singular
    # endpoints on both sides, both terminal kinds and a jump of None
    out = tmp_path / "trace.json"
    assert main(["decay-trace", name, target, "--index", str(index),
                 "--output", str(out)]) == 0
    frozen = DATA / f"decay_trace_{name}_{target.replace(',', '_')}_{index}.json"
    assert out.read_text() == frozen.read_text()


@pytest.mark.parametrize("argv", [
    ("check-conjecture", "nf0", "2,3"), ("check-conjecture", "nf0", "3,4"),
    ("check-conjecture", "nf1", "2,2,-1"), ("check-conjecture", "nf2", "1,1,1,1"),
    ("check-conjecture", "nf3", "1,1,1,1,2", "--max-vertices", "5"),
    ("gmn", "nf0", "3,4")])
def test_conjecture_and_gmn_reports_are_frozen(capsys, argv):
    # nf0 2,3 leaves 1 symbol free and 3,4 leaves 65; nf2 1,1,1,1 has 2
    # jump constraints; gmn nf0 3,4 lists 92 diagrams
    cmd, name, target, *bound = argv
    assert main(list(argv)) == 0
    frozen = DATA / (f"{cmd.replace('-', '_')}_{name}_{target.replace(',', '_')}"
                     + ("_mv5" if bound else "") + ".json")
    assert capsys.readouterr().out == frozen.read_text()


def test_gmn_weighs_each_diagram_once(monkeypatch, capsys):
    # the report's weight and contribution come from one weight_W call
    # per diagram: nf0 3,4 has 92 diagrams
    calls = []

    def counted(*args):
        calls.append(args)
        return weight_W(*args)

    monkeypatch.setattr(cli, "weight_W", counted)
    monkeypatch.setattr(decay, "weight_W", counted)
    assert main(["gmn", "nf0", "3,4"]) == 0
    assert capsys.readouterr().out == (DATA / "gmn_nf0_3_4.json").read_text()
    assert len(calls) == 92


def test_merge_finds_balanced_labels_equal_to_charges(monkeypatch):
    # merge keeps the crossed vertex's ray label, which for a plus or
    # minus vertex must already be its charge
    merges = []
    merge = decay._State.merge

    def balanced_labels_are_charges(st):
        for v, status in enumerate(st.status):
            if status in (decay._PLUS, decay._MINUS):
                assert st.ray[v] == st.charges[v], (st, v)

    def checked(st, moved, static):
        balanced_labels_are_charges(st)
        merge(st, moved, static)
        balanced_labels_are_charges(st)
        merges.append(static)

    monkeypatch.setattr(decay._State, "merge", checked)
    for name, target, max_vertices in CATALOG:
        theory = theory_by_name(name)
        for d in enumerate_diagrams(theory, spectrum_table(name, "strong"),
                                    target, max_vertices=max_vertices):
            run_decay(theory, d)
    assert merges
