"""Differential test: run_decay, which carries each branch's active rays
and reads pinning, live vertices and depths once, returns exactly what
the reference engine in decay_reference.py returns."""
import dataclasses

import decay_reference as ref
from test_js_differential import _tree_value_targets
from wallcross.decay import run_decay
from wallcross.gmn import enumerate_diagrams
from wallcross.lattice import theory_by_name
from wallcross.spectrum import spectrum_table


def _singulars(trace):
    return [(s.key, s.side, s.coeff) for s in trace.singular]


def _compare(theory, table, target, max_vertices=None):
    """Compare both engines on every diagram of the target; the count."""
    diagrams = enumerate_diagrams(theory, table, target, max_vertices)
    for diag in diagrams:
        got, want = run_decay(theory, diag), ref.run_decay(theory, diag)
        where = (theory.name, target, diag.describe())
        assert got.eps_sum == want.eps_sum, where
        assert _singulars(got) == _singulars(want), where
        assert list(got.jumps.items()) == list(want.jumps.items()), where
        assert got.steps == want.steps, where
    return len(diagrams)


def test_run_decay_matches_reference():
    # the js targets (the conjecture sweep, the catalog and the benchmark
    # targets) and nf0 3,4, whose 92 diagrams include 7-vertex ones
    targets = _tree_value_targets() + [("nf0", (3, 4), None)]
    assert sum(_compare(theory_by_name(name), spectrum_table(name, "strong"),
                        target, max_vertices)
               for name, target, max_vertices in targets) == 483


def test_run_decay_matches_reference_when_sweeps_pass_unpushed_rays():
    # on the catalog's central charges no sweep reaches a plus ray that
    # is not pinned, so skipping such rays changes nothing there; with
    # these, pushing d from Z+ to Z- passes over Z+ of m
    wide = dataclasses.replace(theory_by_name("nf0"),
                               z_plus=((-5, 20), (3, 20)),
                               z_minus=((6, 20), (-4, 20)))
    table = spectrum_table("nf0", "strong")
    assert sum(_compare(wide, table, target) for target in
               [(1, 1), (1, 2), (2, 3), (2, 4), (3, 3), (3, 4)]) == 165
