"""Every function the benchmark's per-layer recorder wraps still exists.

The recorder in perfbench/tracer.py skips a missing function and only a
traced benchmark run reports its metrics as never fired; this test makes
a deleted or renamed hook fail the test suite instead.
"""
import importlib
import importlib.util
from itertools import permutations
from math import prod
from pathlib import Path

import pytest

import js_reference as ref
from wallcross.decay import conjecture_check
from wallcross.gmn import root_direction
from wallcross.js import _edge_weights, js_wallcross
from wallcross.ks import infer_weak_spectrum
from wallcross.lattice import primitive, theory_by_name
from wallcross.spectrum import spectrum_table

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _wrapped():
    return [(module, attr) for module, attr, *_ in _tracer().WRAPPED]


@pytest.mark.parametrize("module,attr", _wrapped())
def test_wrapped_function_exists(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _invariant():
    js_wallcross(theory_by_name("nf0"), spectrum_table("nf0", "strong"), (2, 3))


def _conjecture():
    conjecture_check(theory_by_name("nf0"), (2, 3))


def _traced(run):
    recorder = _tracer().Recorder()
    recorder.install()
    try:
        run()
    finally:
        recorder.uninstall()
    return recorder


RUNS = pytest.mark.parametrize("run", [_invariant, _conjecture],
                               ids=["js_wallcross", "conjecture_check"])


@RUNS
def test_tree_sums_read_the_labelled_tree_table(run):
    # the traced invariant and conjecture runs need the trees.labelled_*
    # metrics to fire: a tree sum must reach enumerate_labelled_trees
    # through the module attribute the recorder rebinds
    recorder = _traced(run)
    assert recorder.calls["trees.enumerate_labelled_trees"] > 0
    assert recorder.counters["trees.labelled_trees"] > 0


def _supported(theory, alphas):
    return len(ref.supported_trees(_edge_weights(theory, alphas, {})))


def test_tree_counter_counts_the_trees_walked():
    # the invariant's tree sum walks the supported trees of each multiset
    # with a nonzero-coefficient ordering once, not once per ordering (151)
    theory, table = theory_by_name("nf0"), spectrum_table("nf0", "strong")
    walked = sum(_supported(theory, ms)
                 for ms in ref.multisets(theory, table, (2, 3))
                 if prod(map(table.dt, ms))
                 and any(ref.u_symbol(theory, list(a))
                         for a in set(permutations(ms))))
    recorder = _traced(_invariant)
    assert recorder.counters["trees.labelled_trees"] == walked == 20


def test_gmn_tree_counter_counts_the_trees_walked():
    # gmn walks the supported trees of each multiset with a part on the
    # framing direction once
    theory, table = theory_by_name("nf0"), spectrum_table("nf0", "strong")
    rdir = root_direction(theory)
    walked = sum(_supported(theory, ms) for ms in
                 {tuple(sorted(a)) for a in ref.decompositions(theory, table,
                                                              (2, 3))}
                 if any(primitive(c) == rdir for c in ms))
    recorder = _traced(_conjecture)
    assert recorder.counters["gmn.labelled_trees"] == walked == 20


@RUNS
def test_u_symbol_calls_s_symbol(run):
    # the js.s_calls metric must fire too: U must reach s_symbol through
    # the module attribute the recorder rebinds, not an inlined copy
    assert _traced(run).calls["js.s_symbol"] > 0


def test_conjecture_check_solves_once():
    # the symbolic.* metrics of the traced conjecture run count one
    # elimination per check, and free_symbols counts what free_unknowns
    # returns: both hooks must fire exactly once
    recorder = _traced(_conjecture)
    assert recorder.calls["symbolic.solve_linear"] == 1
    assert recorder.calls["symbolic.free_unknowns"] == 1
    assert recorder.counters["symbolic.free_symbols"] == 1


def test_inference_multiplies_through_series_mul():
    # the traced oracle run needs ks.compose_s, ks.series_mul_calls and
    # ks.mul_term_pairs to fire: compose must reach series_mul through the
    # module attribute the recorder rebinds, not an inlined kernel
    def infer():
        infer_weak_spectrum(theory_by_name("nf0"), spectrum_table("nf0", "strong"), 4)
    recorder = _traced(infer)
    assert recorder.calls["ks.compose"] > 0
    assert recorder.calls["ks.series_mul"] > 0
    assert recorder.counters["ks.mul_term_pairs"] > 0
