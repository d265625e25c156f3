"""Differential test: run_decay, which carries each branch's active rays
and reads pinning, live vertices and depths once, returns exactly what
the reference engine in decay_reference.py returns; a trace's bracket
and contribution, built once from integer coefficients, equal the
reference's term-by-term fold."""
import dataclasses
from collections import Counter
from fractions import Fraction

import decay_reference as ref
from test_js_differential import _tree_value_targets
from wallcross.decay import (ABOVE, BELOW, SingularEndpoint, TraceResult,
                             gmn_contribution, run_decay)
from wallcross.gmn import enumerate_diagrams, weight_W
from wallcross.lattice import theory_by_name
from wallcross.spectrum import spectrum_table
from wallcross.symbolic import Value


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


def test_contributions_match_the_value_fold():
    # on the diagrams of test_run_decay_matches_reference; the term order
    # too, since conjecture_check takes its symbol order from it.  92
    # symbols occur more than once in their trace, and none cancels.
    diagrams = repeated = 0
    for name, target, max_vertices in (_tree_value_targets()
                                       + [("nf0", (3, 4), None)]):
        theory, table = theory_by_name(name), spectrum_table(name, "strong")
        for diag in enumerate_diagrams(theory, table, target, max_vertices):
            trace = run_decay(theory, diag)
            w = weight_W(theory, table, diag)
            for got, want in (
                    (trace.bracket(), ref.bracket(trace)),
                    (gmn_contribution(theory, diag, w, trace),
                     ref.contribution(theory, diag, w, trace))):
                assert list(got.terms.items()) == list(want.terms.items()), \
                    (name, target, diag.describe())
            diagrams += 1
            counts = Counter(s.symbol for s in trace.singular)
            repeated += sum(k > 1 for k in counts.values())
    assert (diagrams, repeated) == (483, 92)


def test_contributions_of_cancelling_endpoints_match_the_value_fold():
    # a symbol that cancels and comes back, one that cancels for good and
    # one that adds up, with no terminal sign: the fold drops a cancelled
    # symbol and appends it again, so only the values are compared
    theory, table = theory_by_name("nf0"), spectrum_table("nf0", "strong")
    diag = enumerate_diagrams(theory, table, (2, 3))[-1]
    ends = [("a", BELOW, 1), ("b", ABOVE, -1), ("a", BELOW, -1),
            ("c", BELOW, 1), ("b", ABOVE, -1), ("a", BELOW, 1),
            ("c", BELOW, -1)]
    trace = TraceResult(singular=[SingularEndpoint(*e) for e in ends])
    assert trace.bracket() == ref.bracket(trace) == \
        Value({"a|below": 1, "b|above": -2})
    for w in (Fraction(3, 2), Fraction(0)):
        assert gmn_contribution(theory, diag, w, trace) == \
            ref.contribution(theory, diag, w, trace)
    trace.singular = [SingularEndpoint("a", BELOW, 1),
                      SingularEndpoint("a", BELOW, -1)]
    assert trace.bracket() == ref.bracket(trace) == Value.zero()
    assert gmn_contribution(theory, diag, Fraction(3, 2), trace) == Value.zero()
