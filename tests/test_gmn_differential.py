"""Differential test: each enumerated diagram's automorphism order, kept
from the enumeration's one encoding, and its weight from DT invariants and
pairings equal what the brute-force reference in gmn_reference.py counts
and weighs with f-coefficients."""
import gmn_reference as ref
from test_js_differential import _tree_value_targets
from wallcross.gmn import RootedDiagram, enumerate_diagrams, weight_W
from wallcross.lattice import theory_by_name
from wallcross.spectrum import spectrum_table


def _diagrams():
    for name, target, max_vertices in _tree_value_targets():
        theory, table = theory_by_name(name), spectrum_table(name, "strong")
        for diag in enumerate_diagrams(theory, table, target, max_vertices):
            yield theory, table, diag


def test_brute_force_count_sees_equal_subtrees():
    # the root's two equal leaves swap; a chain has no symmetry
    star = RootedDiagram(((1, 0), (0, 1), (0, 1)), (None, 0, 0), 2)
    chain = RootedDiagram(((0, 1), (1, 0), (0, 1)), (None, 0, 1), 1)
    assert ref.aut_count(star) == 2 and ref.aut_count(chain) == 1


def test_aut_is_the_brute_force_count():
    seen = 0
    for _, _, diag in _diagrams():
        assert diag.aut == ref.aut_count(diag), diag.describe()
        seen += 1
    assert seen == 391


def test_weight_matches_the_f_coefficient_reference():
    for theory, table, diag in _diagrams():
        assert weight_W(theory, table, diag) == ref.weight(theory, table, diag), \
            (theory.name, diag.describe())
