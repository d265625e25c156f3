"""Differential tests: the library's ordering symbols, tree sum and grouped
tree values return exactly the values of the reference implementations in
js_reference.py."""
from fractions import Fraction

import pytest

import js_reference as ref
from test_conjecture_sweep import MAX_DEGREE, _targets
from wallcross import js
from wallcross.js import _tree_weight, decompositions, s_symbol, u_symbol
from wallcross.lattice import PLUS, MINUS, theory_by_name
from wallcross.spectrum import spectrum_table

# catalog and benchmark targets
TARGETS = {
    "nf0": [(1, 1), (1, 2), (2, 3), (2, 4), (3, 3), (3, 4)],
    "nf1": [(1, 1, -1), (2, 2, -1), (2, 1, -1)],
    "nf2": [(1, 1, 1, 1), (2, 1, 1, 1)],
    "nf3": [(1, 1, 1, 1, 2)],
}
MAX_PARTS = 7


def _decompositions(name):
    theory = theory_by_name(name)
    table = spectrum_table(name, "strong")
    seen = set()
    for target in TARGETS[name]:
        seen.update(a for a in decompositions(theory, table, target)
                    if len(a) <= MAX_PARTS)
    return theory, sorted(seen)


@pytest.fixture(scope="module", params=sorted(TARGETS))
def theory_decomps(request):
    return _decompositions(request.param)


@pytest.mark.parametrize("target", [(1, 1), (1, 2), (2, 3), (2, 4), (3, 4),
                                    (3, 5), (4, 4), (4, 5)])
def test_decompositions_match_reference(target):
    theory, table = theory_by_name("nf0"), spectrum_table("nf0", "strong")
    want = ref.decompositions(theory, table, target)
    assert decompositions(theory, table, target) == want
    for bound in (1, 2, 3):
        assert decompositions(theory, table, target, bound) == [
            a for a in want if len(a) <= bound]


def test_u_and_s_match_reference(theory_decomps):
    theory, decomps = theory_decomps
    assert decomps
    for alphas in decomps:
        alphas = list(alphas)
        assert u_symbol(theory, alphas) == ref.u_symbol(theory, alphas), alphas
        assert s_symbol(theory, alphas) == ref.s_symbol(theory, alphas), alphas


def test_tree_weight_matches_reference(theory_decomps):
    theory, decomps = theory_decomps
    for alphas in decomps:
        assert _tree_weight(theory, alphas) == ref.tree_weight_sum(
            theory, alphas, signed=False), alphas


def test_central_charge_is_the_linear_sum(theory_decomps):
    theory, decomps = theory_decomps
    for alphas in decomps:
        for gamma in alphas:
            for region, zs in ((PLUS, theory.z_plus), (MINUS, theory.z_minus)):
                want = tuple(sum((n * z[k] for n, z in zip(gamma, zs)), Fraction(0))
                             for k in range(2))
                assert theory.z(region, gamma) == want


def _tree_value_targets():
    """The conjecture sweep's 132 targets, then the catalog and benchmark
    targets it does not reach, as (theory, target, max_vertices)."""
    out = [(name, target, None) for name, degree in MAX_DEGREE.items()
           for target in _targets(theory_by_name(name), degree)]
    extra = [("nf0", (1, 1), None), ("nf0", (1, 2), None),
             ("nf0", (2, 3), None), ("nf0", (2, 4), None),
             ("nf0", (3, 3), None), ("nf1", (1, 1, -1), None),
             ("nf1", (2, 2, -1), None), ("nf1", (2, 1, -1), None),
             ("nf2", (1, 1, 1, 1), None), ("nf3", (1, 1, 1, 1, 2), 5)]
    return out + [t for t in extra if t not in out]


def _tree_value_rows(trees):
    return [(key, t.charges, t.edges, t.total.terms,
             list(t.orientations.items())) for key, t in trees.items()]


def test_tree_values_match_reference():
    targets = _tree_value_targets()
    assert len(targets) == 134
    for name, target, max_vertices in targets:
        theory, table = theory_by_name(name), spectrum_table(name, "strong")
        got = js.js_tree_values(theory, table, target, max_vertices)
        want = ref.tree_values(theory, table, target, max_vertices)
        # the key order too: conjecture_check takes its symbol order from it
        assert _tree_value_rows(got) == _tree_value_rows(want), (name, target)


@pytest.mark.parametrize("target, unoriented, oriented",
                         [((3, 3), 114, 930), ((2, 3), 20, 106)])
def test_tree_values_canonicalise_once_per_slot_tree(monkeypatch, target,
                                                     unoriented, oriented):
    """canon_unoriented runs once per distinct undirected slot tree and
    canon_oriented once per distinct directed one: nf0 3,3 has 114 and 930
    of them, 2,3 has 20 and 106.  Keyed per (ordering, labelled tree)
    pair, each ran 1,888 times on 3,3 and 151 times on 2,3."""
    counts = {"canon_unoriented": 0, "canon_oriented": 0}
    for name in counts:
        def counted(*args, _name=name, _f=getattr(js, name)):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(js, name, counted)
    js.js_tree_values(theory_by_name("nf0"), spectrum_table("nf0", "strong"),
                      target)
    assert counts == {"canon_unoriented": unoriented,
                      "canon_oriented": oriented}
