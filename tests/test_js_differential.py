"""Differential tests: the library's ordering symbols and tree sum return
exactly the values of the reference implementations in js_reference.py."""
from fractions import Fraction

import pytest

import js_reference as ref
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
