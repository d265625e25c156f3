"""Differential tests: the term-by-term KS product returns exactly the
multipliers of the series-composition reference in ks_reference.py."""
import pytest

import ks_reference as ref
from test_ks import pentagon_theory
from wallcross.ks import _phase_sorted, compose, eff_degree
from wallcross.lattice import MINUS, PLUS, theory_by_name
from wallcross.spectrum import SpectrumTable, spectrum_table

DEGREES = {"nf0": 10, "nf1": 5, "nf2": 5, "nf3": 5}


def _states(theory, table, region, N):
    charges = [g for g in table.charges()
               if theory.is_effective(g) and eff_degree(theory, g) <= N]
    return [(g, table.omega(g))
            for g in _phase_sorted(theory, region, charges)]


def _assert_same_product(theory, states, N):
    got = compose(theory, states, N)
    want = ref.product(theory, states, N)
    assert len(got) == len(want) == theory.rank
    for mu, (g, w) in enumerate(zip(got, want)):
        assert all(type(c) is int for c in g.values()), mu
        assert g == w, mu


@pytest.mark.parametrize("region", ["strong", "weak"])
@pytest.mark.parametrize("name", sorted(DEGREES))
def test_catalog_products_match_reference(name, region):
    theory = theory_by_name(name)
    N = DEGREES[name]
    side = PLUS if region == "strong" else MINUS
    states = _states(theory, spectrum_table(name, region), side, N)
    assert states
    _assert_same_product(theory, states, N)


@pytest.mark.parametrize("side,entries", [
    (PLUS, {(1, 0): 1, (0, 1): 1}),
    (MINUS, {(1, 0): 1, (1, 1): 1, (0, 1): 1})])
def test_pentagon_products_match_reference(side, entries):
    theory = pentagon_theory()
    table = SpectrumTable("pentagon", side, None, True, None, entries)
    _assert_same_product(theory, _states(theory, table, side, 10), 10)
