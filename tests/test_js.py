from fractions import Fraction

import pytest

from wallcross.js import (decompositions, js_tree_values, js_wallcross,
                          s_symbol, strong_parts, u_symbol)
from wallcross.symbolic import Value
from wallcross.spectrum import spectrum_table
from wallcross.lattice import theory_by_name

Q = Fraction

D, M = (1, 0), (0, 1)


def test_s_symbol_single(nf0):
    assert s_symbol(nf0, [D]) == 1


def test_u_symbol_single(nf0):
    assert u_symbol(nf0, [D]) == 1


@pytest.mark.parametrize("symbol", [s_symbol, u_symbol])
def test_empty_decomposition_raises(nf0, symbol):
    with pytest.raises(ValueError, match="empty decomposition"):
        symbol(nf0, [])


def test_u_symbol_order_sums_to_zero(nf0):
    # summing U over all orderings of a fixed multiset gives zero when
    # the slope order changes across the wall
    assert u_symbol(nf0, [D, M]) + u_symbol(nf0, [M, D]) == 0


def test_strong_parts(nf0, nf0_strong):
    parts = strong_parts(nf0, nf0_strong, (2, 3))
    assert set(parts) == {(1, 0), (2, 0), (0, 1), (0, 2), (0, 3)}


def test_decompositions_cover_target(nf0, nf0_strong):
    for alphas in decompositions(nf0, nf0_strong, (1, 2)):
        total = tuple(map(sum, zip(*alphas)))
        assert total == (1, 2)


def test_wallcross_vector_multiplet(nf0, nf0_strong, nf0_weak):
    assert js_wallcross(nf0, nf0_strong, (1, 1)) == -2
    assert nf0_weak.omega((1, 1)) == -2


def test_wallcross_dyons_match_weak_table(nf0, nf0_strong, nf0_weak):
    for target in [(1, 2), (2, 1), (1, 3), (2, 3), (3, 2)]:
        dt = js_wallcross(nf0, nf0_strong, target)
        assert dt == nf0_weak.dt(target), target


def test_wallcross_vanishing_states(nf0, nf0_strong, nf0_weak):
    for target in [(2, 2), (1, 4), (3, 1)]:
        assert js_wallcross(nf0, nf0_strong, target) == nf0_weak.dt(target)


def test_tree_values_sum_to_invariant():
    # the tree totals are coefficients of sigma(target)
    for name, target in [("nf0", (1, 2)), ("nf1", (1, 1, -1)),
                         ("nf1", (2, 2, -1)), ("nf2", (1, 1, 1, 1))]:
        theory = theory_by_name(name)
        table = spectrum_table(name, "strong")
        groups = js_tree_values(theory, table, target)
        total = sum((tv.total for tv in groups.values()), Value.zero())
        assert total == Value.rational(js_wallcross(theory, table, target)), \
            (name, target)


def test_tree_values_survive_caller_mutation(nf0, nf0_strong):
    def snapshot(groups):
        return {k: (list(tv.charges), list(tv.edges), tv.total)
                for k, tv in groups.items()}

    first = js_tree_values(nf0, nf0_strong, (2, 3))
    want = snapshot(first)
    for tv in first.values():
        assert isinstance(tv.edges, list)
        tv.edges.reverse()
        tv.edges.append((0, 0))
    assert snapshot(js_tree_values(nf0, nf0_strong, (2, 3))) == want


def test_twisted_trees_nf1():
    th = theory_by_name("nf1")
    table = spectrum_table("nf1", "strong")
    groups = js_tree_values(th, table, (1, 1, -1))
    totals = sorted(repr(tv.total) for tv in groups.values())
    assert totals == ["-1", "-1/2", "-1/2"]
    # the tree totals are coefficients of sigma(target) and sum to the
    # weak invariant
    total = sum((tv.total for tv in groups.values()), Value.zero())
    assert total == Value.rational(-2)


def test_ineffective_target_raises(nf0, nf0_strong):
    with pytest.raises(ValueError):
        js_wallcross(nf0, nf0_strong, (-1, 1))
