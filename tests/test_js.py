import time
from fractions import Fraction

import pytest

import js_reference as ref
from wallcross.gmn import enumerate_diagrams
from wallcross.js import (decompositions, js_tree_values, js_wallcross,
                          multisets, s_symbol, strong_parts, u_symbol)
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


def test_multisets_are_the_sorted_decompositions(nf0, nf0_strong):
    every = {tuple(sorted(a)) for a in
             ref.decompositions(nf0, nf0_strong, (2, 3))}
    for bound in (None, 1, 2, 3):
        want = sorted(ms for ms in every if bound is None or len(ms) <= bound)
        assert multisets(nf0, nf0_strong, (2, 3), bound) == want


def test_multisets_stop_each_branch_at_the_bound(nf0, nf0_strong):
    # the strong parts at 12,12 are the pure multiples of delta and
    # gamma_m, so a 3-part multiset splits one side in two; walking all
    # 5,929 multisets of 12,12 before applying the bound takes seconds
    t0 = time.perf_counter()
    got = multisets(nf0, nf0_strong, (12, 12), 3)
    elapsed = time.perf_counter() - t0
    want = [((0, 12), (12, 0))]
    for a in range(1, 7):
        want += [((0, a), (0, 12 - a), (12, 0)),
                 ((0, 12), (a, 0), (12 - a, 0))]
    assert got == sorted(tuple(sorted(ms)) for ms in want)
    assert len(got) == 13
    assert elapsed < 0.5


def test_multisets_walk_a_thousand_parts(nf0, nf0_strong):
    # 500,500 has 1,000 strong parts, one walk level each: deeper than
    # Python's recursion limit, however small the bound
    assert multisets(nf0, nf0_strong, (500, 500), max_vertices=1) == []


@pytest.mark.parametrize("entry", [multisets, decompositions, js_tree_values,
                                   js_wallcross, enumerate_diagrams])
@pytest.mark.parametrize("target,bound,message", [
    ((-1, 2), None, r"target \(-1, 2\) is not effective"),
    ((1, 1), 0, "max_vertices must be at least 1, got 0"),
])
def test_one_input_contract(nf0, nf0_strong, entry, target, bound, message):
    # every sum over multisets rejects bad input with the same message
    with pytest.raises(ValueError, match=f"^{message}$"):
        entry(nf0, nf0_strong, target, bound)


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
