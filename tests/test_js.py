import inspect
import time
from fractions import Fraction

import pytest

import js_reference as ref
from wallcross import js
from wallcross.gmn import enumerate_diagrams
from wallcross.js import (decompositions, js_tree_values, js_wallcross,
                          multisets, s_symbol, strong_parts, u_symbol)
from wallcross.symbolic import Value
from wallcross.spectrum import spectrum_table
from wallcross.lattice import MINUS, PLUS, Theory, theory_by_name

from conftest import central_charges

Q = Fraction

D, M = (1, 0), (0, 1)


def test_s_symbol_single(nf0):
    assert s_symbol(*central_charges(nf0, [D])) == 1


def test_u_symbol_single(nf0):
    assert u_symbol(*central_charges(nf0, [D])) == 1


@pytest.mark.parametrize("symbol", [s_symbol, u_symbol])
def test_empty_decomposition_raises(symbol):
    with pytest.raises(ValueError, match="empty decomposition"):
        symbol([], [])


def test_u_symbol_order_sums_to_zero(nf0):
    # summing U over all orderings of a fixed multiset gives zero when
    # the slope order changes across the wall
    assert u_symbol(*central_charges(nf0, [D, M])) + \
        u_symbol(*central_charges(nf0, [M, D])) == 0


def test_symbols_take_central_charges_not_the_theory():
    # U and S see a decomposition only through its parts' Z+ and Z-
    for fn in (u_symbol, s_symbol, js._chunk_weight):
        assert "theory" not in inspect.signature(fn).parameters, fn


def test_js_reads_each_part_central_charge_once(nf0, nf0_strong, monkeypatch):
    # nf0 3,4 has seven distinct parts, (1,0) to (3,0) and (0,1) to (0,4),
    # and each is read once on each side of the wall
    calls = []
    z = Theory.z

    def counted(self, region, gamma):
        calls.append((region, gamma))
        return z(self, region, gamma)

    monkeypatch.setattr(Theory, "z", counted)
    js_wallcross(nf0, nf0_strong, (3, 4))
    assert len(calls) == 14
    assert sorted(calls) == sorted((side, part) for side in (PLUS, MINUS)
                                   for part in strong_parts(nf0, nf0_strong,
                                                            (3, 4)))


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
    # 5,929 multisets of 12,12 before applying the bound takes seconds.
    # At 200,200 a branch that walks every part level below its second
    # part takes half a minute: it must look its last part up
    for side, count, seconds in ((12, 13, 0.5), (200, 201, 2.0)):
        t0 = time.perf_counter()
        got = multisets(nf0, nf0_strong, (side, side), 3)
        elapsed = time.perf_counter() - t0
        want = [((0, side), (side, 0))]
        for a in range(1, side // 2 + 1):
            want += [((0, a), (0, side - a), (side, 0)),
                     ((0, side), (a, 0), (side - a, 0))]
        assert got == sorted(tuple(sorted(ms)) for ms in want)
        assert len(got) == count
        assert elapsed < seconds, side


def _partitions(total, most, largest=None):
    """The partitions of total into at most most parts, largest first."""
    largest = total if largest is None else largest
    if total == 0:
        yield ()
        return
    if most == 0:
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, most - 1, first):
            yield (first,) + rest


@pytest.mark.parametrize("side,bound,count,seconds", [
    (100, 4, 4267, 1.5), (12, None, 5929, 0.8)])
def test_multisets_drop_branches_no_later_part_can_finish(
        nf0, nf0_strong, side, bound, count, seconds):
    # the strong parts at side,side are the pure multiples of gamma_m,
    # sorted first, and of delta, so a multiset is a partition of each
    # side.  A branch that enters the delta parts with gamma_m left over
    # can never end; walking each such branch through every delta part
    # took about 4 s at 100,100 with bound 4 and 1.4 s at 12,12 unbounded
    t0 = time.perf_counter()
    got = multisets(nf0, nf0_strong, (side, side), bound)
    elapsed = time.perf_counter() - t0
    most = side if bound is None else bound - 1
    want = sorted(
        tuple(sorted([(0, m) for m in ms] + [(d, 0) for d in ds]))
        for ms in _partitions(side, most)
        for ds in _partitions(side, most if bound is None else bound - len(ms)))
    assert got == want
    assert len(got) == count
    assert elapsed < seconds, side


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
    totals = sorted(tv.total for tv in groups.values())
    assert totals == [-1, Fraction(-1, 2), Fraction(-1, 2)]
    # the tree totals are coefficients of sigma(target) and sum to the
    # weak invariant
    total = sum((tv.total for tv in groups.values()), Value.zero())
    assert total == Value.rational(-2)


def test_ineffective_target_raises(nf0, nf0_strong):
    with pytest.raises(ValueError):
        js_wallcross(nf0, nf0_strong, (-1, 1))
