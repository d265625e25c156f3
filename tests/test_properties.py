"""Structural invariants checked over generated inputs."""
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallcross.decay import SCHEDULES, run_decay
from wallcross.gmn import enumerate_diagrams
from wallcross.js import js_wallcross
from wallcross.ks import infer_weak_spectrum
from wallcross.lattice import cadd, cneg, content, theory_by_name
from wallcross.spectrum import f_coeff, spectrum_table
from wallcross.trees import enumerate_labelled_trees

Q = Fraction

THEORIES = [theory_by_name(n) for n in ("nf0", "nf1", "nf2", "nf3")]


def charges(rank):
    return st.tuples(*[st.integers(-5, 5)] * rank)


@pytest.mark.parametrize("th", THEORIES, ids=lambda t: t.name)
def test_sigma_is_a_twisted_homomorphism(th):
    @given(charges(th.rank), charges(th.rank))
    @settings(max_examples=200, deadline=None)
    def check(a, b):
        lhs = th.sigma_value(a) * th.sigma_value(b)
        rhs = (-1) ** th.pair(a, b) * th.sigma_value(cadd(a, b))
        assert lhs == rhs

    check()


@pytest.mark.parametrize("th", THEORIES, ids=lambda t: t.name)
def test_sigma_is_even(th):
    @given(charges(th.rank))
    @settings(max_examples=100, deadline=None)
    def check(a):
        assert th.sigma_value(a) == th.sigma_value(cneg(a))

    check()


@pytest.mark.parametrize("th", THEORIES, ids=lambda t: t.name)
def test_refinement_unit_is_independent_of_the_refinement(th):
    # every refinement is sigma_value times a character chi of the lattice,
    # chi(gamma) = (-1)^(eps . gamma); the two identities that make
    # "coefficient of sigma(target)" one unit for js and gmn hold for each
    @given(st.tuples(*[st.integers(0, 1)] * th.rank),
           st.lists(charges(th.rank), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def check(eps, cs):
        def sigma(gamma):
            chi = (-1) ** sum(e * x for e, x in zip(eps, gamma))
            return chi * th.sigma_value(gamma)

        sign, total = th.sigma_reduce(cs)
        assert prod(sigma(c) for c in cs) == sign * sigma(total)
        gamma = cs[0]
        d = content(gamma)
        for n in range(1, d + 1):
            if d % n == 0:
                assert sigma(tuple(x // n for x in gamma)) ** n == sigma(gamma)

    check()


def test_labelled_tree_count_is_cayley():
    for n in range(1, 7):
        expect = 1 if n <= 2 else n ** (n - 2)
        assert len(enumerate_labelled_trees(n)) == expect


def test_vertex_coefficient_reduces_to_dt_times_charge():
    # the f-coefficient of gamma is sigma(gamma) DT(gamma) gamma
    table = spectrum_table("nf0", "weak")
    for g in table.charges():
        for mult in (1, 2, 3):
            gamma = tuple(mult * x for x in g)
            if table.covered_degree is not None and \
                    sum(abs(x) for x in gamma) > table.covered_degree:
                continue
            c, direction = f_coeff(table, gamma)
            got = tuple(c * x for x in direction)
            want = tuple(table.dt(gamma) * x for x in gamma)
            assert got == want


@pytest.mark.parametrize("name,region",
                         [(t.name, r) for t in THEORIES
                          for r in ("strong", "weak")])
def test_index_is_symmetric_under_negation(name, region):
    table = spectrum_table(name, region)
    for g in table.charges():
        assert table.omega(cneg(g)) == table.omega(g)


CATALOG = [("nf0", (1, 1)), ("nf0", (1, 2)), ("nf0", (2, 3)),
           ("nf1", (1, 1, -1)), ("nf2", (1, 1, 1, 1)),
           ("nf3", (1, 1, 1, 1, 2))]


@pytest.mark.parametrize("name,target", CATALOG,
                         ids=[f"{n}-{t}" for n, t in CATALOG])
def test_decay_terminates_and_is_closed(name, target):
    # every diagram up to six vertices decays to a finite signed set of
    # singletons; each singleton carries the full charge of the diagram
    th = theory_by_name(name)
    table = spectrum_table(name, "strong")
    mv = 5 if name == "nf3" else 6
    for diag in enumerate_diagrams(th, table, target, max_vertices=mv):
        total = diag.total()
        for schedule in SCHEDULES:
            trace = run_decay(th, diag, schedule=schedule, keep_steps=True)
            assert trace.eps_sum.denominator == 1
            for s in trace.singular:
                assert s.coeff in (1, -1)
                assert s.side in ("above", "below")
            label = str(total)
            for step in trace.steps:
                if "terminal singleton" in step:
                    assert label in step


# effective degree bound per theory: 27 + 55 + 125 + 125 = 332 charges
JS_KS_DEGREES = {"nf0": 6, "nf1": 5, "nf2": 5, "nf3": 4}


@pytest.mark.parametrize("name", sorted(JS_KS_DEGREES))
def test_js_matches_ks_inferred_spectrum(name):
    # the combinatorial sum gives, at every effective charge up to the
    # bound, the weak DT invariant of the spectrum that the KS ordered
    # product infers from the strong one
    th = theory_by_name(name)
    N = JS_KS_DEGREES[name]
    strong = spectrum_table(name, "strong")
    weak = infer_weak_spectrum(th, strong, N)
    checked, wrong = 0, []
    for coords in product(range(N + 1), repeat=th.rank):
        if not 1 <= sum(coords) <= N:
            continue
        gamma = tuple(s * x for s, x in zip(th.effective_signs, coords))
        got, want = js_wallcross(th, strong, gamma), weak.dt(gamma)
        checked += 1
        if got != want:
            wrong.append((gamma, got, want))
    assert checked == {"nf0": 27, "nf1": 55, "nf2": 125, "nf3": 125}[name]
    assert wrong == []


def test_decay_schedule_independent_on_single_edge(nf0, nf0_strong):
    # the two update orders agree on one-edge diagrams; on larger ones
    # only the root-first order realizes the iterated-integral semantics
    for diag in enumerate_diagrams(nf0, nf0_strong, (1, 1)):
        traces = [run_decay(nf0, diag, schedule=s) for s in SCHEDULES]
        assert traces[0].eps_sum == traces[1].eps_sum == 1


@given(st.lists(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1)]),
                min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_content_divides_all_coordinates(gs):
    total = (0, 0)
    for g in gs:
        total = cadd(total, g)
    d = content(total)
    if d:
        assert all(x % d == 0 for x in total)
