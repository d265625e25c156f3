"""Structural invariants checked over generated inputs."""
import dataclasses
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallcross.decay import run_decay
from wallcross.gmn import enumerate_diagrams
from wallcross.js import js_wallcross
from wallcross.ks import infer_weak_spectrum
from wallcross.lattice import cadd, cneg, content, theory_by_name
from wallcross.spectrum import spectrum_table, strong_table
from wallcross.symbolic import Value
from wallcross.trees import enumerate_labelled_trees

from gmn_reference import f_coeff, sigma_reduce
from test_conjecture_sweep import _kronecker
from test_ks import pentagon_theory

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

        sign, total = sigma_reduce(th, cs)
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
        trace = run_decay(th, diag)
        assert trace.eps_sum.denominator == 1
        for s in trace.singular:
            assert s.coeff in (1, -1)
            assert s.side in ("above", "below")
        label = str(total)
        for step in trace.steps:
            if "terminal singleton" in step:
                assert label in step


def _reversed(name):
    """A catalog theory with the two sides of the wall swapped."""
    th = theory_by_name(name)
    return dataclasses.replace(th, name=f"{name}-reversed",
                               z_plus=th.z_minus, z_minus=th.z_plus)


# (label, theory, input table, effective degree bound N): the catalog from
# its strong tables; the pentagon and the 3-Kronecker quiver from their
# basis states; and nf0-nf2 crossed backwards, from the catalog weak table
# (Omega = -2 and non-primitive DT as inputs) to the strong one
JS_KS_CASES = (
    [(n, theory_by_name(n), spectrum_table(n, "strong"), N)
     for n, N in (("nf0", 6), ("nf1", 5), ("nf2", 5), ("nf3", 4))]
    + [(th.name, th, strong_table(th), 6)
       for th in (pentagon_theory(), _kronecker(3))]
    + [(f"{n}-reversed", _reversed(n), spectrum_table(n, "weak"), N)
       for n, N in (("nf0", 6), ("nf1", 5), ("nf2", 5))])
JS_KS_CHARGES = {"nf0": 27, "nf1": 55, "nf2": 125, "nf3": 125, "pentagon": 27,
                 "kron3": 27, "nf0-reversed": 27, "nf1-reversed": 55,
                 "nf2-reversed": 125}


@pytest.mark.parametrize("label,th,table,N", JS_KS_CASES,
                         ids=[case[0] for case in JS_KS_CASES])
def test_js_matches_ks_inferred_spectrum(label, th, table, N):
    # the combinatorial sum gives, at every effective charge up to the
    # bound, the weak DT invariant of the spectrum that the KS ordered
    # product infers from the input one
    weak = infer_weak_spectrum(th, table, N)
    if label.endswith("-reversed"):
        # crossing back from the weak table gives the strong one
        assert weak.entries == strong_table(th).entries
    checked, wrong = 0, []
    for coords in product(range(N + 1), repeat=th.rank):
        if not 1 <= sum(coords) <= N:
            continue
        gamma = tuple(s * x for s, x in zip(th.effective_signs, coords))
        got, want = js_wallcross(th, table, gamma), weak.dt(gamma)
        checked += 1
        if got != want:
            wrong.append((gamma, got, want))
    assert checked == JS_KS_CHARGES[label]
    assert wrong == []


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


COEFFS = st.one_of(st.integers(-3, 3),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4))
TERMS = st.dictionaries(st.sampled_from([None, "a", "b", "c"]), COEFFS,
                        max_size=4)


def _normalised(v):
    return all(type(c) is Fraction and c != 0 for c in v.terms.values())


@given(TERMS, TERMS, COEFFS,
       st.fixed_dictionaries({name: COEFFS for name in "abc"}))
@settings(max_examples=200, deadline=None)
def test_value_coefficients_are_nonzero_fractions(x, y, q, assignment):
    # Value keeps a Fraction coefficient as it is and wraps any other, so
    # int inputs are normalised and zeros dropped by every constructor
    # and operation; equal values compare equal whichever way they were
    # built
    a, b, r = Value(x), Value(y), Value.rational(q)
    for v in (a, b, r, Value({"a": q}), Value.zero(), a + b, a - b, -a,
              q + a, q - a):
        assert _normalised(v), v
    assert type(a.evaluate(assignment)) is Fraction
    same = Value({k: Fraction(c) for k, c in reversed(x.items())})
    for u, v in ((a, same), (a + b, b + a), ((a + b) - b, a)):
        assert u == v, (u, v)
