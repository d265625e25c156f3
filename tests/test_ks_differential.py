"""Differential tests: the term-by-term KS product returns exactly the
multipliers of the series-composition reference in ks_reference.py, its
degree-pruned series product the reference product, its binomial kernel
the reference power of 1 - sigma x_gamma, and the peeling at
per-degree truncations the entries of the reference peeling at N."""
import dataclasses
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ks_reference as ref
from test_ks import RADICAL_THEORY, packed, pentagon_theory, unpacked
from wallcross import ks
from wallcross.ks import compose, eff_degree
from wallcross.lattice import MINUS, PLUS, theory_by_name
from wallcross.spectrum import SpectrumTable, spectrum_table

DEGREES = {"nf0": 10, "nf1": 5, "nf2": 5, "nf3": 5}


def _mixed_copies():
    """nf2 with its flavour copy e3 flipped: the pairing columns of e2 and
    e3 stay equal while their effective signs are opposite (Z of e3 is
    negated on both sides, so Im Z times the sign stays positive)."""
    nf2 = theory_by_name("nf2")

    def flip(zs):
        return zs[:3] + (tuple(-x for x in zs[3]),)
    return dataclasses.replace(nf2, name="nf2-mixed",
                               effective_signs=(1, 1, 1, -1),
                               z_plus=flip(nf2.z_plus),
                               z_minus=flip(nf2.z_minus))


def _theory(name):
    if name == "pentagon":
        return pentagon_theory()
    if name == "radical":
        return RADICAL_THEORY
    if name == "mixed":
        return _mixed_copies()
    return theory_by_name(name)


def _assert_same_product(theory, states, N):
    got = compose(theory, states, N)
    want = ref.product(theory, states, N)
    assert len(got) == len(want) == theory.rank
    for mu, (g, w) in enumerate(zip(got, want)):
        assert all(type(c) is int for c in g.values()), mu
        assert g == w, mu
    # x_mu with equal pairing columns share one multiplier, each in its
    # own dict, so a caller that edits one leaves the others alone
    cols = list(zip(*theory.pairing))
    for mu, nu in combinations(range(theory.rank), 2):
        if cols[mu] == cols[nu]:
            assert got[mu] == got[nu] and got[mu] is not got[nu], (mu, nu)


@pytest.mark.parametrize("region", ["strong", "weak"])
@pytest.mark.parametrize("name", sorted(DEGREES))
def test_catalog_products_match_reference(name, region):
    theory = theory_by_name(name)
    N = DEGREES[name]
    side = PLUS if region == "strong" else MINUS
    states = ref.ordered_states(theory, spectrum_table(name, region).entries,
                                side, N)
    assert states
    _assert_same_product(theory, states, N)


@pytest.mark.parametrize("side,entries", [
    (PLUS, {(1, 0): 1, (0, 1): 1}),
    (MINUS, {(1, 0): 1, (1, 1): 1, (0, 1): 1})])
def test_pentagon_products_match_reference(side, entries):
    theory = pentagon_theory()
    _assert_same_product(theory, ref.ordered_states(theory, entries, side, 10),
                         10)


@pytest.mark.parametrize("name", sorted(DEGREES))
def test_inferred_entries_match_reference_peeling(name):
    theory = theory_by_name(name)
    N = DEGREES[name]
    strong = spectrum_table(name, "strong")
    got = ks.infer_weak_spectrum(theory, strong, N)
    assert got.entries == ref.infer_weak_entries(theory, strong.entries, N)


def test_pentagon_inferred_entries_match_reference_peeling():
    theory = pentagon_theory()
    strong = SpectrumTable("pentagon", PLUS, None, True, None,
                           {(1, 0): 1, (0, 1): 1})
    got = ks.infer_weak_spectrum(theory, strong, 10)
    assert got.entries == ref.infer_weak_entries(theory, strong.entries, 10)


@pytest.mark.parametrize("name", sorted(DEGREES) + ["pentagon"])
def test_cached_products_match_a_fresh_compose(name):
    # spectrum_auto hands every caller the one cached product of its
    # operators; after an inference and a wall check have read it, it
    # still equals the product built afresh in the reference's phase order
    if name == "pentagon":
        theory, N = pentagon_theory(), 10
        strong = SpectrumTable("pentagon", PLUS, None, True, None,
                               {(1, 0): 1, (0, 1): 1})
    else:
        theory, N = theory_by_name(name), DEGREES[name]
        strong = spectrum_table(name, "strong")
    weak = ks.infer_weak_spectrum(theory, strong, N)
    assert ks.verify_wall_identity(theory, strong, weak, N) == (True, N)
    for table, side in ((strong, PLUS), (weak, MINUS)):
        cached = ks.spectrum_auto(theory, table, side, N)
        assert ks.spectrum_auto(theory, table, side, N) is cached
        assert cached == compose(
            theory, ref.ordered_states(theory, table.entries, side, N), N)


def effective_exponents(theory, top):
    """Effective exponents and the zero one, each entry at most top in size."""
    return st.tuples(*[st.integers(0, top)] * theory.rank).map(
        lambda e: tuple(s * x for s, x in zip(theory.effective_signs, e)))


def effective_series(theory):
    """Sparse series on effective exponents (and the zero exponent) of
    effective degree <= 6, with nonzero integer coefficients."""
    exponent = effective_exponents(theory, 3)
    return st.dictionaries(exponent.filter(lambda e: eff_degree(theory, e) <= 6),
                           st.integers(-5, 5).filter(bool), max_size=8)


@pytest.mark.parametrize("name", ["pentagon", *sorted(DEGREES)])
def test_packed_keys_add_like_exponents(name):
    # a key round-trips, its top field is the degree, and while the sum's
    # degree is at most MAX_N the keys of two exponents add to the key of
    # their sum (every field, the degree's included, adds with no carry)
    theory = _theory(name)
    top, last = ks.MAX_N // theory.rank, theory.unit(theory.rank - 1)
    edge = tuple(theory.effective_signs[-1] * x for x in last)
    shift = theory.rank * ks.WIDTH

    @given(effective_exponents(theory, top), effective_exponents(theory, top))
    @example(tuple(ks.MAX_N * x for x in edge), theory.zero())
    @example(tuple((ks.MAX_N - 1) * x for x in edge), edge)
    @settings(max_examples=200, deadline=None)
    def check(a, b):
        total = tuple(x + y for x, y in zip(a, b))
        for e in (a, b):
            assert ks.unpack(theory, ks.pack(theory, e)) == e
            assert ks.pack(theory, e) >> shift == eff_degree(theory, e)
        if eff_degree(theory, total) <= ks.MAX_N:
            assert ks.pack(theory, a) + ks.pack(theory, b) == \
                ks.pack(theory, total)
            assert ks.unpack(theory, ks.pack(theory, total)) == total

    check()


@pytest.mark.parametrize("name", ["pentagon", *sorted(DEGREES)])
def test_binomial_kernel_matches_reference_power(name):
    # (1 - sigma x_gamma)^k from gamma's key, degree and sigma alone is the
    # reference power of the series 1 - sigma x_gamma, term for term; at
    # N = MAX_N the key of every term is the key of its exponent, so the
    # packed fields of j gamma do not carry
    theory = _theory(name)
    signs = theory.effective_signs
    for e in product(range(4), repeat=theory.rank):
        gamma = tuple(s * x for s, x in zip(signs, e))
        deg = eff_degree(theory, gamma)
        if not theory.is_effective(gamma) or deg > 3:
            continue
        sg = theory.sigma_value(gamma)
        one_minus = {theory.zero(): 1, gamma: -sg}
        for N in sorted({0, 1, deg, 2 * deg, ks.MAX_N}):
            for k in range(-5, 6):
                got = ks._binomial(ks.pack(theory, gamma), deg, sg, k, N)
                want = ref.series_pow(theory, one_minus, k, N)
                assert got == packed(theory, want), (gamma, k, N)
                assert all(type(c) is int for c in got.values())


@pytest.mark.parametrize("name", ["nf0", "nf1"])
def test_pruned_series_mul_matches_reference(name):
    # nf1's cone has a -1 sign: the degree of (0, 0, -1) is 1, not -1
    theory = theory_by_name(name)

    @given(effective_series(theory), effective_series(theory),
           st.integers(0, 13))
    @settings(max_examples=200, deadline=None)
    def check(a, b, N):
        got = ks.series_mul(theory, packed(theory, a), packed(theory, b), N)
        assert all(type(c) is int for c in got.values())
        assert unpacked(theory, got) == ref.series_mul(theory, a, b, N)

    check()


def effective_charge(theory, N):
    """Effective charges of degree <= N + 1, non-primitive ones included
    (a charge above N gives the identity operator)."""
    return effective_exponents(theory, 2).filter(
        lambda g: theory.is_effective(g) and eff_degree(theory, g) <= N + 1)


@pytest.mark.parametrize("name", ["pentagon", *sorted(DEGREES), "radical",
                                  "mixed"])
def test_random_products_match_reference(name):
    # Omega = 0 fixes every term, and a charge paired to zero with some
    # x_mu (every charge with itself) leaves k = 0 terms next to k != 0 ones;
    # on "radical" a whole column is zero, and on "mixed" two x_mu share a
    # multiplier though their basis charges have opposite effective signs
    theory = _theory(name)
    N = 3 if theory.rank > 3 else 4

    @given(st.lists(st.tuples(effective_charge(theory, N), st.integers(-2, 2)),
                    max_size=4).flatmap(
        lambda states: st.permutations(states + states[:1])))
    @example([(tuple(theory.effective_signs), 0)])
    @example([(tuple(theory.effective_signs), 1), (theory.unit(0), -1),
              (tuple(theory.effective_signs), 1)])
    @settings(max_examples=100, deadline=None)
    def check(states):
        _assert_same_product(theory, states, N)

    check()
