from fractions import Fraction

import pytest

from wallcross.ks import (binomial_series, compose, eff_degree,
                          infer_weak_spectrum, series_mul, verify_wall_identity)
from wallcross.lattice import PLUS, Theory, theory_by_name
from wallcross.spectrum import SpectrumTable, spectrum_table

N = 8


def identity(theory):
    return tuple({theory.zero(): 1} for _ in range(theory.rank))


def test_series_arithmetic(nf0):
    a = {(0, 0): 1, (1, 0): 2}
    sq = series_mul(nf0, a, a, N)
    assert sq == {(0, 0): 1, (1, 0): 4, (2, 0): 4}
    assert series_mul(nf0, sq, {(0, 0): 1, (1, 1): 1}, 2) == {
        (0, 0): 1, (1, 0): 4, (2, 0): 4, (1, 1): 1}


def test_series_pow_truncates(nf0):
    # (1 - x_d)^5 through degree 3: sigma(d) = 1, coefficient of x_d^3 is -10
    p = binomial_series(nf0, (1, 0), 5, 3)
    assert p == {(0, 0): 1, (1, 0): -5, (2, 0): 10, (3, 0): -10}
    # (1 - x_g)^-3 with g of degree 2: C(-3, 2) = 6 at x_g^2 = degree 4
    q = binomial_series(nf0, (1, 1), -3, 5)
    assert q == {(0, 0): 1, (1, 1): 3, (2, 2): 6}
    with pytest.raises(ValueError):
        binomial_series(nf0, (1, -1), 1, 3)


@pytest.mark.parametrize("k", range(-4, 5))
def test_binomial_series_inverse(k, nf0, nf1):
    for theory, gamma in ((nf0, (1, 0)), (nf0, (1, 2)), (nf1, (1, 1, -1))):
        a = binomial_series(theory, gamma, k, N)
        b = binomial_series(theory, gamma, -k, N)
        assert all(eff_degree(theory, e) <= N for e in a)
        assert all(type(c) is int for c in a.values())
        assert series_mul(theory, a, b, N) == {theory.zero(): 1}


def test_basic_operator_action(nf0):
    # the operator of gamma multiplies x_mu by (1 - sigma x_gamma)^<gamma,mu>
    d = (1, 0)
    mults = compose(nf0, [(d, 1)], N)
    # x_m -> x_m (1 - x_d)^2 since <d, m> = 2 and sigma(d) = 1
    assert mults[1] == {(0, 0): 1, d: -2, (2, 0): 1}
    # x_d is fixed by its own operator
    assert mults[0] == {(0, 0): 1}


def test_compose_identity(nf0):
    assert compose(nf0, [], N) == identity(nf0)
    assert compose(nf0, [((1, 0), 1), ((1, 1), 0)], N) == \
        compose(nf0, [((1, 0), 1)], N)


def test_inverse_operator(nf0, nf1):
    for theory, g in ((nf0, (1, 1)), (nf0, (1, 2)), (nf1, (1, 1, -1))):
        assert compose(theory, [(g, 1), (g, -1)], N) == identity(theory)
        assert compose(theory, [(g, -2), (g, 2)], N) == identity(theory)


def test_wall_identity_nf0(nf0):
    strong = spectrum_table("nf0", "strong")
    weak = spectrum_table("nf0", "weak")
    ok, deg = verify_wall_identity(nf0, strong, weak, N)
    assert ok and deg >= N


def test_wall_identity_detects_wrong_table(nf0):
    strong = spectrum_table("nf0", "strong")
    bad = spectrum_table("nf0", "weak")
    bad = SpectrumTable(bad.theory, bad.region, bad.truncation, bad.complete,
                        bad.covered_degree, {**bad.entries, (1, 1): -1})
    ok, deg = verify_wall_identity(nf0, strong, bad, N)
    assert not ok
    assert deg == 1  # the tampered entry sits at effective degree 2


def test_infer_weak_nf0(nf0):
    strong = spectrum_table("nf0", "strong")
    weak = spectrum_table("nf0", "weak")
    got = infer_weak_spectrum(nf0, strong, N)
    want = {g: w for g, w in weak.entries.items()
            if eff_degree(nf0, g) <= N}
    assert got.entries == want


def pentagon_theory():
    f = Fraction
    return Theory(name="pentagon", basis=("g1", "g2"),
                  pairing=((0, 1), (-1, 0)),
                  z_plus=((f(-1), f(10)), (f(1), f(10))),
                  z_minus=((f(1, 2), f(10)), (f(-1, 2), f(10))),
                  effective_signs=(1, 1), root_index=0)


def test_pentagon():
    th = pentagon_theory()
    strong = SpectrumTable("pentagon", PLUS, None, True, None,
                           {(1, 0): 1, (0, 1): 1})
    got = infer_weak_spectrum(th, strong, 10)
    assert got.entries == {(1, 0): 1, (1, 1): 1, (0, 1): 1}


@pytest.mark.parametrize("name,n", [("nf0", 8), ("nf1", 4),
                                    ("nf2", 5), ("nf3", 5)])
def test_round_trip_all_theories(name, n):
    th = theory_by_name(name)
    strong = spectrum_table(name, "strong")
    inferred = infer_weak_spectrum(th, strong, n)
    ok, deg = verify_wall_identity(th, strong, inferred, n)
    assert ok and deg >= n


@pytest.mark.parametrize("name,n", [("nf1", 4), ("nf2", 5)])
def test_inferred_matches_catalog(name, n):
    th = theory_by_name(name)
    strong = spectrum_table(name, "strong")
    weak = spectrum_table(name, "weak")
    got = infer_weak_spectrum(th, strong, n)
    want = {g: w for g, w in weak.entries.items()
            if eff_degree(th, g) <= n}
    assert got.entries == want
