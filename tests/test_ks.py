from fractions import Fraction

import pytest

from wallcross.ks import (FactorizationError, agreement_degree, compose,
                          eff_degree, identity_auto, infer_weak_spectrum,
                          ks_auto, series_mul, series_one,
                          series_pow, spectrum_auto, verify_wall_identity)
from wallcross.lattice import MINUS, PLUS, Theory, theory_by_name
from wallcross.spectrum import SpectrumTable, spectrum_table

Q = Fraction

N = 8


def x(*coords):
    return {tuple(coords): Q(1)}


def test_series_arithmetic(nf0):
    one = series_one(nf0)
    a = {**one, (1, 0): Q(2)}
    sq = series_mul(nf0, a, a, N)
    assert sq[(2, 0)] == 4
    assert sq[(1, 0)] == 4
    inv = series_pow(nf0, a, -1, N)
    assert series_mul(nf0, a, inv, N) == one


def test_series_pow_truncates(nf0):
    a = {**series_one(nf0), (1, 0): Q(1)}
    p = series_pow(nf0, a, 5, 3)
    assert all(eff_degree(nf0, e) <= 3 for e in p)
    assert p[(3, 0)] == 10


def test_basic_operator_action(nf0):
    # the operator of gamma multiplies x_mu by (1 - sigma x_gamma)^<gamma,mu>
    d = (1, 0)
    mults = ks_auto(nf0, d, 1, N).mults
    # x_m -> x_m (1 - x_d)^2 since <d, m> = 2 and sigma(d) = 1
    assert mults[1] == {(0, 0): Q(1), d: Q(-2), (2, 0): Q(1)}
    # x_d is fixed by its own operator
    assert mults[0] == series_one(nf0)


def test_compose_identity(nf0):
    auto = ks_auto(nf0, (1, 0), 1, N)
    assert compose(nf0, [auto, identity_auto(nf0, N)], N).mults == auto.mults


def test_inverse_operator(nf0):
    g = (1, 1)
    both = compose(nf0, [ks_auto(nf0, g, 1, N), ks_auto(nf0, g, -1, N)], N)
    assert agreement_degree(nf0, both, identity_auto(nf0, N), N) >= N


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
                  effective_signs=(1, 1), root_index=0, sigma_trivial=False)


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
