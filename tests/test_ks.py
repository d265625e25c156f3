import dataclasses
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from wallcross import ks
from wallcross.cli import main
from wallcross.ks import (compose, eff_degree, infer_weak_spectrum,
                          series_mul, verify_wall_identity)
from wallcross.js import js_wallcross
from wallcross.lattice import CATALOG, MINUS, PLUS, Theory, theory_by_name
from wallcross.spectrum import (SpectrumTable, UnknownSpectrumError,
                                spectrum_table, strong_table)

N = 8
DATA = Path(__file__).parent / "data"


def identity(theory):
    return tuple({theory.zero(): 1} for _ in range(theory.rank))


def packed(theory, s):
    return {ks.pack(theory, e): c for e, c in s.items()}


def unpacked(theory, s):
    return {ks.unpack(theory, key): c for key, c in s.items()}


def binomial(theory, gamma, k, n):
    """(1 - sigma(gamma) x_gamma)^k through effective degree n, from the
    kernel that compose builds its powers with."""
    return ks._binomial(ks.pack(theory, gamma), eff_degree(theory, gamma),
                        theory.sigma_value(gamma), k, n)


def test_series_arithmetic(nf0):
    a = packed(nf0, {(0, 0): 1, (1, 0): 2})
    sq = series_mul(nf0, a, a, N)
    assert unpacked(nf0, sq) == {(0, 0): 1, (1, 0): 4, (2, 0): 4}
    one_plus_g = packed(nf0, {(0, 0): 1, (1, 1): 1})
    assert unpacked(nf0, series_mul(nf0, sq, one_plus_g, 2)) == {
        (0, 0): 1, (1, 0): 4, (2, 0): 4, (1, 1): 1}


def test_series_pow_truncates(nf0):
    # (1 - x_d)^5 through degree 3: sigma(d) = 1, coefficient of x_d^3 is -10
    p = unpacked(nf0, binomial(nf0, (1, 0), 5, 3))
    assert p == {(0, 0): 1, (1, 0): -5, (2, 0): 10, (3, 0): -10}
    # (1 - x_g)^-3 with g of degree 2: C(-3, 2) = 6 at x_g^2 = degree 4
    q = unpacked(nf0, binomial(nf0, (1, 1), -3, 5))
    assert q == {(0, 0): 1, (1, 1): 3, (2, 2): 6}


@pytest.mark.parametrize("k", range(-4, 5))
def test_binomial_series_inverse(k, nf0, nf1):
    for theory, gamma in ((nf0, (1, 0)), (nf0, (1, 2)), (nf1, (1, 1, -1))):
        a = binomial(theory, gamma, k, N)
        b = binomial(theory, gamma, -k, N)
        assert all(eff_degree(theory, e) <= N for e in unpacked(theory, a))
        assert all(type(c) is int for c in a.values())
        assert unpacked(theory, series_mul(theory, a, b, N)) == {
            theory.zero(): 1}


@pytest.mark.parametrize("name,gamma,omega", [
    ("nf2", (1, -1, 0, 0), 1), ("nf0", (1, -1), 2), ("nf1", (0, 0, 1), 1),
    ("nf0", (0, 0), 1), ("nf0", (1, -1), 0)])
def test_compose_refuses_a_non_effective_state(name, gamma, omega):
    # (1, -1, 0, 0) pairs to 0 with every basis vector of nf2, so no
    # binomial series is ever built for it: the check sits in compose
    theory = theory_by_name(name)
    with pytest.raises(ValueError, match="is not effective"):
        compose(theory, [((1,) + (0,) * (theory.rank - 1), 1), (gamma, omega)],
                4)


def test_compose_refuses_a_degree_above_max_n(nf0):
    with pytest.raises(ValueError, match=f"at most {ks.MAX_N}, got"):
        compose(nf0, [((1, 0), 1)], ks.MAX_N + 1)


def test_truncation_degree_outside_0_to_max_n_is_refused(nf0):
    # a product truncated below degree 0 would send every x_mu to 0
    with pytest.raises(ValueError, match="at least 0, got -1"):
        compose(nf0, [((1, 0), 1), ((0, 1), 1)], -1)


@pytest.mark.parametrize("argv", [
    ("nf0", "--N", "10", "--against-table"),
    ("nf1", "--N", "5", "--against-table"),
    ("nf2", "--N", "6", "--against-table"),
    ("nf3", "--N", "6"),
    ("nf2", "--N", "12", "--against-table"),
    ("nf3", "--N", "9")])
def test_ks_oracle_reports_are_frozen(capsys, argv):
    # reports of earlier versions of the products, byte for byte; the
    # last two reach larger exponents than the nf2 and nf3 reports above
    # (|k| up to 34 and 16, against 12)
    name, _, n, *against = argv
    assert main(["ks-oracle", *argv]) == 0
    frozen = DATA / (f"ks_oracle_{name}_N{n}"
                     + ("_against_table" if against else "") + ".json")
    assert capsys.readouterr().out == frozen.read_text()


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


# rank 3 with <e0, e2> = 1 only, on geometry g0: e1 pairs to zero with
# every basis charge
RADICAL_THEORY = Theory(name="r3", basis=("e0", "e1", "e2"),
                        pairing=((0, 0, 1), (0, 0, 0), (-1, 0, 0)),
                        z_plus=((-3, 20), (1, 20), (4, 20)),
                        z_minus=((3, 20), (-1, 21), (-4, 20)),
                        effective_signs=(1, 1, 1), root_index=0)


def test_infer_refuses_a_charge_in_the_radical(monkeypatch):
    # every operator of k e1 is the identity, so no product shows
    # Omega(k e1); the peeling read 0 there and called its table complete,
    # while js gives DT(0, 2, 0) = 1/4.  The refusal comes before any
    # product is built
    th = RADICAL_THEORY
    assert js_wallcross(th, strong_table(th), (0, 2, 0)) == Fraction(1, 4)

    def never(*args):
        raise AssertionError("compose called")
    monkeypatch.setattr(ks, "compose", never)
    with pytest.raises(ks.FactorizationError,
                       match=r"charge \(0, 1, 0\) of degree 1 pairs to zero"):
        infer_weak_spectrum(th, strong_table(th), 3)


def test_radical_refusal_names_the_lowest_degree_charge():
    # <e0, e2> = 1 and <e1, e2> = -1: no basis charge is in the radical,
    # e0 + e1 is, so N = 1 passes and N = 2 names (1, 1, 0)
    th = dataclasses.replace(RADICAL_THEORY, name="r3b",
                             pairing=((0, 0, 1), (0, 0, -1), (-1, 1, 0)))
    assert infer_weak_spectrum(th, strong_table(th), 1).entries == \
        strong_table(th).entries
    with pytest.raises(ks.FactorizationError,
                       match=r"r3b: the effective charge \(1, 1, 0\) of degree 2"):
        infer_weak_spectrum(th, strong_table(th), 2)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_no_catalog_theory_has_a_charge_in_the_radical(name):
    # nf1's radical is spanned by (1, 1, 1) against signs (1, 1, -1), and
    # nf2's and nf3's by differences of flavour copies: none is effective
    ks._check_radical(CATALOG[name], ks.MAX_N)


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


# one nf2 basis copy moved to Z+ (-3, 20), Z- (2, 20): either weak side
# then puts charges that pair to +-1 on one ray, so it lies on a wall.
# The tie-break by charge used to pick the answer: the g1_1 move lost
# (1,1,1,2) and (1,1,2,1), the g2_1 move gave the catalog table, though
# swapping the two copies maps one move onto the other
@pytest.mark.parametrize("i,a,b,p", [(0, (0, 1, 0, 1), (1, 0, 1, 1), 1),
                                     (1, (0, 1, 1, 1), (1, 0, 0, 1), -1)],
                         ids=["g1_1", "g2_1"])
def test_infer_refuses_a_weak_side_on_a_wall(nf2, i, a, b, p):
    zp, zm = list(nf2.z_plus), list(nf2.z_minus)
    zp[i], zm[i] = (-3, 20), (2, 20)
    moved = dataclasses.replace(nf2, z_plus=tuple(zp), z_minus=tuple(zm))
    with pytest.raises(ks.FactorizationError, match=re.escape(
            f"nf2: Z- puts {a} and {b} on one ray, but they pair to {p}, "
            f"so the region lies on a wall of marginal stability")):
        infer_weak_spectrum(moved, spectrum_table("nf2", "strong"), 5)


def test_product_refuses_non_commuting_operators_on_one_ray(nf0, nf2):
    # nf0's d and m on one strong-side ray pair to 2: no order of theirs
    # is the physical one.  nf2's flavour copies share a ray on both sides
    # and pair to 0, so their order is free and the products are built
    on_wall = dataclasses.replace(nf0, z_plus=((0, 20), (0, 20)))
    with pytest.raises(ks.FactorizationError, match=re.escape(
            "nf0: Z+ puts (0, 1) and (1, 0) on one ray, but they pair to "
            "-2")):
        ks.spectrum_auto(on_wall, strong_table(nf0), PLUS, 3)
    for table, side in ((spectrum_table("nf2", "strong"), PLUS),
                        (spectrum_table("nf2", "weak"), MINUS)):
        ks.spectrum_auto(nf2, table, side, 3)


def test_ties_are_checked_once_per_product(monkeypatch, nf0):
    # where the cache builds a product, not on every _operators call: an
    # inference checks its strong and final weak product, and a wall
    # check of the same tables reads both from the cache
    checked = []
    check_ties = ks._check_ties

    def counted(theory, region, states):
        checked.append(region)
        return check_ties(theory, region, states)

    monkeypatch.setattr(ks, "_check_ties", counted)
    strong = spectrum_table("nf0", "strong")
    weak = infer_weak_spectrum(nf0, strong, 6)
    assert verify_wall_identity(nf0, strong, weak, 6) == (True, 6)
    assert checked == [PLUS, MINUS]


def _count_inference_work(monkeypatch, theory, n):
    """Infer the theory's weak spectrum through degree n, counting the
    binomials and series products built, the term pairs those products
    form, the operators composed, and sigma reads inside compose."""
    calls = {"_binomial": 0, "series_mul": 0}
    pairs = operators = sigmas = 0
    composing = False
    for name in calls:
        def counted(*args, _name=name, _f=getattr(ks, name)):
            nonlocal pairs
            calls[_name] += 1
            if _name == "series_mul":
                pairs += len(args[1]) * len(args[2])
            return _f(*args)
        monkeypatch.setattr(ks, name, counted)

    def counted_compose(theory, states, N, _f=ks.compose):
        nonlocal operators, composing
        operators += len(states)
        composing = True
        try:
            return _f(theory, states, N)
        finally:
            composing = False

    def counted_sigma(self, gamma, _f=Theory.sigma_value):
        nonlocal sigmas
        sigmas += composing
        return _f(self, gamma)
    monkeypatch.setattr(ks, "compose", counted_compose)
    monkeypatch.setattr(Theory, "sigma_value", counted_sigma)
    ks.infer_weak_spectrum(theory, strong_table(theory), n)
    return calls, pairs, operators, sigmas


def test_compose_builds_each_binomial_once_per_operator(monkeypatch, nf2):
    """Each operator builds (1 - sigma x_gamma)^k once per k and shares it
    across the x_mu: inferring nf2 at N = 5 builds 190 binomials and
    makes 246 series_mul calls, pairing 3,284 terms in all.  nf2's four
    basis charges have two distinct pairing columns, e0 = e1 and e2 = e3
    (the flavour copies), and compose builds one multiplier per distinct
    column, so the series products are half of the 492 (6,568 pairs) that
    one multiplier per x_mu made.  Every x_mu building its own binomials
    would make 492 of those; before each peeling step was truncated at its
    own degree and the strong product built once, the counts were 208 and
    540.  Each of the 58 operators reads sigma(gamma) once for all its
    powers, not once per power."""
    calls, pairs, operators, sigmas = _count_inference_work(monkeypatch, nf2, 5)
    assert calls == {"_binomial": 190, "series_mul": 246}
    assert pairs == 3284
    assert (operators, sigmas) == (58, 58)


def test_flavour_copies_share_one_multiplier(monkeypatch, nf3):
    """nf3's five basis charges have two distinct pairing columns (e0 to
    e3 are flavour copies), so inferring it at N = 5 builds the
    multipliers of e0 and e4 only: 378 series_mul calls pairing 5,455
    terms, against 801 and 11,434 with one multiplier per x_mu.  The
    binomials, operators and sigma reads do not depend on how many x_mu
    are built."""
    calls, pairs, operators, sigmas = _count_inference_work(monkeypatch, nf3, 5)
    assert calls == {"_binomial": 274, "series_mul": 378}
    assert pairs == 5455
    assert (operators, sigmas) == (77, 77)


@pytest.mark.parametrize("name", ["pentagon", "nf0", "nf1", "nf2", "nf3"])
def test_operator_exponent_is_omega_times_pairing(name):
    # one operator maps x_mu to x_mu (1 - sigma x_gamma)^k with
    # k = Omega <gamma, e_mu>: compose reads each k off its pairing row
    theory = pentagon_theory() if name == "pentagon" else theory_by_name(name)
    signs = theory.effective_signs
    charges = [tuple(s * x for s, x in zip(signs, e))
               for e in product(range(3), repeat=theory.rank)]
    for gamma in charges:
        if not theory.is_effective(gamma) or eff_degree(theory, gamma) > 3:
            continue
        for omega in (-2, -1, 1, 3):
            got = compose(theory, [(gamma, omega)], 3)
            for mu, g in enumerate(got):
                k = omega * theory.pair(gamma, theory.unit(mu))
                assert g == unpacked(
                    theory, binomial(theory, gamma, k, 3)), (gamma, mu)


def test_infer_builds_each_product_at_the_degree_it_reads(monkeypatch, nf0):
    # the strong product once at N, peeling step d at d, then the weak
    # product of the inferred table at N for the final check
    degrees = []

    def counted(theory, states, N, _f=ks.compose):
        degrees.append(N)
        return _f(theory, states, N)
    monkeypatch.setattr(ks, "compose", counted)
    ks.infer_weak_spectrum(nf0, spectrum_table("nf0", "strong"), 4)
    assert degrees == [4, 1, 2, 3, 4, 4]


def test_an_inference_caches_its_strong_and_final_products(monkeypatch, nf0):
    # the peeling steps bypass the cache: what stays is the strong product
    # at N and the weak product of the inferred table at N, which a wall
    # check of the same tables then reads without building anything
    strong = spectrum_table("nf0", "strong")
    weak = ks.infer_weak_spectrum(nf0, strong, 6)
    assert ks._product.cache_info().currsize == 2

    def never(*args):
        raise AssertionError("compose called")
    monkeypatch.setattr(ks, "compose", never)
    assert verify_wall_identity(nf0, strong, weak, 6) == (True, 6)


def test_cached_product_does_not_hide_a_wrong_table(monkeypatch, nf0):
    # the cache is keyed by every Omega: one wrong exponent is a new
    # product, built and found wrong after the right one was cached
    strong = spectrum_table("nf0", "strong")
    weak = spectrum_table("nf0", "weak")
    assert verify_wall_identity(nf0, strong, weak, N) == (True, N)
    bad = SpectrumTable(weak.theory, weak.region, weak.truncation,
                        weak.complete, weak.covered_degree,
                        {**weak.entries, (1, 2): 2})
    degrees = []

    def counted(theory, states, n, _f=ks.compose):
        degrees.append(n)
        return _f(theory, states, n)
    monkeypatch.setattr(ks, "compose", counted)
    assert verify_wall_identity(nf0, strong, bad, N) == (False, 2)
    assert degrees == [N]
    assert verify_wall_identity(nf0, strong, weak, N) == (True, N)
    assert degrees == [N]


def test_verify_rejects_a_table_below_N(nf0):
    # K = 1 lists nf0's weak states through degree 3 only: at N = 4 the
    # check would miss the degree-4 operators, not find a broken identity
    strong = spectrum_table("nf0", "strong")
    weak = spectrum_table("nf0", "weak", K=1)
    assert verify_wall_identity(nf0, strong, weak, 3) == (True, 3)
    with pytest.raises(UnknownSpectrumError):
        verify_wall_identity(nf0, strong, weak, 4)


def test_degree_above_max_n_is_rejected_before_any_product(monkeypatch, nf0):
    # the check sits at the entry: no product is built first
    def never(*args):
        raise AssertionError("compose called")
    monkeypatch.setattr(ks, "compose", never)
    strong = spectrum_table("nf0", "strong")
    for check in (lambda: ks.spectrum_auto(nf0, strong, PLUS, ks.MAX_N + 1),
                  lambda: infer_weak_spectrum(nf0, strong, ks.MAX_N + 1),
                  lambda: verify_wall_identity(nf0, strong, strong,
                                               ks.MAX_N + 1)):
        with pytest.raises(ValueError, match=f"at most {ks.MAX_N}, got"):
            check()
