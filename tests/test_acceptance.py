"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with -s or read the -v listing);
together they pin every headline number the package is supposed to
reproduce, at the stated tolerances and time budgets.
"""
import time
from fractions import Fraction

import pytest

from wallcross import tba
from wallcross.cli import RESIDUE_MOVE_REL_TOL
from wallcross.decay import conjecture_check, gmn_contribution, run_decay
from wallcross.gmn import enumerate_diagrams, weight_W
from wallcross.js import js_wallcross, s_symbol, u_symbol
from wallcross.ks import eff_degree, infer_weak_spectrum, verify_wall_identity
from wallcross.lattice import PLUS, Theory, theory_by_name
from wallcross.spectrum import SpectrumTable, spectrum_table
from wallcross.symbolic import Value
from wallcross.trees import enumerate_labelled_trees

from conftest import diagram_by_describe

Q = Fraction


def report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


# -- 1. headline invariants --------------------------------------------------

def test_acceptance_1_headline_invariants(nf0, nf0_strong):
    t0 = time.perf_counter()
    vector = js_wallcross(nf0, nf0_strong, (1, 1))
    dyon = js_wallcross(nf0, nf0_strong, (1, 2))
    elapsed = time.perf_counter() - t0
    report("vector multiplet index -2, dyon index 1, exact, under 1s",
           vector == -2 and dyon == 1 and elapsed < 1.0)


# -- 2. combinatorial symbols ------------------------------------------------

D, M = (1, 0), (0, 1)
G1, G2, MG3 = (1, 0, 0), (0, 1, 0), (0, 0, -1)
A2, B2 = (1, 0, 0, 0), (0, 1, 0, 0)
C2, E2 = (0, 0, 1, 0), (0, 0, 0, 1)
U1, U2 = (1, 0, 0, 0, 0), (0, 1, 0, 0, 0)
U3, U4, T2 = (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 2)

U_TABLE = [
    ("nf0", [D, M], Q(1)), ("nf0", [M, D], Q(-1)),
    ("nf0", [D, (0, 2)], Q(1)), ("nf0", [(0, 2), D], Q(-1)),
    ("nf0", [D, M, M], Q(1, 2)), ("nf0", [M, D, M], Q(-1)),
    ("nf0", [M, M, D], Q(1, 2)),
    ("nf1", [G1, G2, MG3], Q(-1, 2)), ("nf1", [G1, MG3, G2], Q(1)),
    ("nf1", [MG3, G1, G2], Q(-1, 2)), ("nf1", [G2, G1, MG3], Q(-1, 2)),
    ("nf1", [G2, MG3, G1], Q(1)), ("nf1", [MG3, G2, G1], Q(-1, 2)),
    ("nf2", [A2, B2, C2, E2], Q(1, 4)), ("nf2", [A2, C2, B2, E2], Q(-1, 2)),
    ("nf2", [A2, C2, E2, B2], Q(0)), ("nf2", [C2, A2, B2, E2], Q(0)),
    ("nf2", [C2, E2, A2, B2], Q(-1, 4)), ("nf2", [C2, A2, E2, B2], Q(1, 2)),
    ("nf3", [U1, U2, U3, U4, T2], Q(1, 24)),
    ("nf3", [U1, U2, U3, T2, U4], Q(-1, 6)),
    ("nf3", [U1, U2, T2, U3, U4], Q(1, 4)),
    ("nf3", [U1, T2, U2, U3, U4], Q(-1, 6)),
    ("nf3", [T2, U1, U2, U3, U4], Q(1, 24)),
]

S_TABLE = [
    ("nf0", [D, (0, 2)], 1), ("nf0", [(0, 2), D], -1),
    ("nf0", [D, M, M], 0), ("nf0", [M, D, M], -1), ("nf0", [M, M, D], 1),
    ("nf1", [G1, G2, MG3], 0), ("nf1", [G1, MG3, G2], 1),
    ("nf1", [MG3, G1, G2], 0), ("nf1", [G2, G1, MG3], -1),
    ("nf1", [G2, MG3, G1], 1), ("nf1", [MG3, G2, G1], -1),
]


def test_acceptance_2_ordering_symbols():
    ok = True
    for name, alphas, want in U_TABLE:
        th = theory_by_name(name)
        got = u_symbol(th, alphas)
        ok = ok and got == want
    for name, alphas, want in S_TABLE:
        th = theory_by_name(name)
        got = s_symbol(th, alphas)
        ok = ok and got == want
    report(f"all {len(U_TABLE)} U and {len(S_TABLE)} S ordering symbols "
           "take their catalogued values", ok)


# -- 3. diagram weights ------------------------------------------------------

def test_acceptance_3_diagram_weights(nf0, nf0_strong, nf1, nf2, nf3):
    cases = [
        (nf0, nf0_strong, (1, 1), "(1+0)[(0+1)]", Value.rational(2)),
        (nf0, nf0_strong, (1, 2), "(1+0)[(0+1),(0+1)]", Value.rational(-2)),
        (nf0, nf0_strong, (2, 3), "(1+0)[(0+1)[(1+0)[(0+2)]]]",
         Value.rational(-4)),
        (nf0, nf0_strong, (2, 3), "(1+0)[(0+1)[(1+0)[(0+1),(0+1)]]]",
         Value.rational(8)),
        (nf1, spectrum_table("nf1", "strong"), (1, 1, -1),
         "(1+0+0)[(0+1+0)[(0+0+-1)]]", Value.rational(-1)),
        (nf1, spectrum_table("nf1", "strong"), (1, 1, -1),
         "(1+0+0)[(0+0+-1)[(0+1+0)]]", Value.rational(1)),
        (nf2, spectrum_table("nf2", "strong"), (1, 1, 1, 1),
         "(1+0+0+0)[(0+0+0+1)[(0+1+0+0)[(0+0+1+0)]]]", Value.rational(-1)),
        (nf3, spectrum_table("nf3", "strong"), (1, 1, 1, 1, 2),
         "(1+0+0+0+0)[(0+0+0+0+2)[(0+0+0+1+0),(0+0+1+0+0),(0+1+0+0+0)]]",
         Value.rational(4)),
    ]
    ok = True
    for th, table, target, text, want in cases:
        d = diagram_by_describe(th, table, target, text, max_vertices=5)
        ok = ok and weight_W(th, table, d) == want
    report("diagram weights 2, -2, -4, 8, -1, 1, -1, 4 (coefficients of "
           "sigma(target)) on the catalogued framings", ok)


# -- 4. decay contributions --------------------------------------------------

def test_acceptance_4_decay_contributions(nf0, nf0_strong):
    ok = True
    # the vanishing chain
    chain = diagram_by_describe(nf0, nf0_strong, (2, 3),
                                "(1+0)[(0+1)[(1+0)[(0+2)]]]")
    ok = ok and gmn_contribution(
        nf0, chain, weight_W(nf0, nf0_strong, chain)) == Value.zero()
    # the two framings that first split off 2gamma_m contribute -4 each
    for text in ["(1+0)[(0+1),(0+2)[(1+0)]]", "(1+0)[(0+2)[(1+0)[(0+1)]]]"]:
        d = diagram_by_describe(nf0, nf0_strong, (2, 3), text)
        ok = ok and gmn_contribution(
            nf0, d, weight_W(nf0, nf0_strong, d)) == Value.rational(-4)
    # the worked star's two surviving singletons cancel: +1 - 1 = 0
    star = diagram_by_describe(nf0, nf0_strong, (2, 3),
                               "(1+0)[(0+1)[(1+0)[(0+1),(0+1)]]]")
    ok = ok and run_decay(nf0, star).eps_sum == 0
    # the basic chain leaves one singleton
    basic = diagram_by_describe(nf0, nf0_strong, (1, 1), "(1+0)[(0+1)]")
    ok = ok and run_decay(nf0, basic).eps_sum == 1
    report("decay contributions: vanishing chain 0, two -4 framings, "
           "star cancellation, basic chain singleton", ok)


# -- 5. the full agreement catalog ------------------------------------------

CATALOG = [("nf0", (1, 1), None), ("nf0", (1, 2), None),
           ("nf0", (2, 3), None), ("nf1", (1, 1, -1), None),
           ("nf2", (1, 1, 1, 1), None), ("nf3", (1, 1, 1, 1, 2), 5)]


def test_acceptance_5_agreement_catalog():
    t0 = time.perf_counter()
    ok = True
    for name, target, mv in CATALOG:
        th = theory_by_name(name)
        rep = conjecture_check(th, target, max_vertices=mv)
        ok = ok and rep.ok
        if name == "nf1":
            ok = ok and set(rep.ledger.values()) == {Q(-1, 2)}
        if name == "nf2":
            ok = ok and sorted(rep.ledger.values()) == \
                [Q(-1, 2), Q(-1, 2), Q(1, 2), Q(1, 2)]
            ok = ok and len(rep.constraints) == 2
        if name == "nf0" and target == (2, 3):
            ok = ok and len(rep.free_symbols) == 1
        if name == "nf3":
            (tc,) = rep.trees.values()
            ok = ok and tc.js_total == Value.rational(4)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(f"both wall-crossing computations agree on all {len(CATALOG)} "
           f"catalog targets in {elapsed:.1f}s", ok)


# -- 6. ordered-product oracle ----------------------------------------------

def test_acceptance_6_ordered_product_oracle(nf0):
    ok = True
    # weak spectrum of the basic theory recovered exactly through degree 8
    strong = spectrum_table("nf0", "strong")
    weak = spectrum_table("nf0", "weak")
    got = infer_weak_spectrum(nf0, strong, 8)
    want = {g: w for g, w in weak.entries.items() if eff_degree(nf0, g) <= 8}
    ok = ok and got.entries == want
    # pentagon identity on a rank-2 lattice with a single crossing
    f = Fraction
    pent = Theory(name="pentagon", basis=("g1", "g2"),
                  pairing=((0, 1), (-1, 0)),
                  z_plus=((f(-1), f(10)), (f(1), f(10))),
                  z_minus=((f(1, 2), f(10)), (f(-1, 2), f(10))),
                  effective_signs=(1, 1), root_index=0)
    pent_strong = SpectrumTable("pentagon", PLUS, None, True, None,
                                {(1, 0): 1, (0, 1): 1})
    pgot = infer_weak_spectrum(pent, pent_strong, 10)
    ok = ok and pgot.entries == {(1, 0): 1, (1, 1): 1, (0, 1): 1}
    # round trip on the whole catalog
    for name, n in [("nf0", 8), ("nf1", 4), ("nf2", 5), ("nf3", 5)]:
        th = theory_by_name(name)
        st = spectrum_table(name, "strong")
        inferred = infer_weak_spectrum(th, st, n)
        rt_ok, deg = verify_wall_identity(th, st, inferred, n)
        ok = ok and rt_ok and deg >= n
    report("ordered-product oracle: exact weak spectrum, pentagon identity, "
           "round trips on all four theories", ok)


# -- 7. numeric quadrature checks -------------------------------------------

SPEC = tba.QuadratureSpec(nodes=400, T=6.0, tol=1e-10)
ZETA = 3.0 + 0.2j


def test_acceptance_7a_residue_move():
    t0 = time.perf_counter()
    zc = tba.near_wall_context(R=3.0, scale=0.1, side="mid")
    _, rhs, err = tba.residue_move_check(zc, (1, 0), (0, 1),
                                         1 + 10j, -0.5 + 10j, ZETA, SPEC)
    elapsed = time.perf_counter() - t0
    # |rhs| is about 1e-18, so the absolute bound alone holds for any lhs
    rel = err / abs(rhs)
    report(f"contour-move identity holds to {err:.1e} (< 1e-8), "
           f"{rel:.1e} relative (<= {RESIDUE_MOVE_REL_TOL:g}) in {elapsed:.1f}s",
           err < 1e-8 and rel <= RESIDUE_MOVE_REL_TOL and elapsed < 30.0)


def test_acceptance_7b_scale_invariance():
    t0 = time.perf_counter()
    ok = True
    for q in (1, 2):
        rel = tba.scale_invariance_check(tba.OVModel(q=q), ZETA, spec=SPEC)
        ok = ok and rel < 1e-6
    elapsed = time.perf_counter() - t0
    report(f"scale-invariance identity under 1e-6 for q=1,2 "
           f"in {elapsed:.1f}s", ok and elapsed < 30.0)


def test_acceptance_7c_decay_slope():
    t0 = time.perf_counter()
    zc = tba.near_wall_context(R=3.0, scale=0.1)
    slope = tba.decay_slope(zc, [(1, 0), (0, 1)] * 2, ZETA, SPEC)
    elapsed = time.perf_counter() - t0
    report(f"iterated-integral decay slope {slope:.1f} (<= -1.5) "
           f"in {elapsed:.1f}s", slope <= -1.5 and elapsed < 30.0)


def test_acceptance_7d_fixed_point():
    t0 = time.perf_counter()
    res = tba.ov_fixed_point_residual(tba.OVModel(), ZETA, SPEC)
    elapsed = time.perf_counter() - t0
    report(f"integral-equation fixed point residual {res:.1e} "
           f"(< 1e-9) in {elapsed:.1f}s", res < 10 * SPEC.tol
           and elapsed < 30.0)


# -- 8. structural properties -----------------------------------------------

def test_acceptance_8_structural_properties():
    ok = True
    # refinement sign is a twisted homomorphism on a coordinate box
    th = theory_by_name("nf2")
    from itertools import product
    box = list(product(range(-2, 3), repeat=2))
    for (a1, a2), (b1, b2) in product(box, repeat=2):
        a = (a1, a2, 0, 0)
        b = (0, b1, b2, 0)
        lhs = th.sigma_value(a) * th.sigma_value(b)
        rhs = (-1) ** th.pair(a, b) * th.sigma_value(
            tuple(x + y for x, y in zip(a, b)))
        ok = ok and lhs == rhs
    # labelled tree counts
    for n in range(1, 7):
        expect = 1 if n <= 2 else n ** (n - 2)
        ok = ok and len(enumerate_labelled_trees(n)) == expect
    # index symmetry under charge negation
    t = spectrum_table("nf0", "weak")
    ok = ok and all(t.omega(tuple(-x for x in g)) == t.omega(g)
                    for g in t.charges())
    # decay terminates on every catalogued diagram up to six vertices
    for name, target, mv in CATALOG:
        th = theory_by_name(name)
        table = spectrum_table(name, "strong")
        for diag in enumerate_diagrams(th, table, target,
                                       max_vertices=min(mv or 6, 6)):
            trace = run_decay(th, diag)
            ok = ok and trace.eps_sum.denominator == 1
    report("structural properties: refinement cocycle, tree counts, "
           "index symmetry, decay termination", ok)
