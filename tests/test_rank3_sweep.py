"""The conjecture check on rank-3 quivers, where no two basis rays coincide.

Every catalog theory puts its basis charges on two rays, so the decay
calculus meets three distinct basis phases only here.  The basis is
e0, e1, e2 with <e0,e1> = a, <e1,e2> = b and <e0,e2> = c, framed by e0,
with every sign +1.  Five pairings (a, b, c) meet four geometries, all
chosen before any run, and each of the 20 cases is checked on the 20
targets with e0 >= 1 and degree at most 4.

KNOWN_FAILURES is a strict list: a target on it that starts to pass
fails the test as surely as a new failure does, so the list can only
shrink.  js is checked against the KS inference on the same theories,
as far as the pairing's radical lets the inference go.

The g4 cases are formal checks of js = gmn on a given table, not of the
physical claim: Reineke's recursion (arXiv:math/0204059) finds a
(0,1,1) bound state on g4's strong side, which the basis-only strong
table used here leaves out, so that table is not a stability chamber
of these quivers.
"""
import re
from fractions import Fraction
from itertools import product

import pytest

from wallcross.decay import conjecture_check
from wallcross.js import js_wallcross
from wallcross.ks import FactorizationError, infer_weak_spectrum
from wallcross.lattice import Theory
from wallcross.spectrum import strong_table

PAIRINGS = {"A3": (1, 1, 0), "triangle": (1, 1, 1), "triangle-": (1, 1, -1),
            "(2,1,0)": (2, 1, 0), "cycle": (2, 2, -2)}
# (Z+ of e0, e1, e2), (Z- of e0, e1, e2)
GEOMETRIES = {
    "g0": (((-3, 20), (1, 20), (4, 20)), ((3, 20), (-1, 21), (-4, 20))),
    "g1": (((-6, 20), (5, 20), (6, 20)),
           ((1, 20), (-1, 20), (Fraction(-1, 2), 20))),
    "g3": (((-6, 20), (-5, 20), (6, 20)),
           ((1, 20), (Fraction(1, 2), 20), (-1, 20))),
    "g4": (((-6, 20), (6, 20), (-5, 20)),
           ((1, 20), (-1, 20), (Fraction(1, 2), 20))),
}
MAX_DEGREE = 4
EFFECTIVE = [t for t in product(range(MAX_DEGREE + 1), repeat=3)
             if 1 <= sum(t) <= MAX_DEGREE]
TARGETS = [t for t in EFFECTIVE if t[0]]


def rank3_theory(pairing: str, geometry: str) -> Theory:
    a, b, c = PAIRINGS[pairing]
    z_plus, z_minus = GEOMETRIES[geometry]
    return Theory(name=f"{pairing}/{geometry}", basis=("e0", "e1", "e2"),
                  pairing=((0, a, c), (-a, 0, b), (-c, -b, 0)),
                  z_plus=z_plus, z_minus=z_minus, effective_signs=(1, 1, 1),
                  root_index=0)


# the failing targets, by which of e1 and e2 they contain
WITH_E1 = ((1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 2, 0), (1, 2, 1), (1, 3, 0),
           (2, 1, 0), (2, 1, 1), (2, 2, 0), (3, 1, 0))
WITH_E2 = ((1, 0, 1), (1, 0, 2), (1, 0, 3), (1, 1, 1), (1, 1, 2), (1, 2, 1),
           (2, 0, 1), (2, 0, 2), (2, 1, 1), (3, 0, 1))
WITH_E1_AND_E2 = ((1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1))
# js and gmn disagree ("mismatch"); none raises.  In g0 and g3 every
# target with e1 fails for every pairing.  In g1 A3 and (2,1,0) fail on
# 1,2,1 only, where the chain e1-e2-e1-e0 reads js 0 and gmn 1 though e1
# and e2 keep their phase order across the wall (ROADMAP item 2 traces
# this to the skip of a neighbour still on its strong-side ray and not
# pinned).  The other pairings fail in g1 on the targets with both e1
# and e2, and in g4 on every target with e2.
FAILING = {
    **{(g, p): WITH_E1 for g in ("g0", "g3") for p in PAIRINGS},
    ("g1", "A3"): ((1, 2, 1),), ("g1", "(2,1,0)"): ((1, 2, 1),),
    **{("g1", p): WITH_E1_AND_E2 for p in ("triangle", "triangle-", "cycle")},
    **{("g4", p): WITH_E2 for p in ("triangle", "triangle-", "cycle")},
}
KNOWN_FAILURES = {(g, p, t): "mismatch"
                  for (g, p), targets in FAILING.items() for t in targets}


def test_rank3_sweep():
    checked, failed = 0, {}
    for geometry, pairing in product(GEOMETRIES, PAIRINGS):
        theory = rank3_theory(pairing, geometry)
        for target in TARGETS:
            checked += 1
            try:
                if not conjecture_check(theory, target).ok:
                    failed[geometry, pairing, target] = "mismatch"
            except ValueError as e:
                failed[geometry, pairing, target] = f"raises: {e}"
    assert (checked, len(failed)) == (400, 144)
    assert failed == KNOWN_FAILURES


def _js_matches_ks(theory: Theory, N: int) -> int:
    """Compare js with the KS inference through degree N; the count."""
    strong = strong_table(theory)
    weak = infer_weak_spectrum(theory, strong, N)
    charges = [t for t in EFFECTIVE if sum(t) <= N]
    for gamma in charges:
        assert js_wallcross(theory, strong, gamma) == weak.dt(gamma), \
            (theory.name, gamma)
    return len(charges)


# g4's weak side puts (0,1,2) and (1,1,0) on one ray (Z- = (0, 60) and
# (0, 40)), and on the triangle they pair to -5: that side lies on a wall,
# so KS refuses every degree from 3 on, and js = KS is checked below it
TRIANGLE_WALLS = {"g4": ((0, 1, 2), (1, 1, 0), -5)}


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_rank3_js_matches_ks_on_the_triangle(geometry):
    # (1,1,1) is the one pairing with no effective charge of degree <= 4
    # in its radical, so KS determines every Omega there off a wall
    theory = rank3_theory("triangle", geometry)
    if geometry not in TRIANGLE_WALLS:
        assert _js_matches_ks(theory, MAX_DEGREE) == 34
        return
    a, b, p = TRIANGLE_WALLS[geometry]
    for N in range(sum(a), MAX_DEGREE + 1):
        with pytest.raises(FactorizationError, match=re.escape(
                f"{theory.name}: Z- puts {a} and {b} on one ray, but they "
                f"pair to {p}")):
            infer_weak_spectrum(theory, strong_table(theory), N)
    assert _js_matches_ks(theory, sum(a) - 1) == 9


# the lowest-degree effective charge in the radical of the pairing, and
# the number of effective charges below its degree
RADICAL = {"A3": ((1, 0, 1), 3), "triangle-": ((1, 1, 1), 9),
           "(2,1,0)": ((1, 0, 2), 9), "cycle": ((1, 1, 1), 9)}


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("pairing", RADICAL)
def test_rank3_js_matches_ks_below_the_radical(pairing, geometry):
    # at degree 4 the inference refuses the theory and names its radical
    # charge; below that charge's degree, js and KS agree
    theory = rank3_theory(pairing, geometry)
    gamma, below = RADICAL[pairing]
    with pytest.raises(FactorizationError, match=(
            f"^{re.escape(theory.name)}: the effective charge "
            f"{re.escape(str(gamma))} of degree {sum(gamma)} pairs to zero")):
        infer_weak_spectrum(theory, strong_table(theory), MAX_DEGREE)
    assert _js_matches_ks(theory, sum(gamma) - 1) == below
