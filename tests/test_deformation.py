"""Deformation invariance: a change of the central charges that crosses no
wall of marginal stability must leave the wall-crossing numbers as they
are.  The first deformation of the net scales every strong-side central
charge by 3/2 and every weak-side one by 7: each side keeps its phase
order, so every exact phase comparison, and with it every number below,
comes out the same.  Swapping nf0's two sides does cross the wall, and
is the control that the comparison can fail.

The second deformation splits one flavour copy of nf2 or nf3 off the ray
it shares with its twins, by a small move that is checked, not assumed,
to cross no wall.
"""
import dataclasses
import functools
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, product

import pytest

from test_conjecture_sweep import _kronecker, _targets
from test_ks import pentagon_theory
from wallcross.decay import conjecture_check
from wallcross.gmn import enumerate_diagrams
from wallcross.js import js_tree_values, js_wallcross
from wallcross.ks import infer_weak_spectrum
from wallcross.lattice import CATALOG, MINUS, PLUS, cross
from wallcross.spectrum import spectrum_table, strong_table

STRONG_SCALE, WEAK_SCALE = Fraction(3, 2), 7


def _scaled(th):
    """th with Z+ scaled by STRONG_SCALE and Z- by WEAK_SCALE."""
    def scale(zs, k):
        return tuple((k * x, k * y) for x, y in zs)
    return dataclasses.replace(th, z_plus=scale(th.z_plus, STRONG_SCALE),
                               z_minus=scale(th.z_minus, WEAK_SCALE))


def _readings(th, target, max_vertices):
    """The js tree values, the framed diagrams and the conjecture check of
    one target, or the check's raise text."""
    table = strong_table(th)
    trees = [(key, tv.charges, tv.edges, tv.total) for key, tv in
             js_tree_values(th, table, target, max_vertices).items()]
    diagrams = [(d.describe(), d.aut) for d in
                enumerate_diagrams(th, table, target, max_vertices)]
    try:
        rep = conjecture_check(th, target, max_vertices)
    except ValueError as e:
        return trees, diagrams, str(e)
    return trees, diagrams, (
        rep.ok, rep.ledger, rep.free_symbols, rep.constraints,
        [(key, tc.js_total, tc.resolved_gmn) for key, tc in rep.trees.items()])


# the conjecture workload's ten catalog targets, with their vertex bounds,
# then every pentagon and Kronecker target up to degree 4
CATALOG_TARGETS = [
    ("nf0", (1, 1), None), ("nf0", (1, 2), None), ("nf0", (2, 3), None),
    ("nf1", (1, 1, -1), None), ("nf2", (1, 1, 1, 1), None),
    ("nf3", (1, 1, 1, 1, 2), 5),
    ("nf0", (2, 4), None), ("nf0", (3, 3), None),
    ("nf1", (2, 2, -1), None), ("nf1", (2, 1, -1), None),
]
QUIVERS = [pentagon_theory(), _kronecker(1), _kronecker(3)]
CASES = ([(CATALOG[name], target, mv) for name, target, mv in CATALOG_TARGETS]
         + [(th, target, None) for th in QUIVERS for target in _targets(th, 4)])


@pytest.mark.parametrize("th,target,max_vertices", CASES,
                         ids=[f"{th.name}-{','.join(map(str, t))}"
                              for th, t, _ in CASES])
def test_scaling_keeps_every_reading(th, target, max_vertices):
    scaled = _scaled(th)
    assert (scaled.z_plus, scaled.z_minus) != (th.z_plus, th.z_minus)
    assert _readings(scaled, target, max_vertices) == \
        _readings(th, target, max_vertices)


def test_cases_cover_the_catalog_and_the_quivers():
    assert len(CASES) == 40
    # nf1 2,1,-1 raises on both sides of the comparison
    assert isinstance(_readings(CATALOG["nf1"], (2, 1, -1), None)[2], str)


# the oracle workload's degrees
@pytest.mark.parametrize("name,N", [("nf0", 10), ("nf1", 5), ("nf2", 5),
                                    ("nf3", 5)])
def test_scaling_keeps_the_inferred_weak_spectrum(name, N):
    th, table = CATALOG[name], spectrum_table(name, "strong")
    assert infer_weak_spectrum(_scaled(th), table, N).entries == \
        infer_weak_spectrum(th, table, N).entries


def test_swapping_the_sides_is_seen():
    # crossing the wall backwards turns the vector multiplet's -2 into 2,
    # and the comparison above sees it
    nf0 = CATALOG["nf0"]
    swapped = dataclasses.replace(nf0, z_plus=nf0.z_minus, z_minus=nf0.z_plus)
    table = strong_table(nf0)
    assert js_wallcross(nf0, table, (1, 1)) == -2
    assert js_wallcross(swapped, table, (1, 1)) == 2
    assert _readings(swapped, (1, 1), None) != _readings(nf0, (1, 1), None)


# ROADMAP item 17(a): one flavour copy of nf2 or nf3 moves by EPS in the
# real part of Z+ and Z-, outward (away from the imaginary axis on both
# sides) or inward, as (theory, basis index, shift of Re Z+, shift of
# Re Z-); nf2's moves are named by the copy alone.  Parallel Z with
# pairing p needs a shift of at least 2|p| / degree^2, so EPS stays off
# every wall up to degree 14 along the whole move
EPS = Fraction(1, 100)
SPLITS = {"g1_1-out": ("nf2", 0, -EPS, EPS), "g2_1-out": ("nf2", 1, -EPS, EPS),
          "g1_2-out": ("nf2", 2, EPS, -EPS), "g2_2-out": ("nf2", 3, EPS, -EPS),
          "g2_1-in": ("nf2", 1, EPS, -EPS), "g2_2-in": ("nf2", 3, -EPS, EPS),
          "nf3-g1_1-out": ("nf3", 0, -EPS, EPS),
          "nf3-g2_1-out": ("nf3", 1, -EPS, EPS),
          "nf3-g3_1-out": ("nf3", 2, -EPS, EPS),
          "nf3-g1_1-in": ("nf3", 0, EPS, -EPS),
          "nf3-g4_1-in": ("nf3", 3, EPS, -EPS)}


def _split(name, i, d_plus, d_minus):
    """The catalog theory `name` with basis charge i shifted by d_plus in
    Re Z+ and d_minus in Re Z-."""
    th = CATALOG[name]
    zp, zm = list(th.z_plus), list(th.z_minus)
    zp[i] = (zp[i][0] + d_plus, zp[i][1])
    zm[i] = (zm[i][0] + d_minus, zm[i][1])
    return dataclasses.replace(th, z_plus=tuple(zp), z_minus=tuple(zm))


def _effective(th, degree):
    """The effective charges of degree 1..degree (every sign is +1 on the
    theories split here)."""
    return [t for t in product(range(degree + 1), repeat=th.rank)
            if 1 <= sum(t) <= degree]


def _walls(th, degree):
    """(side, a, b) for effective charges a, b of degree <= degree whose Z
    are parallel on that side though they pair to nonzero."""
    charges = _effective(th, degree)
    return [(side, a, b) for side in (PLUS, MINUS)
            for (a, za), (b, zb) in combinations(
                [(c, th.z(side, c)) for c in charges], 2)
            if cross(za, zb) == 0 and th.pair(a, b)]


@functools.cache
def _split_readings(th):
    """js on every effective target of degree <= 4, the per-multiset sums
    of the js tree values there, and the weak spectrum KS infers at N = 5."""
    table = strong_table(th)
    targets = _effective(th, 4)
    sums = []
    for target in targets:
        by_multiset = defaultdict(Fraction)
        for tv in js_tree_values(th, table, target).values():
            by_multiset[tuple(sorted(tv.charges))] += tv.total
        sums.append({k: v for k, v in by_multiset.items() if v})
    return ([js_wallcross(th, table, t) for t in targets], sums,
            infer_weak_spectrum(th, table, 5).entries)


@pytest.mark.parametrize("move", [None, *SPLITS])
def test_flavour_split_stays_off_every_wall(move):
    th = CATALOG["nf2"] if move is None else _split(*SPLITS[move])
    assert _walls(th, 5) == []


def test_the_coarse_split_lies_on_a_wall():
    # moving g2_1 to Z+ (-3, 20), Z- (2, 20) puts charges that pair to
    # nonzero on one ray from degree 3 on; there the per-multiset sums
    # moved on two targets and KS now refuses the product
    coarse = _split("nf2", 1, -1, 1)
    assert (coarse.z_plus[1], coarse.z_minus[1]) == ((-3, 20), (2, 20))
    assert _walls(coarse, 2) == []
    assert (MINUS, (0, 1, 0, 2), (1, 0, 0, 1)) in _walls(coarse, 3)


# The per-tree values are recorded here, not checked: they move on three
# targets per move.  On nf2 these are (1,1,0,2), (1,1,1,1) and (1,1,2,0)
# for a D copy and (0,2,1,1), (1,1,1,1) and (2,0,1,1) for an M copy; on
# (1,1,1,1) the four trees of -1/2 become two trees of -1.  On nf3 they
# are the three targets of g2 charge 2 with the moved copy and one other
# D copy: for g1_1, (1,0,0,1,2), (1,0,1,0,2) and (1,1,0,0,2)
@pytest.mark.parametrize("move", SPLITS)
def test_flavour_split_keeps_the_readings(move):
    name = SPLITS[move][0]
    th = _split(*SPLITS[move])
    assert _split_readings(th) == _split_readings(CATALOG[name])
    assert all(conjecture_check(th, t).ok
               for t in _effective(th, 4) if t[th.root_index])
