"""Deformation invariance: a change of the central charges that crosses no
wall of marginal stability must leave the wall-crossing numbers as they
are.  The first deformation of the net scales every strong-side central
charge by 3/2 and every weak-side one by 7: each side keeps its phase
order, so every exact phase comparison, and with it every number below,
comes out the same.  Swapping nf0's two sides does cross the wall, and
is the control that the comparison can fail.
"""
import dataclasses
from fractions import Fraction

import pytest

from test_conjecture_sweep import _kronecker, _targets
from test_ks import pentagon_theory
from wallcross.decay import conjecture_check
from wallcross.gmn import enumerate_diagrams
from wallcross.js import js_tree_values, js_wallcross
from wallcross.ks import infer_weak_spectrum
from wallcross.lattice import CATALOG
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
