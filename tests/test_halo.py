"""Star trees whose leaves do not pair with each other against the halo
closed form of halo_reference.py, on both sides of the conjecture: on
the catalog, and on the pentagon and the 1- and 3-Kronecker quivers."""
from collections import Counter

from halo_reference import star_value
from test_conjecture_sweep import SWEEP, _targets
from test_js_differential import _tree_value_targets
from wallcross.decay import conjecture_check
from wallcross.js import js_tree_values
from wallcross.lattice import CATALOG, theory_by_name
from wallcross.spectrum import spectrum_table, strong_table
from wallcross.symbolic import Value

# nf1 trees whose framings miss the halo value (resolved gmn 0), as
# (target, sorted charges): two or more leaves on the ray of (0,0,-1),
# the ray that sits at the same place on both sides of the wall
KNOWN_GMN_MISSES = {
    ((1, 0, -2), ((0, 0, -1), (0, 0, -1), (1, 0, 0))),
    ((1, 0, -3), ((0, 0, -2), (0, 0, -1), (1, 0, 0))),
    ((1, 0, -3), ((0, 0, -1), (0, 0, -1), (0, 0, -1), (1, 0, 0))),
    ((2, 0, -2), ((0, 0, -1), (0, 0, -1), (2, 0, 0))),
}
# the two targets whose singular symbols have no solution
RAISES = [("nf1", (1, 1, -2)), ("nf1", (2, 1, -1))]


def _setting(name):
    return theory_by_name(name), spectrum_table(name, "strong")


def test_halo_value_of_a_two_vertex_tree():
    # <g1, g2> = 2 on nf0: DT(g1) * (-1)^3 * 2 * DT(g2) = -2
    theory, table = _setting("nf0")
    assert star_value(theory, table, ((1, 0), (0, 1)), ((0, 1),)) == -2


def test_chains_and_pairing_leaves_are_not_halos():
    theory, table = _setting("nf0")
    chain = ((1, 0), (0, 1), (1, 0), (0, 1))
    assert star_value(theory, table, chain, ((0, 1), (1, 2), (2, 3))) is None
    star = ((0, 1), (1, 0), (0, 2))
    assert star_value(theory, table, star, ((0, 1), (0, 2))) is None


def test_js_tree_values_of_stars_are_halo_values():
    stars = 0
    for name, target, max_vertices in _tree_value_targets():
        theory, table = _setting(name)
        for tv in js_tree_values(theory, table, target, max_vertices).values():
            want = star_value(theory, table, tv.charges, tv.edges)
            if want is not None:
                assert tv.total == Value.rational(want), (name, target, tv)
                stars += 1
    assert stars == 191


def test_resolved_gmn_of_stars_are_halo_values_but_known_misses():
    misses, raised = set(), []
    for name, target, max_vertices in _tree_value_targets():
        theory, table = _setting(name)
        try:
            rep = conjecture_check(theory, target, max_vertices)
        except ValueError:
            raised.append((name, target))
            continue
        for tc in rep.trees.values():
            want = star_value(theory, table, tc.charges, tc.edges)
            if want is not None and tc.resolved_gmn != Value.rational(want):
                assert name == "nf1", (name, target, tc)
                misses.add((target, tuple(sorted(tc.charges))))
    assert raised == RAISES
    assert misses == KNOWN_GMN_MISSES


# the conjecture sweep's theories outside the catalog, each to degree 6:
# every star tree of every target, on both sides of the conjecture
OFF_CATALOG = [(th, degree) for th, degree in SWEEP if th.name not in CATALOG]
# off-catalog (theory, side, target, sorted charges) whose value misses the
# halo closed form: strict, so a star that starts to agree fails the test
# too
KNOWN_OFF_CATALOG_MISSES: set = set()


def test_off_catalog_stars_are_halo_values():
    stars, misses = Counter(), set()
    for theory, degree in OFF_CATALOG:
        table = strong_table(theory)
        for target in _targets(theory, degree):
            sides = (("js", js_tree_values(theory, table, target), "total"),
                     ("gmn", conjecture_check(theory, target).trees,
                      "resolved_gmn"))
            for side, trees, value in sides:
                for tree in trees.values():
                    want = star_value(theory, table, tree.charges, tree.edges)
                    if want is None:
                        continue
                    stars[theory.name, side] += 1
                    if getattr(tree, value) != Value.rational(want):
                        misses.add((theory.name, side, target,
                                    tuple(sorted(tree.charges))))
    assert stars == {(name, side): 69 for name in ("pentagon", "kron1", "kron3")
                     for side in ("js", "gmn")}
    assert misses == KNOWN_OFF_CATALOG_MISSES
