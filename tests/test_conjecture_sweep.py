"""The conjecture check on every small target, with its known failures.

The sweep covers every effective target with a nonzero framing
coordinate up to effective degree 6 on nf0 and 4 on nf1-nf3 (132
targets), and up to degree 6 on three theories that are not in the
catalog: the pentagon and the 1- and 3-Kronecker quivers (21 targets
each).  The check reads only the lattice data of each `Theory`.
KNOWN_FAILURES is a strict list: a target on it that starts to pass
fails the test as surely as a new failure does, so the list can only
shrink.  The next-degree sweep does the same one degree up (127
targets, at most 7 vertices each) against NEXT_DEGREE_FAILURES.
"""
import dataclasses
from itertools import product

from wallcross.decay import conjecture_check
from wallcross.lattice import CATALOG

from test_ks import pentagon_theory


def _kronecker(m):
    """The m-Kronecker quiver on the catalog's nf0 central charges."""
    return dataclasses.replace(CATALOG["nf0"], name=f"kron{m}",
                               pairing=((0, m), (-m, 0)))


MAX_DEGREE = {"nf0": 6, "nf1": 4, "nf2": 4, "nf3": 4}
SWEEP = ([(CATALOG[name], degree) for name, degree in MAX_DEGREE.items()]
         + [(pentagon_theory(), 6), (_kronecker(1), 6), (_kronecker(3), 6)])

# all on nf1: js and gmn disagree on trees with two or more vertices on
# the ray of (0,0,-1), the one ray that sits at the same place on both
# sides of the wall ("mismatch"), or the singular symbols have no
# solution ("raises")
KNOWN_FAILURES = {
    ("nf1", (1, 0, -2)): "mismatch", ("nf1", (1, 0, -3)): "mismatch",
    ("nf1", (2, 0, -2)): "mismatch",
    ("nf1", (1, 1, -2)): "raises", ("nf1", (2, 1, -1)): "raises",
}


# the next degree: every target of exactly this degree, checked up to 7
# vertices (MAX_TREE_VERTICES); all on nf1, where a raise is kept with
# the part of its message that names the failure
NEXT_DEGREE = {"nf0": 7, "nf1": 5, "nf2": 5, "nf3": 5}
NEXT_DEGREE_RAISES = ("inconsistent singular-symbol system",
                      "conflicting jump values")
NEXT_DEGREE_FAILURES = {
    ("nf1", (1, 0, -4)): "mismatch", ("nf1", (3, 0, -2)): "mismatch",
    ("nf1", (3, 1, -1)): "mismatch",
    ("nf1", (1, 1, -3)): "inconsistent singular-symbol system",
    ("nf1", (2, 0, -3)): "inconsistent singular-symbol system",
    ("nf1", (2, 1, -2)): "inconsistent singular-symbol system",
    ("nf1", (1, 2, -2)): "conflicting jump values",
}


def _targets(th, degree, lowest=1):
    for coords in product(range(degree + 1), repeat=th.rank):
        if coords[th.root_index] and lowest <= sum(coords) <= degree:
            yield tuple(s * x for s, x in zip(th.effective_signs, coords))


def test_conjecture_sweep():
    checked, failed = {}, {}
    for th, degree in SWEEP:
        targets = list(_targets(th, degree))
        checked[th.name] = len(targets)
        for target in targets:
            try:
                if not conjecture_check(th, target).ok:
                    failed[th.name, target] = "mismatch"
            except ValueError as e:
                assert "inconsistent singular-symbol system" in str(e)
                failed[th.name, target] = "raises"
    assert checked == {"nf0": 21, "nf1": 20, "nf2": 35, "nf3": 56,
                       "pentagon": 21, "kron1": 21, "kron3": 21}
    assert failed == KNOWN_FAILURES


def test_next_degree_sweep():
    checked, failed = {}, {}
    for name, degree in NEXT_DEGREE.items():
        th = CATALOG[name]
        targets = list(_targets(th, degree, lowest=degree))
        checked[name] = len(targets)
        for target in targets:
            try:
                if not conjecture_check(th, target, max_vertices=7).ok:
                    failed[name, target] = "mismatch"
            except ValueError as e:
                failed[name, target] = next(
                    (m for m in NEXT_DEGREE_RAISES if m in str(e)), str(e))
    assert checked == {"nf0": 7, "nf1": 15, "nf2": 35, "nf3": 70}
    assert failed == NEXT_DEGREE_FAILURES
