"""The conjecture check on every small target, with its known failures.

The sweep covers every effective target with a nonzero framing
coordinate up to effective degree 6 on nf0 and 4 on nf1-nf3 (132
targets), and up to degree 6 on three theories that are not in the
catalog: the pentagon and the 1- and 3-Kronecker quivers (21 targets
each).  The check reads only the lattice data of each `Theory`.
KNOWN_FAILURES is a strict list: a target on it that starts to pass
fails the test as surely as a new failure does, so the list can only
shrink.
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


def _targets(th, degree):
    for coords in product(range(degree + 1), repeat=th.rank):
        if coords[th.root_index] and sum(coords) <= degree:
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
