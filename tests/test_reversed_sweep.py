"""The wall crossed backwards: the catalog's weak table in, sides swapped.

Swapping a theory's Z+ and Z- makes its weak side the strong one, so
crossing the wall from the catalog weak table must give back the
basis-only strong table.  The KS inference and the js sum both do,
exactly; the decay calculus does not, and every failure of the
conjecture check below is on its side (ROADMAP item 2).

KNOWN_FAILURES is a strict list: a target on it that starts to pass
fails the test as surely as a new failure does, so the list can only
shrink.  nf3 stays out: its hand-entered weak table is incomplete, and
js across the reversed wall from it misses the strong table on 26 of
the 125 effective charges of degree at most 4.
"""
import dataclasses
from itertools import product

import pytest

from test_conjecture_sweep import _targets
from wallcross import decay
from wallcross.js import js_wallcross
from wallcross.ks import infer_weak_spectrum
from wallcross.lattice import CATALOG, Theory
from wallcross.spectrum import spectrum_table, strong_table

# the KS truncation of the inference, and the degree of the js and
# conjecture targets
INFER_N = {"nf0": 10, "nf1": 5, "nf2": 5}
MAX_DEGREE = {"nf0": 5, "nf1": 4, "nf2": 4}


def _reversed(th: Theory) -> Theory:
    return dataclasses.replace(th, z_plus=th.z_minus, z_minus=th.z_plus)


def _effective(th: Theory, degree: int):
    for coords in product(range(degree + 1), repeat=th.rank):
        if 1 <= sum(coords) <= degree:
            yield tuple(s * x for s, x in zip(th.effective_signs, coords))


@pytest.mark.parametrize("name", INFER_N)
def test_reversed_inference_gives_the_strong_table(name):
    th = CATALOG[name]
    weak = spectrum_table(name, "weak")
    assert infer_weak_spectrum(_reversed(th), weak, INFER_N[name]).entries == \
        strong_table(th).entries


@pytest.mark.parametrize("name,count", [("nf0", 20), ("nf1", 34), ("nf2", 69)])
def test_reversed_js_gives_the_strong_table(name, count):
    th = CATALOG[name]
    weak, strong = spectrum_table(name, "weak"), strong_table(th)
    targets = list(_effective(th, MAX_DEGREE[name]))
    assert len(targets) == count
    assert [t for t in targets
            if js_wallcross(_reversed(th), weak, t) != strong.dt(t)] == []


# the targets that pass lie on the root's ray, where no tree has an edge:
# the multiples of the root charge (d on nf0, g1 on nf1), and on nf2 the
# targets made of g1_1 and g2_1, the two basis charges on that ray
PASSING = {
    "nf0": [(k, 0) for k in range(1, 6)],
    "nf1": [(k, 0, 0) for k in range(1, 5)],
    "nf2": [(a, b, 0, 0) for a in range(1, 5) for b in range(5 - a)],
}
RAISES = {("nf1", (1, 1, -2)), ("nf1", (2, 0, -2))}
KNOWN_FAILURES = {
    (name, t): ("raises: inconsistent singular-symbol system"
                if (name, t) in RAISES else "mismatch")
    for name in PASSING for t in _targets(CATALOG[name], MAX_DEGREE[name])
    if t not in PASSING[name]}


@pytest.mark.parametrize("name,checked,passed",
                         [("nf0", 15, 5), ("nf1", 20, 4), ("nf2", 35, 10)])
def test_reversed_conjecture_sweep(monkeypatch, name, checked, passed):
    th = CATALOG[name]
    weak = spectrum_table(name, "weak")
    monkeypatch.setattr(decay, "strong_table", lambda theory: weak)
    targets = list(_targets(th, MAX_DEGREE[name]))
    failed = {}
    for target in targets:
        try:
            if not decay.conjecture_check(_reversed(th), target).ok:
                failed[name, target] = "mismatch"
        except ValueError as e:
            failed[name, target] = f"raises: {e}"
    assert (len(targets), len(targets) - len(failed)) == (checked, passed)
    assert failed == {k: v for k, v in KNOWN_FAILURES.items() if k[0] == name}


def test_nf3_weak_table_does_not_invert():
    th = CATALOG["nf3"]
    weak, strong = spectrum_table("nf3", "weak"), strong_table(th)
    misses = [t for t in _effective(th, 4)
              if js_wallcross(_reversed(th), weak, t) != strong.dt(t)]
    assert len(list(_effective(th, 4))) == 125 and len(misses) == 26
    # it lists no basis charge, so each one's multiples are missed first
    assert all(th.unit(i) in misses for i in range(th.rank))
