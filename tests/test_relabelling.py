"""Relabelling net: the conjecture check does not depend on how the
vertices of a framed diagram are numbered.

`enumerate_diagrams` keeps one labelled representative per rooted
decorated tree.  Here every diagram is relabelled by a seeded random
vertex permutation, charges and parents together, keeping its
automorphism order.  On the 132 targets of the conjecture sweep's
catalog theories and on nf0 3,4 the verdicts and the per-tree totals
must not move, and on the 132 neither may each decay's sign sum or
singular count.

What may move, and is not asserted: the frozen keys of the singular
endpoints.  The decay breaks ties in its push order by vertex index, so
a relabelled nf0 3,3 or 3,4 can name different symbols and ledger keys,
and nf0 3,4 can end with one more unknown or free symbol.  On nf0 3,4
one or two of the 92 decays per seed also trade a sign for a renamed
symbol: (1+0)[(0+1)[(1+0)[(0+2)]],(0+1)[(1+0)]] has sign sum -1 as
enumerated and 0 under seed 0, with the same four singular endpoints.
"""
import random

import pytest

from wallcross import decay
from wallcross.gmn import RootedDiagram, enumerate_diagrams
from wallcross.lattice import CATALOG

from test_conjecture_sweep import MAX_DEGREE, _targets

SWEEP = [(CATALOG[name], target) for name, degree in MAX_DEGREE.items()
         for target in _targets(CATALOG[name], degree)]
TARGETS = SWEEP + [(CATALOG["nf0"], (3, 4))]


def _relabel(diag: RootedDiagram, rng: random.Random) -> RootedDiagram:
    """The same rooted decorated tree with vertex i renumbered perm[i]."""
    perm = list(range(diag.n))
    rng.shuffle(perm)
    charges = [None] * diag.n
    parent = [None] * diag.n
    for i, (c, p) in enumerate(zip(diag.charges, diag.parent)):
        charges[perm[i]] = c
        parent[perm[i]] = None if p is None else perm[p]
    return RootedDiagram(tuple(charges), tuple(parent), diag.aut)


def _outcome(theory, target):
    """ok and each tree's (js total, resolved gmn total), or the raise
    text."""
    try:
        rep = decay.conjecture_check(theory, target)
    except ValueError as e:
        return str(e)
    return rep.ok, {key: (tc.js_total, tc.resolved_gmn)
                    for key, tc in rep.trees.items()}


def test_targets():
    assert len(SWEEP) == 132


@pytest.mark.parametrize("seed", [0, 1])
def test_conjecture_check_ignores_vertex_labels(seed, monkeypatch):
    before = [_outcome(theory, target) for theory, target in TARGETS]
    rng = random.Random(seed)

    def relabelled(*args, **kwargs):
        return [_relabel(d, rng) for d in enumerate_diagrams(*args, **kwargs)]

    monkeypatch.setattr(decay, "enumerate_diagrams", relabelled)
    after = [_outcome(theory, target) for theory, target in TARGETS]
    for (theory, target), old, new in zip(TARGETS, before, after):
        assert new == old, (theory.name, target)


def test_decay_sign_sum_and_singular_count_ignore_vertex_labels():
    runs = 0
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        for theory, target in SWEEP:
            strong = decay.strong_table(theory)
            for diag in enumerate_diagrams(theory, strong, target):
                old, new = (decay.run_decay(theory, d)
                            for d in (diag, _relabel(diag, rng)))
                assert (new.eps_sum, len(new.singular)) == \
                    (old.eps_sum, len(old.singular)), (seed, diag.describe())
                runs += 1
    assert runs == 1050
