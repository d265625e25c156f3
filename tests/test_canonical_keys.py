"""Canonical strings pinned as literals.

Tree keys (unoriented), coincident-ray symbol names (frozen keys) and
automorphism orders all come from the one encoder in `wallcross.trees`.
Reports and ledgers are keyed by these strings, so any change to their
format or to the walk that builds them shows here.
"""
import pytest

from wallcross.decay import conjecture_check
from wallcross.gmn import enumerate_diagrams
from wallcross.lattice import theory_by_name

from conftest import encode_rooted

GOLDEN = {
    ("nf0", (2, 3)): {
        "trees": [
            "(0,1|(1,0|(0,1|));(1,0|(0,1|)))",
            "(0,1|(1,0|(0,1|);(0,1|));(1,0|))",
            "(0,1|(1,0|(0,2|));(1,0|))",
            "(0,2|(1,0|(0,1|));(1,0|))",
            "(0,3|(1,0|);(1,0|))",
            "(0,3|(2,0|))",
            "(2,0|(0,1|);(0,1|);(0,1|))",
            "(2,0|(0,1|);(0,2|))",
        ],
        "ledger": [
            "(1,1@0,1|(0,1@-1,20|);(1,1@0,1!|))|above",
            "(1,1@0,1|(0,1@-1,20|);(1,1@0,1!|))|below",
            "(1,1@0,1|(1,1@0,1!|(0,1@-1,20|)))|below",
            "(1,1@0,1|(1,1@0,1!|(0,1@1,10|)))|above",
        ],
    },
    ("nf1", (1, 1, -1)): {
        "trees": [
            "(0,0,-1|(0,1,0|);(1,0,0|))",
            "(0,1,0|(0,0,-1|);(1,0,0|))",
            "(1,0,0|(0,0,-1|);(0,1,0|))",
        ],
        "ledger": [
            "(1,1,0@0,1!|(0,0,-1@0,1|))|below",
        ],
    },
}


@pytest.mark.parametrize("theory,target", sorted(GOLDEN))
def test_conjecture_keys(theory, target):
    golden = GOLDEN[(theory, target)]
    th = theory_by_name(theory)
    rep = conjecture_check(th, target)
    assert sorted(rep.trees) == golden["trees"]
    assert sorted(rep.ledger) == golden["ledger"]


NF0_23_AUT = [
    ("(2+0)[(0+3)]", 1),
    ("(1+0)[(0+3)[(1+0)]]", 1),
    ("(2+0)[(0+1),(0+2)]", 1),
    ("(1+0)[(0+1)[(1+0)[(0+2)]]]", 1),
    ("(1+0)[(0+1)[(1+0)],(0+2)]", 1),
    ("(1+0)[(0+1),(0+2)[(1+0)]]", 1),
    ("(1+0)[(0+2)[(1+0)[(0+1)]]]", 1),
    ("(2+0)[(0+1),(0+1),(0+1)]", 6),
    ("(1+0)[(0+1)[(1+0)[(0+1)]],(0+1)]", 1),
    ("(1+0)[(0+1)[(1+0)[(0+1),(0+1)]]]", 2),
    ("(1+0)[(0+1)[(1+0)],(0+1),(0+1)]", 2),
]


def test_aut_order_of_enumerated_diagrams(nf0, nf0_strong):
    got = [(d.describe(), d.aut)
           for d in enumerate_diagrams(nf0, nf0_strong, (2, 3))]
    assert got == NF0_23_AUT


@pytest.mark.parametrize("charges,parent,order,canonical", [
    (((1, 0), (0, 1), (1, 0), (0, 1), (1, 0)), (None, 0, 1, 0, 3), 2,
     "(1,0|(0,1|(1,0|));(0,1|(1,0|)))"),
    (((1, 0), (0, 1), (1, 0), (1, 0), (0, 1), (1, 0), (1, 0)),
     (None, 0, 1, 1, 0, 4, 4), 8,
     "(1,0|(0,1|(1,0|);(1,0|));(0,1|(1,0|);(1,0|)))"),
    (((1, 0), (0, 1), (1, 0), (1, 0), (0, 1), (1, 0), (0, 2)),
     (None, 0, 1, 1, 0, 4, 4), 2,
     "(1,0|(0,1|(0,2|);(1,0|));(0,1|(1,0|);(1,0|)))"),
    (((2, 0), (0, 1), (0, 1), (0, 1)), (None, 0, 0, 0), 6,
     "(2,0|(0,1|);(0,1|);(0,1|))"),
])
def test_aut_order_and_canonical(charges, parent, order, canonical):
    assert encode_rooted(charges, parent) == (canonical, order)
