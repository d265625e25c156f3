from fractions import Fraction

import pytest

from wallcross.gmn import (RootedDiagram, enumerate_diagrams, root_direction,
                           weight_W)
from wallcross.symbolic import Value
from wallcross.spectrum import spectrum_table
from wallcross.lattice import primitive, theory_by_name

from conftest import diagram_by_describe, encode_rooted

Q = Fraction


def test_rooted_diagram_basics():
    d = RootedDiagram(((1, 0), (0, 1), (0, 1)), (None, 0, 0), 2)
    assert d.root == 0
    assert d.total() == (1, 2)
    assert d.children(0) == [1, 2]
    assert d.describe() == "(1+0)[(0+1),(0+1)]"


def test_aut_order_counts_equal_subtrees():
    assert encode_rooted(((1, 0), (0, 1), (0, 1)), (None, 0, 0))[1] == 2
    assert encode_rooted(((1, 0), (0, 1), (1, 0)), (None, 0, 1))[1] == 1
    assert encode_rooted(((1, 0), (0, 1), (0, 1), (0, 1)),
                         (None, 0, 0, 0))[1] == 6


def test_canonical_identifies_isomorphic_rootings():
    a = encode_rooted(((1, 0), (0, 1), (0, 1)), (None, 0, 0))
    b = encode_rooted(((0, 1), (1, 0), (0, 1)), (1, None, 1))
    assert a[0] == b[0]


def test_enumerate_delta_gamma(nf0, nf0_strong):
    diags = enumerate_diagrams(nf0, nf0_strong, (1, 1))
    assert [d.describe() for d in diags] == ["(1+0)[(0+1)]"]


def test_enumerate_counts(nf0, nf0_strong):
    assert len(enumerate_diagrams(nf0, nf0_strong, (1, 2))) == 2
    assert len(enumerate_diagrams(nf0, nf0_strong, (2, 3))) == 11


def test_roots_lie_on_framing_direction(nf0, nf0_strong):
    for d in enumerate_diagrams(nf0, nf0_strong, (2, 3)):
        root_charge = d.charges[d.root]
        assert root_charge[1] == 0 and root_charge[0] > 0


def test_edges_pairing_nonzero(nf1):
    table = spectrum_table("nf1", "strong")
    for d in enumerate_diagrams(nf1, table, (1, 1, -1)):
        for a, b in d.edges():
            assert nf1.pair(d.charges[a], d.charges[b]) != 0


WEIGHTS_NF0 = [
    ("(1+0)[(0+1)]", (1, 1), Value.rational(2)),
    ("(1+0)[(0+1),(0+1)]", (1, 2), Value.rational(-2)),
    ("(1+0)[(0+1)[(1+0)[(0+2)]]]", (2, 3), Value.rational(-4)),
    ("(1+0)[(0+1)[(1+0)[(0+1),(0+1)]]]", (2, 3), Value.rational(8)),
]


@pytest.mark.parametrize("text,target,expect", WEIGHTS_NF0)
def test_weight_values_nf0(nf0, nf0_strong, text, target, expect):
    d = diagram_by_describe(nf0, nf0_strong, target, text)
    assert weight_W(nf0, nf0_strong, d) == expect
    # the weight is a coefficient along the root's direction
    assert primitive(d.charges[d.root]) == root_direction(nf0) == (1, 0)


def test_weight_values_nf1(nf1):
    table = spectrum_table("nf1", "strong")
    expect = {
        "(1+0+0)[(0+1+0)[(0+0+-1)]]": Value.rational(-1),
        "(1+0+0)[(0+0+-1)[(0+1+0)]]": Value.rational(1),
        "(1+0+0)[(0+0+-1),(0+1+0)]": Value.rational(1),
    }
    for d in enumerate_diagrams(nf1, table, (1, 1, -1)):
        assert weight_W(nf1, table, d) == expect[d.describe()]


def test_weight_values_nf2(nf2):
    table = spectrum_table("nf2", "strong")
    diags = enumerate_diagrams(nf2, table, (1, 1, 1, 1))
    assert len(diags) == 4
    for d in diags:
        assert weight_W(nf2, table, d) == Value.rational(-1)


def test_weight_value_nf3_star(nf3):
    table = spectrum_table("nf3", "strong")
    star = "(1+0+0+0+0)[(0+0+0+0+2)[(0+0+0+1+0),(0+0+1+0+0),(0+1+0+0+0)]]"
    d = diagram_by_describe(nf3, table, (1, 1, 1, 1, 2), star,
                            max_vertices=5)
    assert weight_W(nf3, table, d) == Value.rational(4)
