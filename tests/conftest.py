from fractions import Fraction

import pytest

from wallcross import ks
from wallcross.gmn import enumerate_diagrams
from wallcross.lattice import MINUS, PLUS, theory_by_name
from wallcross.spectrum import spectrum_table
from wallcross.trees import adjacency, charge_label, encode

Q = Fraction


@pytest.fixture(autouse=True)
def fresh_products():
    """Each test starts with no KS product cached, so a test that counts
    the products it builds does not depend on which tests ran before."""
    ks._product.cache_clear()


@pytest.fixture(scope="session")
def nf0():
    return theory_by_name("nf0")


@pytest.fixture(scope="session")
def nf1():
    return theory_by_name("nf1")


@pytest.fixture(scope="session")
def nf2():
    return theory_by_name("nf2")


@pytest.fixture(scope="session")
def nf3():
    return theory_by_name("nf3")


@pytest.fixture(scope="session")
def nf0_strong():
    return spectrum_table("nf0", "strong")


@pytest.fixture(scope="session")
def nf0_weak():
    return spectrum_table("nf0", "weak")


def diagram_by_describe(theory, table, target, text, max_vertices=None):
    """Pick the unique framed diagram with the given describe() string."""
    for d in enumerate_diagrams(theory, table, target,
                                max_vertices=max_vertices):
        if d.describe() == text:
            return d
    raise AssertionError(f"no diagram {text!r} for {theory.name} {target}")


def central_charges(theory, alphas):
    """The parts' Z+ and Z- lists, the arguments of js.u_symbol and
    js.s_symbol."""
    return ([theory.z(PLUS, a) for a in alphas],
            [theory.z(MINUS, a) for a in alphas])


def encode_rooted(charges, parent):
    """(canonical string, automorphism order) of the rooted decorated tree
    with the given parent map, straight from the one encoder."""
    edges = [(p, i) for i, p in enumerate(parent) if p is not None]
    return encode(parent.index(None), -1, adjacency(len(charges), edges),
                  [charge_label(c) for c in charges])
