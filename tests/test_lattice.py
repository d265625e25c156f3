from fractions import Fraction

import pytest

from wallcross.lattice import (CCW, MINUS, PLUS, cadd, cneg, content, cross,
                               direction_key, primitive, same_ray, su2_theory,
                               sweep_crossing, theory_by_name)

Q = Fraction


def test_charge_helpers():
    assert cadd((1, 2), (3, -1)) == (4, 1)
    assert cneg((1, -2)) == (-1, 2)
    assert content((4, 6)) == 2
    assert content((0, 0)) == 0
    assert primitive((4, 6)) == (2, 3)
    assert primitive((-2, 0)) == (-1, 0)


def test_direction_key_normalizes():
    assert direction_key((Q(2), Q(4))) == direction_key((Q(1), Q(2)))
    assert direction_key((Q(1), Q(2))) != direction_key((Q(-1), Q(-2)))
    assert same_ray((Q(1), Q(2)), (Q(3), Q(6)))
    assert not same_ray((Q(1), Q(2)), (Q(-1), Q(-2)))
    assert cross((Q(1), Q(0)), (Q(0), Q(1))) == 1


@pytest.mark.parametrize("nf", [0, 1, 2, 3])
def test_catalog_theories_consistent(nf):
    th = su2_theory(nf)
    assert theory_by_name(f"nf{nf}").name == th.name
    # antisymmetric integer pairing
    for i in range(th.rank):
        for j in range(th.rank):
            assert th.pairing[i][j] == -th.pairing[j][i]


def test_nf0_pairing_and_phases(nf0):
    d, m = (1, 0), (0, 1)
    assert nf0.pair(d, m) == 2
    assert nf0.sigma_trivial
    # at strong coupling the two rays bound a cone that closes at weak
    assert cross(nf0.z(PLUS, m), nf0.z(PLUS, d)) > 0     # phase d above m
    assert cross(nf0.z(MINUS, m), nf0.z(MINUS, d)) < 0   # and below it
    assert not nf0.pinned(d)
    assert not nf0.pinned(m)


def test_nf1_effective_signs_and_pin(nf1):
    assert nf1.effective_signs == (1, 1, -1)
    assert nf1.is_effective((1, 1, -1))
    assert not nf1.sigma_trivial
    assert not nf1.is_effective((1, 1, 1))
    # the third generator sits exactly on the vertical axis on both sides
    assert nf1.pinned((0, 0, -1))


def test_sigma_value_and_reduce(nf2):
    a, b = (1, 0, 0, 0), (0, 1, 0, 0)
    assert nf2.sigma_value(a) == 1
    assert nf2.sigma_value(cadd(a, b)) == (-1) ** nf2.pair(a, b)
    sign, total = nf2.sigma_reduce([a, b])
    assert total == (1, 1, 0, 0)
    assert sign * nf2.sigma_value(total) == \
        nf2.sigma_value(a) * nf2.sigma_value(b)


def test_sweep_crossing_orientation():
    up = (Q(0), Q(1))
    left = (Q(-1), Q(1))
    right = (Q(1), Q(1))
    assert sweep_crossing(right, left, up) == 1      # counterclockwise
    assert sweep_crossing(left, right, up) == -1     # clockwise
    assert sweep_crossing(right, left, (Q(-1), Q(-1))) is None


def test_sweep_crossing_on_central_charges(nf0):
    # pushing Z_m from the strong to the weak side turns it
    # counterclockwise over the weak ray of gamma_d, but not over its
    # strong ray, which lies beyond the sweep
    d, m = (1, 0), (0, 1)
    start, end = nf0.z(PLUS, m), nf0.z(MINUS, m)
    assert sweep_crossing(start, end, nf0.z(MINUS, d)) == CCW
    assert sweep_crossing(start, end, nf0.z(PLUS, d)) is None
