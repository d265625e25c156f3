import dataclasses
from fractions import Fraction

import pytest

from wallcross import ks
from wallcross.lattice import (CATALOG, CCW, CW, ENDS_ON, MINUS, PLUS, cadd,
                               cneg, content, cross, direction_key, primitive,
                               same_ray, sweep_crossing, theory_by_name)
from wallcross.spectrum import strong_table

from gmn_reference import sigma_reduce
from test_rank3_sweep import rank3_theory
from test_spectrum import _effective_charges

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
    th = CATALOG[f"nf{nf}"]
    assert theory_by_name(f"nf{nf}").name == th.name
    # antisymmetric integer pairing
    for i in range(th.rank):
        for j in range(th.rank):
            assert th.pairing[i][j] == -th.pairing[j][i]


def test_unknown_theory_name_lists_the_catalog():
    with pytest.raises(ValueError, match=r"^unknown theory 'nf4'; expected one "
                       r"of \['nf0', 'nf1', 'nf2', 'nf3'\]$"):
        theory_by_name("nf4")


# one malformed field each: the constructor refuses it, before any
# computation can read it (js read 0 on a symmetric pairing, and on Im Z < 0)
MALFORMED = {
    "pairing-length": ("nf0", {"pairing": ((0, 2),)}, "pairing not of length"),
    "z_plus-length": ("nf0", {"z_plus": ((-2, 20),)}, "z_plus not of length"),
    "z_minus-length": ("nf0", {"z_minus": ((1, 20),) * 3},
                       "z_minus not of length"),
    "signs-length": ("nf0", {"effective_signs": (1,)},
                     "effective_signs not of length"),
    "pairing-not-square": ("nf0", {"pairing": ((0, 2, 0), (-2, 0, 0))},
                           "not a square integer matrix"),
    "pairing-not-integer": ("nf0", {"pairing": ((0, Fraction(1, 2)),
                                                (Fraction(-1, 2), 0))},
                            "not a square integer matrix"),
    "pairing-symmetric": ("nf0", {"pairing": ((0, 2), (2, 0))},
                          "not antisymmetric"),
    "pairing-diagonal": ("nf0", {"pairing": ((1, 2), (-2, 0))},
                         "not antisymmetric"),
    "sign-zero": ("nf0", {"effective_signs": (1, 0)}, "must be \\+1 or -1"),
    "root-index": ("nf0", {"root_index": 2}, "root_index 2 not in 0..1"),
    "root-index-negative": ("nf0", {"root_index": -1}, "root_index -1"),
    "z-float": ("nf0", {"z_plus": ((-2.0, 20.0), (2, 20))},
                "not a pair of ints or Fractions"),
    "z-triple": ("nf0", {"z_minus": ((1, 20, 0), (-1, 20))},
                 "not a pair of ints or Fractions"),
    "im-z-minus": ("nf0", {"z_minus": ((1, -20), (-1, 20))},
                   "Im Z-\\(d\\) times its effective sign 1 is not positive"),
    "im-z-plus-zero": ("nf0", {"z_plus": ((-2, 20), (2, 0))},
                       "Im Z\\+\\(m\\)"),
    "im-z-sign": ("nf1", {"effective_signs": (1, 1, 1)},
                  "Im Z\\+\\(g3\\) times its effective sign 1"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_theory_is_refused(case):
    name, fields, message = MALFORMED[case]
    with pytest.raises(ValueError, match=f"^{name}: .*{message}"):
        dataclasses.replace(CATALOG[name], **fields)


def test_nf0_pairing_and_phases(nf0):
    d, m = (1, 0), (0, 1)
    assert nf0.pair(d, m) == 2
    assert nf0.sigma_trivial
    # at strong coupling the two rays bound a cone that closes at weak
    assert cross(nf0.z(PLUS, m), nf0.z(PLUS, d)) > 0     # phase d above m
    assert cross(nf0.z(MINUS, m), nf0.z(MINUS, d)) < 0   # and below it
    # neither ray is pinned: each moves across the wall
    assert not same_ray(nf0.z(PLUS, d), nf0.z(MINUS, d))
    assert not same_ray(nf0.z(PLUS, m), nf0.z(MINUS, m))


def test_nf1_effective_signs_and_pin(nf1):
    assert nf1.effective_signs == (1, 1, -1)
    assert nf1.is_effective((1, 1, -1))
    assert not nf1.sigma_trivial
    assert not nf1.is_effective((1, 1, 1))
    # the third generator sits exactly on the vertical axis on both sides
    g3 = (0, 0, -1)
    assert same_ray(nf1.z(PLUS, g3), nf1.z(MINUS, g3))


def test_sigma_value_and_reduce(nf2):
    a, b = (1, 0, 0, 0), (0, 1, 0, 0)
    assert nf2.sigma_value(a) == 1
    assert nf2.sigma_value(cadd(a, b)) == (-1) ** nf2.pair(a, b)
    sign, total = sigma_reduce(nf2, [a, b])
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


UP, LEFT, RIGHT = (Q(0), Q(1)), (Q(-1), Q(1)), (Q(1), Q(1))
# (start, end, target) -> verdict; a ray often appears as another vector
# on it, since the test is of rays
VERDICTS = {
    "strict-ccw": (RIGHT, LEFT, UP, CCW),
    "strict-cw": (LEFT, RIGHT, (Q(0), Q(3)), CW),
    "miss-beyond-end": (RIGHT, UP, LEFT, None),
    "miss-before-start": (UP, LEFT, RIGHT, None),
    "miss-cw-beyond-end": (LEFT, UP, RIGHT, None),
    "target-on-start": (RIGHT, LEFT, (Q(2), Q(2)), None),
    "zero-length-miss": (UP, (Q(0), Q(5)), LEFT, None),
    "ends-on-ccw": (RIGHT, LEFT, (Q(-3), Q(3)), ENDS_ON),
    "ends-on-cw": (LEFT, RIGHT, RIGHT, ENDS_ON),
    "zero-length-onto": (UP, (Q(0), Q(2)), (Q(0), Q(7)), ENDS_ON),
}


@pytest.mark.parametrize("case", VERDICTS)
def test_sweep_crossing_verdicts(case):
    # every outcome is returned, the end-on-target one included, and only
    # the strict crossings carry a rotation sense
    start, end, target, verdict = VERDICTS[case]
    assert sweep_crossing(start, end, target) == verdict


def test_sweep_crossing_on_central_charges(nf0):
    # pushing Z_m from the strong to the weak side turns it
    # counterclockwise over the weak ray of gamma_d, but not over its
    # strong ray, which lies beyond the sweep
    d, m = (1, 0), (0, 1)
    start, end = nf0.z(PLUS, m), nf0.z(MINUS, m)
    assert sweep_crossing(start, end, nf0.z(MINUS, d)) == CCW
    assert sweep_crossing(start, end, nf0.z(PLUS, d)) is None


def test_z_stays_with_its_instance():
    nf0, g = CATALOG["nf0"], (2, 3)
    assert (nf0.z(PLUS, g), nf0.z(MINUS, g)) == ((2, 100), (-1, 100))
    # a variant built by replace reads its own central charges, not
    # those of the theory it was built from
    moved = dataclasses.replace(nf0, z_plus=((-3, 20), (2, 20)),
                                z_minus=((1, 21), (-1, 20)))
    assert (moved.z(PLUS, g), moved.z(MINUS, g)) == ((0, 100), (-1, 102))
    assert nf0.z(PLUS, g) == (2, 100)
    # a theory that has been read equals, hashes and prints like a fresh
    # equal one, and shares its KS product
    fresh = dataclasses.replace(nf0)
    assert fresh == nf0 and hash(fresh) == hash(nf0)
    assert repr(fresh) == repr(nf0)
    strong = strong_table(nf0)
    built = ks.spectrum_auto(nf0, strong, PLUS, 3)
    assert ks.spectrum_auto(fresh, strong, PLUS, 3) is built
    assert ks._product.cache_info().currsize == 1
    # a list charge reads the Z of its tuple
    assert fresh.z(MINUS, [3, 1]) == fresh.z(MINUS, (3, 1)) == (2, 80)
    assert fresh.z(PLUS, [2, 3]) == (2, 100)


@pytest.mark.parametrize("theory", [*CATALOG.values(),
                                    rank3_theory("triangle", "g1")],
                         ids=lambda th: th.name)
def test_memoised_z_is_the_linear_sum(theory):
    for gamma in _effective_charges(theory, 6):
        for region, zs in ((PLUS, theory.z_plus), (MINUS, theory.z_minus)):
            want = tuple(sum((n * z[k] for n, z in zip(gamma, zs)),
                             Fraction(0)) for k in range(2))
            assert theory.z(region, gamma) == want, (region, gamma)
