import json
from fractions import Fraction
from pathlib import Path

import pytest

from gmn_reference import f_coeff
from wallcross.ks import infer_weak_spectrum
from wallcross.spectrum import (MAX_K, UnknownSpectrumError, spectrum_table,
                                strong_table)

Q = Fraction


def test_nf0_strong_table():
    t = spectrum_table("nf0", "strong")
    assert t.complete
    assert t.entries == {(1, 0): 1, (0, 1): 1}


def test_nf0_weak_table():
    t = spectrum_table("nf0", "weak")
    # dyons (k, k+1), (k+1, k) with index 1, vector state (1,1) with -2
    assert t.omega((1, 2)) == 1
    assert t.omega((2, 1)) == 1
    assert t.omega((1, 1)) == -2
    assert t.omega((5, 4)) == 1
    assert t.omega((2, 2)) == 0


def test_omega_is_symmetric_and_dt():
    t = spectrum_table("nf0", "weak")
    assert t.omega((-1, -2)) == t.omega((1, 2))
    # DT of a doubled charge picks up the 1/n^2 multiple-cover sum
    assert t.dt((2, 2)) == Q(t.omega((1, 1)), 4)
    assert t.dt((1, 1)) == -2


def test_incomplete_table_raises():
    t = spectrum_table("nf3", "weak")
    assert not t.complete
    with pytest.raises(UnknownSpectrumError):
        t.omega((9, 9, 9, 9, 18))


def test_omega_beyond_the_covered_degree_names_it(nf0):
    # an inferred table has no family truncation, only a covered degree
    inferred = infer_weak_spectrum(nf0, strong_table(nf0), 3)
    with pytest.raises(UnknownSpectrumError, match=r"^nf0/weak: \(5, 5\) "
                       r"beyond the covered degree 3$"):
        inferred.omega((5, 5))
    # a catalog weak table names its family truncation as well
    with pytest.raises(UnknownSpectrumError, match=r"^nf0/weak: \(5, 5\) "
                       r"beyond the covered degree 3 \(truncation K=1\)$"):
        spectrum_table("nf0", "weak", K=1).omega((5, 5))


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["nf0", "nf1", "nf2", "nf3"])
@pytest.mark.parametrize("region", ["strong", "weak"])
def test_frozen_data_matches_generators(name, region):
    # the frozen JSON tables are regenerated output, byte-for-byte in content
    frozen = json.loads((DATA / f"{name}_{region}.json").read_text())
    K = frozen["truncation"]
    live = spectrum_table(name, region, K=K) if K is not None \
        else spectrum_table(name, region)
    assert frozen == live.to_json()


def test_f_coeff_nf0_is_dt_times_charge():
    t = spectrum_table("nf0", "weak")
    for g in [(1, 1), (2, 2), (1, 2), (3, 3)]:
        c, direction = f_coeff(t, g)
        total = tuple(c * x for x in direction)
        want = tuple(t.dt(g) * x for x in g)
        assert total == want


def test_f_coeff_with_refinement():
    t = spectrum_table("nf1", "weak")
    c, direction = f_coeff(t, (2, 2, -2))
    # even cover of (1,1,-1): the n=1 and n=2 terms share the unit
    # sigma(gamma), since sigma(gamma/2)^2 = +1 = sigma(gamma)
    assert direction == (1, 1, -1)
    assert c == 2 * t.omega((2, 2, -2)) + Q(t.omega((1, 1, -1)), 2)


@pytest.mark.parametrize("name", ["nf0", "nf1", "nf2", "nf3"])
@pytest.mark.parametrize("region", ["strong", "weak"])
def test_truncation_above_the_bound_is_rejected(name, region):
    # the weak tables hold O(K) entries; the bound is checked before any
    # entry is built, so only K = MAX_K + 1 is ever tried
    with pytest.raises(ValueError, match=f"at most {MAX_K}, got {MAX_K + 1}$"):
        spectrum_table(name, region, MAX_K + 1)
