import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from gmn_reference import f_coeff
from wallcross.ks import infer_weak_spectrum
from wallcross.lattice import content, theory_by_name
from wallcross.spectrum import (MAX_K, SpectrumTable, UnknownSpectrumError,
                                spectrum_table, strong_table)

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


def _dt_by_divisors(table, gamma):
    """DT(gamma) = sum_{n | d} Omega(gamma/n) / n^2 term by term, asking
    Omega in the order of n = 1, 2, ..., d."""
    d = content(gamma)
    total = Q(0)
    for n in range(1, d + 1):
        if d % n == 0:
            total += Q(table.omega(tuple(x // n for x in gamma)), n * n)
    return total


def _outcome(dt, table, gamma):
    try:
        return "value", dt(table, gamma)
    except UnknownSpectrumError as exc:
        return "raised", str(exc)


def _effective_charges(theory, degree):
    for coords in product(range(degree + 1), repeat=theory.rank):
        if 0 < sum(coords) <= degree:
            yield tuple(s * x for s, x in zip(theory.effective_signs, coords))


@pytest.mark.parametrize("name,K,raised,covers", [
    ("nf0", 10, 0, 28), ("nf1", 10, 0, 45), ("nf2", 10, 0, 65),
    # covered to degree 3, 6 and 3: the larger charges raise
    ("nf0", 1, 56, 4), ("nf1", 1, 202, 22), ("nf2", 1, 965, 8),
    # hand-entered and incomplete: every untabulated charge raises
    ("nf3", None, 2995, 0)])
def test_dt_is_the_divisor_sum(name, K, raised, covers):
    # every effective charge to degree 10, against the divisor sum term by
    # term; `covers` counts the values that are not integers (multi-covers
    # such as DT(2,2) = Omega(2,2) + Omega(1,1)/4 = -1/2 on nf0), and a
    # charge that cannot be summed raises the error of the first Omega it
    # cannot read
    table = spectrum_table(name, "weak") if K is None else \
        spectrum_table(name, "weak", K)
    outcomes = [(_outcome(SpectrumTable.dt, table, g),
                 _outcome(_dt_by_divisors, table, g))
                for g in _effective_charges(theory_by_name(name), 10)]
    assert [got for got, want in outcomes if got != want] == []
    got = [outcome for outcome, _ in outcomes]
    assert sum(kind == "raised" for kind, _ in got) == raised
    assert sum(kind == "value" and v.denominator > 1 for kind, v in got) == covers
