"""Differential tests: the library's ordering symbols, tree sum and grouped
tree values return exactly the values of the reference implementations in
js_reference.py."""
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import js_reference as ref
from test_conjecture_sweep import MAX_DEGREE, _targets
from wallcross import js
from wallcross.js import (_tree_weight, decompositions, s_symbol,
                          strong_parts, u_symbol)
from wallcross.lattice import PLUS, MINUS, direction_key, theory_by_name
from wallcross.spectrum import SpectrumTable, spectrum_table
from wallcross.symbolic import Value

# catalog and benchmark targets
TARGETS = {
    "nf0": [(1, 1), (1, 2), (2, 3), (2, 4), (3, 3), (3, 4)],
    "nf1": [(1, 1, -1), (2, 2, -1), (2, 1, -1)],
    "nf2": [(1, 1, 1, 1), (2, 1, 1, 1)],
    "nf3": [(1, 1, 1, 1, 2)],
}
MAX_PARTS = 7


def _decompositions(name):
    theory = theory_by_name(name)
    table = spectrum_table(name, "strong")
    seen = set()
    for target in TARGETS[name]:
        seen.update(a for a in decompositions(theory, table, target)
                    if len(a) <= MAX_PARTS)
    return theory, sorted(seen)


@pytest.fixture(scope="module", params=sorted(TARGETS))
def theory_decomps(request):
    return _decompositions(request.param)


@pytest.mark.parametrize("target", [(1, 1), (1, 2), (2, 3), (2, 4), (3, 4),
                                    (3, 5), (4, 4), (4, 5)])
def test_decompositions_match_reference(target):
    theory, table = theory_by_name("nf0"), spectrum_table("nf0", "strong")
    want = ref.decompositions(theory, table, target)
    assert decompositions(theory, table, target) == want
    for bound in (1, 2, 3):
        assert decompositions(theory, table, target, bound) == [
            a for a in want if len(a) <= bound]


def test_u_and_s_match_reference(theory_decomps):
    theory, decomps = theory_decomps
    assert decomps
    for alphas in decomps:
        alphas = list(alphas)
        assert u_symbol(theory, alphas) == ref.u_symbol(theory, alphas), alphas
        assert s_symbol(theory, alphas) == ref.s_symbol(theory, alphas), alphas


def _rays(name):
    """The strong_parts of the theory's targets, grouped by strong ray."""
    theory, table = theory_by_name(name), spectrum_table(name, "strong")
    rays = defaultdict(set)
    for target in TARGETS[name]:
        for part in strong_parts(theory, table, target):
            rays[direction_key(theory.z(PLUS, part))].add(part)
    return theory, [sorted(parts) for _, parts in sorted(rays.items())]


RAYS = {name: _rays(name) for name in sorted(TARGETS)}


@st.composite
def part_sequences(draw):
    """1-6 parts of one theory in any order, drawn as up to three runs of
    parts on one strong ray each, so that a sequence may be no sorted
    decomposition of anything and may hold long runs on one ray: nf0
    multiples, the nf2/nf3 D-type parts, the nf1 pinned -g3 ray."""
    name = draw(st.sampled_from(sorted(RAYS)))
    theory, rays = RAYS[name]
    alphas = []
    for _ in range(draw(st.integers(1, 3))):
        ray = draw(st.sampled_from(rays))
        alphas += draw(st.lists(st.sampled_from(ray), min_size=1, max_size=6))
    return theory, alphas[:6]


@given(part_sequences())
@settings(max_examples=200, deadline=None)
def test_u_matches_reference_on_any_part_sequence(case):
    # every cut factor of U, forced or optional, is checked beyond the
    # orders the catalog decompositions happen to reach
    theory, alphas = case
    assert u_symbol(theory, alphas) == ref.u_symbol(theory, alphas), alphas


def test_tree_weight_matches_reference(theory_decomps):
    theory, decomps = theory_decomps
    for alphas in decomps:
        assert _tree_weight(theory, alphas) == ref.tree_weight_sum(
            theory, alphas, signed=False), alphas


def test_central_charge_is_the_linear_sum(theory_decomps):
    theory, decomps = theory_decomps
    for alphas in decomps:
        for gamma in alphas:
            for region, zs in ((PLUS, theory.z_plus), (MINUS, theory.z_minus)):
                want = tuple(sum((n * z[k] for n, z in zip(gamma, zs)), Fraction(0))
                             for k in range(2))
                assert theory.z(region, gamma) == want


def _tree_value_targets():
    """The conjecture sweep's 132 targets, then the catalog and benchmark
    targets it does not reach, as (theory, target, max_vertices)."""
    out = [(name, target, None) for name, degree in MAX_DEGREE.items()
           for target in _targets(theory_by_name(name), degree)]
    extra = [("nf0", (1, 1), None), ("nf0", (1, 2), None),
             ("nf0", (2, 3), None), ("nf0", (2, 4), None),
             ("nf0", (3, 3), None), ("nf1", (1, 1, -1), None),
             ("nf1", (2, 2, -1), None), ("nf1", (2, 1, -1), None),
             ("nf2", (1, 1, 1, 1), None), ("nf3", (1, 1, 1, 1, 2), 5)]
    return out + [t for t in extra if t not in out]


def _tree_value_rows(trees):
    return [(key, t.charges, t.edges, t.total.terms)
            for key, t in trees.items()]


def test_tree_values_match_reference():
    targets = _tree_value_targets()
    assert len(targets) == 134
    for name, target, max_vertices in targets:
        theory, table = theory_by_name(name), spectrum_table(name, "strong")
        got = js.js_tree_values(theory, table, target, max_vertices)
        want = ref.tree_values(theory, table, target, max_vertices)
        # the key order too: conjecture_check takes its symbol order from it
        assert _tree_value_rows(got) == _tree_value_rows(want), (name, target)
        # the grouped loop and the invariant's loop sum to one number
        assert sum((t.total for t in got.values()), Value.zero()) == \
            Value.rational(js.js_wallcross(theory, table, target,
                                           max_vertices)), (name, target)


@pytest.mark.parametrize("target, unoriented", [((3, 3), 114), ((2, 3), 20)])
def test_tree_values_canonicalise_once_per_slot_tree(monkeypatch, target,
                                                     unoriented):
    """canon_unoriented runs once per distinct undirected slot tree: nf0
    3,3 has 114 of them, 2,3 has 20.  Keyed per (ordering, labelled tree)
    pair, it ran 1,888 times on 3,3 and 151 times on 2,3.  No directed key
    is computed at all."""
    assert not hasattr(js, "canon_oriented")
    counts = {"canon_unoriented": 0}
    for name in counts:
        def counted(*args, _name=name, _f=getattr(js, name)):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(js, name, counted)
    js.js_tree_values(theory_by_name("nf0"), spectrum_table("nf0", "strong"),
                      target)
    assert counts == {"canon_unoriented": unoriented}


def test_u_reads_one_s_per_chunk_and_dt_per_part(monkeypatch):
    """nf0 3,4 makes one s_symbol call per weak-ray chunk (289) and one
    SpectrumTable.dt call per distinct part (7).  Summing S over every
    block cut of a chunk, and reading DT for each part of each ordering,
    made 1,315 and 1,105."""
    counts = {"s_symbol": 0, "dt": 0}

    def counter(name, f):
        def counted(*args):
            counts[name] += 1
            return f(*args)
        return counted

    monkeypatch.setattr(js, "s_symbol", counter("s_symbol", js.s_symbol))
    monkeypatch.setattr(SpectrumTable, "dt", counter("dt", SpectrumTable.dt))
    assert js.js_wallcross(theory_by_name("nf0"),
                           spectrum_table("nf0", "strong"), (3, 4)) == 1
    assert counts == {"s_symbol": 289, "dt": 7}
