"""Differential tests: the library's ordering symbols, tree sum and grouped
tree values return exactly the values of the reference implementations in
js_reference.py."""
from collections import defaultdict
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import js_reference as ref
from gmn_reference import sigma_reduce
from test_conjecture_sweep import MAX_DEGREE, _targets
from test_rank3_sweep import PAIRINGS, TARGETS as RANK3_TARGETS, rank3_theory
from wallcross import js
from wallcross.js import (_edge_weights, _inversions, _slot_sum, _slot_trees,
                          decompositions, s_symbol, strong_parts, u_symbol)
from wallcross.lattice import PLUS, MINUS, direction_key, theory_by_name
from wallcross.spectrum import SpectrumTable, spectrum_table, strong_table
from wallcross.trees import MAX_TREE_VERTICES

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


def _check_multisets(theory, table, target):
    # the reference tries every vector of part multiplicities, so a
    # multiplicity the library's walk skips, or a branch it drops that
    # could still end, shows up as a difference
    want = sorted(ref.multisets(theory, table, target))
    for bound in (None, 1, 2, 3, 5):
        assert js.multisets(theory, table, target, bound) == [
            ms for ms in want if bound is None or len(ms) <= bound], bound


@pytest.mark.parametrize("name,target", [
    (name, target) for name in sorted(TARGETS) for target in TARGETS[name]])
def test_multisets_match_reference(name, target):
    # nf0 parts sort as the gamma_m multiples, then the delta ones, and
    # nf1 parts as the -g3 multiples first, so a coordinate stops being
    # reachable after the first block of parts
    _check_multisets(theory_by_name(name), spectrum_table(name, "strong"),
                     target)


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_multisets_match_reference_on_rank3(pairing):
    # three blocks of basis multiples, e2 then e1 then e0: the e2 and then
    # the e1 coordinate stop being reachable
    theory = rank3_theory(pairing, "g0")
    table = strong_table(theory)
    for target in RANK3_TARGETS:
        _check_multisets(theory, table, target)


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
    """1-7 parts of one theory in any order (7 is the most a tree sum
    takes), drawn as up to three runs of parts on one strong ray each, so
    that a sequence may be no sorted decomposition of anything and may
    hold long runs on one ray: nf0 multiples, the nf2/nf3 D-type parts,
    the nf1 pinned -g3 ray."""
    name = draw(st.sampled_from(sorted(RAYS)))
    theory, rays = RAYS[name]
    alphas = []
    for _ in range(draw(st.integers(1, 3))):
        ray = draw(st.sampled_from(rays))
        alphas += draw(st.lists(st.sampled_from(ray), min_size=1,
                                max_size=MAX_TREE_VERTICES))
    return theory, alphas[:MAX_TREE_VERTICES]


@given(part_sequences())
@settings(max_examples=200, deadline=None)
def test_u_matches_reference_on_any_part_sequence(case):
    # every cut factor of U, forced or optional, is checked beyond the
    # orders the catalog decompositions happen to reach
    theory, alphas = case
    assert u_symbol(theory, alphas) == ref.u_symbol(theory, alphas), alphas


def test_tree_weight_matches_reference(theory_decomps):
    # js_wallcross weighs an ordering's trees through the slot trees of
    # its multiset; they are built here from the last ordering, not the
    # sorted first one, so that the builder's own inversions are undone
    theory, decomps = theory_decomps
    rows_of = {}
    for alphas in reversed(decomps):
        ms = tuple(sorted(alphas))
        if ms not in rows_of:
            rows_of[ms] = _slot_trees(alphas, _edge_weights(theory, alphas, {}))
        assert _slot_sum(rows_of[ms], _inversions(alphas)) == \
            ref.tree_weight_sum(theory, alphas), alphas


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
    return [(key, t.charges, t.edges, t.total)
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
        assert sum(t.total for t in got.values()) == \
            js.js_wallcross(theory, table, target, max_vertices), (name, target)


def _parity_sign(weights):
    return -1 if sum(weights[i][j] for i in range(len(weights))
                     for j in range(i + 1, len(weights))) % 2 else 1


def test_weighted_decompositions_read_sigma_off_the_weight_table():
    # the fast path groups the orderings by multiset, reads each pairing
    # once per call and takes the sign from the first weight table; the
    # slow path pairs afresh and folds sigma_reduce, and the multiset's
    # factor and each ordering's integer U are rebuilt from U, DT and that
    # sign
    for name, target, max_vertices in _tree_value_targets():
        theory, table = theory_by_name(name), spectrum_table(name, "strong")
        orders_of = {}
        for alphas in decompositions(theory, table, target, max_vertices):
            u = u_symbol(theory, list(alphas))
            if u:
                orders_of.setdefault(tuple(sorted(alphas)), []).append(
                    (alphas, u))
        got = list(js._multiset_terms(theory, table, target, max_vertices))
        assert [tuple(sorted(first)) for first, *_ in got] == [
            ms for ms in orders_of if prod(map(table.dt, ms))], target
        for first, weights, c, terms in got:
            ms = tuple(sorted(first))
            n, scale = len(ms), factorial(len(ms)) ** 2
            sign = sigma_reduce(theory, first)[0]
            assert first == orders_of[ms][0][0], ms
            assert weights == _edge_weights(theory, first, {}), first
            assert _parity_sign(weights) == sign, first
            assert c == (sign * prod(map(table.dt, ms))
                         * Fraction((-1) ** (n - 1), 2 ** (n - 1) * scale)), ms
            assert len(terms) == len(orders_of[ms]), ms
            for (u_int, inv), (alphas, u) in zip(terms, orders_of[ms]):
                assert Fraction(u_int, scale) == u, alphas
                assert inv == _inversions(alphas), alphas


@given(part_sequences(), st.data())
@settings(max_examples=200, deadline=None)
def test_multiset_factor_is_ordering_invariant(case, data):
    # _multiset_terms takes the sign of a multiset from one ordering and
    # sums U (n!)^2 of every ordering as an integer
    theory, alphas = case
    n, sign = len(alphas), sigma_reduce(theory, alphas)[0]
    for _ in range(3):
        perm = data.draw(st.permutations(alphas))
        assert _parity_sign(_edge_weights(theory, tuple(perm), {})) == \
            sigma_reduce(theory, perm)[0] == sign, perm
        assert (u_symbol(theory, perm) * factorial(n) ** 2).denominator == 1


@given(part_sequences())
@settings(max_examples=200, deadline=None)
def test_weight_table_parity_is_the_sigma_fold(case):
    theory, alphas = case
    weights = _edge_weights(theory, tuple(alphas), {})
    assert weights == [[theory.pair(a, b) if i < j else 0
                        for j, b in enumerate(alphas)]
                       for i, a in enumerate(alphas)]
    assert _parity_sign(weights) == sigma_reduce(theory, alphas)[0], alphas


@given(part_sequences())
@settings(max_examples=200, deadline=None)
def test_slot_tree_sign_is_the_inversion_parity(case):
    # js_tree_values weighs a supported slot tree of the sorted multiset,
    # in any ordering, as its slot weight product P times the parity of
    # its slot pairs that the ordering inverts
    theory, alphas = case
    alphas, ms = tuple(alphas), tuple(sorted(alphas))
    n = len(ms)
    slot_weights = _edge_weights(theory, ms, {})
    weights = _edge_weights(theory, alphas, {})
    # pos[s] is the position of slot s: equal parts keep their order
    pos = [[p for p, b in enumerate(alphas) if b == a][s - ms.index(a)]
           for s, a in enumerate(ms)]
    assert [js._slots(alphas)[p] for p in pos] == list(range(n))
    inv = _inversions(alphas)
    assert _inversions(ms) == 0
    assert inv == sum(1 << (s * n + t) for s in range(n)
                      for t in range(s + 1, n) if pos[s] > pos[t]), alphas
    for edges in js._supported_trees(slot_weights):
        mask = sum(1 << (s * n + t) for s, t in edges)
        p = prod(slot_weights[s][t] for s, t in edges)
        moved = [tuple(sorted((pos[s], pos[t]))) for s, t in edges]
        assert (p * (-1) ** (mask & inv).bit_count()
                == prod(weights[i][j] for i, j in moved)), alphas


@given(part_sequences())
@settings(max_examples=200, deadline=None)
def test_slot_trees_match_the_per_tree_formula(case):
    # _slot_trees reads each edge's slot bit and signed weight from tables
    # built once per ordering; the rows are recomputed here tree by tree
    # and edge by edge from _slots and _inversions
    theory, alphas = case
    alphas = tuple(alphas)
    n, weights = len(alphas), _edge_weights(theory, alphas, {})
    slot, inv = js._slots(alphas), _inversions(alphas)
    want = []
    for edges in js._supported_trees(weights):
        mask = sum(1 << (min(slot[i], slot[j]) * n + max(slot[i], slot[j]))
                   for i, j in edges)
        w = prod(weights[i][j] for i, j in edges)
        want.append((edges, mask, -w if (mask & inv).bit_count() & 1 else w))
    assert _slot_trees(alphas, weights) == want, alphas


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
