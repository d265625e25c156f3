import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from js_reference import labelled_trees, tree_from_prufer, trees_without
from wallcross.trees import (adjacency, canon_oriented, canon_unoriented,
                             centroids, enumerate_labelled_trees)


def test_cayley_counts():
    for n in range(1, 7):
        expect = 1 if n <= 2 else n ** (n - 2)
        assert len(enumerate_labelled_trees(n)) == expect


def test_labelled_tree_table_is_shared_and_immutable():
    trees = enumerate_labelled_trees(5)
    assert enumerate_labelled_trees(5) is trees
    assert isinstance(trees, tuple)
    assert all(isinstance(t, tuple) for t in trees)
    with pytest.raises(TypeError):
        trees[0][0] = (3, 4)


def test_trees_are_distinct_and_valid():
    n = 5
    seen = set()
    for edges in enumerate_labelled_trees(n):
        assert len(edges) == n - 1
        key = frozenset(frozenset(e) for e in edges)
        assert key not in seen
        seen.add(key)
        # connectivity: reachable set from 0 is everything
        adj = {i: [] for i in range(n)}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        stack, reach = [0], {0}
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in reach:
                    reach.add(u)
                    stack.append(u)
        assert reach == set(range(n))


def test_prufer_path_and_star():
    # sequence (1, 2) decodes to the path 0-1-2-3
    edges = tree_from_prufer([1, 2], 4)
    degs = [0] * 4
    for a, b in edges:
        degs[a] += 1
        degs[b] += 1
    assert sorted(degs) == [1, 1, 2, 2]
    # constant sequence decodes to a star
    edges = tree_from_prufer([0, 0], 4)
    degs = [0] * 4
    for a, b in edges:
        degs[a] += 1
        degs[b] += 1
    assert sorted(degs) == [1, 1, 1, 3]


@pytest.mark.parametrize("n", range(1, 8))
def test_table_matches_heap_decoder(n):
    # same trees, same edge order, same tree order as the heap decoder
    assert [list(t) for t in enumerate_labelled_trees(n)] == labelled_trees(n)


def _zero_edge_subsets(n):
    edges = list(combinations(range(n), 2))
    for bits in range(1 << len(edges)):
        yield [e for k, e in enumerate(edges) if bits >> k & 1]


def test_every_zero_edge_subset_matches_heap_decoder():
    # every support graph on at most 5 vertices: the same trees, tree
    # order and edge order as the heap decoder filtered edge by edge
    cases = 0
    for n in range(1, 6):
        for zero in _zero_edge_subsets(n):
            got = [list(t) for t in enumerate_labelled_trees(n, zero)]
            assert got == trees_without(n, zero), (n, zero)
            cases += 1
    assert cases == 1099


def _bipartite_zero_edges(a, n):
    # the edges inside either side of a + (n - a) vertices
    return [(i, j) for i, j in combinations(range(n), 2)
            if (i < a) == (j < a)]


@pytest.mark.parametrize("a,n", [(2, 6), (3, 7)])
def test_complete_bipartite_supports_match_heap_decoder(a, n):
    # K_{2,4} and K_{3,4}, then each of them with one edge removed
    zero = _bipartite_zero_edges(a, n)
    cross = [e for e in combinations(range(n), 2) if e not in zero]
    for extra in [[], *([e] for e in cross)]:
        got = [list(t) for t in enumerate_labelled_trees(n, zero + extra)]
        assert got == trees_without(n, zero + extra), extra


@pytest.mark.parametrize("bad", [(2, 1), (0, 9), (1, 1), (-1, 2), [0, 1],
                                 (0, 1, 2)])
def test_zero_edge_must_be_an_edge(bad):
    # an edge out of order, past the last vertex or a loop is refused by
    # name; skipping it would return trees that contain the edge
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        enumerate_labelled_trees(4, [bad])


@st.composite
def zero_edge_sets(draw):
    n = draw(st.integers(1, 7))
    edges = list(combinations(range(n), 2))
    zero = draw(st.one_of(st.just([]), st.just(edges),
                          st.lists(st.sampled_from(edges), unique=True)
                          if edges else st.just([])))
    return n, zero


@given(zero_edge_sets())
@settings(max_examples=150, deadline=None)
def test_zero_edges_filter_the_table(case):
    # against the heap decoder filtered edge by edge, not the library's
    # own enumeration
    n, zero = case
    got = [list(t) for t in enumerate_labelled_trees(n, zero)]
    assert got == trees_without(n, zero)


def test_zero_edges_complete_bipartite():
    # edges inside either side of 3 + 4 vertices vanish: the 3^3 * 4^2 = 432
    # spanning trees of K_{3,4} remain
    assert len(enumerate_labelled_trees(7, _bipartite_zero_edges(3, 7))) == 432
    assert enumerate_labelled_trees(7, []) is enumerate_labelled_trees(7)


def test_centroids():
    path4 = [(0, 1), (1, 2), (2, 3)]
    assert sorted(centroids(adjacency(4, path4))) == [1, 2]
    star4 = [(0, 1), (0, 2), (0, 3)]
    assert centroids(adjacency(4, star4)) == [0]


def test_canon_unoriented_label_invariance():
    # the path a-b-c equals its relabelled mirror
    a, b, c = (1, 0), (0, 1), (2, 1)
    k1 = canon_unoriented(3, [(0, 1), (1, 2)], [a, b, c])
    k2 = canon_unoriented(3, [(2, 1), (1, 0)], [c, b, a])
    assert k1 == k2
    # decorations matter
    k3 = canon_unoriented(3, [(0, 1), (1, 2)], [a, c, b])
    assert k1 != k3


def test_canon_oriented_distinguishes_roots():
    a, b = (1, 0), (0, 1)
    k1 = canon_oriented(2, [(0, 1)], [a, b])
    k2 = canon_oriented(2, [(1, 0)], [a, b])
    assert k1 != k2

