from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from js_reference import labelled_trees, tree_from_prufer, trees_without
from wallcross.trees import (_tree_table, adjacency, canon_oriented,
                             canon_unoriented, centroids,
                             enumerate_labelled_trees)


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


@pytest.mark.parametrize("n", range(1, 8))
def test_edge_masks_match_heap_decoder(n):
    # bit k of an edge's mask is set iff the k-th heap-decoded tree has the
    # edge; the cache is cleared so the table and the smaller ones it is
    # built from are made afresh
    _tree_table.cache_clear()
    trees = [set(t) for t in labelled_trees(n)]
    masks = _tree_table(n)[1]
    assert set(masks) == set(combinations(range(n), 2))
    for e, mask in masks.items():
        assert f"{mask:0{len(trees)}b}"[::-1] == \
            "".join("01"[e in t] for t in trees), e


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
    # own table and bit sets
    n, zero = case
    got = [list(t) for t in enumerate_labelled_trees(n, zero)]
    assert got == trees_without(n, zero)


def test_zero_edges_complete_bipartite():
    # edges inside either side of 3 + 4 vertices vanish: the 3^3 * 4^2 = 432
    # spanning trees of K_{3,4} remain
    zero = [(i, j) for i, j in combinations(range(7), 2) if (i < 3) == (j < 3)]
    assert len(enumerate_labelled_trees(7, zero)) == 432
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

