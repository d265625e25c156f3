"""Labelled tree enumeration and canonical forms of charge-decorated trees.

The js and gmn tree loops both get their trees from one call,
enumerate_labelled_trees(n, zero_edges), in js._supported_trees: the
spanning trees of the graph of nonzero edges, generated directly as
parent pointers and put in Prufer order, never filtered from all
n^(n-2) labelled trees."""
from __future__ import annotations

from collections.abc import Collection
from functools import cache

from .lattice import Charge

MAX_TREE_VERTICES = 7

Edge = tuple[int, int]


@cache
def _edge_table(n: int) -> dict[Edge, Edge]:
    """Each ordered pair of distinct vertices, mapped to the edge tuple
    (i, j) with i < j that every tree on n vertices shares."""
    return {(a, b): (min(a, b), max(a, b))
            for a in range(n) for b in range(n) if a != b}


@cache
def _spanning_trees(n: int, zero: frozenset[Edge]
                    ) -> tuple[tuple[Edge, ...], ...]:
    """The spanning trees of K_n minus the edges in zero, each as the heap
    Prufer decoder gives it, in the order of their sequences.

    Rooted at r = n - 1, a tree is a parent pointer for each other vertex,
    chosen among its neighbours.  The vertices take theirs in turn; a
    choice p for v closes a cycle iff the parents of the vertices already
    set lead from p back to v.  The linear Prufer encoder then removes the
    smallest leaf n - 2 times, and the leaf with its parent, then the last
    vertex with r, are the edges in the decoder's order.
    """
    if n == 1:
        return ((),)
    edge = _edge_table(n)
    r = n - 1
    neighbours = [[u for u in range(n) if u != v and edge[v, u] not in zero]
                  for v in range(n)]
    parent = [r] * n
    found: list[tuple[list[int], tuple[Edge, ...]]] = []

    def encode() -> None:
        degree = [1] * r + [0]
        for v in range(r):
            degree[parent[v]] += 1
        seq: list[int] = []
        edges: list[Edge] = []
        low = degree.index(1)
        leaf = low
        for _ in range(n - 2):
            p = parent[leaf]
            seq.append(p)
            edges.append(edge[leaf, p])
            degree[p] -= 1
            if degree[p] == 1 and p < low:
                leaf = p
            else:
                low = degree.index(1, low + 1)
                leaf = low
        edges.append(edge[leaf, r])
        found.append((seq, tuple(edges)))

    def choose(v: int) -> None:
        if v == r:
            encode()
            return
        for p in neighbours[v]:
            u = p
            while u < v:
                u = parent[u]
            if u != v:
                parent[v] = p
                choose(v + 1)

    choose(0)
    found.sort()
    return tuple(edges for _, edges in found)


def enumerate_labelled_trees(n: int, zero_edges: Collection[Edge] = ()
                             ) -> tuple[tuple[Edge, ...], ...]:
    """The labelled trees on vertices 0..n-1 that contain no edge of
    zero_edges, in the order of their Prufer sequences, each with the
    edges in the order the heap decoder gives them.

    Each zero edge is (i, j) with 0 <= i < j < n; any other value is
    refused.  A tree sum weighted by edge factors needs only the trees
    without a zero factor, and they are generated directly, never
    filtered from all n^(n-2).  The list for each vertex count and zero
    edge set is built once per process and returned itself to every
    caller, so it is made of tuples, and its edge tuples are shared.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > MAX_TREE_VERTICES:
        raise ValueError(f"tree size {n} exceeds bound {MAX_TREE_VERTICES}")
    for e in zero_edges:
        if not (isinstance(e, tuple) and len(e) == 2
                and all(isinstance(x, int) for x in e)
                and 0 <= e[0] < e[1] < n):
            raise ValueError(f"zero edge {e!r} is not a pair (i, j) with "
                             f"0 <= i < j < {n}")
    return _spanning_trees(n, frozenset(zero_edges))


def adjacency(n: int, edges: list[Edge]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def centroids(adj: list[list[int]]) -> list[int]:
    n = len(adj)
    if n == 1:
        return [0]
    deg = [len(a) for a in adj]
    leaves = [i for i in range(n) if deg[i] == 1]
    removed = [False] * n
    count = n
    while count > 2:
        nxt = []
        for leaf in leaves:
            removed[leaf] = True
            count -= 1
            for u in adj[leaf]:
                if not removed[u]:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        leaves = nxt
    return [i for i in range(n) if not removed[i]]


def charge_label(charge: Charge) -> str:
    return ",".join(str(x) for x in charge)


def encode(root: int, parent: int, adj: list[list[int]], labels: list[str],
           arcs: set[Edge] | None = None) -> tuple[str, int]:
    """Canonical string and automorphism order of the labelled subtree at
    `root` away from `parent` (-1 for the whole tree).  Given `arcs`, each
    child's string is tagged "o" (arc away from the parent) or "i".  Each
    run of k equal child strings multiplies the order by k!.
    """
    parts = []
    order = 1
    for child in adj[root]:
        if child != parent:
            sub, o = encode(child, root, adj, labels, arcs)
            if arcs is not None:
                sub = ("o" if (root, child) in arcs else "i") + sub
            parts.append(sub)
            order *= o
    parts.sort()
    run = 1
    for a, b in zip(parts, parts[1:]):
        run = run + 1 if a == b else 1
        order *= run
    return f"({labels[root]}|{';'.join(parts)})", order


def canon_unoriented(n: int, edges: list[Edge], charges: list[Charge]) -> str:
    """Canonical string of an unoriented charge-labelled tree."""
    adj = adjacency(n, edges)
    labels = [charge_label(c) for c in charges]
    return min(encode(c, -1, adj, labels)[0] for c in centroids(adj))


def canon_oriented(n: int, arcs: list[Edge], charges: list[Charge]) -> str:
    """Canonical string of an edge-oriented charge-labelled tree.

    `arcs` are directed (tail, head) pairs; the underlying tree is used
    for rooting so that equal decorated digraphs get equal strings.

    No library code calls it.  perfbench/tracer.py wraps it by name, so it
    and encode's `arcs` argument stay until the benchmark stops doing so.
    """
    adj = adjacency(n, arcs)
    labels = [charge_label(c) for c in charges]
    return min(encode(c, -1, adj, labels, set(arcs))[0] for c in centroids(adj))
