"""Labelled tree enumeration and canonical forms of charge-decorated trees."""
from __future__ import annotations

from collections.abc import Collection
from functools import cache
from itertools import combinations, product

from .lattice import Charge

MAX_TREE_VERTICES = 7

Edge = tuple[int, int]


@cache
def _tree_table(n: int) -> tuple[tuple[tuple[Edge, ...], ...], dict[Edge, int]]:
    """The labelled trees on 0..n-1 in Prufer-sequence order, and for each
    edge the bit set (bit k for tree k) of the trees that contain it.

    One pass decodes every sequence: the smallest leaf is the first vertex
    of degree 1, and a used leaf drops to degree 0.  The n(n-1)/2 edge
    tuples are shared between trees to keep the n = 7 table small.
    """
    if n == 1:
        return ((),), {}
    edge = {e: e for e in combinations(range(n), 2)}
    count = n ** (n - 2)
    # bits[e][count - 1 - k] is "1" iff tree k contains e: a base-2 numeral
    bits = {e: bytearray(b"0") * count for e in edge}
    one = ord("1")
    table = []
    for k, seq in enumerate(product(range(n), repeat=n - 2)):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        tree = []
        for v in seq:
            leaf = degree.index(1)
            degree[leaf] = 0
            degree[v] -= 1
            tree.append(edge[leaf, v] if leaf < v else edge[v, leaf])
        u = degree.index(1)
        tree.append(edge[u, degree.index(1, u + 1)])
        table.append(tuple(tree))
        for e in tree:
            bits[e][count - 1 - k] = one
    return tuple(table), {e: int(b, 2) for e, b in bits.items()}


def enumerate_labelled_trees(n: int) -> tuple[tuple[Edge, ...], ...]:
    """All labelled trees on vertices 0..n-1, in the order of their Prufer
    sequences.

    Each edge is (i, j) with i < j.  The table is built once per process
    and shared by every caller, so it is made of tuples.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > MAX_TREE_VERTICES:
        raise ValueError(f"tree size {n} exceeds bound {MAX_TREE_VERTICES}")
    return _tree_table(n)[0]


def trees_avoiding(n: int, zero_edges: Collection[Edge]
                   ) -> tuple[tuple[Edge, ...], ...]:
    """The trees of enumerate_labelled_trees(n) that contain no edge of
    zero_edges (pairs (i, j) with i < j < n), in table order.

    A tree sum weighted by edge factors needs only these when the factors
    of zero_edges vanish: each one clears the bit set of its trees.
    """
    table = enumerate_labelled_trees(n)
    if not zero_edges:
        return table
    masks = _tree_table(n)[1]
    keep = (1 << len(table)) - 1
    for e in zero_edges:
        keep &= ~masks[e]
    bits = f"{keep:b}"[::-1]
    out = []
    k = bits.find("1")
    while k >= 0:
        out.append(table[k])
        k = bits.find("1", k + 1)
    return tuple(out)


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
