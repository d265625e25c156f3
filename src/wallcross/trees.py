"""Labelled tree enumeration and canonical forms of charge-decorated trees.

The js and gmn tree loops both get their trees from one call,
enumerate_labelled_trees(n, zero_edges), in js._supported_trees."""
from __future__ import annotations

from collections.abc import Collection
from functools import cache
from itertools import combinations, permutations, product

from .lattice import Charge

MAX_TREE_VERTICES = 7

Edge = tuple[int, int]


@cache
def _tree_table(n: int) -> tuple[tuple[tuple[Edge, ...], ...], dict[Edge, int]]:
    """The labelled trees on 0..n-1 in Prufer-sequence order, and for each
    edge the bit set (bit k for tree k) of the trees that contain it.

    Built from the table one size down by the first leaf.  Write a
    sequence as (s0, t): its first leaf l is the smallest vertex not in
    it, the first edge is (l, s0), and the rest of the tree is the tree of
    t on the other n - 1 vertices, relabelled by the monotone map that
    skips l.  l is the smallest vertex l1 missing from t, or the second
    smallest l2 when s0 = l1, so each tail t needs two lifted subtrees.
    Tree k = s0 n^(n-3) + (index of t) is then (l, s0) plus one of them.

    The bit sets are built per tail, not per tree: L1[x] marks the tails
    whose l1 subtree has the edge x or whose l1 is the vertex x, L2[x]
    the same for l2.  The block of s0 takes L2[e] where l1 = s0 and L1[e]
    elsewhere, and has the first edge (o, s0) where l = o.  The n(n-1)/2
    edge tuples are shared between trees to keep the n = 7 table small.
    """
    if n == 1:
        return ((),), {}
    if n == 2:
        return (((0, 1),),), {(0, 1): 1}
    edge = {e: e for e in combinations(range(n), 2)}
    sub = _tree_table(n - 1)[0]
    # lift[l] maps an edge on 0..n-2 to the shared edge that skips vertex l
    lift = [{(i, j): edge[i + (i >= l), j + (j >= l)]
             for i, j in combinations(range(n - 1), 2)} for l in range(n)]
    tails = n ** (n - 3)
    # marks[c][x][tails - 1 - k] is "1" iff L1 (c = 0) or L2 (c = 1) has
    # tail k: base-2 numerals
    marks = [{x: bytearray(b"0") * tails for x in [*edge, *range(n)]}
             for c in (0, 1)]
    one = ord("1")
    rests = []
    for k, t in enumerate(product(range(n), repeat=n - 3)):
        pair = []
        for l, mark in zip([v for v in range(n) if v not in t], marks):
            idx = 0
            for v in t:
                idx = idx * (n - 1) + v - (v > l)
            rest = tuple(map(lift[l].__getitem__, sub[idx]))
            pair.append((l, rest))
            for x in (l, *rest):
                mark[x][tails - 1 - k] = one
        rests.append(pair)
    head = {(l, s0): (edge[min(l, s0), max(l, s0)],)
            for l, s0 in permutations(range(n), 2)}
    table = tuple([head[l2, s0] + r2 if s0 == l1 else head[l1, s0] + r1
                   for s0 in range(n) for (l1, r1), (l2, r2) in rests])
    L1, L2 = ({x: int(b, 2) for x, b in mark.items()} for mark in marks)
    masks = dict.fromkeys(edge, 0)
    for e in edge:
        for s0 in range(n):
            block = (L1[e] & ~L1[s0]) | (L2[e] & L1[s0])
            if s0 in e:
                o = e[0] + e[1] - s0
                block |= L1[o] | (L1[s0] & L2[o])
            masks[e] |= block << (s0 * tails)
    return table, masks


def enumerate_labelled_trees(n: int, zero_edges: Collection[Edge] = ()
                             ) -> tuple[tuple[Edge, ...], ...]:
    """The labelled trees on vertices 0..n-1 that contain no edge of
    zero_edges, in the order of their Prufer sequences.

    Each edge is (i, j) with i < j.  The table is built once per process
    and, with no zero edge, returned itself to every caller, so it is made
    of tuples.  A tree sum weighted by edge factors needs only the trees
    without a zero factor: each zero edge clears the bit set of its trees.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > MAX_TREE_VERTICES:
        raise ValueError(f"tree size {n} exceeds bound {MAX_TREE_VERTICES}")
    table, masks = _tree_table(n)
    if not zero_edges:
        return table
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
