"""Reference implementations of the JS ordering symbols and tree sum.

These are the direct transcriptions of the Joyce–Song definitions: S
re-reads central charges as exact fractions for every slope test, U sums
over every nested composition of the parts, the tree weight sums over
every labelled tree, supported or not, with ``Theory.pair`` called on each
pair of parts, not read from the library's weight table, the labelled trees
are decoded from their Prufer sequences with a heap of leaves and
filtered edge by edge, apart from the library's direct enumeration,
the ordered decompositions are the distinct elements of every permutation
of every multiset of parts, the multisets found by trying every vector of
part multiplicities up to the most each part fits into the target, apart
from the library's walk, and the grouped tree values canonicalise every
(ordering, labelled tree) pair afresh and weight each ordering with this
module's U, the table's DT and a refinement sign read off their own pairing
table, never through the library's per-multiset terms.  The library
computes the same numbers faster; the differential tests check that it
returns exactly these values.
"""
from __future__ import annotations

import heapq
from functools import cache
from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod

from wallcross.lattice import (MINUS, PLUS, Charge, Theory, cadd, cross,
                               czero, same_ray)
from wallcross.js import TreeValue, strong_parts
from wallcross.spectrum import SpectrumTable
from wallcross.trees import canon_unoriented


def _slope_cmp(theory: Theory, region: str, a: Charge, b: Charge) -> int:
    za, zb = theory.z(region, a), theory.z(region, b)
    c = cross(za, zb)
    return -1 if c > 0 else (1 if c < 0 else 0)


def s_symbol(theory: Theory, alphas: list[Charge]) -> int:
    n = len(alphas)
    if n == 0:
        raise ValueError("empty decomposition")
    sign = 1
    head = alphas[0]
    tail = czero(len(head))
    for a in alphas[1:]:
        tail = cadd(tail, a)
    for i in range(n - 1):
        cs = _slope_cmp(theory, PLUS, alphas[i], alphas[i + 1])
        cw = _slope_cmp(theory, MINUS, head, tail)
        if cs <= 0 and cw > 0:
            sign = -sign
        elif cs > 0 and cw <= 0:
            pass
        else:
            return 0
        if i + 1 < n - 1:
            head = cadd(head, alphas[i + 1])
            tail = tuple(x - y for x, y in zip(tail, alphas[i + 1]))
    return sign


def _compositions(n: int):
    """Ordered partitions of {1..n} into consecutive blocks (as sizes)."""
    if n == 0:
        yield []
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield [first] + rest


def u_symbol(theory: Theory, alphas: list[Charge]) -> Fraction:
    n = len(alphas)
    total = alphas[0]
    for a in alphas[1:]:
        total = cadd(total, a)
    w_total = theory.z(MINUS, total)
    result = Fraction(0)
    for blocks in _compositions(n):
        # consecutive blocks of equal strong-side slope
        idx = 0
        betas: list[Charge] = []
        ok = True
        fac = Fraction(1)
        for size in blocks:
            seq = alphas[idx:idx + size]
            idx += size
            if any(not same_ray(theory.z(PLUS, seq[0]), theory.z(PLUS, b))
                   for b in seq[1:]):
                ok = False
                break
            s = seq[0]
            for b in seq[1:]:
                s = cadd(s, b)
            betas.append(s)
            fac /= factorial(size)
        if not ok:
            continue
        m = len(betas)
        for chunks in _compositions(m):
            # every chunk must share the weak-side slope of the total
            idx2 = 0
            good = True
            sprod = Fraction(1)
            for size in chunks:
                part = betas[idx2:idx2 + size]
                psum = part[0]
                for b in part[1:]:
                    psum = cadd(psum, b)
                if not same_ray(theory.z(MINUS, psum), w_total):
                    good = False
                    break
                sprod *= s_symbol(theory, betas[idx2:idx2 + size])
                idx2 += size
            if not good or sprod == 0:
                continue
            length = len(chunks)
            result += Fraction((-1) ** (length - 1), length) * sprod * fac
    return result


def tree_from_prufer(seq: list[int], n: int) -> list[tuple[int, int]]:
    """The labelled tree on 0..n-1 with Prufer sequence seq; each edge is
    (i, j) with i < j."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges: list[tuple[int, int]] = []
    leaves = sorted(i for i in range(n) if degree[i] == 1)
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v) if leaf < v else (v, leaf))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return edges


def labelled_trees(n: int) -> list[list[tuple[int, int]]]:
    """All labelled trees on 0..n-1, decoded afresh from Prufer sequences."""
    if n == 1:
        return [[]]
    return [tree_from_prufer(list(seq), n)
            for seq in product(range(n), repeat=n - 2)]


@cache
def _decoded(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    return tuple(map(tuple, labelled_trees(n)))


def trees_without(n: int, zero_edges) -> list[list[tuple[int, int]]]:
    """The heap-decoded labelled trees on 0..n-1 with no edge in
    zero_edges, in Prufer order."""
    zero = set(zero_edges)
    return [list(t) for t in _decoded(n) if zero.isdisjoint(t)]


def supported_trees(weights: list[list[int]]) -> list[list[tuple[int, int]]]:
    """The labelled trees whose every edge (i, j) has weights[i][j] != 0."""
    n = len(weights)
    return trees_without(n, [(i, j) for i in range(n)
                             for j in range(i + 1, n) if not weights[i][j]])


def tree_weight_sum(theory: Theory, alphas: tuple[Charge, ...]) -> int:
    """Sum over every heap-decoded labelled tree, a zero edge included, of
    the product of its edge pairings, one ``Theory.pair`` call per pair."""
    n = len(alphas)
    pair = {(i, j): theory.pair(alphas[i], alphas[j])
            for i in range(n) for j in range(i + 1, n)}
    total = 0
    for edges in _decoded(n):
        w = 1
        for e in edges:
            w *= pair[e]
            if w == 0:
                break
        total += w
    return total


def multisets(theory: Theory, table: SpectrumTable,
              target: Charge) -> list[tuple[Charge, ...]]:
    """Every nonempty multiset of strong parts summing to the target, by
    brute force: each part taken 0..k times, k the most that fit."""
    signs = theory.effective_signs
    parts = strong_parts(theory, table, target)

    def fits(k, part):
        return all(s * (t - k * c) >= 0
                   for s, t, c in zip(signs, target, part))

    most = []
    for part in parts:
        k = 0
        while fits(k + 1, part):
            k += 1
        most.append(k)
    out = []
    for ks in product(*(range(k + 1) for k in most)):
        total = czero(len(target))
        for k, part in zip(ks, parts):
            total = tuple(x + k * c for x, c in zip(total, part))
        if any(ks) and total == tuple(target):
            out.append(tuple(p for k, p in zip(ks, parts) for _ in range(k)))
    return out


def decompositions(theory: Theory, table: SpectrumTable,
                   target: Charge) -> list[tuple[Charge, ...]]:
    """Ordered decompositions: set(permutations) of each multiset."""
    return sorted({order for ms in multisets(theory, table, target)
                   for order in permutations(ms)})


def tree_values(theory: Theory, table: SpectrumTable, target: Charge,
                max_vertices: int | None = None) -> dict[str, TreeValue]:
    """js_tree_values with the canonical key computed for every (ordering,
    supported labelled tree) pair and one Fraction multiply-add per tree;
    trees with a zero total are left out.  An ordering alpha of n parts
    weighs sign * U(alpha) * prod DT(alpha_k) * (-1)^(n-1) / 2^(n-1),
    where sign = (-1)^(sum_{i<j} <alpha_i, alpha_j>) turns prod_k
    sigma(alpha_k) into sigma(target); orderings of weight 0 are skipped,
    so each tree keeps the representative the library sees first."""
    trees: dict[str, list] = {}
    for alphas in decompositions(theory, table, target):
        n = len(alphas)
        if max_vertices is not None and n > max_vertices:
            continue
        weights = [[theory.pair(a, b) for b in alphas] for a in alphas]
        sign = -1 if sum(weights[i][j] for i in range(n)
                         for j in range(i + 1, n)) % 2 else 1
        base = (sign * u_symbol(theory, list(alphas))
                * prod(table.dt(a) for a in alphas)
                * Fraction((-1) ** (n - 1), 2 ** (n - 1)))
        if not base:
            continue
        charges = list(alphas)
        for edges in supported_trees(weights):
            w = prod(weights[i][j] for i, j in edges)
            key = canon_unoriented(n, edges, charges)
            if key not in trees:
                trees[key] = [charges, list(edges), Fraction(0)]
            trees[key][2] += base * w
    return {key: TreeValue(list(charges), edges, total)
            for key, (charges, edges, total) in trees.items() if total}
