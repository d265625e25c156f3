"""Reference implementations of the JS ordering symbols and tree sum.

These are the direct transcriptions of the Joyce–Song definitions: S
re-reads central charges as exact fractions for every slope test, U sums
over every nested composition of the parts, the tree weight calls
``Theory.pair`` on every edge of every labelled tree, the labelled trees
are decoded afresh from their Prufer sequences with a heap of leaves, the
ordered decompositions are the distinct elements of every permutation
of every multiset of parts, and the grouped tree values canonicalise every
(ordering, labelled tree) pair afresh.  The library computes the same numbers
faster; the differential tests check that it returns exactly these values.
"""
from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod

from wallcross.lattice import (MINUS, PLUS, Charge, Theory, cadd, cross,
                               czero, same_ray)
from wallcross.js import (TreeValue, _edge_weights, _multisets,
                          _supported_trees, _weighted_decompositions,
                          strong_parts)
from wallcross.spectrum import SpectrumTable
from wallcross.symbolic import Value
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


def tree_weight_sum(theory: Theory, alphas: tuple[Charge, ...],
                    signed: bool = True) -> int:
    """Sum over labelled trees of the product of edge pairings, one
    ``Theory.pair`` call per edge; signed drops the (-1)^<,> factors."""
    total = 0
    for edges in labelled_trees(len(alphas)):
        w = 1
        for (i, j) in edges:
            p = theory.pair(alphas[i], alphas[j])
            w *= (-p if p % 2 else p) if signed else p
            if w == 0:
                break
        total += w
    return total


def decompositions(theory: Theory, table: SpectrumTable,
                   target: Charge) -> list[tuple[Charge, ...]]:
    """Ordered decompositions: set(permutations) of each multiset."""
    parts = strong_parts(theory, table, target)
    return sorted({order for ms in _multisets(parts, target,
                                              theory.effective_signs)
                   for order in permutations(ms)})


def tree_values(theory: Theory, table: SpectrumTable, target: Charge,
                max_vertices: int | None = None) -> dict[str, TreeValue]:
    """js_tree_values with the canonical key computed for every (ordering,
    supported labelled tree) pair and one Fraction multiply-add per tree;
    trees with a zero total are left out."""
    trees: dict[str, list] = {}
    for alphas, base in _weighted_decompositions(theory, table, target,
                                                 max_vertices):
        n = len(alphas)
        weights = _edge_weights(theory, alphas)
        charges = list(alphas)
        for edges in _supported_trees(weights):
            w = prod(weights[i][j] for i, j in edges)
            key = canon_unoriented(n, edges, charges)
            if key not in trees:
                trees[key] = [charges, list(edges), Fraction(0)]
            trees[key][2] += base * w
    return {key: TreeValue(list(charges), edges, Value.rational(total))
            for key, (charges, edges, total) in trees.items() if total}
