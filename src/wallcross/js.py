"""The combinatorial wall-crossing sum: S/U symbols, ordered decompositions
into strong-coupling multiples, and labelled-tree weights.

Slopes: s(gamma) is the phase of Z_gamma on the strong side (u+), w(gamma)
on the weak side (u-).  All comparisons are exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, prod
from typing import Iterator

from .lattice import MINUS, PLUS, Charge, Theory, cross, cscale, same_ray
from .spectrum import SpectrumTable
from .symbolic import Value
from .trees import canon_oriented, canon_unoriented, enumerate_labelled_trees


def _slope_cmp(za, zb) -> int:
    """-1/0/+1 as phase(za) is below/equal/above phase(zb)."""
    c = cross(za, zb)
    return -1 if c > 0 else (1 if c < 0 else 0)


def s_symbol(theory: Theory, alphas: list[Charge]) -> int:
    """S in {0, +-1}: sign of the ordered decomposition.

    For each adjacent pair, either s does not decrease and the head slope
    w strictly dominates the tail (counted with a sign), or s strictly
    decreases and the head slope does not dominate; otherwise S = 0.
    """
    n = len(alphas)
    if n == 0:
        raise ValueError("empty decomposition")
    strong = [theory.z(PLUS, a) for a in alphas]
    weak = [theory.z(MINUS, a) for a in alphas]
    head = weak[0]
    tail = (sum(w[0] for w in weak[1:]), sum(w[1] for w in weak[1:]))
    sign = 1
    for i in range(n - 1):
        cs = _slope_cmp(strong[i], strong[i + 1])
        cw = _slope_cmp(head, tail)
        if cs <= 0 and cw > 0:
            sign = -sign
        elif not (cs > 0 and cw <= 0):
            return 0
        w = weak[i + 1]
        head = (head[0] + w[0], head[1] + w[1])
        tail = (tail[0] - w[0], tail[1] - w[1])
    return sign


def _chunk_weight(theory: Theory, alphas: list[Charge], a: int, b: int,
                  joinable: list[bool]) -> Fraction:
    """Sum over the block cuts of alphas[a:b] of S(block sums) / prod size!.

    Gap k (between parts k-1 and k) is always a cut unless joinable[k].
    """
    optional = [k for k in range(a + 1, b) if joinable[k]]
    total = Fraction(0)
    for join in product((False, True), repeat=len(optional)):
        joined = {k for k, j in zip(optional, join) if j}
        betas: list[Charge] = []
        fac = 1
        start = a
        for k in range(a + 1, b + 1):
            if k not in joined:
                betas.append(tuple(map(sum, zip(*alphas[start:k]))))
                fac *= factorial(k - start)
                start = k
        sign = s_symbol(theory, betas)
        if sign:
            total += Fraction(sign, fac)
    return total


def u_symbol(theory: Theory, alphas: list[Charge]) -> Fraction:
    """U: nested sum over slope-compatible coarsenings weighting S symbols.

    The parts are merged into consecutive blocks on one strong ray (weight
    1/size! each), and the block sums are split into consecutive chunks
    whose weak central charge lies on the ray of the total, each weighted
    by its S symbol; a term with l chunks carries (-1)^(l-1)/l.  A chunk
    is a range alphas[a:b] with weight G(a, b) = _chunk_weight, so the
    nested sum is a DP over cut positions:
    f[b][l] = sum_a f[a][l-1] G(a, b) and U = sum_l (-1)^(l-1)/l f[n][l].
    """
    n = len(alphas)
    strong = [theory.z(PLUS, a) for a in alphas]
    prefix = [(0, 0)]
    for a in alphas:
        re, im = theory.z(MINUS, a)
        prefix.append((prefix[-1][0] + re, prefix[-1][1] + im))
    w_total = prefix[n]
    # same_ray is an equivalence, so a block lies on one strong ray iff
    # each of its adjacent pairs does
    joinable = [False] + [same_ray(strong[k - 1], strong[k]) for k in range(1, n)]
    f = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    f[0][0] = Fraction(1)
    for b in range(1, n + 1):
        for a in range(b):
            if not any(f[a]):
                continue
            chunk = (prefix[b][0] - prefix[a][0], prefix[b][1] - prefix[a][1])
            if not same_ray(chunk, w_total):
                continue
            g = _chunk_weight(theory, alphas, a, b, joinable)
            if g:
                for l in range(1, b + 1):
                    f[b][l] += f[a][l - 1] * g
    return sum((Fraction((-1) ** (l - 1), l) * f[n][l] for l in range(1, n + 1)),
               Fraction(0))


# ---------------------------------------------------------------------------
# decompositions into strong-coupling constituents

def strong_parts(theory: Theory, table: SpectrumTable, target: Charge) -> list[Charge]:
    """Possible parts: positive multiples of effective strong directions
    fitting inside the target."""
    signs = theory.effective_signs
    parts = set()
    for g in table.charges():
        d = g if theory.is_effective(g) else tuple(-x for x in g)
        if not theory.is_effective(d):
            continue
        k = 1
        while True:
            cand = cscale(k, d)
            if any(s * (t - c) < 0 for s, t, c in zip(signs, target, cand)):
                break
            parts.add(cand)
            k += 1
    return sorted(parts)


def _multisets(parts: list[Charge], target: Charge, signs) -> list[tuple[Charge, ...]]:
    out: list[tuple[Charge, ...]] = []

    def rec(i: int, remaining: Charge, chosen: list[Charge]):
        if all(x == 0 for x in remaining):
            if chosen:
                out.append(tuple(chosen))
            return
        if i == len(parts):
            return
        rec(i + 1, remaining, chosen)
        p = parts[i]
        rem = remaining
        k = 0
        while True:
            rem = tuple(r - q for r, q in zip(rem, p))
            if any(s * x < 0 for s, x in zip(signs, rem)):
                break
            k += 1
            rec(i + 1, rem, chosen + [p] * k)

    rec(0, target, [])
    return out


def decompositions(theory: Theory, table: SpectrumTable,
                   target: Charge) -> list[tuple[Charge, ...]]:
    """Ordered decompositions of the target into strong-multiple parts."""
    parts = strong_parts(theory, table, target)
    orderings: list[tuple[Charge, ...]] = []
    for ms in _multisets(parts, target, theory.effective_signs):
        orderings.extend(set(permutations(ms)))
    return sorted(orderings)


def _weighted_decompositions(theory: Theory, table: SpectrumTable,
                             target: Charge, max_vertices: int | None
                             ) -> Iterator[tuple[tuple[Charge, ...], Fraction]]:
    """Each ordered decomposition with at most max_vertices parts whose
    coefficient U * prod DT * (-1)^(n-1) / 2^(n-1) is nonzero, with that
    coefficient times the refinement sign: prod_k sigma(alpha_k) is that
    sign times sigma(target)."""
    if not theory.is_effective(target):
        raise ValueError(f"target {target} is not effective")
    if max_vertices is not None and max_vertices < 1:
        raise ValueError(f"max_vertices must be at least 1, got {max_vertices}")
    for alphas in decompositions(theory, table, target):
        n = len(alphas)
        if max_vertices is not None and n > max_vertices:
            continue
        u = u_symbol(theory, list(alphas))
        if u == 0:
            continue
        dts = Fraction(1)
        for a in alphas:
            dts *= table.dt(a)
        if dts == 0:
            continue
        sign = theory.sigma_reduce(list(alphas))[0]
        yield alphas, sign * u * dts * Fraction((-1) ** (n - 1), 2 ** (n - 1))


def _edge_weights(theory: Theory, alphas: tuple[Charge, ...]) -> list[list[int]]:
    """Table w[i][j] (i < j) of the edge weight <alpha_i, alpha_j>;
    labelled-tree edges have i < j.  Built once per set of parts instead
    of once per tree edge."""
    n = len(alphas)
    w = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        w[i][j] = theory.pair(alphas[i], alphas[j])
    return w


def _tree_weight(theory: Theory, alphas: tuple[Charge, ...]) -> int:
    """Sum over the labelled trees on the parts of the product of their
    edge weights."""
    weights = _edge_weights(theory, alphas)
    return sum(prod(weights[i][j] for i, j in edges)
               for edges in enumerate_labelled_trees(len(alphas)))


@dataclass
class TreeValue:
    charges: list[Charge]
    edges: list[tuple[int, int]]
    total: Value
    orientations: dict[str, Value]


def js_tree_values(theory: Theory, table: SpectrumTable, target: Charge,
                   max_vertices: int | None = None) -> dict[str, TreeValue]:
    """Wall-crossing sum grouped by underlying unoriented decorated tree,
    with per-orientation subtotals.

    The values are coefficients of sigma(target), as are the
    decay-calculus contributions they are compared with.
    """
    # tree key -> (charges, edges, orientation key -> subtotal)
    trees: dict[str, tuple[list[Charge], list[tuple[int, int]],
                           dict[str, Fraction]]] = {}
    for alphas, base in _weighted_decompositions(theory, table, target,
                                                 max_vertices):
        n = len(alphas)
        weights = _edge_weights(theory, alphas)
        charges = list(alphas)
        for edges in enumerate_labelled_trees(n):
            w = prod(weights[i][j] for i, j in edges)
            if w == 0:
                continue
            key = canon_unoriented(n, edges, charges)
            if key not in trees:
                trees[key] = (charges, list(edges), {})
            sub = trees[key][2]
            okey = canon_oriented(n, edges, charges)
            sub[okey] = sub.get(okey, Fraction(0)) + base * w
    return {key: TreeValue(list(charges), edges,
                           Value.rational(sum(sub.values())),
                           {k: Value.rational(v) for k, v in sub.items()})
            for key, (charges, edges, sub) in trees.items()
            if any(sub.values())}


def js_wallcross(theory: Theory, table: SpectrumTable, target: Charge,
                 max_vertices: int | None = None) -> Fraction:
    """Weak-side DT invariant of the target charge: the coefficient of
    sigma(target) in the sum of js_tree_values."""
    return sum((c * _tree_weight(theory, alphas) for alphas, c in
                _weighted_decompositions(theory, table, target, max_vertices)),
               Fraction(0))
