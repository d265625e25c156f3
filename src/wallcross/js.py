"""The combinatorial wall-crossing sum: S/U symbols, ordered decompositions
into strong-coupling multiples, and labelled-tree weights.

Slopes: s(gamma) is the phase of Z_gamma on the strong side (u+), w(gamma)
on the weak side (u-).  All comparisons are exact.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod
from typing import Iterator

from .lattice import (MINUS, PLUS, Charge, Theory, Vec2, cross, cscale,
                      same_ray)
from .spectrum import SpectrumTable
from .symbolic import Value
from .trees import canon_unoriented, trees_avoiding


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


def _chunk_weight(theory: Theory, alphas: list[Charge],
                  prefix: list[Vec2], joinable: list[bool],
                  a: int, b: int) -> int:
    """(b - a)! times the sum over the block cuts of alphas[a:b] of
    S(block sums) / prod size!.

    Gap k (between parts k-1 and k) is a forced cut unless joinable[k],
    when it is optional.  A block lies on one strong ray, so the factor S
    takes at a cut depends on that cut alone: its strong slopes are those
    of parts k-1 and k, its weak head and tail the sums of alphas[a:k] and
    alphas[k:b] (prefix holds the weak prefix sums).  The forced cuts split
    the chunk into runs, its maximal joinable stretches, and their factors
    multiply to S(run sums), one s_symbol call.  At an optional cut both
    parts lie on one strong ray, so its factor g_k is -1 if the weak head
    lies above the tail and 0 otherwise.  What is left is a DP over the
    last cut before each position j of the chunk, scaled by j! to stay in
    integers: rho_0 = 1 and rho_j = sum_i rho_i g_i C(j, i) over the cuts
    i < j with no forced cut between them, with g = 1 at the start of the
    chunk and at a forced cut.  Per run this is (b - a)! / prod m! times
    prod rho_m over the run lengths m.
    """
    runs: list[Charge] = []
    start = a
    for k in range(a + 1, b + 1):
        if k == b or not joinable[k]:
            runs.append(tuple(map(sum, zip(*alphas[start:k]))))
            start = k
    sign = s_symbol(theory, runs)
    if not sign:
        return 0
    (x0, y0), (x1, y1) = prefix[a], prefix[b]
    rho = [1] + [0] * (b - a)
    g = [1] * (b - a)
    run = 0             # the last forced cut (or the start), chunk-relative
    for j in range(1, b - a + 1):
        rho[j] = sum(rho[i] * g[i] * comb(j, i) for i in range(run, j)
                     if rho[i] and g[i])
        k = a + j
        if k == b:
            break
        if joinable[k]:
            x, y = prefix[k]
            head, tail = (x - x0, y - y0), (x1 - x, y1 - y)
            g[j] = -1 if _slope_cmp(head, tail) > 0 else 0
        else:
            run = j
    return sign * rho[-1]


def u_symbol(theory: Theory, alphas: list[Charge]) -> Fraction:
    """U: nested sum over slope-compatible coarsenings weighting S symbols.

    The parts are merged into consecutive blocks on one strong ray (weight
    1/size! each), and the block sums are split into consecutive chunks
    whose weak central charge lies on the ray of the total, each weighted
    by its S symbol; a term with l chunks carries (-1)^(l-1)/l.  A chunk
    is a range alphas[a:b] with weight G(a, b), and _chunk_weight gives
    (b - a)! G(a, b) as an integer: S of its run sums times an integer DP
    over its optional cuts.  The nested sum is then a DP over the chunk
    cuts, f[b][l] = sum_a f[a][l-1] G(a, b), run in integers as
    F[b][l] = b! f[b][l] = sum_a F[a][l-1] C(b, a) (b - a)! G(a, b),
    and U = sum_l (-1)^(l-1)/l F[n][l] / n! is the one Fraction.
    Central charges are read once per part.
    """
    n = len(alphas)
    if n == 0:
        raise ValueError("empty decomposition")
    strong = [theory.z(PLUS, a) for a in alphas]
    prefix = [(0, 0)]
    for a in alphas:
        re, im = theory.z(MINUS, a)
        prefix.append((prefix[-1][0] + re, prefix[-1][1] + im))
    w_total = prefix[n]
    # same_ray is an equivalence, so a block lies on one strong ray iff
    # each of its adjacent pairs does
    joinable = [False] + [same_ray(strong[k - 1], strong[k]) for k in range(1, n)]
    F = [[0] * (n + 1) for _ in range(n + 1)]
    F[0][0] = 1
    for b in range(1, n + 1):
        for a in range(b):
            if not any(F[a]):
                continue
            chunk = (prefix[b][0] - prefix[a][0], prefix[b][1] - prefix[a][1])
            if not same_ray(chunk, w_total):
                continue
            g = _chunk_weight(theory, alphas, prefix, joinable, a, b)
            if g:
                g *= comb(b, a)
                for l in range(1, b + 1):
                    if F[a][l - 1]:
                        F[b][l] += F[a][l - 1] * g
    # n! is a multiple of every l <= n
    scale = factorial(n)
    return Fraction(sum((-1) ** (l - 1) * F[n][l] * (scale // l)
                        for l in range(1, n + 1)), scale * scale)


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


def _orderings(ms: tuple[Charge, ...]) -> list[tuple[Charge, ...]]:
    """The distinct orderings of the multiset ms, each once, by a
    recursion on the count left of each distinct part (cf. Knuth, TAOCP
    7.2.1.2), never through all len(ms)! permutations."""
    counts = Counter(ms)
    out: list[tuple[Charge, ...]] = []
    prefix: list[Charge] = []

    def rec():
        if len(prefix) == len(ms):
            out.append(tuple(prefix))
            return
        for part, left in counts.items():
            if left:
                counts[part] -= 1
                prefix.append(part)
                rec()
                prefix.pop()
                counts[part] += 1

    rec()
    return out


def decompositions(theory: Theory, table: SpectrumTable, target: Charge,
                   max_parts: int | None = None) -> list[tuple[Charge, ...]]:
    """Ordered decompositions of the target into strong-multiple parts,
    with at most max_parts parts when given."""
    parts = strong_parts(theory, table, target)
    orderings: list[tuple[Charge, ...]] = []
    for ms in _multisets(parts, target, theory.effective_signs):
        if max_parts is None or len(ms) <= max_parts:
            orderings.extend(_orderings(ms))
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
    dt: dict[Charge, Fraction] = {}     # DT read once per distinct part
    for alphas in decompositions(theory, table, target, max_vertices):
        n = len(alphas)
        u = u_symbol(theory, list(alphas))
        if u == 0:
            continue
        for a in alphas:
            if a not in dt:
                dt[a] = table.dt(a)
        dts = prod(map(dt.__getitem__, alphas))
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


def _supported_trees(weights: list[list[int]]):
    """The labelled trees on the parts with no edge of weight 0: the only
    ones with a nonzero product of edge weights."""
    n = len(weights)
    return trees_avoiding(n, [(i, j) for i, j in combinations(range(n), 2)
                              if weights[i][j] == 0])


def _tree_weight(theory: Theory, alphas: tuple[Charge, ...]) -> int:
    """Sum over the labelled trees on the parts of the product of their
    edge weights."""
    weights = _edge_weights(theory, alphas)
    return sum(prod(weights[i][j] for i, j in edges)
               for edges in _supported_trees(weights))


@dataclass
class TreeValue:
    charges: list[Charge]
    edges: list[tuple[int, int]]
    total: Value


def js_tree_values(theory: Theory, table: SpectrumTable, target: Charge,
                   max_vertices: int | None = None) -> dict[str, TreeValue]:
    """Wall-crossing sum grouped by underlying unoriented decorated tree,
    each with the charges and edges of the first labelled tree seen; trees
    with a zero total are left out.

    The values are coefficients of sigma(target), as are the
    decay-calculus contributions they are compared with.

    Every ordering of one multiset puts its tree on the same vertex set,
    the slots of the sorted multiset (equal parts take their slots in the
    order they occur), so the canonical key is computed once per slot
    tree, not once per ordering: a tree is the bit set of its slot edges.
    Within a decomposition the integer edge-weight products are summed
    per key, so there is one Fraction multiply-add per (decomposition,
    tree key).
    """
    # tree key -> [charges, edges, total]
    trees: dict[str, list] = {}
    # multiset -> (slot edges -> tree key)
    slot_keys: dict[tuple[Charge, ...], dict[int, str]] = {}
    for alphas, base in _weighted_decompositions(theory, table, target,
                                                 max_vertices):
        n = len(alphas)
        ms = tuple(sorted(alphas))
        taken = Counter()
        slot = []
        for a in alphas:
            slot.append(ms.index(a) + taken[a])
            taken[a] += 1
        edge_bit = {(i, j): 1 << (min(slot[i], slot[j]) * n
                                  + max(slot[i], slot[j]))
                    for i, j in combinations(range(n), 2)}
        keys = slot_keys.setdefault(ms, {})
        weights = _edge_weights(theory, alphas)
        charges = list(alphas)
        # tree key -> [first edges, summed edge weights]
        sums: dict[str, list] = {}
        for edges in _supported_trees(weights):
            slot_edges = sum(map(edge_bit.__getitem__, edges))
            key = keys.get(slot_edges)
            if key is None:
                key = keys[slot_edges] = canon_unoriented(n, edges, charges)
            w = prod(weights[i][j] for i, j in edges)
            if key in sums:
                sums[key][1] += w
            else:
                sums[key] = [edges, w]
        for key, (edges, w) in sums.items():
            if key not in trees:
                trees[key] = [charges, list(edges), Fraction(0)]
            trees[key][2] += base * w
    return {key: TreeValue(list(charges), edges, Value.rational(total))
            for key, (charges, edges, total) in trees.items() if total}


def js_wallcross(theory: Theory, table: SpectrumTable, target: Charge,
                 max_vertices: int | None = None) -> Fraction:
    """Weak-side DT invariant of the target charge: the coefficient of
    sigma(target) in the sum of js_tree_values."""
    return sum((c * _tree_weight(theory, alphas) for alphas, c in
                _weighted_decompositions(theory, table, target, max_vertices)),
               Fraction(0))
