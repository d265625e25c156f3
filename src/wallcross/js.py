"""The combinatorial wall-crossing sum: S/U symbols, ordered decompositions
into strong-coupling multiples, and labelled-tree weights.

Slopes: s(gamma) is the phase of Z_gamma on the strong side (u+), w(gamma)
on the weak side (u-).  All comparisons are exact.  The per-tree values
and the invariant work per multiset: one walk of its supported trees, as
slot trees, and one Fraction factor; its orderings add up integers.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, inf, prod
from typing import Iterator

from .lattice import MINUS, PLUS, Charge, Theory, Vec2, cross, cscale
from .spectrum import SpectrumTable
from .trees import canon_unoriented, enumerate_labelled_trees


def _slope_cmp(za, zb) -> int:
    """-1/0/+1 as phase(za) is below/equal/above phase(zb), both in the
    open upper half-plane (see `Theory`)."""
    c = cross(za, zb)
    return -1 if c > 0 else (1 if c < 0 else 0)


def s_symbol(strong: list[Vec2], weak: list[Vec2]) -> int:
    """S in {0, +-1}: sign of the ordered decomposition whose parts have
    central charges strong (Z+) and weak (Z-).

    For each adjacent pair, either s does not decrease and the head slope
    w strictly dominates the tail (counted with a sign), or s strictly
    decreases and the head slope does not dominate; otherwise S = 0.
    """
    n = len(strong)
    if n == 0:
        raise ValueError("empty decomposition")
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


def _chunk_weight(strong: list[Vec2], prefix: list[Vec2],
                  joinable: list[bool], a: int, b: int) -> int:
    """(b - a)! times the sum over the block cuts of parts a..b-1 of
    S(block sums) / prod size!, from the parts' Z+ and weak prefix sums.

    Gap k (between parts k-1 and k) is a forced cut unless joinable[k],
    when it is optional.  A block lies on one strong ray, so the factor S
    takes at a cut depends on that cut alone: its strong slopes are those
    of parts k-1 and k, its weak head and tail the sums of parts a..k-1
    and k..b-1.  The forced cuts split the chunk into runs, its maximal
    joinable stretches, and their factors multiply to S(run sums), one
    s_symbol call given each run's first Z+ and its weak sum.  With every
    cut forced that is all: the weight is S (b - a)!.  At an optional
    cut both parts lie on one strong ray, so its factor g_k is -1 if the
    weak head lies above the tail and 0 otherwise.  What is left is a DP
    over the last cut before each position j of the chunk, scaled by j!
    to stay in integers: rho_0 = 1 and rho_j = sum_i rho_i g_i C(j, i)
    over the cuts i < j with no forced cut between them, with g = 1 at
    the start of the chunk and at a forced cut.  It keeps only the terms
    rho_i g_i that are nonzero.
    """
    cuts = [a, *(k for k in range(a + 1, b) if not joinable[k]), b]
    ends = [prefix[k] for k in cuts]
    sign = s_symbol([strong[k] for k in cuts[:-1]],
                    [(x1 - x0, y1 - y0)
                     for (x0, y0), (x1, y1) in zip(ends, ends[1:])])
    if not sign or len(cuts) == b - a + 1:
        return sign * factorial(b - a)
    (x0, y0), (x1, y1) = prefix[a], prefix[b]
    terms = [(0, 1)]    # (i, rho_i g_i), nonzero, since the last forced cut
    for j in range(1, b - a + 1):
        rho = sum(w * comb(j, i) for i, w in terms)
        k = a + j
        if k == b:
            return sign * rho
        if not joinable[k]:
            if not rho:
                return 0
            terms = [(j, rho)]
        elif rho:
            x, y = prefix[k]
            # the weak head lies above the tail: g_k = -1
            if (x - x0) * (y1 - y) < (y - y0) * (x1 - x):
                terms.append((j, -rho))


def u_symbol(strong: list[Vec2], weak: list[Vec2]) -> Fraction:
    """U, from the parts' central charges strong (Z+) and weak (Z-): a
    nested sum over slope-compatible coarsenings weighting S symbols.

    The parts are merged into consecutive blocks on one strong ray (weight
    1/size! each), and the block sums are split into consecutive chunks
    whose weak central charge lies on the ray of the total, each weighted
    by its S symbol; a term with l chunks carries (-1)^(l-1)/l.  A chunk
    is a range of parts a..b-1 with weight G(a, b), and _chunk_weight
    gives (b - a)! G(a, b) as an integer.  The nested sum is then a DP
    over the chunk cuts, f[b][l] = sum_a f[a][l-1] G(a, b), run in
    integers as F[b][l] = b! f[b][l] = sum_a F[a][l-1] C(b, a) (b - a)!
    G(a, b), and U = sum_l (-1)^(l-1)/l F[n][l] / n! is the one Fraction.
    Only the live rows are kept, each as {l: F[b][l]}: a row that stays
    zero starts no chunk.  A chunk ends only where the weak prefix sum
    lies on the total's line.  Every Z lies in the open upper half-plane
    (see `Theory`), so such a chunk lies on the total's ray, and parts
    whose Z+ have a zero cross product lie on one strong ray.
    """
    n = len(strong)
    if n == 0:
        raise ValueError("empty decomposition")
    prefix = [(0, 0)]
    tx = ty = 0         # ends as the total's weak central charge
    for re, im in weak:
        tx += re
        ty += im
        prefix.append((tx, ty))
    # one strong ray is an equivalence, so a block lies on one iff each of
    # its adjacent pairs does
    joinable = [False] + [p0 * q1 == p1 * q0
                          for (p0, p1), (q0, q1) in zip(strong, strong[1:])]
    rows = {0: {0: 1}}
    for b in range(1, n + 1):
        xb, yb = prefix[b]
        if xb * ty != yb * tx:
            continue
        row: dict[int, int] = {}
        for a, fa in rows.items():
            g = _chunk_weight(strong, prefix, joinable, a, b)
            if g:
                g *= comb(b, a)
                for l, f in fa.items():
                    row[l + 1] = row.get(l + 1, 0) + f * g
        if any(row.values()):
            rows[b] = row
    # n! is a multiple of every l <= n
    scale = factorial(n)
    return Fraction(sum((-1) ** (l - 1) * f * (scale // l)
                        for l, f in rows.get(n, {}).items()), scale * scale)


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


def _multisets(parts: list[Charge], target: Charge, signs,
               max_parts: int | None = None) -> list[tuple[Charge, ...]]:
    """The multisets of parts summing to the target, of at most max_parts.

    A depth-first walk on an explicit stack, since it goes one level down
    per part: state (i, remaining, chosen) has chosen its copies of
    parts[:i], and its children take 0, 1, 2, ... copies of parts[i].  A
    state one part short of the bound can only end as its remainder, if
    that is one of parts[i:], so it looks the remainder up.  A remainder
    that is nonzero where no part of parts[i:] is cannot end, so a child
    is dropped when it is nonzero on a coordinate of lost[i], those on
    which parts[i] is the last nonzero part."""
    out: list[tuple[Charge, ...]] = []
    cap = inf if max_parts is None else max_parts
    index = {p: j for j, p in enumerate(parts)}
    lost: list[list[int]] = []
    reach: set[int] = set()
    for p in reversed(parts):
        lost.append([k for k, x in enumerate(p) if x and k not in reach])
        reach.update(lost[-1])
    lost.reverse()
    stack = [(0, tuple(target), ())]
    while stack:
        i, remaining, chosen = stack.pop()
        if not any(remaining):
            if chosen:
                out.append(chosen)
            continue
        if len(chosen) == cap - 1:
            if index.get(remaining, -1) >= i:
                out.append(chosen + (remaining,))
            continue
        if i == len(parts) or len(chosen) == cap:
            continue
        children = [(i + 1, remaining, chosen)]
        p = parts[i]
        rem = remaining
        k = 0
        while len(chosen) + k < cap:
            rem = tuple(r - q for r, q in zip(rem, p))
            if any(s * x < 0 for s, x in zip(signs, rem)):
                break
            k += 1
            children.append((i + 1, rem, chosen + (p,) * k))
        if lost[i]:
            children = [c for c in children
                        if not any(c[1][g] for g in lost[i])]
        # popped in the order 0, 1, 2, ... copies
        stack.extend(reversed(children))
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


def multisets(theory: Theory, table: SpectrumTable, target: Charge,
              max_vertices: int | None = None) -> list[tuple[Charge, ...]]:
    """The sorted multisets of strong_parts summing to the target, with at
    most max_vertices parts when given; every sum over them gets its input
    checks here."""
    if not theory.is_effective(target):
        raise ValueError(f"target {target} is not effective")
    if max_vertices is not None and max_vertices < 1:
        raise ValueError(f"max_vertices must be at least 1, got {max_vertices}")
    parts = strong_parts(theory, table, target)
    return sorted(_multisets(parts, target, theory.effective_signs,
                             max_vertices))


def decompositions(theory: Theory, table: SpectrumTable, target: Charge,
                   max_parts: int | None = None) -> list[tuple[Charge, ...]]:
    """Ordered decompositions of the target into strong-multiple parts,
    with at most max_parts parts when given: the orderings of multisets."""
    return sorted(order for ms in multisets(theory, table, target, max_parts)
                  for order in _orderings(ms))


def _multiset_terms(theory: Theory, table: SpectrumTable, target: Charge,
                    max_vertices: int | None) -> Iterator[tuple]:
    """Per sorted multiset, in first-seen order, of the ordered
    decompositions with at most max_vertices parts and a nonzero
    coefficient U prod DT (-1)^(n-1) / 2^(n-1): its first such ordering,
    that ordering's _edge_weights table (the only one built), c, and each
    such ordering's (U (n!)^2, _inversions).

    The coefficient times the refinement sign (prod_k sigma(alpha_k) is
    the sign times sigma(target)) is c U (n!)^2, and U (n!)^2 is an
    integer (see u_symbol).  c = sign prod DT (-1)^(n-1) / (2^(n-1) (n!)^2)
    is the same for every ordering of the multiset: the sign is
    (-1)^(sum_{i<j} <alpha_i, alpha_j>) (sigma(a) sigma(b) =
    (-1)^<a,b> sigma(a+b), by bilinearity), and swapping two parts negates
    one pairing, keeping the parity.  DT and Z+- are read once per distinct
    part and each ordered pair of parts paired once per call."""
    z: dict[Charge, tuple[Vec2, Vec2]] = {}
    groups: dict[tuple[Charge, ...], list] = {}
    for alphas in decompositions(theory, table, target, max_vertices):
        for a in alphas:
            if a not in z:
                z[a] = theory.z(PLUS, a), theory.z(MINUS, a)
        u = u_symbol([z[a][0] for a in alphas], [z[a][1] for a in alphas])
        if u:
            groups.setdefault(tuple(sorted(alphas)), []).append((alphas, u))
    dt: dict[Charge, Fraction] = {}
    pairs: dict[tuple[Charge, Charge], int] = {}
    for ms, orders in groups.items():
        for a in ms:
            if a not in dt:
                dt[a] = table.dt(a)
        dts = prod(map(dt.__getitem__, ms))
        if dts == 0:
            continue
        n, first = len(ms), orders[0][0]
        weights = _edge_weights(theory, first, pairs)
        scale = factorial(n) ** 2
        sign = -1 if (n - 1 + sum(map(sum, weights))) % 2 else 1
        yield (first, weights, sign * dts / (2 ** (n - 1) * scale),
               [(u.numerator * (scale // u.denominator), _inversions(a))
                for a, u in orders])


def _edge_weights(theory: Theory, alphas: tuple[Charge, ...],
                  pairs: dict[tuple[Charge, Charge], int]) -> list[list[int]]:
    """Table w[i][j] (i < j, else 0) of the edge weight <alpha_i, alpha_j>;
    labelled-tree edges have i < j.  pairs holds the caller's pairings
    of parts, so each ordered pair of parts is paired once per call."""
    n = len(alphas)
    w = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        key = alphas[i], alphas[j]
        if key not in pairs:
            pairs[key] = theory.pair(*key)
        w[i][j] = pairs[key]
    return w


def _supported_trees(weights: list[list[int]]):
    """The labelled trees on the parts with no edge of weight 0: the only
    ones with a nonzero product of edge weights."""
    n = len(weights)
    zero = [(i, j) for i, j in combinations(range(n), 2) if not weights[i][j]]
    return enumerate_labelled_trees(n, zero)


@dataclass
class TreeValue:
    charges: list[Charge]
    edges: list[tuple[int, int]]
    total: Fraction


def _slots(alphas: tuple[Charge, ...]) -> list[int]:
    """The slot of each position: the slots are the positions of the
    sorted multiset, equal parts taking theirs in the order they occur."""
    slot = [0] * len(alphas)
    for s, i in enumerate(sorted(range(len(alphas)), key=alphas.__getitem__)):
        slot[i] = s
    return slot


def _inversions(alphas: tuple[Charge, ...]) -> int:
    """The inversion mask of an ordering: slot pair s < t is bit s n + t,
    and the mask has the bits of the slot pairs the ordering puts in the
    order t, s.  An edge weight <alpha_i, alpha_j> is the slot weight of
    that pair, negated when the pair is inverted."""
    n, slot = len(alphas), _slots(alphas)
    return sum(1 << (s * n + t) for j, s in enumerate(slot)
               for t in slot[:j] if t > s)


def _slot_trees(alphas: tuple[Charge, ...], weights: list[list[int]]
                ) -> list[tuple[tuple[tuple[int, int], ...], int, int]]:
    """The supported trees of an ordering as slot trees, in their order:
    (edges, slot mask, P) with P the slot weight product, the tree's
    weight product with the sign of the slot pairs the ordering inverts
    undone.  Each edge (i, j) gets its slot pair bit, and its weight with
    that sign undone, once, so a tree's mask and P are a sum and a
    product over its edges."""
    n, slot, inv = len(alphas), _slots(alphas), _inversions(alphas)
    bit, weight = {}, {}
    for i, j in combinations(range(n), 2):
        s, t = sorted((slot[i], slot[j]))
        bit[i, j] = m = 1 << (s * n + t)
        weight[i, j] = -weights[i][j] if m & inv else weights[i][j]
    return [(edges, sum(map(bit.__getitem__, edges)),
             prod(map(weight.__getitem__, edges)))
            for edges in _supported_trees(weights)]


def _slot_sum(rows: list, inv: int) -> int:
    """Sum of the weight products that an ordering with inversion mask inv
    gives the slot trees rows: P (-1)^popcount(mask & inv) each."""
    return sum(-p if (m & inv).bit_count() & 1 else p for _, m, p in rows)


def js_tree_values(theory: Theory, table: SpectrumTable, target: Charge,
                   max_vertices: int | None = None) -> dict[str, TreeValue]:
    """Wall-crossing sum grouped by underlying unoriented decorated tree,
    each with the charges and edges of the first labelled tree seen; trees
    with a zero total are left out.

    The totals are Fractions, coefficients of sigma(target), as are the
    decay-calculus contributions they are compared with.

    Every ordering of one multiset puts its trees on the same vertex set,
    the slots of the sorted multiset (see _slots), and supports the same
    slot trees.  So the first ordering of a multiset walks its own
    supported trees once, in their order, and records each as a slot
    tree (_slot_trees): its bit set of slot pairs and its slot weight
    product P; here each also gets its canonical key.  An ordering with
    inversion mask inv then weighs a slot tree with mask m as
    P (-1)^popcount(m & inv) (_slot_sum).  Per (multiset, tree key),
    U (n!)^2 times that is summed over the orderings in integers, then
    times the multiset's c (_multiset_terms): one Fraction multiply-add.
    """
    # tree key -> [charges, edges, total]
    trees: dict[str, list] = {}
    for first, weights, c, terms in _multiset_terms(theory, table, target,
                                                    max_vertices):
        n, charges = len(first), list(first)
        by_key: dict[str, list] = {}
        for row in _slot_trees(first, weights):
            key = canon_unoriented(n, row[0], charges)
            if key not in trees:
                trees[key] = [charges, list(row[0]), Fraction(0)]
            by_key.setdefault(key, []).append(row)
        for key, rows in by_key.items():
            w = sum(u * _slot_sum(rows, inv) for u, inv in terms)
            if w:
                trees[key][2] += c * w
    return {key: TreeValue(list(charges), edges, total)
            for key, (charges, edges, total) in trees.items() if total}


def js_wallcross(theory: Theory, table: SpectrumTable, target: Charge,
                 max_vertices: int | None = None) -> Fraction:
    """Weak-side DT invariant of the target charge: the coefficient of
    sigma(target) in the sum of js_tree_values.

    The same slot trees as there, with no keys: the first ordering of a
    multiset walks its supported trees once, and the multiset adds its
    factor c times the integer sum of U (n!)^2 _slot_sum over its
    orderings."""
    total = Fraction(0)
    for first, weights, c, terms in _multiset_terms(theory, table, target,
                                                    max_vertices):
        rows = _slot_trees(first, weights)
        total += c * sum(u * _slot_sum(rows, inv) for u, inv in terms)
    return total
