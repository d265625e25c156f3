"""Rooted decorated diagrams at strong coupling and their weights.

A diagram is a tree whose vertices carry effective charges (positive
multiples of strong-coupling BPS directions), rooted at a vertex lying
on the framing direction.  Its weight is built from the DT invariants of
the vertices, the pairings along the edges, and the automorphism order
of the rooted decorated tree, which the enumeration keeps.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .lattice import Charge, Theory, cadd, content, czero, primitive
from .spectrum import SpectrumTable
from .js import _edge_weights, _supported_trees, multisets
from .trees import adjacency, charge_label, encode


@dataclass(frozen=True)
class RootedDiagram:
    charges: tuple[Charge, ...]
    parent: tuple[int | None, ...]   # parent[i]; exactly one None (the root)
    aut: int    # order of the automorphism group of the rooted decorated tree

    @property
    def root(self) -> int:
        return self.parent.index(None)

    @property
    def n(self) -> int:
        return len(self.charges)

    def total(self) -> Charge:
        t = czero(len(self.charges[0]))
        for c in self.charges:
            t = cadd(t, c)
        return t

    def children(self, i: int) -> list[int]:
        return [j for j, p in enumerate(self.parent) if p == i]

    def edges(self) -> list[tuple[int, int]]:
        return [(p, i) for i, p in enumerate(self.parent) if p is not None]

    def describe(self) -> str:
        def walk(i):
            kids = ",".join(walk(j) for j in sorted(self.children(i)))
            label = "+".join(str(x) for x in self.charges[i])
            return f"({label})[{kids}]" if kids else f"({label})"
        return walk(self.root)


def root_direction(theory: Theory) -> Charge:
    return theory.unit(theory.root_index)


def enumerate_diagrams(theory: Theory, table: SpectrumTable, target: Charge,
                       max_vertices: int | None = None) -> list[RootedDiagram]:
    """All framed diagrams with the given total charge.

    Vertices are strong multiples, edges require nonzero pairing, and the
    root lies on the framing direction.  Deduplicated up to rooted
    decorated isomorphism: a rooting of a supported labelled tree becomes
    a diagram only if its canonical string is new, and keeps the
    automorphism order that the same encoding returns.
    """
    rdir = root_direction(theory)
    seen: dict[str, RootedDiagram] = {}
    pairs: dict[tuple[Charge, Charge], int] = {}
    for ms in multisets(theory, table, target, max_vertices):
        n = len(ms)
        roots = [i for i, c in enumerate(ms) if primitive(c) == rdir]
        if not roots:
            continue
        labels = [charge_label(c) for c in ms]
        for edges in _supported_trees(_edge_weights(theory, ms, pairs)):
            adj = adjacency(n, edges)
            for r in roots:
                key, aut = encode(r, -1, adj, labels)
                if key in seen:
                    continue
                parent: list[int | None] = [None] * n
                stack = [r]
                while stack:
                    v = stack.pop()
                    for u in adj[v]:
                        if u != r and parent[u] is None:
                            parent[u] = v
                            stack.append(u)
                seen[key] = RootedDiagram(ms, tuple(parent), aut)
    return [seen[k] for k in sorted(seen, key=lambda k: (seen[k].n, k))]


def weight_W(theory: Theory, table: SpectrumTable, diag: RootedDiagram) -> Fraction:
    """Diagram weight (-1)^n / |Aut| * f^root * prod <gamma_parent, f^child>,
    as a coefficient of sigma of the diagram's total charge along the
    framing direction.

    A vertex's f^gamma = sum_n sigma(gamma/n)^n / n * Omega(gamma/n) * gamma/n
    is sigma(gamma) DT(gamma) gamma, because sigma(2 beta) = +1 gives
    sigma(gamma/n)^n = sigma(gamma) for each divisor n of content(gamma).
    So <gamma_p, f^c> = sigma(c) DT(c) <gamma_p, gamma_c>, f^root is
    sigma(root) DT(root) content(root) times the framing direction, and
    prod sigma(gamma) = sign * sigma(total) with sign = (-1)^(sum_{i<j}
    <gamma_i, gamma_j>): the weight is (-1)^n sign content(root) prod DT(v)
    prod <gamma_p, gamma_c> / |Aut|, one integer ratio built from each
    distinct charge's DT and each distinct pair's pairing.
    """
    charges = diag.charges
    mult = Counter(charges)
    num, den, odd = (-1) ** diag.n, diag.aut, 0
    pairs: dict[tuple[Charge, Charge], int] = {}
    for i, (a, m) in enumerate(mult.items()):
        dt = table.dt(a)
        num *= dt.numerator ** m
        den *= dt.denominator ** m
        for b in islice(mult, i):
            pairs[b, a] = p = theory.pair(b, a)
            pairs[a, b] = -p
            odd += mult[b] * m * p
    for c, p in zip(charges, diag.parent):
        if p is not None:
            num *= pairs.get((charges[p], c), 0)
    if odd % 2:
        num = -num
    return Fraction(num * content(charges[diag.root]), den)
