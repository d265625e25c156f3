"""Rooted decorated diagrams at strong coupling and their weights.

A diagram is a tree whose vertices carry effective charges (positive
multiples of strong-coupling BPS directions), rooted at a vertex lying
on the framing direction.  Its weight is built from the f-coefficients
of the vertices, the pairings along the edges, and the automorphism
count of the rooted decorated tree.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import Charge, Theory, cadd, czero, primitive
from .spectrum import SpectrumTable, f_coeff
from .js import _edge_weights, _multisets, _supported_trees, strong_parts
from .trees import adjacency, charge_label, encode


@dataclass(frozen=True)
class RootedDiagram:
    charges: tuple[Charge, ...]
    parent: tuple[int | None, ...]   # parent[i]; exactly one None (the root)

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

    def _encoded(self) -> tuple[str, int]:
        labels = [charge_label(c) for c in self.charges]
        return encode(self.root, -1, adjacency(self.n, self.edges()), labels)

    def canonical(self) -> str:
        return self._encoded()[0]

    def describe(self) -> str:
        def walk(i):
            kids = ",".join(walk(j) for j in sorted(self.children(i)))
            label = "+".join(str(x) for x in self.charges[i])
            return f"({label})[{kids}]" if kids else f"({label})"
        return walk(self.root)


def aut_order(diag: RootedDiagram) -> int:
    """Order of the automorphism group of the rooted decorated tree."""
    return diag._encoded()[1]


def root_direction(theory: Theory) -> Charge:
    return theory.unit(theory.root_index)


def enumerate_diagrams(theory: Theory, table: SpectrumTable, target: Charge,
                       max_vertices: int | None = None) -> list[RootedDiagram]:
    """All framed diagrams with the given total charge.

    Vertices are strong multiples, edges require nonzero pairing, and the
    root lies on the framing direction.  Deduplicated up to rooted
    decorated isomorphism.
    """
    if not theory.is_effective(target):
        raise ValueError(f"target {target} is not effective")
    if max_vertices is not None and max_vertices < 1:
        raise ValueError(f"max_vertices must be at least 1, got {max_vertices}")
    parts = strong_parts(theory, table, target)
    rdir = root_direction(theory)
    seen: dict[str, RootedDiagram] = {}
    for ms in _multisets(parts, target, theory.effective_signs):
        n = len(ms)
        if max_vertices is not None and n > max_vertices:
            continue
        roots = [i for i, c in enumerate(ms) if primitive(c) == rdir]
        if not roots:
            continue
        for edges in _supported_trees(_edge_weights(theory, ms)):
            adj = adjacency(n, edges)
            for r in roots:
                parent: list[int | None] = [None] * n
                stack = [r]
                while stack:
                    v = stack.pop()
                    for u in adj[v]:
                        if u != r and parent[u] is None:
                            parent[u] = v
                            stack.append(u)
                diag = RootedDiagram(ms, tuple(parent))
                seen.setdefault(diag.canonical(), diag)
    return [seen[k] for k in sorted(seen, key=lambda k: (seen[k].n, k))]


def weight_W(theory: Theory, table: SpectrumTable,
             diag: RootedDiagram) -> tuple[Fraction, Charge]:
    """Diagram weight: (-1)^n / |Aut| * f^root * prod <gamma_parent, f^child>.

    Returns (coefficient, direction); the coefficient is in units of
    sigma of the diagram's total charge: each f^gamma is c * sigma(gamma)
    times a direction, and prod sigma(gamma) = sign * sigma(total).
    """
    w = Fraction((-1) ** diag.n * theory.sigma_reduce(list(diag.charges))[0],
                 aut_order(diag))
    for i, c in enumerate(diag.charges):
        coeff, direction = f_coeff(table, c)
        w *= coeff
        p = diag.parent[i]
        if p is not None:
            w *= theory.pair(diag.charges[p], direction)
    return w, primitive(diag.charges[diag.root])
