"""Decay calculus for framed diagrams pushed across the wall.

A framed diagram starts with every vertex integrated along its
strong-side ray.  Rays are pushed one at a time to their weak-side
positions; each strict crossing of a neighbouring active ray splits off
a residue diagram in which the moved vertex merges into the crossed
neighbour.  Merged ("unbalanced") vertices are rebalanced by pushing
their ray to the ray of their accumulated charge.  Terminal single
vertex diagrams contribute signs; sweeps that end exactly on a
neighbouring ray contribute named singular symbols.  The total for a
diagram is -(1/p) * W * (sum of signs + sum of signed symbols), with p
the framing coordinate of the total charge.

A conjecture checker compares, per unoriented decorated tree, the sum of
these diagram totals over framings against the tree's total in the
combinatorial wall-crossing sum, solving for the singular symbols.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .lattice import (CCW, MINUS, PLUS, Charge, RayCoincidenceError,
                      Theory, Vec2, cadd, cross, direction_key, sweep_crossing)
from .gmn import RootedDiagram, enumerate_diagrams, weight_W
from .js import js_tree_values
from .spectrum import SpectrumTable, spectrum_table
from .symbolic import Value, free_unknowns, solve_linear
from .trees import adjacency, canon_unoriented, charge_label, encode

BELOW = "below"
ABOVE = "above"

ROOT_FIRST = "root-first"
LEAF_FIRST = "leaf-first"
SCHEDULES = (ROOT_FIRST, LEAF_FIRST)

_PLUS = "+"
_MINUS = "-"
_UNBAL = "*"
_DEAD = "."


@dataclass(frozen=True)
class SingularEndpoint:
    """A sweep ended exactly on an active neighbouring ray.

    The symbol stands for the sided value of the frozen integral; the
    occurrence enters the bracket multiplied by the branch sign only.
    """
    key: str          # frozen configuration (charges and contours)
    side: str         # approach side of the coincident ray
    coeff: int        # branch sign of the state that froze

    @property
    def symbol(self) -> str:
        return f"{self.key}|{self.side}"


@dataclass
class TraceResult:
    eps_sum: Fraction
    singular: list[SingularEndpoint]
    steps: list[str]
    # key -> sided jump I_below - I_above (None when it could not be
    # evaluated because the completed crossing is itself singular)
    jumps: dict[str, Fraction | None] = field(default_factory=dict)

    def bracket(self) -> Value:
        """sum of signs + sum of signed singular symbols, as a value."""
        v = Value.rational(Fraction(self.eps_sum))
        for s in self.singular:
            v = v + Value.symbol(s.symbol) * Value.rational(Fraction(s.coeff))
        return v


class _State:
    """One branch of the decay process.  Vertex indices are stable."""

    __slots__ = ("charges", "ray", "status", "parent", "sign", "pending")

    def __init__(self, charges, ray, status, parent, sign, pending):
        self.charges: list[Charge] = charges
        self.ray: list[Charge] = ray          # ray label (unbalanced: old charge)
        self.status: list[str] = status
        self.parent: list[int | None] = parent
        self.sign: int = sign
        self.pending: list[int] = pending

    @classmethod
    def initial(cls, diag: RootedDiagram) -> "_State":
        n = diag.n
        return cls(list(diag.charges), list(diag.charges), [_PLUS] * n,
                   list(diag.parent), 1, [])

    def copy(self) -> "_State":
        return _State(list(self.charges), list(self.ray), list(self.status),
                      list(self.parent), self.sign, list(self.pending))

    def alive(self) -> list[int]:
        return [i for i, s in enumerate(self.status) if s != _DEAD]

    def neighbours(self, i: int) -> list[int]:
        out = [j for j in self.alive() if self.parent[j] == i]
        if self.parent[i] is not None:
            out.append(self.parent[i])
        return out

    def depth(self, i: int) -> int:
        d = 0
        while self.parent[i] is not None:
            i = self.parent[i]
            d += 1
        return d

    def active_ray(self, theory: Theory, i: int) -> Vec2:
        if self.status[i] == _PLUS:
            return theory.z(PLUS, self.charges[i])
        return theory.z(MINUS, self.ray[i])

    def merge(self, moved: int, static: int) -> None:
        """Fold the moved vertex into the crossed neighbour."""
        if self.status[static] != _UNBAL:
            # a pinned plus vertex can be crossed before its formal push
            self.ray[static] = self.charges[static]
        self.charges[static] = cadd(self.charges[static], self.charges[moved])
        self.status[static] = _UNBAL
        for j in self.alive():
            if j != static and self.parent[j] == moved:
                self.parent[j] = static
        if self.parent[static] == moved:
            self.parent[static] = self.parent[moved]
        self.status[moved] = _DEAD
        self.pending = [k for k in self.pending if k != moved and k != static]

    def frozen_key(self, theory: Theory, moving: int, end: Vec2) -> str:
        """Canonical label of the frozen integral: each vertex carries its
        accumulated charge and its contour ray; the sweeping vertex sits
        exactly on the coincident ray."""
        alive = self.alive()
        root = next(i for i in alive if self.parent[i] is None)
        labels = [""] * len(self.charges)
        for i in alive:
            dx, dy = direction_key(end if i == moving else self.active_ray(theory, i))
            labels[i] = (f"{charge_label(self.charges[i])}@{dx},{dy}"
                         + ("!" if i == moving else ""))
        edges = [(self.parent[j], j) for j in alive if self.parent[j] is not None]
        return encode(root, -1, adjacency(len(self.charges), edges), labels)[0]


def _approach_side(start: Vec2, end: Vec2) -> str:
    # sweep ends on the target ray; classify by rotation sense
    return BELOW if cross(start, end) > 0 else ABOVE


def _sweep(theory: Theory, st: _State, i: int, start: Vec2, end: Vec2,
           out: list["_State"], result: TraceResult, log) -> _State | None:
    """Push vertex i's ray from start to end, the weak-side ray of its
    charge.

    Residue branches are appended to `out`; returns the continued main
    state, with vertex i balanced on its weak-side ray, or None when the
    sweep is singular (ends on an active ray).
    """
    crossings: list[tuple[int, int]] = []
    singular = False
    for j in st.neighbours(i):
        if st.status[j] == _PLUS and not theory.pinned(st.charges[j]):
            # not yet pushed; a ray still moving with the wall cannot
            # interact unless it is pinned (same position on both sides)
            continue
        tgt = st.active_ray(theory, j)
        rel = 1 if st.parent[i] == j else -1
        try:
            sense = sweep_crossing(start, end, tgt)
        except RayCoincidenceError:
            side = _approach_side(start, end)
            key = st.frozen_key(theory, i, end)
            result.singular.append(
                SingularEndpoint(key=key, side=side, coeff=st.sign))
            if key not in result.jumps:
                # jump across the pole: sign of the upward crossing times
                # the value of the completed (merged) diagram
                merged = st.copy()
                merged.sign = 1
                merged.merge(i, j)
                sub = TraceResult(eps_sum=Fraction(0), singular=[], steps=[])
                _run(theory, [merged], ROOT_FIRST, sub, lambda s: None)
                result.jumps[key] = (CCW * rel * sub.eps_sum
                                     if not sub.singular else None)
            log(f"singular: vertex {i} onto ray of {j} ({side}), coeff={st.sign}")
            singular = True
            continue
        if sense is not None:
            crossings.append((j, sense * rel))
    for j, eps in crossings:
        branch = st.copy()
        branch.sign *= eps
        branch.merge(i, j)
        out.append(branch)
        log(f"residue: vertex {i} crossed {j}, branch sign {branch.sign}")
    if singular:
        return None
    st.ray[i] = st.charges[i]
    st.status[i] = _MINUS
    return st


def run_decay(theory: Theory, diag: RootedDiagram,
              schedule: str = ROOT_FIRST, keep_steps: bool = False) -> TraceResult:
    """Run the decay process to termination over all branches."""
    if schedule not in SCHEDULES:
        raise ValueError(f"schedule must be one of {SCHEDULES}")
    result = TraceResult(eps_sum=Fraction(0), singular=[], steps=[])
    log = result.steps.append if keep_steps else (lambda s: None)
    _run(theory, [_State.initial(diag)], schedule, result, log)
    return result


def _run(theory: Theory, stack: list[_State], schedule: str,
         result: TraceResult, log) -> None:
    while stack:
        st = stack.pop()
        alive = st.alive()
        st.pending = [k for k in st.pending if st.status[k] == _PLUS]
        unbal = [k for k in alive if st.status[k] == _UNBAL]
        if st.pending or unbal:
            if st.pending:
                i = st.pending.pop(0)
                start = theory.z(PLUS, st.charges[i])
                log(f"promote {i} {st.charges[i]}")
            else:
                i = min(unbal, key=lambda k: (st.depth(k), k))
                start = theory.z(MINUS, st.ray[i])
                log(f"rebalance {i} {st.ray[i]} -> {st.charges[i]}")
            cont = _sweep(theory, st, i, start, theory.z(MINUS, st.charges[i]),
                          stack, result, log)
            if cont is not None:
                stack.append(cont)
            continue
        plus = [k for k in alive if st.status[k] == _PLUS]
        if plus:
            depths = {k: st.depth(k) for k in plus}
            pick = min(depths.values()) if schedule == ROOT_FIRST else max(depths.values())
            st.pending = sorted(k for k in plus if depths[k] == pick)
            stack.append(st)
            continue
        if len(alive) == 1:
            result.eps_sum += st.sign
            log(f"terminal singleton {st.charges[alive[0]]}, sign {st.sign}")
        else:
            log(f"terminal non-singleton ({len(alive)} vertices), discarded")


def gmn_contribution(theory: Theory, table: SpectrumTable, diag: RootedDiagram,
                     schedule: str = ROOT_FIRST,
                     trace: TraceResult | None = None) -> Value:
    """Contribution of one framed diagram to the weak-side invariant."""
    w, _ = weight_W(theory, table, diag)
    if w == 0:
        return Value.zero()
    p = diag.total()[theory.root_index]
    if trace is None:
        trace = run_decay(theory, diag, schedule=schedule)
    return Value.rational(-w / p) * trace.bracket()


@dataclass
class TreeCheck:
    charges: tuple[Charge, ...]
    edges: tuple[tuple[int, int], ...]
    js_total: Value
    gmn_total: Value            # may carry singular symbols
    framings: list[tuple[RootedDiagram, Value]]
    resolved_gmn: Value | None = None
    ok: bool | None = None


@dataclass
class ConjectureReport:
    theory: str
    target: Charge
    trees: dict[str, TreeCheck]
    ledger: dict[str, Fraction]
    constraints: list[tuple[str, str]]
    free_symbols: list[str]
    ok: bool


def conjecture_check(theory: Theory, target: Charge,
                     max_vertices: int | None = None,
                     schedule: str = ROOT_FIRST) -> ConjectureReport:
    """Compare both wall-crossing computations tree by tree.

    Singular symbols are solved from the linear system formed by the
    per-tree equalities together with the jump constraint pairing the
    two approach sides of each coincident ray.  The target needs a
    nonzero framing coordinate: every diagram's root lies on the framing
    direction, and each contribution divides by that coordinate.
    """
    if target[theory.root_index] == 0:
        raise ValueError(f"target {target} has framing coordinate 0: "
                         "no framed diagram exists")
    strong = spectrum_table(theory.name, "strong")
    js = js_tree_values(theory, strong, target, max_vertices=max_vertices)
    diagrams = enumerate_diagrams(theory, strong, target, max_vertices=max_vertices)

    trees: dict[str, TreeCheck] = {}
    for key, tv in js.items():
        trees[key] = TreeCheck(charges=tuple(tv.charges),
                               edges=tuple(tv.edges),
                               js_total=tv.total,
                               gmn_total=Value.zero(), framings=[])
    all_jumps: dict[str, Fraction | None] = {}
    for diag in diagrams:
        key = canon_unoriented(diag.n, diag.edges(), list(diag.charges))
        trace = run_decay(theory, diag, schedule=schedule)
        for jk, jv in trace.jumps.items():
            if jk in all_jumps and all_jumps[jk] != jv:
                raise ValueError(f"conflicting jump values for {jk}")
            all_jumps[jk] = jv
        contrib = gmn_contribution(theory, strong, diag, schedule=schedule,
                                   trace=trace)
        if key not in trees:
            trees[key] = TreeCheck(charges=diag.charges,
                                   edges=tuple(diag.edges()),
                                   js_total=Value.zero(),
                                   gmn_total=Value.zero(), framings=[])
        tc = trees[key]
        tc.framings.append((diag, contrib))
        tc.gmn_total = tc.gmn_total + contrib

    # linear system in the singular symbols
    names: list[str] = []
    equations: list[tuple[dict[str, Fraction], Fraction]] = []
    for tc in trees.values():
        diff = tc.js_total - tc.gmn_total   # = -(symbol part of gmn) + rationals
        coeffs = {name: diff.coeff(name) for name in diff.symbols()}
        if coeffs:
            names.extend(name for name in coeffs if name not in names)
            equations.append((coeffs, -diff.coeff()))
    constraints: list[tuple[str, str]] = []
    by_key: dict[str, dict[str, str]] = {}
    for name in names:
        key, side = name.rsplit("|", 1)
        by_key.setdefault(key, {})[side] = name
    for key, sides in sorted(by_key.items()):
        if BELOW in sides and ABOVE in sides and all_jumps.get(key) is not None:
            constraints.append((sides[BELOW], sides[ABOVE]))
            equations.append(({sides[BELOW]: Fraction(1),
                               sides[ABOVE]: Fraction(-1)}, all_jumps[key]))
    ledger = solve_linear(equations, names, allow_free=True) if names else {}
    free = free_unknowns(equations, names) if names else []

    ok = True
    for tc in trees.values():
        tc.resolved_gmn = tc.gmn_total.substitute(ledger)
        tc.ok = (tc.resolved_gmn == tc.js_total)
        ok = ok and tc.ok
    return ConjectureReport(theory=theory.name, target=target, trees=trees,
                            ledger=ledger, constraints=constraints,
                            free_symbols=free, ok=ok)
