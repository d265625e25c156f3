"""Decay calculus for framed diagrams pushed across the wall.

A framed diagram starts with every vertex integrated along its
strong-side ray.  Rays are pushed one at a time, root first (the nesting
of the iterated integral), to their weak-side positions; each strict
crossing of a neighbouring active ray splits off a residue diagram in
which the moved vertex merges into the crossed neighbour.  Merged
("unbalanced") vertices are rebalanced by pushing their ray to the ray
of their accumulated charge.  Terminal single vertex diagrams contribute
signs; sweeps that end exactly on a neighbouring ray contribute named
singular symbols.  The total for a diagram is
-(1/p) * W * (sum of signs + sum of signed symbols), with p the framing
coordinate of the total charge.

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

_PLUS = "+"
_MINUS = "-"
_UNBAL = "*"
_DEAD = "."


def symbol_name(key: str, side: str) -> str:
    """Name of the symbol for the frozen integral `key` seen from `side`."""
    return f"{key}|{side}"


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
        return symbol_name(self.key, self.side)


@dataclass
class TraceResult:
    eps_sum: Fraction = Fraction(0)
    singular: list[SingularEndpoint] = field(default_factory=list)
    steps: list[str] = field(default_factory=list)
    # key -> sided jump I_below - I_above (None when it could not be
    # evaluated because the completed crossing is itself singular)
    jumps: dict[str, Fraction | None] = field(default_factory=dict)

    def bracket(self) -> Value:
        """sum of signs + sum of signed singular symbols, as a value."""
        v = Value.rational(Fraction(self.eps_sum))
        for s in self.singular:
            v = v + Value.symbol(s.symbol, s.coeff)
        return v


@dataclass(slots=True)
class _State:
    """One branch of the decay process.  Vertex indices are stable.

    A plus or minus vertex's ray label is its charge: `initial` sets it
    and `_sweep` sets it again on balancing.  Only `merge` changes a
    charge, and it marks the vertex unbalanced, keeping the old charge
    as its ray label."""
    charges: list[Charge]
    ray: list[Charge]
    status: list[str]
    parent: list[int | None]
    sign: int = 1
    pending: list[int] = field(default_factory=list)

    @classmethod
    def initial(cls, diag: RootedDiagram) -> "_State":
        return cls(list(diag.charges), list(diag.charges), [_PLUS] * diag.n,
                   list(diag.parent))

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
        return theory.z(PLUS if self.status[i] == _PLUS else MINUS, self.ray[i])

    def merge(self, moved: int, static: int) -> None:
        """Fold the moved vertex into the crossed neighbour, which keeps
        its ray label and becomes unbalanced.  A pending vertex that dies
        or stops being plus here is dropped from `pending` by `_run`."""
        self.charges[static] = cadd(self.charges[static], self.charges[moved])
        self.status[static] = _UNBAL
        for j in self.alive():
            if j != static and self.parent[j] == moved:
                self.parent[j] = static
        if self.parent[static] == moved:
            self.parent[static] = self.parent[moved]
        self.status[moved] = _DEAD

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


def _sweep(theory: Theory, st: _State, i: int, out: list[_State],
           result: TraceResult) -> None:
    """Push vertex i's ray from its active ray to the weak-side ray of its
    accumulated charge.

    Each strict crossing of a neighbour's active ray appends a residue
    branch to `out`.  Then, unless the sweep is singular (ends on an
    active ray), `st` itself follows them with vertex i balanced on its
    weak-side ray.
    """
    start = st.active_ray(theory, i)
    end = theory.z(MINUS, st.charges[i])
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
            # the sweep ends on the target ray: its rotation sense is the side
            side = BELOW if cross(start, end) > 0 else ABOVE
            key = st.frozen_key(theory, i, end)
            result.singular.append(
                SingularEndpoint(key=key, side=side, coeff=st.sign))
            if key not in result.jumps:
                # jump across the pole: sign of the upward crossing times
                # the value of the completed (merged) diagram
                merged = st.copy()
                merged.sign = 1
                merged.merge(i, j)
                sub = TraceResult()
                _run(theory, [merged], sub)
                result.jumps[key] = (CCW * rel * sub.eps_sum
                                     if not sub.singular else None)
            result.steps.append(f"singular: vertex {i} onto ray of {j} "
                                f"({side}), coeff={st.sign}")
            singular = True
            continue
        if sense is not None:
            crossings.append((j, sense * rel))
    for j, eps in crossings:
        branch = st.copy()
        branch.sign *= eps
        branch.merge(i, j)
        out.append(branch)
        result.steps.append(f"residue: vertex {i} crossed {j}, "
                            f"branch sign {branch.sign}")
    if not singular:
        st.ray[i] = st.charges[i]
        st.status[i] = _MINUS
        out.append(st)


def run_decay(theory: Theory, diag: RootedDiagram) -> TraceResult:
    """Run the decay process to termination over all branches."""
    result = TraceResult()
    _run(theory, [_State.initial(diag)], result)
    return result


def _run(theory: Theory, stack: list[_State], result: TraceResult) -> None:
    """Drive every branch on the stack to its end, logging each step.

    Each pass pops a branch and pushes one ray with `_sweep`: the next
    pending plus vertex, else the shallowest unbalanced one.  Rays are
    pushed root first: with nothing pending or unbalanced, the shallowest
    plus vertices become the pending batch in the same pass.  That is the
    nesting of the iterated integral, so it is the only order: pushing
    leaves first agrees with it on one-edge diagrams only.  A branch with
    no plus vertex left is terminal."""
    while stack:
        st = stack.pop()
        alive = st.alive()
        st.pending = [k for k in st.pending if st.status[k] == _PLUS]
        unbal = [k for k in alive if st.status[k] == _UNBAL]
        if not st.pending and not unbal:
            plus = [k for k in alive if st.status[k] == _PLUS]
            top = min((st.depth(k) for k in plus), default=0)
            st.pending = [k for k in plus if st.depth(k) == top]
        if st.pending:
            i = st.pending.pop(0)
            result.steps.append(f"promote {i} {st.charges[i]}")
        elif unbal:
            i = min(unbal, key=lambda k: (st.depth(k), k))
            result.steps.append(f"rebalance {i} {st.ray[i]} -> {st.charges[i]}")
        else:
            if len(alive) == 1:
                result.eps_sum += st.sign
                result.steps.append(
                    f"terminal singleton {st.charges[alive[0]]}, sign {st.sign}")
            else:
                result.steps.append(
                    f"terminal non-singleton ({len(alive)} vertices), discarded")
            continue
        _sweep(theory, st, i, stack, result)


def gmn_contribution(theory: Theory, table: SpectrumTable, diag: RootedDiagram,
                     trace: TraceResult | None = None) -> Value:
    """Contribution of one framed diagram to the weak-side invariant."""
    w, _ = weight_W(theory, table, diag)
    if w == 0:
        return Value.zero()
    p = diag.total()[theory.root_index]
    if trace is None:
        trace = run_decay(theory, diag)
    return Value.rational(-w / p) * trace.bracket()


@dataclass
class TreeCheck:
    charges: tuple[Charge, ...]
    edges: tuple[tuple[int, int], ...]
    js_total: Value = field(default_factory=Value.zero)
    gmn_total: Value = field(default_factory=Value.zero)  # may carry symbols
    framings: list[tuple[RootedDiagram, Value]] = field(default_factory=list)
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
                     max_vertices: int | None = None) -> ConjectureReport:
    """Compare both wall-crossing computations tree by tree.

    One pass over the diagrams sums the framings of each tree and merges
    their jump tables.  The singular symbols solve js = gmn on each tree
    and, in jump-table order, I_below - I_above = jump on each coincident
    ray with a jump value and both sided symbols.  Symbols the system
    leaves free are reported in free_symbols and enter the ledger at 0.
    The target needs a nonzero framing coordinate: every diagram's root
    lies on the framing direction, and each contribution divides by that
    coordinate.
    """
    if target[theory.root_index] == 0:
        raise ValueError(f"target {target} has framing coordinate 0: "
                         "no framed diagram exists")
    strong = spectrum_table(theory.name, "strong")
    js = js_tree_values(theory, strong, target, max_vertices=max_vertices)
    diagrams = enumerate_diagrams(theory, strong, target, max_vertices=max_vertices)

    trees = {key: TreeCheck(tuple(tv.charges), tuple(tv.edges), tv.total)
             for key, tv in js.items()}
    jumps: dict[str, Fraction | None] = {}
    for diag in diagrams:
        key = canon_unoriented(diag.n, diag.edges(), list(diag.charges))
        trace = run_decay(theory, diag)
        for jk, jv in trace.jumps.items():
            if jumps.setdefault(jk, jv) != jv:
                raise ValueError(f"conflicting jump values for {jk}")
        contrib = gmn_contribution(theory, strong, diag, trace=trace)
        if key not in trees:    # framings only: the js sum has no such tree
            trees[key] = TreeCheck(diag.charges, tuple(diag.edges()))
        tc = trees[key]
        tc.framings.append((diag, contrib))
        tc.gmn_total = tc.gmn_total + contrib

    equations: list[tuple[dict[str, Fraction], Fraction]] = []
    for tc in trees.values():
        diff = tc.js_total - tc.gmn_total   # = -(symbol part of gmn) + rationals
        coeffs = {name: diff.coeff(name) for name in diff.symbols()}
        if coeffs:
            equations.append((coeffs, -diff.coeff()))
    names = list(dict.fromkeys(name for coeffs, _ in equations for name in coeffs))
    constraints: list[tuple[str, str]] = []
    for key, jump in sorted(jumps.items()):
        below, above = symbol_name(key, BELOW), symbol_name(key, ABOVE)
        if jump is not None and below in names and above in names:
            constraints.append((below, above))
            equations.append(({below: Fraction(1), above: Fraction(-1)}, jump))
    solved = solve_linear(equations, names)
    free = free_unknowns(solved, names)
    ledger = {**dict.fromkeys(free, Fraction(0)), **solved}

    for tc in trees.values():
        tc.resolved_gmn = tc.gmn_total.substitute(ledger)
        tc.ok = tc.resolved_gmn == tc.js_total
    return ConjectureReport(theory=theory.name, target=target, trees=trees,
                            ledger=ledger, constraints=constraints, free_symbols=free,
                            ok=all(tc.ok for tc in trees.values()))
