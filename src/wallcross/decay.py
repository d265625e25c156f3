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
coordinate of the total charge.  Each branch carries the central charge
on every vertex's active ray and Z- of every vertex's charge, adding the
latter on each merge as Z is linear, so the lattice is read only at
set-up, and the step log keeps templates and arguments, formatted when
TraceResult.steps is read.

A conjecture checker compares, per unoriented decorated tree, the sum of
these diagram totals over framings against the tree's total in the
combinatorial wall-crossing sum, solving for the singular symbols.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .lattice import (CCW, ENDS_ON, MINUS, PLUS, Charge, Theory, Vec2, cadd,
                      cross, direction_key, same_ray, sweep_crossing)
from .gmn import RootedDiagram, enumerate_diagrams, weight_W
from .js import js_tree_values
from .spectrum import strong_table
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
    eps_sum: int = 0
    singular: list[SingularEndpoint] = field(default_factory=list)
    # key -> sided jump I_below - I_above (None when it could not be
    # evaluated because the completed crossing is itself singular)
    jumps: dict[str, Fraction | None] = field(default_factory=dict)
    # each step as (template, arguments); `steps` formats them when read
    log: list[tuple[str, tuple]] = field(default_factory=list)

    @property
    def steps(self) -> list[str]:
        return [template.format(*args) for template, args in self.log]

    def bracket(self) -> Value:
        """sum of signs + sum of signed singular symbols, summed in ints."""
        terms = {None: self.eps_sum}
        for s in self.singular:
            terms[s.symbol] = terms.get(s.symbol, 0) + s.coeff
        return Value(terms)


@dataclass(slots=True)
class _State:
    """One branch of the decay process.  Vertex indices are stable.

    A plus or minus vertex's ray label is its charge: `initial` sets it
    and `_sweep` sets it again on balancing.  Only `merge` changes a
    charge, and it marks the vertex unbalanced, keeping the old charge
    as its ray label.  `z` is the central charge on each vertex's active
    ray: Z+ of its charge from `initial`, the weak-side end of its last
    sweep from `_sweep`.  `merge` leaves it, since every reader takes
    only its direction and a plus vertex that is folded into is pinned,
    its Z+ on its Z- ray.  `zm` is Z- of each vertex's charge, the end of
    its next sweep: `merge` adds it with the charges, as Z is linear.
    Only `initial` reads the lattice, Z+ and Z- once per diagram vertex,
    and `pinned` compares those two reads: a plus vertex keeps its
    diagram charge, so that holds for every branch.
    """
    charges: list[Charge]
    ray: list[Charge]
    z: list[Vec2]
    zm: list[Vec2]
    status: list[str]
    parent: list[int | None]
    pinned: list[bool]
    sign: int = 1
    pending: list[int] = field(default_factory=list)

    @classmethod
    def initial(cls, theory: Theory, diag: RootedDiagram) -> "_State":
        charges = diag.charges
        z = [theory.z(PLUS, c) for c in charges]
        zm = [theory.z(MINUS, c) for c in charges]
        pinned = [same_ray(p, m) for p, m in zip(z, zm)]
        return cls(list(charges), list(charges), z, zm, [_PLUS] * diag.n,
                   list(diag.parent), pinned)

    def copy(self) -> "_State":
        return _State(list(self.charges), list(self.ray), list(self.z),
                      list(self.zm), list(self.status), list(self.parent),
                      self.pinned, self.sign, list(self.pending))

    def merge(self, moved: int, static: int) -> None:
        """Fold the moved vertex into the crossed neighbour, which keeps
        its ray label and becomes unbalanced.  A pending vertex that dies
        or stops being plus here is dropped from `pending` by `_run`."""
        self.charges[static] = cadd(self.charges[static], self.charges[moved])
        self.zm[static] = cadd(self.zm[static], self.zm[moved])
        self.status[static] = _UNBAL
        parent = self.parent
        for j, s in enumerate(self.status):
            if s != _DEAD and j != static and parent[j] == moved:
                parent[j] = static
        if parent[static] == moved:
            parent[static] = parent[moved]
        self.status[moved] = _DEAD

    def frozen_key(self, alive: list[int], moving: int, end: Vec2) -> str:
        """Canonical label of the frozen integral: each vertex carries its
        accumulated charge and its contour ray; the sweeping vertex sits
        exactly on the coincident ray."""
        labels = [""] * len(self.charges)
        for i in alive:
            dx, dy = direction_key(end if i == moving else self.z[i])
            labels[i] = (f"{charge_label(self.charges[i])}@{dx},{dy}"
                         + ("!" if i == moving else ""))
        parent = self.parent
        root = next(i for i in alive if parent[i] is None)
        edges = [(parent[j], j) for j in alive if parent[j] is not None]
        return encode(root, -1, adjacency(len(self.charges), edges), labels)[0]


def _sweep(st: _State, i: int, alive: list[int], out: list[_State],
           result: TraceResult) -> None:
    """Push vertex i's ray from its active ray to the weak-side ray of its
    accumulated charge; `alive` lists the branch's live vertices.

    `sweep_crossing` gives a verdict per neighbour.  A strict crossing of
    the neighbour's active ray appends a residue branch to `out`; a sweep
    that ends on it records a singular endpoint and its jump.  Then,
    unless some sweep is singular, `st` itself follows the residue
    branches with vertex i balanced on its weak-side ray.
    """
    start, end = st.z[i], st.zm[i]
    status, parent, up = st.status, st.parent, st.parent[i]
    neighbours = [j for j in alive if parent[j] == i]
    if up is not None:
        neighbours.append(up)
    crossings: list[tuple[int, int]] = []
    singular = False
    for j in neighbours:
        if status[j] == _PLUS and not st.pinned[j]:
            # not yet pushed; a ray still moving with the wall cannot
            # interact unless it is pinned (same position on both sides)
            continue
        rel = 1 if up == j else -1
        sense = sweep_crossing(start, end, st.z[j])
        if sense == ENDS_ON:
            # the sweep ends on the target ray: its rotation sense is the side
            side = BELOW if cross(start, end) > 0 else ABOVE
            key = st.frozen_key(alive, i, end)
            result.singular.append(
                SingularEndpoint(key=key, side=side, coeff=st.sign))
            if key not in result.jumps:
                # jump across the pole: sign of the upward crossing times
                # the value of the completed (merged) diagram
                merged = st.copy()
                merged.sign = 1
                merged.merge(i, j)
                sub = TraceResult()
                _run([merged], sub)
                result.jumps[key] = (CCW * rel * sub.eps_sum
                                     if not sub.singular else None)
            result.log.append(("singular: vertex {} onto ray of {} ({}), coeff={}",
                               (i, j, side, st.sign)))
            singular = True
        elif sense is not None:
            crossings.append((j, sense * rel))
    for j, eps in crossings:
        branch = st.copy()
        branch.sign *= eps
        branch.merge(i, j)
        out.append(branch)
        result.log.append(("residue: vertex {} crossed {}, branch sign {}",
                           (i, j, branch.sign)))
    if not singular:
        st.ray[i] = st.charges[i]
        st.z[i] = end
        status[i] = _MINUS
        out.append(st)


def run_decay(theory: Theory, diag: RootedDiagram) -> TraceResult:
    """Run the decay process to termination over all branches."""
    result = TraceResult()
    _run([_State.initial(theory, diag)], result)
    return result


def _shallowest(parent: list[int | None], vertices: list[int]) -> list[int]:
    """The vertices, in order, that lie least deep below the branch's root;
    depths are walked only when there is more than one vertex."""
    if len(vertices) == 1:
        return vertices
    depth = {}
    for k in vertices:
        d, v = 0, parent[k]
        while v is not None:
            v = parent[v]
            d += 1
        depth[k] = d
    top = min(depth.values())
    return [k for k in vertices if depth[k] == top]


def _run(stack: list[_State], result: TraceResult) -> None:
    """Drive every branch on the stack to its end, logging each step.

    Each pass pops a branch and pushes one ray with `_sweep`: the next
    pending plus vertex, else the shallowest unbalanced one.  Rays are
    pushed root first: with nothing pending or unbalanced, the shallowest
    plus vertices become the pending batch in the same pass.  That is the
    nesting of the iterated integral, so it is the only order: pushing
    leaves first agrees with it on one-edge diagrams only.  A branch with
    no plus vertex left is terminal.  Each pass lists the live vertices
    once, and works out the depths it compares once."""
    log = result.log
    while stack:
        st = stack.pop()
        status = st.status
        alive = [k for k, s in enumerate(status) if s != _DEAD]
        pending = st.pending = [k for k in st.pending if status[k] == _PLUS]
        unbal = [] if pending else [k for k in alive if status[k] == _UNBAL]
        if not pending and not unbal:
            plus = [k for k in alive if status[k] == _PLUS]
            if not plus:
                if len(alive) == 1:
                    result.eps_sum += st.sign
                    log.append(("terminal singleton {}, sign {}",
                                (st.charges[alive[0]], st.sign)))
                else:
                    log.append(("terminal non-singleton ({} vertices), discarded",
                                (len(alive),)))
                continue
            pending.extend(_shallowest(st.parent, plus))
        if pending:
            i = pending.pop(0)
            log.append(("promote {} {}", (i, st.charges[i])))
        else:
            i = _shallowest(st.parent, unbal)[0]
            log.append(("rebalance {} {} -> {}", (i, st.ray[i], st.charges[i])))
        _sweep(st, i, alive, stack, result)


def gmn_contribution(theory: Theory, diag: RootedDiagram, w: Fraction,
                     trace: TraceResult) -> Value:
    """Contribution of one framed diagram of weight w = weight_W(diag) to
    the weak-side invariant, from `trace`, the diagram's decay."""
    if w == 0:
        return Value.zero()
    scale = -w / diag.total()[theory.root_index]
    return Value({k: v * scale for k, v in trace.bracket().terms.items()})


@dataclass
class TreeCheck:
    charges: tuple[Charge, ...]
    edges: tuple[tuple[int, int], ...]
    js_total: Fraction = Fraction(0)
    gmn_total: Value = field(default_factory=Value.zero)  # may carry symbols
    framings: list[tuple[RootedDiagram, Value]] = field(default_factory=list)
    resolved_gmn: Fraction | None = None    # gmn_total at the ledger
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
    strong = strong_table(theory)
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
        contrib = gmn_contribution(theory, diag, weight_W(theory, strong, diag),
                                   trace)
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
        tc.resolved_gmn = tc.gmn_total.evaluate(ledger)
        tc.ok = tc.resolved_gmn == tc.js_total
    return ConjectureReport(theory=theory.name, target=target, trees=trees,
                            ledger=ledger, constraints=constraints, free_symbols=free,
                            ok=all(tc.ok for tc in trees.values()))
