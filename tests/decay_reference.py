"""Reference decay engine: the push step as first written.

Every branch re-derives what it needs from the lattice: a vertex's
active ray is Z+ or Z- of its ray label, read afresh from its status at
each use, whether a plus neighbour is pinned is asked at each sweep, the
live vertices, neighbours and depths are listed anew at each use, and
each step is formatted as it is logged.  Its crossing test is its own,
as first written: a sweep that ends on the target ray raises, and the
push step catches that.  The library carries the active rays in each
branch, reads each of these once and takes every outcome of
`lattice.sweep_crossing` as a returned verdict; the differential tests
check that both give the same signs, singular endpoints, jumps and step
log.  `bracket` and `contribution` fold a trace into a Value
one endpoint at a time, `contribution` scaling each term as it goes;
the library sums integer coefficients into the bracket and scales it
once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from wallcross.decay import ABOVE, BELOW, SingularEndpoint
from wallcross.gmn import RootedDiagram
from wallcross.lattice import (CCW, CW, MINUS, PLUS, Charge, Theory, Vec2,
                               cadd, cross, direction_key, same_ray)
from wallcross.symbolic import Value
from wallcross.trees import adjacency, charge_label, encode

_PLUS = "+"
_MINUS = "-"
_UNBAL = "*"
_DEAD = "."


class RayCoincidenceError(Exception):
    """A moved ray landed exactly on another active ray."""


def sweep_crossing(start: Vec2, end: Vec2, target: Vec2) -> int | None:
    """Does the ray moving from `start` to `end` cross the `target` ray?

    All vectors are ray directions within one open half-plane (see
    `Theory`).  Returns CCW / CW for a strict crossing, None if not crossed
    (including when target coincides with start), and raises
    RayCoincidenceError when target coincides with the endpoint.
    """
    if same_ray(start, end):
        if same_ray(target, end):
            raise RayCoincidenceError("zero-length sweep onto target ray")
        return None
    if same_ray(target, end):
        raise RayCoincidenceError("sweep ends on target ray")
    if same_ray(target, start):
        return None
    orient = CCW if cross(start, end) > 0 else CW
    if orient == CCW:
        inside = cross(start, target) > 0 and cross(target, end) > 0
    else:
        inside = cross(start, target) < 0 and cross(target, end) < 0
    return orient if inside else None


@dataclass
class Trace:
    eps_sum: Fraction = Fraction(0)
    singular: list[SingularEndpoint] = field(default_factory=list)
    steps: list[str] = field(default_factory=list)
    jumps: dict[str, Fraction | None] = field(default_factory=dict)


@dataclass
class _State:
    """One branch; a plus or minus vertex's ray label is its charge, an
    unbalanced one keeps the charge it had before its last merge."""
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
        self.charges[static] = cadd(self.charges[static], self.charges[moved])
        self.status[static] = _UNBAL
        for j in self.alive():
            if j != static and self.parent[j] == moved:
                self.parent[j] = static
        if self.parent[static] == moved:
            self.parent[static] = self.parent[moved]
        self.status[moved] = _DEAD

    def frozen_key(self, theory: Theory, moving: int, end: Vec2) -> str:
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
           result: Trace) -> None:
    start = st.active_ray(theory, i)
    end = theory.z(MINUS, st.charges[i])
    crossings: list[tuple[int, int]] = []
    singular = False
    for j in st.neighbours(i):
        if st.status[j] == _PLUS and not theory.pinned(st.charges[j]):
            continue
        tgt = st.active_ray(theory, j)
        rel = 1 if st.parent[i] == j else -1
        try:
            sense = sweep_crossing(start, end, tgt)
        except RayCoincidenceError:
            side = BELOW if cross(start, end) > 0 else ABOVE
            key = st.frozen_key(theory, i, end)
            result.singular.append(
                SingularEndpoint(key=key, side=side, coeff=st.sign))
            if key not in result.jumps:
                merged = st.copy()
                merged.sign = 1
                merged.merge(i, j)
                sub = Trace()
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


def run_decay(theory: Theory, diag: RootedDiagram) -> Trace:
    result = Trace()
    _run(theory, [_State.initial(diag)], result)
    return result


def _run(theory: Theory, stack: list[_State], result: Trace) -> None:
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


def bracket(trace) -> Value:
    """sum of signs + sum of signed singular symbols, one Value per term."""
    v = Value.rational(Fraction(trace.eps_sum))
    for s in trace.singular:
        v = v + Value({s.symbol: s.coeff})
    return v


def contribution(theory: Theory, diag: RootedDiagram, w: Fraction,
                 trace) -> Value:
    """-(w / p) times the bracket, p the framing coordinate of the total:
    each term is scaled as it is folded in, one Value per endpoint."""
    if w == 0:
        return Value.zero()
    q = -w / diag.total()[theory.root_index]
    v = Value.rational(q * trace.eps_sum)
    for s in trace.singular:
        v = v + Value({s.symbol: q * s.coeff})
    return v
