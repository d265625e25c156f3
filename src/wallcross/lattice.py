"""Charge lattices of the SU(2) theories with 0 <= Nf <= 3 flavours.

Charges are integer coordinate tuples in a fixed basis of vanishing
cycles.  The antisymmetric pairing, the central-charge models on the two
sides of the wall, and the quadratic refinement sign all live here.  All
phase comparisons are exact (2d cross products of rational vectors; the
catalog's central charges are integer vectors).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

Charge = tuple[int, ...]
Vec2 = tuple[Fraction, Fraction]  # central charge value (re, im), int or Fraction

PLUS = "+"    # strong-coupling side of the wall
MINUS = "-"   # weak-coupling side

CCW = 1
CW = -1


class RayCoincidenceError(Exception):
    """A moved ray landed exactly on another active ray."""


# ---------------------------------------------------------------------------
# charge arithmetic

def cadd(a: Charge, b: Charge) -> Charge:
    return tuple(x + y for x, y in zip(a, b))


def cneg(a: Charge) -> Charge:
    return tuple(-x for x in a)


def cscale(k: int, a: Charge) -> Charge:
    return tuple(k * x for x in a)


def czero(rank: int) -> Charge:
    return (0,) * rank


def is_zero(a: Charge) -> bool:
    return all(x == 0 for x in a)


def content(a: Charge) -> int:
    g = 0
    for x in a:
        g = gcd(g, abs(x))
    return g


def primitive(a: Charge) -> Charge:
    g = content(a)
    if g == 0:
        raise ValueError("zero charge has no primitive direction")
    return tuple(x // g for x in a)


# ---------------------------------------------------------------------------
# exact 2d direction algebra

def cross(a: Vec2, b: Vec2) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def same_ray(a: Vec2, b: Vec2) -> bool:
    """Same open half-line through the origin."""
    if cross(a, b) != 0:
        return False
    return a[0] * b[0] + a[1] * b[1] > 0


def direction_key(a: Vec2) -> tuple[int, int]:
    """Primitive integer vector on the same ray; equal keys iff rays equal."""
    if a == (0, 0):
        raise ValueError("zero vector has no direction")
    d = (a[0].denominator * a[1].denominator) // gcd(a[0].denominator, a[1].denominator)
    x, y = int(a[0] * d), int(a[1] * d)
    g = gcd(abs(x), abs(y))
    return (x // g, y // g)


@dataclass(frozen=True)
class Theory:
    name: str
    basis: tuple[str, ...]
    pairing: tuple[tuple[int, ...], ...]
    z_plus: tuple[Vec2, ...]     # central charges of basis elements at u+
    z_minus: tuple[Vec2, ...]
    effective_signs: tuple[int, ...]  # gamma effective iff sign*coord >= 0 each
    root_index: int              # basis direction carrying GMN framings

    @property
    def rank(self) -> int:
        return len(self.basis)

    def zero(self) -> Charge:
        return czero(self.rank)

    def unit(self, i: int) -> Charge:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def pair(self, a: Charge, b: Charge) -> int:
        return sum(a[i] * self.pairing[i][j] * b[j]
                   for i in range(self.rank) for j in range(self.rank))

    def z(self, region: str, gamma: Charge) -> Vec2:
        """Central charge Z_gamma on one side of the wall: the linear sum
        of the basis central charges (integers in the catalog)."""
        zs = self.z_plus if region == PLUS else self.z_minus
        re = im = 0
        for n, (x, y) in zip(gamma, zs):
            re += n * x
            im += n * y
        return re, im

    @property
    def sigma_trivial(self) -> bool:
        """Even pairing, so sigma is +1 on every charge (Nf = 0).  No
        computation depends on it; the benchmark workloads read it."""
        return all(x % 2 == 0 for row in self.pairing for x in row)

    def is_effective(self, gamma: Charge) -> bool:
        if is_zero(gamma):
            return False
        return all(s * n >= 0 for s, n in zip(self.effective_signs, gamma))

    def pinned(self, gamma: Charge) -> bool:
        """Ray position identical on both sides of the wall."""
        return same_ray(self.z(PLUS, gamma), self.z(MINUS, gamma))

    # -- quadratic refinement ------------------------------------------
    def sigma_value(self, gamma: Charge) -> int:
        """Refinement with sigma = +1 on the basis elements."""
        e = 0
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                e += gamma[i] * gamma[j] * self.pairing[i][j]
        return -1 if e % 2 else 1

    def sigma_reduce(self, charges: list[Charge]) -> tuple[int, Charge]:
        """Fold sigma(a)sigma(b) = (-1)^<a,b> sigma(a+b) left-to-right.

        Returns (sign, total) with prod_k sigma(c_k) = sign * sigma(total).
        """
        sign = 1
        total = self.zero()
        for c in charges:
            if self.pair(total, c) % 2:
                sign = -sign
            total = cadd(total, c)
        return sign, total


def sweep_crossing(start: Vec2, end: Vec2, target: Vec2) -> int | None:
    """Does the ray moving from `start` to `end` cross the `target` ray?

    All vectors are ray directions within one open half-plane.  Returns
    CCW / CW for a strict crossing, None if not crossed (including when
    target coincides with start), and raises RayCoincidenceError when
    target coincides with the endpoint.
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


# ---------------------------------------------------------------------------
# the standard catalog

# the two default central-charge assignments ("magnetic-like" and
# "electric-like" basis states); u+ is the strong-coupling side.  Only
# their phases enter any exact computation, so they are integer vectors.
_TYPE_D_PLUS: Vec2 = (-2, 20)
_TYPE_D_MINUS: Vec2 = (1, 20)
_TYPE_M_PLUS: Vec2 = (2, 20)
_TYPE_M_MINUS: Vec2 = (-1, 20)


def su2_theory(nf: int) -> Theory:
    if nf == 0:
        return Theory(
            name="nf0", basis=("d", "m"),
            pairing=((0, 2), (-2, 0)),
            z_plus=(_TYPE_D_PLUS, _TYPE_M_PLUS),
            z_minus=(_TYPE_D_MINUS, _TYPE_M_MINUS),
            effective_signs=(1, 1), root_index=0)
    if nf == 1:
        # basis g1, g2, g3 with g3 = -g1 - g2 in the gauge lattice;
        # effective cone generated by g1, g2, -g3
        z3p = (-_TYPE_D_PLUS[0] - _TYPE_M_PLUS[0], -_TYPE_D_PLUS[1] - _TYPE_M_PLUS[1])
        z3m = (-_TYPE_D_MINUS[0] - _TYPE_M_MINUS[0], -_TYPE_D_MINUS[1] - _TYPE_M_MINUS[1])
        return Theory(
            name="nf1", basis=("g1", "g2", "g3"),
            pairing=((0, 1, -1), (-1, 0, 1), (1, -1, 0)),
            z_plus=(_TYPE_D_PLUS, _TYPE_M_PLUS, z3p),
            z_minus=(_TYPE_D_MINUS, _TYPE_M_MINUS, z3m),
            effective_signs=(1, 1, -1), root_index=0)
    if nf == 2:
        return Theory(
            name="nf2", basis=("g1_1", "g2_1", "g1_2", "g2_2"),
            pairing=((0, 0, 1, 1), (0, 0, 1, 1), (-1, -1, 0, 0), (-1, -1, 0, 0)),
            z_plus=(_TYPE_D_PLUS, _TYPE_D_PLUS, _TYPE_M_PLUS, _TYPE_M_PLUS),
            z_minus=(_TYPE_D_MINUS, _TYPE_D_MINUS, _TYPE_M_MINUS, _TYPE_M_MINUS),
            effective_signs=(1, 1, 1, 1), root_index=0)
    if nf == 3:
        return Theory(
            name="nf3", basis=("g1_1", "g2_1", "g3_1", "g4_1", "g2"),
            pairing=((0, 0, 0, 0, 1), (0, 0, 0, 0, 1), (0, 0, 0, 0, 1),
                     (0, 0, 0, 0, 1), (-1, -1, -1, -1, 0)),
            z_plus=(_TYPE_D_PLUS,) * 4 + (_TYPE_M_PLUS,),
            z_minus=(_TYPE_D_MINUS,) * 4 + (_TYPE_M_MINUS,),
            effective_signs=(1, 1, 1, 1, 1), root_index=0)
    raise ValueError(f"nf must be 0..3, got {nf}")


THEORIES = {f"nf{k}": k for k in range(4)}


def theory_by_name(name: str) -> Theory:
    if name not in THEORIES:
        raise ValueError(f"unknown theory {name!r}; expected one of {sorted(THEORIES)}")
    return su2_theory(THEORIES[name])
