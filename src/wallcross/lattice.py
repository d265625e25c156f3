"""Charge lattices as `Theory` data, and the SU(2) catalog with 0 <= Nf <= 3.

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
    """A charge lattice and its two central-charge models, as data.

    The constructor raises ValueError unless the fields have one entry per
    basis element, the pairing is a square antisymmetric integer matrix,
    each effective sign s_i is +-1, 0 <= root_index < rank, each central
    charge Z_i is a pair of ints or Fractions, and Im(s_i Z_i) > 0 on both
    sides.  So every nonzero effective charge has its central charge in the
    open upper half-plane, as every exact phase comparison assumes.
    """
    name: str
    basis: tuple[str, ...]
    pairing: tuple[tuple[int, ...], ...]
    z_plus: tuple[Vec2, ...]     # central charges of basis elements at u+
    z_minus: tuple[Vec2, ...]
    effective_signs: tuple[int, ...]  # gamma effective iff sign*coord >= 0 each
    root_index: int              # basis direction carrying GMN framings

    def __post_init__(self):
        # reads the fields, not `z` or `pair`: the benchmark counts their calls
        n, p = len(self.basis), self.pairing
        short = [f for f in ("pairing", "z_plus", "z_minus", "effective_signs")
                 if len(getattr(self, f)) != n]
        if short:
            raise ValueError(f"{self.name}: {', '.join(short)} not of length "
                             f"rank {n}")
        if not all(len(row) == n and all(isinstance(x, int) for x in row)
                   for row in p):
            raise ValueError(f"{self.name}: pairing is not a square integer matrix")
        if any(p[i][j] != -p[j][i] for i in range(n) for j in range(i, n)):
            raise ValueError(f"{self.name}: pairing is not antisymmetric")
        if any(s not in (1, -1) for s in self.effective_signs):
            raise ValueError(f"{self.name}: effective signs must be +1 or -1")
        if not 0 <= self.root_index < n:
            raise ValueError(f"{self.name}: root_index {self.root_index} "
                             f"not in 0..{n - 1}")
        for side, zs in ((PLUS, self.z_plus), (MINUS, self.z_minus)):
            for b, s, z in zip(self.basis, self.effective_signs, zs):
                if not (isinstance(z, tuple) and len(z) == 2 and all(
                        isinstance(x, (int, Fraction)) for x in z)):
                    raise ValueError(f"{self.name}: Z{side}({b}) = {z!r} is not "
                                     "a pair of ints or Fractions")
                if s * z[1] <= 0:
                    raise ValueError(f"{self.name}: Im Z{side}({b}) times its "
                                     f"effective sign {s} is not positive")

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


# ---------------------------------------------------------------------------
# the standard catalog

# the two default central-charge assignments ("magnetic-like" and
# "electric-like" basis states); u+ is the strong-coupling side.  Only
# their phases enter any exact computation, so they are integer vectors.
_TYPE_D_PLUS: Vec2 = (-2, 20)
_TYPE_D_MINUS: Vec2 = (1, 20)
_TYPE_M_PLUS: Vec2 = (2, 20)
_TYPE_M_MINUS: Vec2 = (-1, 20)


# SU(2) with Nf = 0..3 flavours; a name adds only the weak rules of spectrum.py
CATALOG: dict[str, Theory] = {th.name: th for th in (
    Theory(name="nf0", basis=("d", "m"), pairing=((0, 2), (-2, 0)),
           z_plus=(_TYPE_D_PLUS, _TYPE_M_PLUS),
           z_minus=(_TYPE_D_MINUS, _TYPE_M_MINUS),
           effective_signs=(1, 1), root_index=0),
    # g3 = -g1 - g2 in the gauge lattice, so Z(g3) = -Z(g1) - Z(g2) on
    # both sides; effective cone generated by g1, g2, -g3
    Theory(name="nf1", basis=("g1", "g2", "g3"),
           pairing=((0, 1, -1), (-1, 0, 1), (1, -1, 0)),
           z_plus=(_TYPE_D_PLUS, _TYPE_M_PLUS, (0, -40)),
           z_minus=(_TYPE_D_MINUS, _TYPE_M_MINUS, (0, -40)),
           effective_signs=(1, 1, -1), root_index=0),
    Theory(name="nf2", basis=("g1_1", "g2_1", "g1_2", "g2_2"),
           pairing=((0, 0, 1, 1), (0, 0, 1, 1), (-1, -1, 0, 0), (-1, -1, 0, 0)),
           z_plus=(_TYPE_D_PLUS, _TYPE_D_PLUS, _TYPE_M_PLUS, _TYPE_M_PLUS),
           z_minus=(_TYPE_D_MINUS, _TYPE_D_MINUS, _TYPE_M_MINUS, _TYPE_M_MINUS),
           effective_signs=(1, 1, 1, 1), root_index=0),
    Theory(name="nf3", basis=("g1_1", "g2_1", "g3_1", "g4_1", "g2"),
           pairing=((0, 0, 0, 0, 1), (0, 0, 0, 0, 1), (0, 0, 0, 0, 1),
                    (0, 0, 0, 0, 1), (-1, -1, -1, -1, 0)),
           z_plus=(_TYPE_D_PLUS,) * 4 + (_TYPE_M_PLUS,),
           z_minus=(_TYPE_D_MINUS,) * 4 + (_TYPE_M_MINUS,),
           effective_signs=(1, 1, 1, 1, 1), root_index=0),
)}


def theory_by_name(name: str) -> Theory:
    if name not in CATALOG:
        raise ValueError(f"unknown theory {name!r}; expected one of {sorted(CATALOG)}")
    return CATALOG[name]
