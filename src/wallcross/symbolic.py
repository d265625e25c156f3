"""Exact symbolic values: rationals and named unknowns ("singular
symbols") entering linearly.

A Value is a Q-linear combination of monomials, each a symbol name or
None for the rational part.  Every exact value of the package is a
coefficient of the quadratic refinement sigma(target) of its target
charge, so no refinement unit appears here.  Products of two named
symbols are not needed anywhere and raise.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator

_Q = Fraction


class Value:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[str | None, Fraction] | None = None):
        self.terms: dict[str | None, Fraction] = {}
        if terms:
            for k, v in terms.items():
                v = _Q(v)
                if v:
                    self.terms[k] = v

    # -- constructors -------------------------------------------------
    @classmethod
    def rational(cls, q) -> "Value":
        return cls({None: _Q(q)})

    # the benchmark workloads still build expected values with this name
    sign_unit = rational

    @classmethod
    def symbol(cls, name: str, coeff=1) -> "Value":
        return cls({name: _Q(coeff)})

    @classmethod
    def zero(cls) -> "Value":
        return cls()

    # -- ring operations ----------------------------------------------
    def __add__(self, other) -> "Value":
        other = _coerce(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, _Q(0)) + v
        return Value(out)

    __radd__ = __add__

    def __neg__(self) -> "Value":
        return Value({k: -v for k, v in self.terms.items()})

    def __sub__(self, other) -> "Value":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Value":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Value":
        other = _coerce(other)
        out: dict[str | None, Fraction] = {}
        for n1, v1 in self.terms.items():
            for n2, v2 in other.terms.items():
                if n1 is not None and n2 is not None:
                    raise ValueError("product of two singular symbols")
                key = n1 if n1 is not None else n2
                out[key] = out.get(key, _Q(0)) + v1 * v2
        return Value(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return self.terms == _coerce(other).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- inspection ---------------------------------------------------
    def coeff(self, name: str | None = None) -> Fraction:
        return self.terms.get(name, _Q(0))

    def symbols(self) -> Iterator[str]:
        for n in self.terms:
            if n is not None:
                yield n

    def substitute(self, assignment: dict[str, Fraction]) -> "Value":
        out: dict[str | None, Fraction] = {}
        for n, v in self.terms.items():
            if n in assignment:
                n, v = None, v * assignment[n]
            out[n] = out.get(n, _Q(0)) + v
        return Value(out)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for n, v in sorted(self.terms.items(), key=lambda kv: kv[0] or ""):
            if n is None:
                bits.append(str(v))
            elif v == 1:
                bits.append(n)
            elif v == -1:
                bits.append("-" + n)
            else:
                bits.append(f"{v}*{n}")
        text = bits[0]
        for b in bits[1:]:
            text += (" - " + b[1:]) if b.startswith("-") else (" + " + b)
        return text


def _coerce(x) -> Value:
    if isinstance(x, Value):
        return x
    return Value.rational(x)


def _row_reduce(equations: list[tuple[dict[str, Fraction], Fraction]],
                unknowns: list[str]) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination of the augmented matrix of the system.

    Returns the reduced rows (coefficients by unknown, then rhs) and the
    pivot columns; rows past the last pivot row have zero coefficients.
    """
    rows = [[eq.get(u, _Q(0)) for u in unknowns] + [rhs] for eq, rhs in equations]
    pivots: list[int] = []
    r = 0
    for c in range(len(unknowns)):
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def solve_linear(equations: list[tuple[dict[str, Fraction], Fraction]],
                 unknowns: list[str],
                 allow_free: bool = False) -> dict[str, Fraction]:
    """Solve a (possibly overdetermined) exact linear system.

    Each equation is (coefficient-by-unknown, rhs).  Raises ValueError if
    inconsistent, or if underdetermined unless allow_free is set, in
    which case free unknowns are fixed to zero (a particular solution).
    Use free_unknowns() to find out which ones were free.
    """
    rows, pivots = _row_reduce(equations, unknowns)
    if any(row[-1] for row in rows[len(pivots):]):
        raise ValueError("inconsistent singular-symbol system")
    free = [u for c, u in enumerate(unknowns) if c not in pivots]
    if free and not allow_free:
        raise ValueError(f"underdetermined singular symbols: {free}")
    sol = {u: _Q(0) for u in free}
    sol.update({unknowns[c]: rows[i][-1] for i, c in enumerate(pivots)})
    return sol


def free_unknowns(equations: list[tuple[dict[str, Fraction], Fraction]],
                  unknowns: list[str]) -> list[str]:
    """Names of unknowns not pinned down by the system (free parameters)."""
    _, pivots = _row_reduce(equations, unknowns)
    return [u for c, u in enumerate(unknowns) if c not in pivots]
