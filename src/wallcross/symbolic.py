"""Exact symbolic values: rationals, a sign unit s with s*s = 1, and named
unknowns ("singular symbols") entering linearly.

A Value is a Q-linear combination of monomials (sign_power, symbol_name)
with sign_power in {0, 1} and symbol_name None or a string.  Products of
two named symbols are not needed anywhere and raise.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator

Monomial = tuple[int, str | None]

_Q = Fraction


class Value:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Fraction] | None = None):
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for k, v in terms.items():
                v = _Q(v)
                if v:
                    self.terms[k] = v

    # -- constructors -------------------------------------------------
    @classmethod
    def rational(cls, q) -> "Value":
        return cls({(0, None): _Q(q)})

    @classmethod
    def sign_unit(cls, coeff=1) -> "Value":
        return cls({(1, None): _Q(coeff)})

    @classmethod
    def symbol(cls, name: str, coeff=1, sign_power: int = 0) -> "Value":
        return cls({(sign_power % 2, name): _Q(coeff)})

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
        out: dict[Monomial, Fraction] = {}
        for (s1, n1), v1 in self.terms.items():
            for (s2, n2), v2 in other.terms.items():
                if n1 is not None and n2 is not None:
                    raise ValueError("product of two singular symbols")
                key = ((s1 + s2) % 2, n1 if n1 is not None else n2)
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
    def coeff(self, sign_power: int = 0, name: str | None = None) -> Fraction:
        return self.terms.get((sign_power % 2, name), _Q(0))

    def symbols(self) -> Iterator[str]:
        for (_, n) in self.terms:
            if n is not None:
                yield n

    def is_rational(self) -> bool:
        return all(k == (0, None) for k in self.terms)

    def rational_part(self) -> "Value":
        return Value({k: v for k, v in self.terms.items() if k[1] is None})

    def substitute(self, assignment: dict[str, Fraction]) -> "Value":
        out = Value()
        for (s, n), v in self.terms.items():
            if n is None:
                out = out + Value({(s, None): v})
            elif n in assignment:
                out = out + Value({(s, None): v * assignment[n]})
            else:
                out = out + Value({(s, n): v})
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (s, n), v in sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")):
            unit = ("s" if s else "") + (("*" + n) if n and s else (n or ""))
            if not unit:
                bits.append(str(v))
            elif v == 1:
                bits.append(unit)
            elif v == -1:
                bits.append("-" + unit)
            else:
                bits.append(f"{v}*{unit}")
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
