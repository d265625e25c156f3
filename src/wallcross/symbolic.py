"""Exact symbolic values of the decay calculus and its fit: rationals and
named unknowns ("singular symbols") entering linearly.

A Value is a Q-linear combination of monomials, each a symbol name or
None for the rational part.  Every exact value of the package is a
coefficient of the quadratic refinement sigma(target) of its target
charge, so no refinement unit appears here; one that can carry no
symbol (a js tree total, a gmn total at the fitted ledger) is a
Fraction.  A Value is a linear form: it adds, subtracts and compares,
and is built from a term dict; nothing multiplies or hashes one.  The
exact solver runs the Gauss-Jordan elimination on sparse rows, with the
dense one's pivots.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator

_Q = Fraction


class Value:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[str | None, Fraction] | None = None):
        # a Fraction is kept as it is; zeros are dropped
        self.terms: dict[str | None, Fraction] = {
            k: v if type(v) is _Q else _Q(v) for k, v in (terms or {}).items() if v}

    # -- constructors -------------------------------------------------
    @classmethod
    def rational(cls, q) -> "Value":
        return cls({None: _Q(q)})

    # the benchmark workloads still build expected values with this name
    sign_unit = rational

    @classmethod
    def zero(cls) -> "Value":
        return cls()

    # -- linear operations --------------------------------------------
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

    def __eq__(self, other) -> bool:
        return self.terms == _coerce(other).terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- inspection ---------------------------------------------------
    def coeff(self, name: str | None = None) -> Fraction:
        return self.terms.get(name, _Q(0))

    def symbols(self) -> Iterator[str]:
        for n in self.terms:
            if n is not None:
                yield n

    def evaluate(self, assignment: dict[str, Fraction]) -> Fraction:
        """The value at an assignment of every symbol (else KeyError)."""
        return sum((v if n is None else v * assignment[n]
                    for n, v in self.terms.items()), _Q(0))

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


def solve_linear(equations: list[tuple[dict[str, Fraction], Fraction]],
                 unknowns: list[str]) -> dict[str, Fraction]:
    """Solve a (possibly over- or underdetermined) exact linear system.

    Each equation is (coefficient-by-unknown, rhs).  One Gauss-Jordan
    elimination of the augmented matrix; raises ValueError if the system
    is inconsistent.  Returns the pivot unknowns, in pivot order, at
    their values with every free unknown fixed to zero; the free ones
    are those left out (see free_unknowns).

    Rows are sparse, column -> nonzero coefficient, since each equation
    names a few of the unknowns.  Columns are taken in order, the pivot
    row is the first remaining one with a nonzero in the column and is
    swapped into place, as in the dense elimination; only rows holding
    the column are reduced, and only at the pivot row's columns.
    """
    col = {u: c for c, u in enumerate(unknowns)}
    rows = [{col[u]: v for u, v in eq.items() if v and u in col}
            for eq, _ in equations]
    rhs = [_Q(b) for _, b in equations]
    pivots: list[int] = []
    for c in range(len(unknowns)):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rhs[r], rhs[pivot] = rhs[pivot], rhs[r]
        row = rows[r]
        piv = row[c]
        if piv != 1:
            for k in row:
                row[k] /= piv
            rhs[r] /= piv
        for i, other in enumerate(rows):
            f = other.get(c)
            if f is None or i == r:
                continue
            for k, v in row.items():
                x = other.get(k, 0) - f * v
                if x:
                    other[k] = x
                else:
                    del other[k]
            rhs[i] -= f * rhs[r]
        pivots.append(c)
    if any(rhs[len(pivots):]):
        raise ValueError("inconsistent singular-symbol system")
    return {unknowns[c]: rhs[i] for i, c in enumerate(pivots)}


def free_unknowns(solution: dict[str, Fraction],
                  unknowns: list[str]) -> list[str]:
    """Names of unknowns not pinned down by the system (free parameters):
    those solve_linear left out of its solution, in order."""
    return [u for u in unknowns if u not in solution]
