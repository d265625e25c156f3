"""Reference exact solver: the dense Gauss-Jordan elimination.

Every row holds a coefficient for every unknown, and each pivot step
divides the whole pivot row and reduces every other row at every column,
zeros included.  The library runs the same elimination on sparse rows;
the differential tests check that both return the same solution, in the
same order, or the same error.
"""
from __future__ import annotations

from fractions import Fraction


def solve_linear(equations: list[tuple[dict[str, Fraction], Fraction]],
                 unknowns: list[str]) -> dict[str, Fraction]:
    """The pivot unknowns, in pivot order, at their values with every free
    unknown fixed to zero; raises ValueError if the system is
    inconsistent."""
    rows = [[eq.get(u, Fraction(0)) for u in unknowns] + [rhs]
            for eq, rhs in equations]
    pivots: list[int] = []
    for c in range(len(unknowns)):
        r = len(pivots)
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
    if any(row[-1] for row in rows[len(pivots):]):
        raise ValueError("inconsistent singular-symbol system")
    return {unknowns[c]: rows[i][-1] for i, c in enumerate(pivots)}
