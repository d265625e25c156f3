from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from wallcross.symbolic import Value, free_unknowns, solve_linear

Q = Fraction


def test_rational_arithmetic():
    a = Value.rational(Q(1, 2))
    b = Value.rational(3)
    assert (a + b).coeff() == Q(7, 2)
    assert (a * b).coeff() == Q(3, 2)
    assert (a - a) == Value.zero()
    assert not Value.zero()


def test_symbols_are_linear():
    x = Value.symbol("x")
    v = Value.rational(2) + x * 3
    assert v.coeff(name="x") == 3
    assert sorted(v.symbols()) == ["x"]
    with pytest.raises(ValueError):
        _ = x * Value.symbol("y")


def test_substitute():
    v = Value.symbol("x") * 2 + Value.rational(1)
    assert v.substitute({"x": Q(1, 2)}) == Value.rational(2)
    # unknown symbols survive
    w = v.substitute({"y": Q(5)})
    assert w == v


def test_rational_and_symbol_parts():
    v = Value.rational(1) + Value.symbol("x") + Value.rational(2)
    assert v.coeff() == 3
    assert v.coeff("x") == 1
    assert repr(v) == "3 + x"


def test_solve_linear_determined():
    eqs = [({"x": Q(1), "y": Q(1)}, Q(3)),
           ({"x": Q(1), "y": Q(-1)}, Q(1))]
    sol = solve_linear(eqs, ["x", "y"])
    assert sol == {"x": Q(2), "y": Q(1)}
    assert free_unknowns(sol, ["x", "y"]) == []


def test_solve_linear_inconsistent():
    eqs = [({"x": Q(1)}, Q(1)), ({"x": Q(1)}, Q(2))]
    with pytest.raises(ValueError):
        solve_linear(eqs, ["x"])


def test_solve_linear_underdetermined():
    # the free unknown y is fixed to 0 and left out of the solution
    eqs = [({"x": Q(1), "y": Q(1)}, Q(2))]
    sol = solve_linear(eqs, ["x", "y"])
    assert sol == {"x": Q(2)}
    assert free_unknowns(sol, ["x", "y"]) == ["y"]


def test_rational_value_hashes_like_its_fraction():
    assert Value.rational(3) == 3 and hash(Value.rational(3)) == hash(3)
    assert Value.rational(Q(1, 2)) == Q(1, 2)
    assert hash(Value.rational(Q(1, 2))) == hash(Q(1, 2))
    assert hash(Value.zero()) == hash(0)
    assert len({Value.rational(3), 3, Value.zero(), 0}) == 2
    assert len({Value.symbol("x"), Value.symbol("x") + 0}) == 1


@st.composite
def _systems(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):     # consistent by construction
        x0 = [draw(entry) for _ in range(n)]
        b = [sum(r * x for r, x in zip(row, x0)) for row in a]
    else:
        b = [draw(entry) for _ in range(m)]
    return a, b


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_row_reduction_matches_rank(system):
    a, b = system
    n = len(a[0])
    names = [f"x{j}" for j in range(n)]
    eqs = [({u: Q(c) for u, c in zip(names, row) if c}, Q(rhs))
           for row, rhs in zip(a, b)]
    rref, pivots = sympy.Matrix([row + [rhs] for row, rhs in zip(a, b)]).rref()
    if n in pivots:             # a pivot in the rhs column: inconsistent
        with pytest.raises(ValueError, match="inconsistent"):
            solve_linear(eqs, names)
        return
    sol = solve_linear(eqs, names)
    assert sol == {names[c]: Q(int(rref[i, n].p), int(rref[i, n].q))
                   for i, c in enumerate(pivots)}
    free = free_unknowns(sol, names)
    assert free == [u for c, u in enumerate(names) if c not in pivots]
    assert len(free) == n - sympy.Matrix(a).rank()
    for coeffs, rhs in eqs:
        assert sum(c * sol.get(u, 0) for u, c in coeffs.items()) == rhs
