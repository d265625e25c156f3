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


def test_sign_unit_squares_to_one():
    s = Value.sign_unit()
    assert s * s == Value.rational(1)
    assert (s * Value.rational(4)).coeff(sign_power=1) == 4
    assert repr(Value.sign_unit(4)) == "4*s"


def test_symbols_are_linear():
    x = Value.symbol("x")
    v = Value.rational(2) + x * 3
    assert v.coeff(name="x") == 3
    assert sorted(v.symbols()) == ["x"]
    with pytest.raises(ValueError):
        _ = x * Value.symbol("y")


def test_sign_times_symbol():
    sx = Value.symbol("x", sign_power=1)
    assert (Value.sign_unit() * Value.symbol("x")) == sx
    assert repr(sx) == "s*x"


def test_substitute():
    v = Value.symbol("x") * 2 + Value.rational(1)
    assert v.substitute({"x": Q(1, 2)}) == Value.rational(2)
    # unknown symbols survive
    w = v.substitute({"y": Q(5)})
    assert w == v


def test_rational_and_symbol_parts():
    v = Value.rational(1) + Value.symbol("x") + Value.sign_unit(2)
    assert v.rational_part() == Value.rational(1) + Value.sign_unit(2)
    assert not v.is_rational()


def test_solve_linear_determined():
    eqs = [({"x": Q(1), "y": Q(1)}, Q(3)),
           ({"x": Q(1), "y": Q(-1)}, Q(1))]
    sol = solve_linear(eqs, ["x", "y"])
    assert sol == {"x": Q(2), "y": Q(1)}
    assert free_unknowns(eqs, ["x", "y"]) == []


def test_solve_linear_inconsistent():
    eqs = [({"x": Q(1)}, Q(1)), ({"x": Q(1)}, Q(2))]
    with pytest.raises(ValueError):
        solve_linear(eqs, ["x"])


def test_solve_linear_underdetermined():
    eqs = [({"x": Q(1), "y": Q(1)}, Q(2))]
    with pytest.raises(ValueError):
        solve_linear(eqs, ["x", "y"])
    sol = solve_linear(eqs, ["x", "y"], allow_free=True)
    assert sol["x"] + sol["y"] == 2
    assert free_unknowns(eqs, ["x", "y"]) == ["y"]


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
    names = [f"x{j}" for j in range(len(a[0]))]
    eqs = [({u: Q(c) for u, c in zip(names, row) if c}, Q(rhs))
           for row, rhs in zip(a, b)]
    rank = sympy.Matrix(a).rank()
    assert len(free_unknowns(eqs, names)) == len(names) - rank
    if sympy.Matrix([row + [rhs] for row, rhs in zip(a, b)]).rank() == rank:
        sol = solve_linear(eqs, names, allow_free=True)
        for coeffs, rhs in eqs:
            assert sum(c * sol[u] for u, c in coeffs.items()) == rhs
    else:
        with pytest.raises(ValueError):
            solve_linear(eqs, names, allow_free=True)
