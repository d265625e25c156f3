from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import symbolic_reference as dense
from test_js_differential import _tree_value_targets
from wallcross import decay
from wallcross.lattice import theory_by_name
from wallcross.symbolic import Value, free_unknowns, solve_linear

Q = Fraction


def test_rational_arithmetic():
    a = Value.rational(Q(1, 2))
    b = Value.rational(3)
    assert (a + b).coeff() == Q(7, 2)
    assert (a - b).coeff() == Q(-5, 2)
    assert (a - a) == Value.zero()
    assert not Value.zero()


def test_symbols_are_linear():
    # a Value is a linear form: it is built from terms, never multiplied
    x = Value({"x": 1})
    v = Value.rational(2) + Value({"x": 3})
    assert v.coeff(name="x") == 3
    assert sorted(v.symbols()) == ["x"]
    for product in (lambda: x * 3, lambda: 3 * x, lambda: x * Value({"y": 1})):
        with pytest.raises(TypeError):
            product()


def test_evaluate():
    v = Value({"x": 2}) + Value.rational(1)
    got = v.evaluate({"x": Q(1, 2)})
    assert got == 2 and type(got) is Fraction
    # a symbol the assignment leaves out raises
    with pytest.raises(KeyError):
        v.evaluate({"y": Q(5)})


def test_rational_and_symbol_parts():
    v = Value.rational(1) + Value({"x": 1}) + Value.rational(2)
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


def test_values_compare_with_rationals_but_do_not_hash():
    assert Value.rational(3) == 3
    assert Value.rational(Q(1, 2)) == Q(1, 2)
    assert Value.zero() == 0
    with pytest.raises(TypeError):
        hash(Value.rational(3))


def _sparse_rows(draw, entry):
    """Conjecture-shaped rows: tens of columns, each row x - y or 1-4
    nonzeros."""
    n = draw(st.integers(10, 40))
    a = []
    for _ in range(draw(st.integers(1, 30))):
        row = [0] * n
        if draw(st.booleans()):     # a jump constraint x - y = c
            x, y = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                 max_size=2, unique=True))
            row[x], row[y] = 1, -1
        else:
            for c in draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=4, unique=True)):
                row[c] = draw(entry.filter(bool))
        a.append(row)
    return a


@st.composite
def _systems(draw):
    """Small dense systems, or sparse ones shaped like the conjecture
    check's; a sparse system may repeat a row with another right-hand
    side, which makes it inconsistent."""
    entry = st.integers(-3, 3)
    sparse = draw(st.booleans())
    if sparse:
        a = _sparse_rows(draw, entry)
        n = len(a[0])
    else:
        m = draw(st.integers(1, 5))
        n = draw(st.integers(1, 5))
        a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):     # consistent by construction
        x0 = [draw(entry) for _ in range(n)]
        b = [sum(r * x for r, x in zip(row, x0)) for row in a]
    else:
        b = [draw(entry) for _ in range(len(a))]
    if sparse and draw(st.booleans()):
        k = draw(st.integers(0, len(a) - 1))
        a.append(list(a[k]))
        b.append(b[k] + draw(st.integers(1, 3)))
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
        for solve in (solve_linear, dense.solve_linear):
            with pytest.raises(ValueError, match="inconsistent"):
                solve(eqs, names)
        return
    sol = solve_linear(eqs, names)
    assert list(sol.items()) == list(dense.solve_linear(eqs, names).items())
    assert sol == {names[c]: Q(int(rref[i, n].p), int(rref[i, n].q))
                   for i, c in enumerate(pivots)}
    free = free_unknowns(sol, names)
    assert free == [u for c, u in enumerate(names) if c not in pivots]
    assert len(free) == n - sympy.Matrix(a).rank()
    for coeffs, rhs in eqs:
        assert sum(c * sol.get(u, 0) for u, c in coeffs.items()) == rhs


def _solved(solve, equations, unknowns):
    try:
        return list(solve(equations, unknowns).items())
    except ValueError as e:
        return str(e)


def test_sparse_solve_matches_dense_on_conjecture_systems(monkeypatch):
    # every system conjecture_check solves on the js targets and nf0 3,4;
    # the dense elimination is the reference: the same pivots, the same
    # values in the same key order, and the same error when inconsistent
    systems = []

    def captured(equations, unknowns):
        systems.append(([(dict(eq), rhs) for eq, rhs in equations],
                        list(unknowns)))
        return solve_linear(equations, unknowns)

    monkeypatch.setattr(decay, "solve_linear", captured)
    for name, target, max_vertices in (_tree_value_targets()
                                       + [("nf0", (3, 4), None)]):
        try:
            decay.conjecture_check(theory_by_name(name), target, max_vertices)
        except ValueError:
            pass
    assert len(systems) == 135
    assert max(len(names) for _, names in systems) == 109
    raised = 0
    for equations, names in systems:
        got = _solved(solve_linear, equations, names)
        assert got == _solved(dense.solve_linear, equations, names)
        raised += isinstance(got, str)
    assert raised == 2
