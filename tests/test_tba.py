import math

import mpmath
import numpy as np
import pytest

from wallcross import cli, tba

SPEC = tba.QuadratureSpec(nodes=400, T=6.0, tol=1e-10)
ZETA = 3.0 + 0.2j


def test_quadrature_integrates_gaussian():
    t, w = SPEC.grid()
    # integral of exp(-t^2) over the truncated line
    got = float(np.sum(w * np.exp(-t ** 2)))
    assert abs(got - math.sqrt(math.pi)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 400, 1600, tba.MAX_NODES])
def test_gauss_legendre_is_exact_to_degree_2n_minus_1(n):
    # an n-node rule integrates every polynomial of degree < 2n exactly:
    # over [-T, T], P_k(t/T) integrates to 2T for k = 0 and to 0 otherwise.
    # P_k at the nodes comes from Bonnet's recurrence, |P_k| <= 1 there
    T = 6.0
    t, w = tba.QuadratureSpec(nodes=n, T=T).grid()
    x = t / T
    prev, cur = np.zeros_like(x), np.ones_like(x)
    worst = abs(float(np.sum(w)) - 2 * T)
    for k in range(1, 2 * n):
        prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
        worst = max(worst, abs(float(np.sum(w * cur))))
    assert worst < 1e-14 * T


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 40, 120, 400, 1600, 2048])
def test_gauss_legendre_matches_the_eigensolver_rule(n):
    # numpy's leggauss (a dense eigensolve) is the reference rule: the
    # nodes agree to rounding, while its weights are the less accurate
    # ones, off by up to 6e-8 relative at 2048 nodes
    T = 6.0
    t, w = tba.QuadratureSpec(nodes=n, T=T).grid()
    t0, w0 = np.polynomial.legendre.leggauss(n)
    assert np.all(np.diff(t) > 0)
    assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        assert t[n // 2] == 0
    assert np.max(np.abs(t - t0 * T)) <= 4e-16 * T
    assert np.max(np.abs(w / (w0 * T) - 1)) <= 1e-7


# integrals over [-1, 1] in closed form, to 40 digits
INTEGRANDS = {
    "exp": (np.exp, lambda: mpmath.e - 1 / mpmath.e),
    "cos 50x": (lambda x: np.cos(50 * x), lambda: 2 * mpmath.sin(50) / 50),
    "runge": (lambda x: 1 / (1 + 25 * x ** 2), lambda: 2 * mpmath.atan(5) / 5),
    "gaussian": (lambda x: np.exp(-36 * x ** 2),
                 lambda: mpmath.sqrt(mpmath.pi) * mpmath.erf(6) / 6),
}


@pytest.mark.parametrize("n", [400, 1600])
@pytest.mark.parametrize("name", INTEGRANDS)
def test_gauss_legendre_integrates_to_rounding(n, name):
    # every integrand is resolved at these node counts, so what is left is
    # the rule's own rounding (numpy's leggauss is 8e-15 to 3e-13 off here)
    f, exact = INTEGRANDS[name]
    with mpmath.workdps(40):
        ref = float(exact())
    t, w = tba.QuadratureSpec(nodes=n, T=1.0).grid()
    assert abs(float(np.sum(w * f(t))) - ref) <= 2e-15


def test_grid_is_computed_once_per_rule(monkeypatch, tmp_path):
    calls = []
    build = tba._legendre_rule

    def counted(n):
        calls.append(n)
        return build(n)

    monkeypatch.setattr(tba, "_legendre_rule", counted)
    tba._gauss_legendre.cache_clear()
    out = str(tmp_path / "report.json")
    assert cli.main(["numeric", "--output", out]) == 0
    assert cli.main(["numeric", "decay_fit", "--nodes", "200",
                     "--output", out]) == 0
    assert sorted(calls) == [200, 400]


def test_grid_is_the_fresh_rule_and_read_only():
    # the cached rule is the builder's, with e^t and e^t w for the rays
    t, w, et, etw = tba._gauss_legendre(SPEC.nodes, SPEC.T)
    t0, w0 = tba._legendre_rule(SPEC.nodes)
    assert t.tobytes() == (t0 * SPEC.T).tobytes()
    assert w.tobytes() == (w0 * SPEC.T).tobytes()
    np.testing.assert_array_max_ulp(et, np.exp(t), maxulp=1)
    np.testing.assert_array_max_ulp(etw, np.exp(t) * w, maxulp=1)
    assert [a.tobytes() for a in SPEC.grid()] == [t.tobytes(), w.tobytes()]
    for a in (t, w, et, etw):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_rho_residue():
    # rho has residue 2 at tau = sigma: contour integral around the pole
    sigma = 0.3 + 0.1j
    ts = np.linspace(0, 2 * math.pi, 20001)[:-1]
    taus = sigma + 1e-3 * np.exp(1j * ts)
    vals = tba.rho(sigma, taus) * 1j * 1e-3 * np.exp(1j * ts)
    integral = np.sum(vals) * (ts[1] - ts[0]) / (2j * math.pi)
    assert abs(integral - 2) < 1e-6


def test_x_sf_periodicity_and_product():
    zc = tba.near_wall_context()
    g1, g2 = (1, 0), (0, 1)
    zeta = 0.7 + 1.1j
    a = zc.x_sf(g1, zeta) * zc.x_sf(g2, zeta)
    b = zc.x_sf((1, 1), zeta)
    assert abs(a - b) < 1e-12 * abs(b)


def test_propagator_leaf_is_instanton_integral():
    zc = tba.near_wall_context(scale=0.1)
    leaf = ((0, 1), [])
    g = tba.propagator(zc, leaf, ZETA, SPEC)
    assert np.isfinite(abs(g))
    assert abs(g) > 0


def _loop_chain(zc, charges, zeta, spec, ray_z=None):
    """G of the chain rooted at charges[0], one node at a time: the child
    chain is evaluated at every node of its parent's ray, which runs along
    ray_z instead of Z(charges[0]) when given."""
    pts, dz = tba.ray_points(zc.z(charges[0]) if ray_z is None else ray_z,
                             spec)
    total = 0j
    for p, d in zip(pts, dz):
        term = tba.rho(zeta, p) * zc.x_sf(charges[0], p) * d
        if len(charges) > 1:
            term *= _loop_chain(zc, charges[1:], p, spec)
        total += term
    return total / (4j * math.pi)


@pytest.mark.parametrize("n", [2, 3])
def test_nested_propagator_matches_node_loops(n):
    # the children of an overridden root sit on the overridden ray, so the
    # subtree memo must key them by that ray, not by the root's own Z,
    # which the call without an override has put in the memo first
    zc = tba.near_wall_context(scale=0.1)
    spec = tba.QuadratureSpec(nodes=40)
    charges = [(1, 0), (0, 1), (1, 0)][:n]
    for ray_z in (None, 1 + 9j):
        want = _loop_chain(zc, charges, ZETA, spec, ray_z)
        got = tba.propagator(zc, tba.chain_tree(charges), ZETA, spec,
                             ray_z=ray_z)
        assert abs(got - want) <= 1e-12 * abs(want)


def _dense_propagator(zc, tree, zeta, spec, ray_z=None):
    """The propagator as one dense rho matrix per tree edge, with nothing
    reused: every child is evaluated afresh at every node of its parent's
    ray and the whole nodes x nodes kernel is built for it."""
    gamma, children = tree
    pts, dz = tba.ray_points(zc.z(gamma) if ray_z is None else ray_z, spec)
    f = zc.x_sf(gamma, pts) * dz
    for ch in children:
        f = f * _dense_propagator(zc, ch, pts, spec)
    return tba.rho(np.asarray(zeta)[..., None], pts) @ f / (4j * math.pi)


def _close(got, want):
    return np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_memoised_chain_prefixes_match_dense_recursion(n):
    zc = tba.near_wall_context(scale=0.1)
    tree = tba.chain_tree([(1, 0), (0, 1), (1, 0), (0, 1)][:n])
    assert _close(tba.propagator(zc, tree, ZETA, SPEC),
                  _dense_propagator(zc, tree, ZETA, SPEC))


def test_branching_tree_matches_dense_recursion():
    zc = tba.near_wall_context(scale=0.1)
    tree = ((1, 0), [((0, 1), []), ((1, 1), [((0, 1), [])])])
    assert _close(tba.propagator(zc, tree, ZETA, SPEC),
                  _dense_propagator(zc, tree, ZETA, SPEC))


@pytest.mark.parametrize("ray_z", [1 + 10j, -0.5 + 10j])
def test_residue_move_inner_propagator_matches_dense_recursion(monkeypatch,
                                                                ray_z):
    # the inner propagator of residue_move_check: a vector of points, so
    # the kernel is built KERNEL_ROWS rows at a time, never whole
    zc = tba.near_wall_context(R=3.0, scale=0.1, side="mid")
    p1, _ = tba.ray_points(zc.z((1, 0)), SPEC)
    shapes = []
    cauchy_rows = tba._cauchy_rows

    def recorded(rows, pts, out):
        out = cauchy_rows(rows, pts, out)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(tba, "_cauchy_rows", recorded)
    got = tba.propagator(zc, ((0, 1), []), p1, SPEC, ray_z=ray_z)
    monkeypatch.undo()
    assert sum(s[0] for s in shapes) == SPEC.nodes
    assert max(s[0] for s in shapes) == tba.KERNEL_ROWS
    assert got.shape == p1.shape
    assert _close(got, _dense_propagator(zc, ((0, 1), []), p1, SPEC, ray_z))


def test_kernel_takes_zeta_of_any_shape_in_row_blocks(monkeypatch):
    # a grid of evaluation points goes through the same row blocks as a
    # vector and keeps its shape; a scalar zeta gives a scalar
    zc = tba.near_wall_context(scale=0.1)
    tree = tba.chain_tree([(1, 0), (0, 1)])
    zeta = ZETA * np.exp(1j * np.linspace(-0.3, 0.3, 150)).reshape(10, 15)
    rows = []
    cauchy_rows = tba._cauchy_rows

    def recorded(block, pts, out):
        rows.append(np.shape(block)[0])
        return cauchy_rows(block, pts, out)

    monkeypatch.setattr(tba, "_cauchy_rows", recorded)
    got = tba.propagator(zc, tree, zeta, SPEC)
    monkeypatch.undo()
    assert got.shape == zeta.shape
    assert max(rows) == tba.KERNEL_ROWS
    assert _close(got, _dense_propagator(zc, tree, zeta, SPEC))
    scalar = tba.propagator(zc, tree, ZETA, SPEC)
    assert np.ndim(scalar) == 0 and not isinstance(scalar, np.ndarray)
    assert _close(scalar, _dense_propagator(zc, tree, ZETA, SPEC))


FINE = tba.QuadratureSpec(nodes=800)
PARENT_RAY = tba.ray_points(tba.near_wall_context(scale=0.1).z((1, 0)),
                            FINE)[0]
GRID = ZETA * np.exp(1j * np.linspace(-0.3, 0.3, 150)).reshape(10, 15)


@pytest.mark.parametrize("zeta,ray_z", [
    (PARENT_RAY, None), (GRID, None), (np.asarray(ZETA), None),
    (PARENT_RAY, 1 + 10j)], ids=["parent ray", "grid", "scalar", "ray_z"])
def test_cauchy_kernel_matches_dense_rho(zeta, ray_z):
    # 2 / (tau - sigma) - 1 / tau against rho itself, for |sigma| from e^-6
    # to e^6 on a parent ray, a grid, a scalar and an overridden ray
    zc = tba.near_wall_context(scale=0.1)
    pts, f = tba._ray_integrand(zc, ((0, 1), ()), FINE, ray_z)
    want = tba.rho(zeta[..., None], pts) @ f / (4j * math.pi)
    got = tba._apply_kernel(zeta, pts, f)
    assert np.shape(got) == zeta.shape
    assert _close(got, want)


def test_kernel_blocks_share_one_buffer(monkeypatch):
    # every block of a call overwrites one buffer of at most KERNEL_ROWS
    # rows, so no block allocates its own
    zc = tba.near_wall_context(scale=0.1)
    pts, f = tba._ray_integrand(zc, ((0, 1), ()), SPEC, None)
    outs = []
    cauchy_rows = tba._cauchy_rows

    def recorded(block, pts, out):
        outs.append(out)
        return cauchy_rows(block, pts, out)

    monkeypatch.setattr(tba, "_cauchy_rows", recorded)
    tba._apply_kernel(GRID, pts, f)
    buf = outs[0].base
    assert sum(map(len, outs)) == GRID.size
    assert max(map(len, outs)) == tba.KERNEL_ROWS
    assert all(o.base is buf and o.ctypes.data == buf.ctypes.data
               for o in outs)
    assert buf.shape == (tba.KERNEL_ROWS, SPEC.nodes)
    outs.clear()
    tba._apply_kernel(np.asarray(ZETA), pts, f)
    assert [o.base.shape for o in outs] == [(1, SPEC.nodes)]


def test_near_wall_context_has_one_geometry():
    with pytest.raises(ValueError, match="side must be mid"):
        tba.near_wall_context(side="plus")


def test_chain_prefixes_share_subtree_values(monkeypatch, tmp_path):
    # decay_fit's four chain prefixes evaluate 5 distinct subtrees on their
    # parents' rays (6 without the memo), plus one kernel row per root at
    # the scalar zeta
    nodes = 40
    rows = []
    cauchy_rows = tba._cauchy_rows

    def counted(block, pts, out):
        out = cauchy_rows(block, pts, out)
        rows.append(np.size(out) // np.shape(pts)[-1])
        return out

    monkeypatch.setattr(tba, "_cauchy_rows", counted)
    tba._subtree_values.cache_clear()
    out = str(tmp_path / "report.json")
    assert cli.main(["numeric", "decay_fit", "--nodes", str(nodes),
                     "--output", out]) == 0
    assert sum(rows) == 5 * nodes + 4
    zc = tba.near_wall_context(scale=0.1)
    spec = tba.QuadratureSpec(nodes=nodes)
    chain = [(1, 0), (0, 1)] * 2
    rows.clear()
    warm = tba.chain_magnitudes(zc, chain, ZETA, spec)
    assert sum(rows) == 4
    tba._subtree_values.cache_clear()
    assert tba.chain_magnitudes(zc, chain, ZETA, spec) == warm
    leaf = tba._subtree_values(zc, ((0, 1), ()), zc.z((1, 0)), spec)
    assert leaf.shape == (nodes,)
    with pytest.raises(ValueError):
        leaf[0] = 0


def test_nested_propagator_converges():
    zc = tba.near_wall_context(scale=0.1)
    tree = tba.chain_tree([(1, 0), (0, 1)] * 2)
    g800, g1600 = (tba.propagator(zc, tree, ZETA, tba.QuadratureSpec(nodes=n))
                   for n in (800, 1600))
    assert abs(g800 - g1600) <= 1e-4 * abs(g1600)


def test_chain_tree_shape():
    t = tba.chain_tree([(1, 0), (0, 1), (1, 0)])
    assert t == ((1, 0), [((0, 1), [((1, 0), [])])])


@pytest.mark.parametrize("nodes,message", [
    (2.5, "nodes must be an integer, got 2.5"),
    (tba.MAX_NODES + 1, f"nodes must be at most {tba.MAX_NODES}, "
                        f"got {tba.MAX_NODES + 1}"),
])
def test_spec_rejects_bad_node_counts(monkeypatch, nodes, message):
    # construct the spec only: no rule may be built for a refused count
    def never(n):
        raise AssertionError("a Gauss-Legendre rule was built")
    monkeypatch.setattr(tba, "_legendre_rule", never)
    with pytest.raises(ValueError, match=message):
        tba.QuadratureSpec(nodes=nodes)


def test_x_sf_rejects_zeta_zero():
    # no numeric input reaches it since T is bounded by MAX_T, but a ray
    # node or evaluation point at zeta = 0 must still be refused
    zc = tba.near_wall_context()
    with pytest.raises(ValueError, match="essential singularity at zeta=0"):
        zc.x_sf((1, 0), np.array([1.0 + 0j, 0j]))


@pytest.mark.parametrize("nodes", [1, 40, 401])
def test_propagator_refuses_zeta_on_a_node_of_its_ray(nodes):
    # every node of the root's ray, alone or among other points, is refused
    # before the kernel divides by tau - sigma = 0; points off the nodes
    # (a child's ray shares no node with its parent's) are not
    spec = tba.QuadratureSpec(nodes=nodes)
    zc = tba.near_wall_context(R=3.0, scale=0.1)
    tree = ((1, 0), [((0, 1), [])])
    pts = tba.ray_points(zc.z((1, 0)), spec)[0]
    for i in {0, nodes // 2, nodes - 1}:
        for zeta in (pts[i], np.array([ZETA, pts[i]])):
            with pytest.raises(ValueError, match=r"lies on a quadrature node "
                               r"of the integration ray of \(1, 0\)"):
                tba.propagator(zc, tree, zeta, spec)
    near = np.array([ZETA, pts[0] * (1 + 1e-12), pts[-1] * 2])
    assert np.isfinite(tba.propagator(zc, tree, near, spec)).all()


def test_residue_move_refuses_an_underflowed_rhs():
    # from R = 60 x_sf is 0 on every node of the ray, and |lhs - rhs| / |rhs|
    # would be 0/0
    zc = tba.near_wall_context(R=60.0, scale=0.1, side="mid")
    with pytest.raises(ValueError, match="at R = 60.0 x_sf underflows to 0"):
        tba.residue_move_check(zc, (1, 0), (0, 1), 1 + 10j, -0.5 + 10j,
                               ZETA, SPEC)


def test_decay_slope_steep():
    zc = tba.near_wall_context(R=3.0, scale=0.1)
    slope = tba.decay_slope(zc, [(1, 0), (0, 1)] * 2, ZETA, SPEC)
    assert slope <= -1.5


def test_residue_move_identity():
    zc = tba.near_wall_context(R=3.0, scale=0.1, side="mid")
    lhs, rhs, err = tba.residue_move_check(zc, (1, 0), (0, 1),
                                           1 + 10j, -0.5 + 10j, ZETA, SPEC)
    assert err < 1e-8


def test_ov_model_validation():
    with pytest.raises(ValueError):
        tba.OVModel(a=1.5 + 0j)
    with pytest.raises(ValueError):
        tba.OVModel(R=-1.0)


def _instanton_per_k(model, zeta, spec):
    # x_sf of every k q gamma_e evaluated on its own
    zctx, q = model.context(), model.q
    expo = 0j
    for sign in (+1, -1):
        pts, dz = tba.ray_points(sign * zctx.z((1, 0)), spec)
        ker = tba.rho(zeta, pts) * dz
        for k in range(1, tba.INSTANTON_TERMS + 1):
            xk = zctx.x_sf((sign * k * q, 0), pts)
            expo += q / (4j * math.pi) * np.sum(ker * xk) / (sign * k)
    return zctx.x_sf((0, 1), zeta) * np.exp(expo)


# at the default R = 3 the instanton terms past k = 2 add less than the
# fixed-point tolerance, so a sum cut there would still pass; at R = 0.5
# the cut leaves 5e-3
OV_RADII = (3.0, 0.5)


@pytest.mark.parametrize("spec", [SPEC, tba.QuadratureSpec(T=tba.MAX_T)],
                         ids=["default", "largest T"])
@pytest.mark.parametrize("q", [1, 2])
def test_instanton_powers_match_per_k_x_sf(spec, q):
    for R in OV_RADII:
        m = tba.OVModel(q=q, R=R)
        want = _instanton_per_k(m, ZETA, spec)
        assert abs(tba.ov_instanton_magnetic(m, ZETA, spec) - want) \
            <= 1e-12 * abs(want), R


def test_ov_magnetic_matches_instanton_series():
    for R in OV_RADII:
        res = tba.ov_fixed_point_residual(tba.OVModel(R=R), ZETA, SPEC)
        assert res < 10 * SPEC.tol, R


def test_scale_invariance():
    for q in (1, 2):
        rel = tba.scale_invariance_check(tba.OVModel(q=q), ZETA, spec=SPEC)
        assert rel < 1e-6


def test_corrections_vanish_at_large_R():
    zeta = ZETA
    small = tba.OVModel(R=3.0)
    large = tba.OVModel(R=8.0)

    def correction(m):
        sf = m.context().x_sf((0, 1), zeta)
        return (tba.ov_magnetic(m, zeta, SPEC) - sf) / sf

    assert abs(correction(large)) < abs(correction(small))
