import math

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


def test_grid_is_computed_once_per_rule(monkeypatch, tmp_path):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    tba._gauss_legendre.cache_clear()
    out = str(tmp_path / "report.json")
    assert cli.main(["numeric", "--output", out]) == 0
    assert cli.main(["numeric", "decay_fit", "--nodes", "200",
                     "--output", out]) == 0
    assert sorted(calls) == [200, 400]


def test_grid_is_the_fresh_rule_and_read_only():
    t, w = SPEC.grid()
    t0, w0 = np.polynomial.legendre.leggauss(SPEC.nodes)
    assert t.tobytes() == (t0 * SPEC.T).tobytes()
    assert w.tobytes() == (w0 * SPEC.T).tobytes()
    with pytest.raises(ValueError):
        t[0] = 0.0


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


def _loop_chain(zc, charges, zeta, spec):
    """G of the chain rooted at charges[0], one node at a time: the child
    chain is evaluated at every node of its parent's ray."""
    pts, dz = tba.ray_points(zc.z(charges[0]), spec)
    total = 0j
    for p, d in zip(pts, dz):
        term = tba.rho(zeta, p) * zc.x_sf(charges[0], p) * d
        if len(charges) > 1:
            term *= _loop_chain(zc, charges[1:], p, spec)
        total += term
    return total / (4j * math.pi)


@pytest.mark.parametrize("n", [2, 3])
def test_nested_propagator_matches_node_loops(n):
    zc = tba.near_wall_context(scale=0.1)
    spec = tba.QuadratureSpec(nodes=40)
    charges = [(1, 0), (0, 1), (1, 0)][:n]
    want = _loop_chain(zc, charges, ZETA, spec)
    got = tba.propagator(zc, tba.chain_tree(charges), ZETA, spec)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_nested_propagator_converges():
    zc = tba.near_wall_context(scale=0.1)
    tree = tba.chain_tree([(1, 0), (0, 1)] * 2)
    g800, g1600 = (tba.propagator(zc, tree, ZETA, tba.QuadratureSpec(nodes=n))
                   for n in (800, 1600))
    assert abs(g800 - g1600) <= 1e-4 * abs(g1600)


def test_chain_tree_shape():
    t = tba.chain_tree([(1, 0), (0, 1), (1, 0)])
    assert t == ((1, 0), [((0, 1), [((1, 0), [])])])


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


def test_ov_magnetic_matches_instanton_series():
    m = tba.OVModel()
    res = tba.ov_fixed_point_residual(m, ZETA, SPEC)
    assert res < 10 * SPEC.tol


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
