"""Floating-point shadows of the exact identities.

Gauss-Legendre quadrature along BPS rays: a contour-move residue
identity, the decay of iterated integrals, the scale-invariance
equation, and the fixed point of the single-state integral equation.
"""
from wallcross import tba

SPEC = tba.QuadratureSpec(nodes=400, T=6.0, tol=1e-10)
ZETA = 3.0 + 0.2j


def main():
    zc = tba.near_wall_context(R=3.0, scale=0.1, side="mid")
    lhs, rhs, err = tba.residue_move_check(zc, (1, 0), (0, 1),
                                           1 + 10j, -0.5 + 10j, ZETA, SPEC)
    print(f"contour move: lhs {lhs:.6e}  rhs {rhs:.6e}  |diff| {err:.2e}")

    zc = tba.near_wall_context(R=3.0, scale=0.1)
    chain = [(1, 0), (0, 1)] * 2
    print("\niterated integrals along a chain:")
    mags = tba.chain_magnitudes(zc, chain, ZETA, SPEC)
    for n, g in enumerate(mags, 1):
        print(f"  depth {n}: |G| = {g:.3e}")
    print(f"  log-linear slope {tba.log_slope(mags):.2f}")

    print("\nscale invariance (relative error of the derivative identity):")
    for q in (1, 2):
        rel = tba.scale_invariance_check(tba.OVModel(q=q), ZETA, spec=SPEC)
        print(f"  q = {q}: {rel:.2e}")

    res = tba.ov_fixed_point_residual(tba.OVModel(), ZETA, SPEC)
    print(f"\nintegral-equation fixed point residual: {res:.2e}")


if __name__ == "__main__":
    main()
