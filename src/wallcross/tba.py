"""Floating-point validation of the integral identities behind the decay
calculus: semiflat coordinates, the rho-kernel, recursive propagator
quadrature, the Ooguri-Vafa magnetic coordinate and finite-difference
identity checks.

All BPS-ray integrals use the substitution zeta' = -(Z/|Z|) e^t, under
which the semiflat factor decays like exp(-2 pi R |Z| cosh t); truncating
at |t| <= T and applying Gauss-Legendre nodes gives controllable absolute
error.  The Gauss-Legendre rule is built by Newton's iteration on the
Legendre recurrence (O(nodes^2) flops, O(nodes) memory; 5 ms at 400 nodes
and 25 ms at 1600 on one core of a 2-vCPU x86 machine), exact to about
1e-15 T on polynomials of degree < 2 nodes.  It is built once per
(nodes, T) per process, together with e^t and e^t w, and shared
read-only by every ray: ray_points only scales those by the ray's unit.

A nested propagator evaluates each child at every node of its parent's
ray.  A child's values there depend only on (context, subtree with any
moved contours, parent ray direction, spec), so they are memoised per ray
as read-only vectors and shared by every tree that contains the subtree
on that ray (the prefixes of a chain, say).

The rho kernel splits into partial fractions,

    rho(sigma, tau) = (tau + sigma) / (tau (tau - sigma))
                    = 2 / (tau - sigma) - 1 / tau,

since 2 tau - (tau - sigma) = tau + sigma.  The 1/tau term does not
depend on sigma, so applied to a ray factor f it is one dot product,
sum_tau f(tau) / tau, and only the Cauchy kernel 1 / (tau - sigma) needs
a row per evaluation point.  Those rows are built KERNEL_ROWS at a time
in one buffer that every block of a call overwrites, so no nodes x nodes
matrix is ever built and no block allocates.
"""
from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# quadrature on BPS rays

def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) by Bonnet's recurrence
    k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2}, in three buffers."""
    prev, cur, nxt = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(2, n + 1):
        np.multiply(x, cur, out=nxt)
        nxt *= 2 * k - 1
        prev *= k - 1
        nxt -= prev
        nxt /= k
        prev, cur, nxt = cur, nxt, prev
    return cur, prev


def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1]: nodes ascending and
    exactly symmetric (the middle one exactly 0 for odd n), and weights.

    Newton's iteration on the roots x >= 0 of P_n from Tricomi's
    asymptotic guesses (Hale and Townsend, SIAM J. Sci. Comput. 35, 2013),
    vectorised, until the step is a few ulps: three passes of the
    recurrence from 47 nodes up, four below, so O(n^2) flops in O(n)
    memory.  The weights 2 / ((1 - x^2) P_n'(x)^2) read P_n' at the
    returned nodes, and the negative half mirrors the positive one.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = math.pi * (4 * k - 1) / (4 * n + 2)
    x = (1 - (n - 1) / (8 * n ** 3)
         - (39 - 28 / np.sin(theta) ** 2) / (384 * n ** 4)) * np.cos(theta)
    if n % 2:
        # the guess there is cos(pi/2) = 6e-17, but P_n is odd and the
        # recurrence gives P_n(0) = 0 exactly, so 0 is kept exactly
        x[-1] = 0.0
    while True:
        p, p_prev = _legendre_pair(n, x)
        one_minus_x2 = (1 - x) * (1 + x)
        dp = n * (p_prev - x * p) / one_minus_x2
        step = p / dp
        if np.max(np.abs(step)) <= 4 * np.finfo(float).eps:
            break
        x -= step
    w = 2 / (one_minus_x2 * dp ** 2)
    half = n // 2
    return (np.concatenate((-x[:half], x[::-1])),
            np.concatenate((w[:half], w[::-1])))


@functools.lru_cache(maxsize=8)
def _gauss_legendre(nodes: int, T: float) -> tuple[np.ndarray, ...]:
    """Nodes t ascending on [-T, T], their weights w, and e^t and e^t w,
    from which ray_points scales every ray; all read-only, since every
    caller shares them."""
    t, w = _legendre_rule(nodes)
    t, w = t * T, w * T
    et = np.exp(t)
    rule = t, w, et, et * w
    for a in rule:
        a.flags.writeable = False
    return rule


# the bound rests on the nodes^2 kernel work a propagator does per tree edge
MAX_NODES = 2048
# ray nodes reach |zeta'| = e^T and rho's denominator tau (tau - sigma)
# about e^(2T): e^600 (about 4e260) is finite, while from T = 354 it
# overflows and from T = 745 exp(-T) puts nodes on zeta' = 0
MAX_T = 300


@dataclass(frozen=True)
class QuadratureSpec:
    nodes: int = 400
    T: float = 6.0
    tol: float = 1e-10

    def __post_init__(self):
        # T <= 0 makes every integral 0 and tol = inf passes any residual,
        # so either would turn a check vacuous rather than fail it
        if not isinstance(self.nodes, numbers.Integral):
            raise ValueError(f"nodes must be an integer, got {self.nodes!r}")
        if not self.nodes >= 1:
            raise ValueError(f"nodes must be at least 1, got {self.nodes}")
        if self.nodes > MAX_NODES:
            raise ValueError(f"nodes must be at most {MAX_NODES}, "
                             f"got {self.nodes}")
        for name in ("T", "tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if self.T > MAX_T:
            raise ValueError(f"T must be at most {MAX_T}, got {self.T}")

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre nodes t and weights on [-T, T] (read-only)."""
        return _gauss_legendre(self.nodes, self.T)[:2]


INSTANTON_TERMS = 30   # |k| bound of the sum in ov_instanton_magnetic
FD_STEP = 1e-5         # central-difference step of scale_invariance_check
KERNEL_ROWS = 64       # rows of the rho kernel built at a time
SUBTREE_MEMO = 128     # subtree value vectors kept by _subtree_values


def ray_points(direction: complex, spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes zeta' = -(d/|d|) e^t on the ray of -direction, and dzeta' weights.

    direction is Z_gamma; the BPS ray ell_gamma points along -Z_gamma.
    dzeta' = zeta' dt, so the returned weights already include the zeta'
    factor.
    """
    _, _, et, etw = _gauss_legendre(spec.nodes, spec.T)
    unit = -direction / abs(direction)
    return unit * et, unit * etw


def rho(sigma: complex | np.ndarray, tau: complex | np.ndarray):
    """Kernel (1/tau)(tau+sigma)/(tau-sigma); residue at tau=sigma is 2.

    The Ooguri-Vafa checks apply it densely, so that they stay independent
    of the split kernel of `_apply_kernel` that the propagators use."""
    return (tau + sigma) / (tau * (tau - sigma))


# ---------------------------------------------------------------------------
# semiflat coordinates

@dataclass(frozen=True)
class ZContext:
    """Numeric central charges and angles for the basis of a charge lattice."""
    zs: tuple[complex, ...]
    thetas: tuple[float, ...]
    R: float

    def z(self, gamma: tuple[int, ...]) -> complex:
        return sum(n * z for n, z in zip(gamma, self.zs))

    def theta(self, gamma: tuple[int, ...]) -> float:
        return sum(n * t for n, t in zip(gamma, self.thetas))

    def x_sf(self, gamma: tuple[int, ...], zeta):
        z = self.z(gamma)
        if np.any(zeta == 0):
            raise ValueError("x_sf has an essential singularity at zeta=0")
        return np.exp(math.pi * self.R * z / zeta + 1j * self.theta(gamma)
                      + math.pi * self.R * zeta * np.conjugate(z))


# ---------------------------------------------------------------------------
# propagators

def propagator(zctx: ZContext, tree, zeta, spec: QuadratureSpec):
    """G value of a rooted decorated tree, recursively.

    A vertex is (gamma, [subtrees]), integrated along the BPS ray of
    Z_gamma, or (gamma, [subtrees], ray_z), integrated along the ray of
    -ray_z instead (a moved contour); the integrand still uses the true Z.
    zeta is a scalar or an array, and the result has its shape.  Each
    child is evaluated at every node of its parent's ray, so the ray
    factor x_sf * dzeta' * prod(children) is one vector and the integral
    is the rho kernel applied to it.  A point of zeta on a node of the
    root's ray raises ValueError.
    """
    zeta = np.asarray(zeta)
    pts, f = _ray_integrand(zctx, _frozen(tree), spec)
    # the Cauchy kernel 1 / (tau - sigma) is singular on the root's nodes;
    # |tau| increases along the ray, so each zeta meets one candidate node
    near = np.searchsorted(np.abs(pts), np.abs(zeta))
    on_node = pts[np.minimum(near, len(pts) - 1)] == zeta
    if on_node.any():
        raise ValueError(f"zeta = {complex(zeta[on_node][0])} lies on a "
                         f"quadrature node of the integration ray of "
                         f"{tuple(tree[0])}, where the rho kernel is singular")
    return _apply_kernel(zeta, pts, f)


def _frozen(tree):
    """The tree with every charge and child list a tuple, to key the memo;
    a vertex keeps its ray, so a moved subtree is kept apart."""
    gamma, children, *ray = tree
    return tuple(gamma), tuple(_frozen(ch) for ch in children), *ray


def _ray_integrand(zctx: ZContext, tree, spec: QuadratureSpec):
    """Nodes of the root's ray and x_sf * dzeta' * prod(children) on them."""
    gamma, children, *ray = tree
    direction = ray[0] if ray else zctx.z(gamma)
    pts, dz = ray_points(direction, spec)
    f = zctx.x_sf(gamma, pts) * dz
    for ch in children:
        f = f * _subtree_values(zctx, ch, direction, spec)
    return pts, f


@functools.lru_cache(maxsize=SUBTREE_MEMO)
def _subtree_values(zctx: ZContext, subtree, direction: complex,
                    spec: QuadratureSpec) -> np.ndarray:
    """G of a frozen subtree at every node of the ray of -direction;
    read-only, since every tree holding the subtree on that ray shares it."""
    pts, f = _ray_integrand(zctx, subtree, spec)
    out = _apply_kernel(ray_points(direction, spec)[0], pts, f)
    out.flags.writeable = False
    return out


def _cauchy_rows(rows: np.ndarray, pts: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """1 / (pts - rows) for a column of evaluation points, written into out
    (len(rows) x len(pts)) and returned."""
    np.subtract(pts, rows, out=out)
    return np.reciprocal(out, out=out)


def _apply_kernel(zeta: np.ndarray, pts: np.ndarray, f: np.ndarray):
    """rho(zeta, pts) @ f / 4 pi i for zeta of any shape (a scalar for a
    scalar).

    By rho(sigma, tau) = 2 / (tau - sigma) - 1 / tau this is
    (2 (C @ f) - sum f / pts) / 4 pi i with the Cauchy matrix
    C = 1 / (pts - zeta).  C is built KERNEL_ROWS evaluation points at a
    time in one buffer of at most KERNEL_ROWS x nodes, allocated once
    here and overwritten by every block.
    """
    flat = zeta.reshape(-1)
    out = np.empty(flat.shape, dtype=complex)
    buf = np.empty((min(KERNEL_ROWS, len(flat)), len(pts)), dtype=complex)
    for i in range(0, len(flat), KERNEL_ROWS):
        rows = flat[i:i + KERNEL_ROWS, None]
        out[i:i + KERNEL_ROWS] = _cauchy_rows(rows, pts, buf[:len(rows)]) @ f
    out = (2 * out - f @ (1 / pts)) / (4j * math.pi)
    return out.reshape(zeta.shape)[()]


def chain_tree(charges: list[tuple[int, ...]]):
    """Path diagram rooted at charges[0]."""
    tree = (charges[-1], [])
    for g in reversed(charges[:-1]):
        tree = (g, [tree])
    return tree


def chain_magnitudes(zctx: ZContext, charges: list[tuple[int, ...]], zeta,
                     spec: QuadratureSpec) -> list[float]:
    """|G_n| of the chain prefixes charges[:n], n = 1..len(charges)."""
    return [float(abs(propagator(zctx, chain_tree(charges[:n]), zeta, spec)))
            for n in range(1, len(charges) + 1)]


def log_slope(magnitudes: list[float]) -> float:
    """Least-squares slope of log|G_n| against n = 1, 2, ..."""
    for n, m in enumerate(magnitudes, 1):
        if m == 0:
            raise ValueError(f"|G_{n}| underflows to 0, so log|G_{n}| and "
                             f"the decay slope are undefined")
    ns = [float(n) for n in range(1, len(magnitudes) + 1)]
    return float(np.polyfit(ns, [math.log(m) for m in magnitudes], 1)[0])


def decay_slope(zctx: ZContext, charges: list[tuple[int, ...]], zeta,
                spec: QuadratureSpec) -> float:
    """Least-squares slope of log|G_n| against n for chain prefixes."""
    return log_slope(chain_magnitudes(zctx, charges, zeta, spec))


# ---------------------------------------------------------------------------
# contour-move identity

def residue_move_check(zctx: ZContext, delta: tuple[int, ...],
                       gm: tuple[int, ...], ray_plus: complex,
                       ray_minus: complex, zeta,
                       spec: QuadratureSpec):
    """Moving the inner ray across the outer one picks up a residue.

    lhs: 2 G of the tree delta <- gm with the gm contour moved to either
    side of ell_delta, then subtracted.  rhs: 2 G of the single vertex
    delta + gm with its contour moved onto ell_delta.  ray_plus and
    ray_minus are Z-values whose rays straddle ell_delta, ray_plus
    counterclockwise of it (the two near-wall positions of the gm-ray).
    Returns (lhs, rhs, |lhs-rhs|); raises ValueError when rhs underflows
    to 0, where the relative residual is undefined.
    """
    lhs = 2 * (propagator(zctx, (delta, [(gm, [], ray_plus)]), zeta, spec)
               - propagator(zctx, (delta, [(gm, [], ray_minus)]), zeta, spec))
    total = tuple(a + b for a, b in zip(delta, gm))
    rhs = 2 * propagator(zctx, (total, [], zctx.z(delta)), zeta, spec)
    if rhs == 0:
        raise ValueError(f"at R = {zctx.R} x_sf underflows to 0 on the ray of "
                         f"{delta}, so the residue move's relative residual "
                         f"|lhs - rhs| / |rhs| is 0/0")
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Ooguri-Vafa model

@dataclass(frozen=True)
class OVModel:
    """Single electric state of charge q on the disc |a| < |Lambda|."""
    Lam: complex = 1.0
    q: int = 1
    R: float = 3.0
    a: complex = 0.3 + 0.1j
    theta_e: float = 0.7
    theta_m: float = 0.3

    def __post_init__(self):
        if abs(self.a) >= abs(self.Lam):
            raise ValueError("a must lie inside the disc of radius |Lambda|")
        if not 0 < self.R < math.inf:
            raise ValueError("R must be positive and finite")

    @property
    def a_D(self) -> complex:
        return self.q ** 2 * (self.a * cmath.log(self.a / self.Lam) - self.a) \
            / (2j * math.pi)

    def context(self) -> ZContext:
        """Basis order (gamma_e, gamma_m)."""
        return ZContext(zs=(self.a, self.a_D),
                        thetas=(self.theta_e, self.theta_m), R=self.R)


def ov_magnetic(model: OVModel, zeta, spec: QuadratureSpec):
    """Corrected magnetic coordinate via the two log-kernel quadratures."""
    zctx = model.context()
    q = model.q
    corr = 0.0 + 0.0j
    for sign in (+1, -1):
        pts, dz = ray_points(sign * zctx.z((1, 0)), spec)
        xe = zctx.x_sf((sign * q, 0), pts)
        if np.max(np.abs(xe)) >= 1.0:
            raise ValueError("|x_sf_e^q| >= 1 on the ray; principal log invalid")
        corr += sign * (1j * q / (4 * math.pi)) * np.sum(
            rho(zeta, pts) * np.log(1.0 - xe) * dz)
    return zctx.x_sf((0, 1), zeta) * np.exp(corr)


def ov_instanton_magnetic(model: OVModel, zeta,
                          spec: QuadratureSpec):
    """Magnetic coordinate from the single-vertex propagator sum.

    Sums (q/4 pi i) G_{k q gamma_e} / k over 0 < |k| <= INSTANTON_TERMS,
    the expansion of the log-kernel form (the sign follows from the tree
    weights: the single-vertex weight is -f^{kq gamma_e} and the magnetic
    pairing contributes another -1); an independent code path for
    consistency checks.
    """
    zctx = model.context()
    q = model.q
    expo = 0.0 + 0.0j
    for sign in (+1, -1):
        pts, dz = ray_points(sign * zctx.z((1, 0)), spec)
        ker = rho(zeta, pts) * dz
        # x_sf of k q gamma_e is the k-th power of x_sf of q gamma_e
        x1 = zctx.x_sf((sign * q, 0), pts)
        xk = np.ones_like(x1)
        for k in range(1, INSTANTON_TERMS + 1):
            xk = xk * x1
            expo += q / (4j * math.pi) * np.sum(ker * xk) / (sign * k)
    return zctx.x_sf((0, 1), zeta) * np.exp(expo)


def ov_fixed_point_residual(model: OVModel, zeta,
                            spec: QuadratureSpec) -> float:
    """|x_m - RHS(x_m)| for the quadrature fixed point (x_e needs no update).

    x_m is built from the instanton sum, the right side from the log-kernel
    integral equation (`ov_magnetic`), so the two sides take different code
    paths.
    """
    xm = ov_instanton_magnetic(model, zeta, spec)
    return abs(xm - ov_magnetic(model, zeta, spec))


# ---------------------------------------------------------------------------
# finite-difference identity check

def scale_invariance_check(model: OVModel, zeta: complex,
                           spec: QuadratureSpec) -> float:
    """Relative error of zeta d/dzeta X = (-L dL + Lb dLb - a da + ab dab) X.

    Central differences; the anti-holomorphic derivatives act through the
    conjugated copies baked into x_sf, so we vary Lam and a along real and
    imaginary directions and combine.
    """
    h = FD_STEP

    def X(Lam, a, z):
        m = OVModel(Lam=Lam, q=model.q, R=model.R, a=a,
                    theta_e=model.theta_e, theta_m=model.theta_m)
        return ov_magnetic(m, z, spec)

    def wirtinger(f, w0):
        # (df/dw, df/dwbar) at w0 by central differences
        fx = (f(w0 + h) - f(w0 - h)) / (2 * h)
        fy = (f(w0 + 1j * h) - f(w0 - 1j * h)) / (2 * h)
        return (fx - 1j * fy) / 2, (fx + 1j * fy) / 2

    lhs = zeta * (X(model.Lam, model.a, zeta * (1 + h))
                  - X(model.Lam, model.a, zeta * (1 - h))) / (2 * h * zeta)
    dL, dLb = wirtinger(lambda w: X(w, model.a, zeta), model.Lam)
    da, dab = wirtinger(lambda w: X(model.Lam, w, zeta), model.a)
    rhs = (-model.Lam * dL + np.conjugate(model.Lam) * dLb
           - model.a * da + np.conjugate(model.a) * dab)
    return abs(lhs - rhs) / abs(lhs)


# ---------------------------------------------------------------------------
# near-wall numeric charges

def near_wall_context(R: float = 3.0, scale: float = 0.2,
                      side: str = "mid") -> ZContext:
    """Numeric Z's echoing the exact phase model, scaled to |Z| about 2.

    Both charges sit symmetrically about the wall at 90 degrees; 'mid' is
    the only side.
    """
    if side != "mid":
        raise ValueError(f"side must be mid, got {side!r}")
    zd, zm = 0.25 + 10j, -0.25 + 10j
    return ZContext(zs=(zd * scale, zm * scale), thetas=(0.7, 0.3), R=R)
