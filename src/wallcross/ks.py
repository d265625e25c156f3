"""Truncated Kontsevich-Soibelman products on the classical torus algebra.

The operator of a state (gamma, Omega) is the algebra map acting on a
monomial by x^e -> x^e (1 - sigma(gamma) x_gamma)^{Omega <gamma,e>}.  A
spectrum gives the ordered product of these operators, taken in
decreasing phase order of Z_gamma in the relevant region.  The strong
and weak products must agree; conversely the weak exponents can be
peeled off degree by degree from the strong product.

Series are sparse maps charge-exponent -> int (every coefficient is an
integer), truncated at total effective degree N.  A product is stored by
its multipliers G_mu with x_mu -> x_mu * G_mu, and is built by applying
each operator to the current terms of x_mu G_mu one group of equal
exponent at a time, so no series is ever substituted into another.
Each operator reads its pairing row off the pairing's columns once, and
the terms of exponent 0 pass through unmultiplied.  Effective degree is
additive, so a series product never forms a term above the truncation,
and the peeling builds each weak product only up to the degree it reads.
A table that is incomplete, or covers fewer degrees than N, is refused
by the wall identity check instead of reported as a failed identity.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add, mul

from .lattice import MINUS, PLUS, Charge, Theory
from .spectrum import WEAK, SpectrumTable, UnknownSpectrumError

Series = dict[Charge, int]

# largest truncation degree: the costliest run, `ks-oracle nf3 --N 24`
# (inference only: nf3 has no complete weak table), takes about 16.5 s
# on a 2-vCPU machine, 2.4 times its time at N = 20; the costliest
# `--against-table` run, nf2 at N = 24, takes 4.5-6 s
MAX_N = 24


class FactorizationError(Exception):
    """No consistent KS exponent reproduces the discrepancy."""


def eff_degree(theory: Theory, e: Charge) -> int:
    return sum(map(mul, theory.effective_signs, e))


def series_sub(a: Series, b: Series) -> Series:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) - c
        if not out[e]:
            del out[e]
    return out


def series_mul(theory: Theory, a: Series, b: Series, N: int) -> Series:
    """a * b through effective degree N.

    The degree of a product term is the sum of its factors' degrees, so
    each term's degree is computed once and a pair over N is skipped
    before its exponent is formed: b is scanned in increasing degree and
    the scan stops at the first term over the budget left by a's term.
    """
    signs = theory.effective_signs
    bs = sorted((sum(map(mul, signs, eb)), eb, cb) for eb, cb in b.items())
    out: Series = {}
    for ea, ca in a.items():
        budget = N - sum(map(mul, signs, ea))
        for db, eb, cb in bs:
            if db > budget:
                break
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def binomial_series(theory: Theory, gamma: Charge, k: int, N: int) -> Series:
    """(1 - sigma(gamma) x_gamma)^k through effective degree N, for any
    integer k (generalised binomial coefficients when k < 0)."""
    if not theory.is_effective(gamma):
        raise ValueError(f"{gamma} is not effective")
    deg, sg = eff_degree(theory, gamma), theory.sigma_value(gamma)
    out: Series = {(0,) * len(gamma): 1}
    c, j = 1, 0
    while (j + 1) * deg <= N:
        # C(k, j+1) = C(k, j) (k-j) / (j+1) is an integer, so // is exact
        c = -sg * c * (k - j) // (j + 1)
        j += 1
        if not c:
            break
        out[tuple(j * x for x in gamma)] = c
    return out


def compose(theory: Theory, states: list[tuple[Charge, int]],
            N: int) -> tuple[Series, ...]:
    """Multipliers G_mu of T_1 ... T_k for states [(gamma_1, Omega_1), ...].

    T_k acts first: x_mu G_mu starts as x_mu, and each operator from T_k
    back to T_1 multiplies every current term x^{mu+e} by
    (1 - sigma x_gamma)^{Omega <gamma, mu+e>}.
    """
    mults: list[Series] = [{theory.zero(): 1} for _ in range(theory.rank)]
    for gamma, omega in reversed(states):
        # p_j = Omega <gamma, e_j>, read off the pairing's columns
        p = [omega * sum(map(mul, gamma, col)) for col in zip(*theory.pairing)]
        # k -> (1 - sigma x_gamma)^k, shared by every x_mu
        binomials: dict[int, Series] = {}
        for mu, g in enumerate(mults):
            groups: dict[int, Series] = {}
            for e, c in g.items():
                k = p[mu] + sum(map(mul, p, e))
                groups.setdefault(k, {})[e] = c
            # the k = 0 terms are fixed by the operator
            out: Series = groups.pop(0, {})
            for k, terms in groups.items():
                if k not in binomials:
                    binomials[k] = binomial_series(theory, gamma, k, N)
                for e, c in series_mul(theory, terms, binomials[k], N).items():
                    out[e] = out.get(e, 0) + c
            mults[mu] = {e: c for e, c in out.items() if c}
    return tuple(mults)


def _phase_sorted(theory: Theory, region: str,
                  charges: list[Charge]) -> list[Charge]:
    """Decreasing phase of Z_gamma in the region (exact; Im Z > 0 assumed)."""
    def key(g: Charge):
        re, im = theory.z(region, g)
        if im <= 0:
            raise ValueError(f"charge {g} has non-positive Im Z at {region}")
        return (Fraction(re, im), g)
    return sorted(charges, key=key)


def spectrum_auto(theory: Theory, table: SpectrumTable, region: str,
                  N: int) -> tuple[Series, ...]:
    """Multipliers of the ordered product of one spectrum table's KS
    operators; 1 <= N <= MAX_N, since below degree 1 every product is the
    identity and a check built on it would compare nothing."""
    if N < 1:
        raise ValueError(f"truncation degree N must be at least 1, got {N}")
    if N > MAX_N:
        raise ValueError(f"truncation degree N must be at most {MAX_N}, got {N}")
    charges = [g for g in table.charges()
               if theory.is_effective(g) and eff_degree(theory, g) <= N]
    ordered = _phase_sorted(theory, region, charges)
    return compose(theory, [(g, table.omega(g)) for g in ordered], N)


def agreement_degree(theory: Theory, a: tuple[Series, ...],
                     b: tuple[Series, ...], N: int) -> int:
    """Largest d <= N with all coefficients of both products equal up to d."""
    worst = N
    for mu in range(theory.rank):
        for e in series_sub(a[mu], b[mu]):
            worst = min(worst, eff_degree(theory, e) - 1)
    return worst


def check_coverage(table: SpectrumTable, N: int) -> None:
    """Raise UnknownSpectrumError unless the table lists every state through
    degree N: a product of it would lack the operators it does not list,
    and a check would report that as a failure of the identity."""
    if not table.complete:
        raise UnknownSpectrumError(f"{table.theory}/{table.region}: table is "
                                   f"incomplete, its unlisted states are unknown")
    if table.covered_degree is not None and table.covered_degree < N:
        raise UnknownSpectrumError(
            f"{table.theory}/{table.region}: table covers degree "
            f"{table.covered_degree} only, below N={N}")


def verify_wall_identity(theory: Theory, strong: SpectrumTable,
                         weak: SpectrumTable, N: int) -> tuple[bool, int]:
    """Strong product at u+ versus weak product at u-; (equal?, degree).
    Raises UnknownSpectrumError when either table fails check_coverage."""
    for table in (strong, weak):
        check_coverage(table, N)
    s = spectrum_auto(theory, strong, PLUS, N)
    w = spectrum_auto(theory, weak, MINUS, N)
    d = agreement_degree(theory, s, w, N)
    return d >= N, d


def infer_weak_spectrum(theory: Theory, strong: SpectrumTable,
                        N: int) -> SpectrumTable:
    """Peel the weak-side exponents off the strong product degree by degree.

    At the lowest uncorrected degree the discrepancy is linear in the
    missing exponents, one per charge; inserting the solved operators in
    phase order and repeating converges through degree N.

    Iteration d reads the weak product only through degree d (below d it
    must agree with the strong one), so it builds that product truncated
    at d.  This is exact: every multiplier exponent is a sum of effective
    charges, so effective degrees are >= 0 and add under products, and a
    term above d never feeds a coefficient of degree <= d.  The strong
    product is built once, at N, and the final check compares it with the
    full weak product of the inferred table at N.
    """
    target = spectrum_auto(theory, strong, PLUS, N)
    entries: dict[Charge, int] = {}
    for d in range(1, N + 1):
        table = SpectrumTable(theory.name, WEAK, None, True, d - 1,
                              dict(entries))
        current = spectrum_auto(theory, table, MINUS, d)
        discrepancy: dict[Charge, dict[int, int]] = {}
        for mu in range(theory.rank):
            for e, c in series_sub(target[mu], current[mu]).items():
                de = eff_degree(theory, e)
                if de < d:
                    raise FactorizationError(
                        f"residual discrepancy at settled degree {de}: {e}")
                if de == d:
                    discrepancy.setdefault(e, {})[mu] = c
        for e, by_mu in sorted(discrepancy.items()):
            if not theory.is_effective(e):
                raise FactorizationError(f"discrepancy at non-effective {e}")
            sg = theory.sigma_value(e)
            omega = None
            for mu, c in sorted(by_mu.items()):
                p = theory.pair(e, theory.unit(mu))
                if p == 0:
                    if c:
                        raise FactorizationError(
                            f"uncorrectable discrepancy at {e} (x_{mu})")
                    continue
                cand = Fraction(c, -sg * p)
                if cand.denominator != 1:
                    raise FactorizationError(f"non-integer exponent at {e}")
                if omega is not None and cand != omega:
                    raise FactorizationError(f"inconsistent exponent at {e}")
                omega = cand
            if omega:
                entries[e] = int(omega)
    result = SpectrumTable(theory.name, WEAK, None, True, N, dict(entries))
    deg = agreement_degree(theory, target,
                           spectrum_auto(theory, result, MINUS, N), N)
    if deg < N:
        raise FactorizationError(f"inferred spectrum only agrees through {deg}")
    return result
