"""Truncated Kontsevich-Soibelman automorphisms of the classical torus
algebra.

A spectrum acts on the basis variables x_mu by the ordered product of the
operators x_mu -> x_mu (1 - sigma(gamma) x_gamma)^{Omega <gamma,mu>}, taken
in decreasing phase order of Z_gamma in the relevant region.  The strong
and weak products must agree; conversely the weak exponents can be peeled
off degree by degree from the strong product.

Series are kept as sparse maps charge-exponent -> Fraction, truncated at
total effective degree N.  Automorphisms are stored by their multipliers
G_mu with x_mu -> x_mu * G_mu, so negative basis coordinates of effective
charges (Nf >= 1) need no special casing.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import MINUS, PLUS, Charge, Theory, is_zero
from .spectrum import WEAK, SpectrumTable

Series = dict[Charge, Fraction]


class FactorizationError(Exception):
    """No consistent KS exponent reproduces the discrepancy."""


def eff_degree(theory: Theory, e: Charge) -> int:
    return sum(s * x for s, x in zip(theory.effective_signs, e))


def series_one(theory: Theory) -> Series:
    return {theory.zero(): Fraction(1)}


def series_add(a: Series, b: Series) -> Series:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
        if not out[e]:
            del out[e]
    return out


def series_mul(theory: Theory, a: Series, b: Series, N: int) -> Series:
    out: Series = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if eff_degree(theory, e) > N:
                continue
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def series_pow(theory: Theory, a: Series, k: int, N: int) -> Series:
    """a**k for integer k; negative k inverts (unit constant term required)."""
    if k < 0:
        u = {e: -c for e, c in a.items() if not is_zero(e)}
        if a.get(theory.zero()) != 1:
            raise ValueError("can only invert a series with constant term 1")
        inv = series_one(theory)
        term = series_one(theory)
        for _ in range(N):
            term = series_mul(theory, term, u, N)
            if not term:
                break
            inv = series_add(inv, term)
        a, k = inv, -k
    r = series_one(theory)
    for _ in range(k):
        r = series_mul(theory, r, a, N)
    return r


def series_eval(theory: Theory, s: Series, mults: list[Series], N: int) -> Series:
    """Substitute x_i -> x_i * mults[i]; returns the transformed series."""
    out: Series = {}
    for e, c in s.items():
        term: Series = {e: c}
        for i, k in enumerate(e):
            if k:
                term = series_mul(theory, term,
                                  series_pow(theory, mults[i], k, N), N)
        out = series_add(out, term)
    return out


# ---------------------------------------------------------------------------
# automorphisms

@dataclass(frozen=True)
class KSAuto:
    """x_mu -> x_mu * mults[mu], truncated at effective degree N."""
    theory: Theory
    mults: tuple[Series, ...]
    N: int


def identity_auto(theory: Theory, N: int) -> KSAuto:
    return KSAuto(theory, tuple(series_one(theory) for _ in range(theory.rank)), N)


def ks_auto(theory: Theory, gamma: Charge, omega: int, N: int) -> KSAuto:
    """KS operator of a single state (gamma, Omega)."""
    if not theory.is_effective(gamma):
        raise ValueError(f"{gamma} is not effective")
    sg = theory.sigma_value(gamma)
    base = series_add(series_one(theory), {gamma: Fraction(-sg)})
    mults = tuple(
        series_pow(theory, base, omega * theory.pair(gamma, theory.unit(mu)), N)
        for mu in range(theory.rank))
    return KSAuto(theory, mults, N)


def compose(theory: Theory, autos: list[KSAuto], N: int,
            reverse: bool = True) -> KSAuto:
    """Composite of the listed operators.

    With reverse=True the list is read as "applied first" .. "applied last"
    in reversed order, which matches feeding a spectrum in decreasing phase
    order on both sides of the identity.
    """
    order = list(reversed(autos)) if reverse else list(autos)
    total = identity_auto(theory, N)
    for a in order:
        mults = tuple(
            series_mul(theory, a.mults[mu],
                       series_eval(theory, total.mults[mu], list(a.mults), N), N)
            for mu in range(theory.rank))
        total = KSAuto(theory, mults, N)
    return total


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
                  N: int) -> KSAuto:
    """Ordered product of the KS operators of one spectrum table; N >= 1,
    since below degree 1 every product is the identity and a check built
    on it would compare nothing."""
    if N < 1:
        raise ValueError(f"truncation degree N must be at least 1, got {N}")
    charges = [g for g in table.charges()
               if theory.is_effective(g) and eff_degree(theory, g) <= N]
    ordered = _phase_sorted(theory, region, charges)
    autos = [ks_auto(theory, g, table.omega(g), N) for g in ordered]
    return compose(theory, autos, N, reverse=True)


def agreement_degree(theory: Theory, a: KSAuto, b: KSAuto, N: int) -> int:
    """Largest d <= N with all coefficients of both actions equal up to d."""
    worst = N
    for mu in range(theory.rank):
        diff = series_add(a.mults[mu], {e: -c for e, c in b.mults[mu].items()})
        for e in diff:
            worst = min(worst, eff_degree(theory, e) - 1)
    return worst


def verify_wall_identity(theory: Theory, strong: SpectrumTable,
                         weak: SpectrumTable, N: int) -> tuple[bool, int]:
    """Strong product at u+ versus weak product at u-; (equal?, degree)."""
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
    """
    target = spectrum_auto(theory, strong, PLUS, N)
    entries: dict[Charge, int] = {}
    for d in range(1, N + 1):
        table = SpectrumTable(theory.name, WEAK, None, True, d - 1,
                              dict(entries))
        current = spectrum_auto(theory, table, MINUS, N)
        discrepancy: dict[Charge, dict[int, Fraction]] = {}
        for mu in range(theory.rank):
            diff = series_add(target.mults[mu],
                              {e: -c for e, c in current.mults[mu].items()})
            for e, c in diff.items():
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
    ok, deg = verify_wall_identity(theory, strong, result, N)
    if not ok:
        raise FactorizationError(f"inferred spectrum only agrees through {deg}")
    return result
