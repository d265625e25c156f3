"""Reference implementation of the truncated KS ordered product.

This is the series-composition form: each operator is materialised as
its multipliers x_mu -> x_mu * (1 - sigma x_gamma)^{Omega <gamma,mu>},
powers of a series are repeated products (negative powers invert by a
geometric series), and two operators compose by substituting one set of
multipliers into the other.  Coefficients are Fractions.  The library
applies each operator term by term in integers instead; the differential
tests check that both give exactly the same multipliers.

``infer_weak_entries`` is the peeling of the weak spectrum in its first
form: every degree rebuilds the whole weak product at the full
truncation N from this reference product.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from wallcross.lattice import MINUS, PLUS, Charge, Theory, is_zero

Series = dict[Charge, Fraction]


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


def compose(theory: Theory, autos: list[KSAuto], N: int) -> KSAuto:
    """Composite A_1 ... A_k of the listed operators; A_k acts first."""
    total = identity_auto(theory, N)
    for a in reversed(autos):
        mults = tuple(
            series_mul(theory, a.mults[mu],
                       series_eval(theory, total.mults[mu], list(a.mults), N), N)
            for mu in range(theory.rank))
        total = KSAuto(theory, mults, N)
    return total


def product(theory: Theory, states: list[tuple[Charge, int]],
            N: int) -> tuple[Series, ...]:
    """Multipliers of the ordered product of the states' operators."""
    return compose(theory, [ks_auto(theory, g, w, N) for g, w in states],
                   N).mults


def ordered_states(theory: Theory, omegas: dict[Charge, int], region: str,
                   N: int) -> list[tuple[Charge, int]]:
    """(gamma, Omega) of the effective charges of degree <= N, in
    decreasing phase of Z_gamma in the region."""
    def slope(g: Charge):
        re, im = theory.z(region, g)
        return Fraction(re, im), g
    charges = [g for g in omegas
               if theory.is_effective(g) and eff_degree(theory, g) <= N]
    return [(g, omegas[g]) for g in sorted(charges, key=slope)]


def infer_weak_entries(theory: Theory, strong: dict[Charge, int],
                       N: int) -> dict[Charge, int]:
    """Weak-side exponents peeled off the strong product through degree N.

    At degree d the discrepancy x_mu (target - current) at exponent e is
    -sigma(e) Omega(e) <e, mu> for the one missing exponent Omega(e).
    """
    target = product(theory, ordered_states(theory, strong, PLUS, N), N)
    entries: dict[Charge, int] = {}
    for d in range(1, N + 1):
        current = product(theory, ordered_states(theory, entries, MINUS, N), N)
        found: dict[Charge, Fraction] = {}
        for mu in range(theory.rank):
            diff = series_add(target[mu],
                              {e: -c for e, c in current[mu].items()})
            for e, c in diff.items():
                de = eff_degree(theory, e)
                if de < d:
                    raise ValueError(f"residual discrepancy at {e}")
                if de > d:
                    continue
                p = theory.pair(e, theory.unit(mu))
                if not theory.is_effective(e) or p == 0:
                    raise ValueError(f"uncorrectable discrepancy at {e}")
                omega = c / (-theory.sigma_value(e) * p)
                if found.setdefault(e, omega) != omega:
                    raise ValueError(f"inconsistent exponent at {e}")
        for e, omega in found.items():
            if omega.denominator != 1:
                raise ValueError(f"non-integer exponent at {e}")
            entries[e] = int(omega)
    return entries
