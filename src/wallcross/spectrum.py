"""BPS index tables on both sides of the wall, DT multi-cover values and
the f-coefficients attached to tree vertices."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import Charge, cneg, cscale, content, primitive, theory_by_name

STRONG = "strong"
WEAK = "weak"

SCHEMA_VERSION = 1
DEFAULT_K = 10


class UnknownSpectrumError(Exception):
    """Query outside the tabulated/truncated part of a spectrum."""


def _degree(gamma: Charge) -> int:
    return sum(abs(x) for x in gamma)


@dataclass
class SpectrumTable:
    theory: str
    region: str
    truncation: int | None          # family truncation K (None: no families)
    complete: bool                  # False: unlisted entries are unknown
    covered_degree: int | None      # unlisted below this degree means Omega=0
    entries: dict[Charge, int]

    def omega(self, gamma: Charge) -> int:
        if gamma in self.entries:
            return self.entries[gamma]
        if cneg(gamma) in self.entries:
            return self.entries[cneg(gamma)]
        if not self.complete:
            raise UnknownSpectrumError(
                f"{self.theory}/{self.region}: Omega({gamma}) not tabulated")
        if self.covered_degree is not None and _degree(gamma) > self.covered_degree:
            raise UnknownSpectrumError(
                f"{self.theory}/{self.region}: {gamma} beyond truncation K={self.truncation}")
        return 0

    def dt(self, gamma: Charge) -> Fraction:
        """Multi-cover formula DT(gamma) = sum_n Omega(gamma/n)/n^2."""
        d = content(gamma)
        if d == 0:
            raise ValueError("DT of the zero charge")
        prim = primitive(gamma)
        total = Fraction(0)
        for n in range(1, d + 1):
            if d % n == 0:
                total += Fraction(self.omega(cscale(d // n, prim)), n * n)
        return total

    def charges(self) -> list[Charge]:
        return sorted(self.entries)

    # -- serialization -------------------------------------------------
    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "theory": self.theory,
            "region": self.region,
            "truncation": self.truncation,
            "complete": self.complete,
            "covered_degree": self.covered_degree,
            "entries": [[list(g), w] for g, w in sorted(self.entries.items())],
        }


def spectrum_table(theory_name: str, region: str, K: int = DEFAULT_K) -> SpectrumTable:
    """Generate a table from the catalog rules (families truncated at K)."""
    if K < 0:
        raise ValueError(f"family truncation K must be at least 0, got {K}")
    th = theory_by_name(theory_name)
    if region == STRONG:
        entries = {}
        for i, s in enumerate(th.effective_signs):
            entries[cscale(s, th.unit(i))] = 1
        return SpectrumTable(theory_name, region, None, True, None, entries)
    if region != WEAK:
        raise ValueError(f"region must be strong/weak, got {region!r}")

    entries: dict[Charge, int] = {}
    if theory_name == "nf0":
        for k in range(K + 1):
            entries[(k, k + 1)] = 1
            entries[(k + 1, k)] = 1
        entries[(1, 1)] = -2
        return SpectrumTable(theory_name, region, K, True, 2 * K + 1, entries)
    if theory_name == "nf1":
        for k in range(K + 1):
            entries[(k, k + 1, -k)] = 1
            entries[(k, k + 1, -(k + 1))] = 1
            entries[(k + 1, k, -k)] = 1
            entries[(k + 1, k, -(k + 1))] = 1
        entries[(0, 0, -1)] = 1
        entries[(1, 1, 0)] = 1
        entries[(1, 1, -1)] = -2
        return SpectrumTable(theory_name, region, K, True, 3 * K + 3, entries)
    if theory_name == "nf2":
        def splits(total):
            return [(a, total - a) for a in range(total + 1) if abs(2 * a - total) <= 1]
        for k in range(K + 1):
            for s1, s2 in (((k, k + 1)), ((k + 1, k))):
                for a11, a21 in splits(s1):
                    for a12, a22 in splits(s2):
                        entries[(a11, a21, a12, a22)] = 1
        for i1 in range(2):
            for i2 in range(2):
                g = [0, 0, 0, 0]
                g[i1] = 1
                g[2 + i2] = 1
                entries[tuple(g)] = 1
        entries[(1, 1, 1, 1)] = -2
        return SpectrumTable(theory_name, region, K, True, 2 * K + 1, entries)
    if theory_name == "nf3":
        for i in range(4):
            for j in range(i + 1, 4):
                g = [0, 0, 0, 0, 1]
                g[i] = 1
                g[j] = 1
                entries[tuple(g)] = 1
        entries[(1, 1, 1, 1, 2)] = -2
        return SpectrumTable(theory_name, region, None, False, None, entries)
    raise ValueError(f"no spectrum rules for theory {theory_name!r}")


# ---------------------------------------------------------------------------
# f-coefficients

def f_coeff(table: SpectrumTable, gamma: Charge) -> tuple[Fraction, Charge]:
    """Vertex coefficient
    f^gamma = sum_n sigma(gamma/n)^n / n * Omega(gamma/n) * gamma/n
    as (c, direction) with f^gamma = c * sigma(gamma) * direction.

    sigma(2 beta) = +1 for every refinement, so sigma(gamma/n)^n = sigma(gamma)
    for each divisor n of the content of gamma, and f^gamma is
    sigma(gamma) DT(gamma) gamma.
    """
    return table.dt(gamma) * content(gamma), primitive(gamma)
