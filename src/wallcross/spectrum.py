"""BPS index tables on both sides of the wall and DT multi-cover values."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import Charge, Theory, cneg, cscale, content, theory_by_name

STRONG = "strong"
WEAK = "weak"

SCHEMA_VERSION = 1
DEFAULT_K = 10
# largest family truncation: a weak table holds O(K) entries, and no check
# reads past degree max(DEFAULT_K, N) for a KS truncation N in the tens
MAX_K = 10_000


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
            k = "" if self.truncation is None else f" (truncation K={self.truncation})"
            raise UnknownSpectrumError(f"{self.theory}/{self.region}: {gamma} beyond "
                                       f"the covered degree {self.covered_degree}{k}")
        return 0

    def dt(self, gamma: Charge) -> Fraction:
        """DT(gamma) = sum_{n | d} Omega(gamma/n) (d/n)^2 / d^2, d the content."""
        d = content(gamma)
        if d == 0:
            raise ValueError("DT of the zero charge")
        terms = (self.omega(tuple(x // n for x in gamma)) * (d // n) ** 2
                 for n in range(1, d + 1) if d % n == 0)
        return Fraction(sum(terms), d * d)

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


def strong_table(theory: Theory) -> SpectrumTable:
    """The strong-side table: each effective basis state with Omega = 1."""
    return SpectrumTable(theory.name, STRONG, None, True, None, {
        cscale(s, theory.unit(i)): 1 for i, s in enumerate(theory.effective_signs)})


def spectrum_table(theory_name: str, region: str, K: int = DEFAULT_K) -> SpectrumTable:
    """A catalog theory's table by name, weak families truncated at K."""
    if K < 0:
        raise ValueError(f"family truncation K must be at least 0, got {K}")
    if K > MAX_K:
        raise ValueError(f"family truncation K must be at most {MAX_K}, got {K}")
    th = theory_by_name(theory_name)
    if region == STRONG:
        return strong_table(th)
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
