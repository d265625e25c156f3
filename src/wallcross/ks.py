"""Truncated Kontsevich-Soibelman products on the classical torus algebra.

The operator of a state (gamma, Omega) is the algebra map acting on a
monomial by x^e -> x^e (1 - sigma(gamma) x_gamma)^{Omega <gamma,e>}.  A
spectrum gives the ordered product of these operators, taken in
decreasing phase order of Z_gamma in the relevant region.  The strong
and weak products must agree; conversely the weak exponents can be
peeled off degree by degree from the strong product.

Series are sparse maps charge-exponent -> int (every coefficient is an
integer), truncated at total effective degree N.  Inside a product they
are keyed by one packed int per exponent (see pack): field i holds
s_i e_i, for the effective signs s, and the top field the effective
degree.  Every exponent there is a sum of effective charges, so each
field is at most the degree, which is at most N <= MAX_N and fits its
WIDTH bits: the key of a sum is the sum of the keys, a pair of terms
costs one int addition and the degree test one comparison, and compose
unpacks its multipliers once at the end.  A product is stored by
its multipliers G_mu with x_mu -> x_mu * G_mu, and is built by applying
each operator to the current terms of x_mu G_mu one group of equal
exponent at a time, so no series is ever substituted into another.
Each operator reads its pairing row off the pairing's columns once, and
packs gamma and reads its degree and sigma once: each power
(1 - sigma x_gamma)^k it needs is one integer recurrence on those three
values, built once per k and shared by every x_mu.  x_mu whose pairing
columns are equal share their multiplier: an operator maps the term
x^{mu+e} of x_mu G_mu to x^{mu+e} (1 - sigma x_gamma)^k with
k = Omega <gamma, e_mu> + Omega <gamma, e>, and truncation reads e
alone, so G_mu depends on mu only through column mu of the pairing.
compose builds one multiplier per distinct column (two each for the
four basis charges of nf2 and the five of nf3, whose flavour copies
pair alike) and gives every x_mu its own copy.  The terms of
exponent 0 pass through unmultiplied.  Effective degree is
additive, so a series product never forms a term above the truncation,
and the peeling builds each weak product only up to the degree it reads.
A table that is incomplete, or covers fewer degrees than N, is refused
by the wall identity check instead of reported as a failed identity.

`spectrum_auto` caches each product it builds on its content: the
theory, the side, the phase-ordered (gamma, Omega) operators through N,
and N.  Before it builds one it refuses two operators on one ray that do
not commute: their order would be the tie-break's, not the physics'.
The cache lives as long as the process, with no size bound, so an
inference's strong and final weak products are the ones that
`verify_wall_identity` of the same tables reads, and a catalog table
whose operators through N equal the inferred ones reuses the inferred
product.  Cached products are shared between callers: they are
read-only, and every caller here only reads them (`series_sub` copies).
The peeling steps of `infer_weak_spectrum` are never asked for again
and call `compose` directly.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cache, cmp_to_key
from operator import mul

from .lattice import MINUS, PLUS, Charge, Theory, cross, cscale
from .spectrum import WEAK, SpectrumTable, UnknownSpectrumError

Series = dict[Charge, int]
Packed = dict[int, int]

# largest truncation degree: the costliest run, `ks-oracle nf3 --N 24`
# (inference only: nf3 has no complete weak table), takes 4.1-8.6 s on
# a busy 2-vCPU machine, over twice its time at N = 20; the costliest
# `--against-table` run, nf2 at N = 24, takes 1.6-3.0 s
MAX_N = 24
# bits per field of a packed exponent key: no field exceeds N <= MAX_N
WIDTH = MAX_N.bit_length()


class FactorizationError(Exception):
    """No consistent KS exponent reproduces the discrepancy, or the product
    cannot determine one."""


def eff_degree(theory: Theory, e: Charge) -> int:
    return sum(map(mul, theory.effective_signs, e))


def pack(theory: Theory, e: Charge) -> int:
    """Key of an effective exponent (or of zero) of degree at most MAX_N:
    field i holds s_i e_i and the top field the effective degree."""
    fields = list(map(mul, theory.effective_signs, e))
    key = sum(fields)
    for f in reversed(fields):
        key = (key << WIDTH) + f
    return key


def unpack(theory: Theory, key: int) -> Charge:
    """The exponent of a key (inverse of pack)."""
    mask = (1 << WIDTH) - 1
    return tuple(s * ((key >> i * WIDTH) & mask)
                 for i, s in enumerate(theory.effective_signs))


def series_sub(a: Series, b: Series) -> Series:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) - c
        if not out[e]:
            del out[e]
    return out


def series_mul(theory: Theory, a: Packed, b: Packed, N: int) -> Packed:
    """a * b through effective degree N.

    A pair of terms is kept iff its key sum is below (N + 1) in the degree
    field, since the fields of a kept pair add without carries; b is
    scanned in increasing key, so in increasing degree, and the scan stops
    at the first pair over N.
    """
    top = (N + 1) << theory.rank * WIDTH
    bs = sorted(b.items())
    out: Packed = {}
    for ka, ca in a.items():
        room = top - ka
        for kb, cb in bs:
            if kb >= room:
                break
            e = ka + kb
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _check_degree(N: int) -> None:
    if N < 0:
        raise ValueError(f"truncation degree N must be at least 0, got {N}")
    if N > MAX_N:
        raise ValueError(f"truncation degree N must be at most {MAX_N}, got {N}")


def _binomial(key: int, deg: int, sg: int, k: int, N: int) -> Packed:
    """(1 - sg x)^k through effective degree N, for any integer k
    (generalised binomial coefficients when k < 0), the monomial x of an
    effective charge with packed key `key` and effective degree `deg`."""
    out: Packed = {0: 1}
    c = 1
    for j in range(N // deg):
        # C(k, j+1) = C(k, j) (k-j) / (j+1) is an integer, so // is exact
        c = -sg * c * (k - j) // (j + 1)
        if not c:
            break
        out[(j + 1) * key] = c
    return out


def compose(theory: Theory, states: Sequence[tuple[Charge, int]],
            N: int) -> tuple[Series, ...]:
    """Multipliers G_mu of T_1 ... T_k for states [(gamma_1, Omega_1), ...].

    T_k acts first: x_mu G_mu starts as x_mu, and each operator from T_k
    back to T_1 multiplies every current term x^{mu+e} by
    (1 - sigma x_gamma)^{Omega <gamma, mu+e>}.

    That exponent reads mu only through <gamma, e_mu>, the pairing's
    column mu against gamma, and the truncation reads e alone, so two x_mu
    with equal columns go through equal terms under every operator: G_mu
    is built once per distinct column and each x_mu gets an equal copy in
    its own dict.  The effective sign and central charge of e_mu do not
    enter.
    """
    _check_degree(N)
    for gamma, _ in states:
        if not theory.is_effective(gamma):
            raise ValueError(f"{gamma} is not effective")
    cols = list(zip(*theory.pairing))
    # the first x_mu of each distinct pairing column builds the multiplier
    # of every x_mu with that column
    mults = {mu: {0: 1} for mu, col in enumerate(cols) if cols.index(col) == mu}
    # key -> exponent of every term met, to read its pairings
    exps = {0: theory.zero()}
    for gamma, omega in reversed(states):
        # p_j = Omega <gamma, e_j>, read off the pairing's columns
        p = [omega * sum(map(mul, gamma, col)) for col in cols]
        # key, degree and sigma of gamma, read once for every power below
        gkey, gdeg, sg = (pack(theory, gamma), eff_degree(theory, gamma),
                          theory.sigma_value(gamma))
        # k -> (1 - sigma x_gamma)^k, shared by every x_mu
        binomials: dict[int, Packed] = {}
        for mu, g in mults.items():
            groups: dict[int, Packed] = {}
            for key, c in g.items():
                e = exps.get(key)
                if e is None:
                    e = exps[key] = unpack(theory, key)
                k = p[mu] + sum(map(mul, p, e))
                groups.setdefault(k, {})[key] = c
            # the k = 0 terms are fixed by the operator
            out: Packed = groups.pop(0, {})
            for k, terms in groups.items():
                if k not in binomials:
                    binomials[k] = _binomial(gkey, gdeg, sg, k, N)
                for key, c in series_mul(theory, terms, binomials[k], N).items():
                    out[key] = out.get(key, 0) + c
            mults[mu] = {key: c for key, c in out.items() if c}
    return tuple({exps.get(key) or unpack(theory, key): c
                  for key, c in mults[cols.index(col)].items()} for col in cols)


def _operators(theory: Theory, entries: dict[Charge, int], region: str,
               N: int) -> tuple[tuple[Charge, int], ...]:
    """The (gamma, Omega) states of effective degree <= N among the entries,
    in decreasing phase of Z_gamma in the region, ties by the charge.  The
    charges are effective, so Im Z > 0 (see `Theory`) and Re Z / Im Z
    orders them: a before b iff Re Z_a Im Z_b < Re Z_b Im Z_a, a cross
    product that stays exact on integer and Fraction central charges."""
    zs = {g: theory.z(region, g) for g in entries
          if theory.is_effective(g) and eff_degree(theory, g) <= N}

    def order(a: Charge, b: Charge) -> int:
        (ra, ia), (rb, ib) = zs[a], zs[b]
        return ra * ib - rb * ia or (a > b) - (a < b)
    return tuple((g, entries[g]) for g in sorted(zs, key=cmp_to_key(order)))


def _check_ties(theory: Theory, region: str,
                states: Sequence[tuple[Charge, int]]) -> None:
    """Raise FactorizationError if two of the phase-ordered states lie on
    one ray of the region and pair to nonzero.  `_operators` orders such a
    tie by the charge, a free choice only for operators that commute; two
    that do not put the region on a wall of marginal stability, where the
    product depends on that choice."""
    # the charges met so far on the current ray, and its central charge
    tied, ray = [], None
    for gamma, _ in states:
        z = theory.z(region, gamma)
        if ray is None or cross(ray, z) != 0:
            tied, ray = [], z
        else:
            # <other, gamma> = other . (pairing gamma): the pairing times
            # gamma once, then one dot product per charge tied with it
            column = [sum(map(mul, row, gamma)) for row in theory.pairing]
            for other in tied:
                p = sum(map(mul, other, column))
                if p:
                    raise FactorizationError(
                        f"{theory.name}: Z{region} puts {other} and {gamma} "
                        f"on one ray, but they pair to {p}, so the region "
                        f"lies on a wall of marginal stability and the KS "
                        f"product depends on their order")
        tied.append(gamma)


@cache
def _product(theory: Theory, region: str,
             states: tuple[tuple[Charge, int], ...],
             N: int) -> tuple[Series, ...]:
    """compose(theory, states, N) for the phase-ordered states of one region,
    checked by `_check_ties`, built once per process for each content and
    shared by every caller, who only reads it."""
    _check_ties(theory, region, states)
    return compose(theory, states, N)


def _check_truncation(N: int) -> None:
    """1 <= N <= MAX_N: below degree 1 every product is the identity and a
    check built on it would compare nothing."""
    if N < 1:
        raise ValueError(f"truncation degree N must be at least 1, got {N}")
    _check_degree(N)


def spectrum_auto(theory: Theory, table: SpectrumTable, region: str,
                  N: int) -> tuple[Series, ...]:
    """Multipliers of the ordered product of one spectrum table's KS
    operators through degree N, 1 <= N <= MAX_N.  The product is cached on
    its operators (see `_product`), so the result must not be modified.
    Raises FactorizationError when two operators that do not commute share
    a ray, so the region lies on a wall (see `_check_ties`)."""
    _check_truncation(N)
    return _product(theory, region,
                    _operators(theory, table.entries, region, N), N)


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


def _check_radical(theory: Theory, N: int) -> None:
    """Raise FactorizationError if an effective charge of degree <= N pairs
    to zero with every basis charge.  The operator of such a charge is the
    identity, so no product shows its Omega, and the peeling would read 0
    there whatever it is.

    The walk goes degree by degree and builds each effective charge once,
    as a multiset of signed basis charges s_i e_i added in increasing i.
    A charge carries its packed key and its pairings <gamma, e_j> packed
    into one int, as the sum of the signed pairing rows of its parts:
    field j of width w holds <gamma, e_j>, and |<gamma, e_j>| < 2^(w-1),
    so the int is 0 iff every pairing is.
    """
    w = (N * max(abs(x) for row in theory.pairing for x in row)).bit_length() + 1
    steps = [(pack(theory, cscale(s, theory.unit(i))),
              sum(s * x << j * w for j, x in enumerate(row)), i)
             for i, (s, row) in enumerate(zip(theory.effective_signs,
                                              theory.pairing))]
    # (key, packed pairings, lowest basis index still to add)
    level = [(0, 0, 0)]
    for d in range(1, N + 1):
        level = [(key + k, pairs + r, i)
                 for key, pairs, first in level for k, r, i in steps[first:]]
        radical = [key for key, pairs, _ in level if not pairs]
        if radical:
            gamma = min(unpack(theory, key) for key in radical)
            raise FactorizationError(
                f"{theory.name}: the effective charge {gamma} of degree {d} "
                f"pairs to zero with every basis charge, so no KS product "
                f"determines its Omega through N={N}")


def infer_weak_spectrum(theory: Theory, strong: SpectrumTable,
                        N: int) -> SpectrumTable:
    """Peel the weak-side exponents off the strong product degree by degree.

    At the lowest uncorrected degree the discrepancy is linear in the
    missing exponents, one per charge; inserting the solved operators in
    phase order and repeating converges through degree N.  A theory with
    an effective charge of degree <= N in the radical of the pairing is
    refused first (see `_check_radical`).

    Iteration d reads the weak product only through degree d (below d it
    must agree with the strong one), so it builds that product truncated
    at d.  This is exact: every multiplier exponent is a sum of effective
    charges, so effective degrees are >= 0 and add under products, and a
    term above d never feeds a coefficient of degree <= d.  No caller asks
    for these products again, so they bypass the cache.  The strong
    product is built once, at N, and the final check compares it with the
    full weak product of the inferred table at N; both are cached, so
    `verify_wall_identity` of the same tables builds nothing.
    """
    _check_truncation(N)
    _check_radical(theory, N)
    target = spectrum_auto(theory, strong, PLUS, N)
    entries: dict[Charge, int] = {}
    for d in range(1, N + 1):
        current = compose(theory, _operators(theory, entries, MINUS, d), d)
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
