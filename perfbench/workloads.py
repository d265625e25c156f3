"""The four benchmark workloads and the references their outputs are checked
against.

Each workload is a fixed list of independent tasks.  A task calls the same
library entry point that the matching CLI subcommand calls, returns a digest
of the output (used to compare traced with untraced runs), and is checked
against a reference that does not come from the code path under test:

- conjecture: ``conjecture_check``; every tree must agree, the sum of the
  combinatorial tree values must equal the weak-table DT invariant, and the
  catalog ledger facts of acceptance test 5 must hold.
- invariant: ``js_wallcross`` on nf0; the value must equal the DT invariant
  of the catalog weak table.
- oracle: ``infer_weak_spectrum`` and ``verify_wall_identity``; inferred
  entries must equal the catalog weak entries up to the truncation degree.
- numeric: the four ``wallcross numeric`` checks at the acceptance
  tolerances.

Each workload function is the workload's set-up: it imports the library
modules (so that a fresh process can time the import) and builds the
theories and tables.  Tasks call through module attributes so that the
outside-in recorder in ``tracer.py`` sees every call.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Import ``wallcross`` from this checkout's source tree, never from an
    installed copy; exit with status 2 when the source is missing."""
    if not (SRC / "wallcross" / "__init__.py").is_file():
        print(f"perfbench: no wallcross source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def check_library_origin() -> None:
    origin = Path(sys.modules["wallcross"].__file__).resolve().parent
    if origin != SRC / "wallcross":
        print(f"perfbench: wallcross was imported from {origin}", file=sys.stderr)
        sys.exit(2)


class Mismatch(Exception):
    """A task returned a value that differs from its reference."""


@dataclass
class Task:
    name: str
    run: Callable[[], Any]   # returns a digest; raises Mismatch on a wrong value


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _eff_degree(theory, g) -> int:
    return sum(s * x for s, x in zip(theory.effective_signs, g))


# ---------------------------------------------------------------------------
# conjecture

# (theory, target, max_vertices): the six catalog targets of acceptance
# test 5 first, then larger nf0/nf1 targets.  nf1 2,1,-1 raises
# ValueError('inconsistent singular-symbol system') and is kept on purpose:
# it is counted as a failed task, not dropped.
CONJECTURE_TARGETS = [
    ("nf0", (1, 1), None), ("nf0", (1, 2), None), ("nf0", (2, 3), None),
    ("nf1", (1, 1, -1), None), ("nf2", (1, 1, 1, 1), None),
    ("nf3", (1, 1, 1, 1, 2), 5),
    ("nf0", (2, 4), None), ("nf0", (3, 3), None),
    ("nf1", (2, 2, -1), None), ("nf1", (2, 1, -1), None),
]


def _check_ledger(name, target, rep, Value) -> None:
    """The catalog facts pinned by acceptance test 5."""
    if name == "nf1" and target == (1, 1, -1):
        _expect(set(rep.ledger.values()) == {Fraction(-1, 2)},
                "nf1 ledger is not all -1/2")
    if name == "nf2":
        _expect(sorted(rep.ledger.values()) == [Fraction(-1, 2)] * 2
                + [Fraction(1, 2)] * 2, "nf2 ledger is not -1/2,-1/2,1/2,1/2")
        _expect(len(rep.constraints) == 2, "nf2 does not have 2 constraints")
    if name == "nf0" and target == (2, 3):
        _expect(len(rep.free_symbols) == 1, "nf0 2,3 does not have 1 free symbol")
    if name == "nf3":
        trees = list(rep.trees.values())
        _expect(len(trees) == 1 and trees[0].js_total == Value.sign_unit(4),
                "nf3 is not the single tree with js total 4s")


def conjecture():
    from wallcross import decay, lattice, spectrum
    from wallcross.symbolic import Value

    theories = {n: lattice.theory_by_name(n) for n in ("nf0", "nf1", "nf2", "nf3")}
    weak = {n: spectrum.spectrum_table(n, "weak") for n in theories}

    def task(name, target, mv):
        theory = theories[name]
        if mv is None:
            # untruncated: the summed tree values are the weak invariant,
            # in units of the refinement sign when sigma is not trivial
            dt = weak[name].dt(target)
            want = Value.rational(dt) if theory.sigma_trivial else Value.sign_unit(dt)
        else:
            want = None

        def run():
            rep = decay.conjecture_check(theory, target, max_vertices=mv)
            _expect(rep.ok and all(tc.ok for tc in rep.trees.values()),
                    "a tree disagrees")
            if want is not None:
                total = Value.zero()
                for tc in rep.trees.values():
                    total = total + tc.js_total
                _expect(total == want, f"tree sum {total!r} != weak DT {want!r}")
            _check_ledger(name, target, rep, Value)
            return (rep.ok, sorted(rep.ledger.items()), rep.free_symbols,
                    rep.constraints,
                    sorted((k, repr(tc.js_total), repr(tc.resolved_gmn))
                           for k, tc in rep.trees.items()))
        return Task(f"{name}:{','.join(map(str, target))}", run)

    return [task(*t) for t in CONJECTURE_TARGETS]


# ---------------------------------------------------------------------------
# invariant

# nf0 only: js_wallcross is the untwisted invariant, which equals the
# physical index only when sigma is trivial.  3,4 has 7-vertex
# decompositions (16,807 labelled trees each) and carries most of the work.
INVARIANT_TARGETS = [(1, 1), (1, 2), (2, 3), (2, 4), (3, 3), (3, 4)]


def invariant():
    from wallcross import js, lattice, spectrum

    nf0 = lattice.theory_by_name("nf0")
    strong = spectrum.spectrum_table("nf0", "strong")
    weak = spectrum.spectrum_table("nf0", "weak")

    def task(target):
        want = weak.dt(target)

        def run():
            got = js.js_wallcross(nf0, strong, target)
            _expect(got == want, f"js_wallcross {got} != weak DT {want}")
            return got
        return Task(f"nf0:{','.join(map(str, target))}", run)

    return [task(t) for t in INVARIANT_TARGETS]


# ---------------------------------------------------------------------------
# oracle

ORACLE_DEGREES = {"nf0": 10, "nf1": 5, "nf2": 5, "nf3": 5}
# the catalog weak tables of nf0-nf2 are complete up to these degrees; the
# nf3 table is hand-entered and incomplete, so only its listed entries count
ORACLE_COMPLETE = ("nf0", "nf1", "nf2")


def oracle():
    from wallcross import ks, lattice, spectrum

    theories = {n: lattice.theory_by_name(n) for n in ORACLE_DEGREES}
    strong = {n: spectrum.spectrum_table(n, "strong") for n in theories}
    weak = {n: spectrum.spectrum_table(n, "weak") for n in theories}

    def infer_task(name, N):
        theory = theories[name]
        want = {g: w for g, w in weak[name].entries.items()
                if theory.is_effective(g) and _eff_degree(theory, g) <= N}

        def run():
            got = ks.infer_weak_spectrum(theory, strong[name], N)
            if name in ORACLE_COMPLETE:
                _expect(got.entries == want, "inferred entries != catalog weak")
            else:
                bad = [g for g, w in want.items() if got.entries.get(g) != w]
                _expect(not bad, f"inferred entries differ at {bad}")
            ok, deg = ks.verify_wall_identity(theory, strong[name], got, N)
            _expect(ok and deg >= N, f"inferred table agrees only through {deg}")
            return sorted(got.entries.items()), ok, deg
        return Task(f"infer:{name}:{N}", run)

    def verify_task(name, N):
        theory = theories[name]

        def run():
            ok, deg = ks.verify_wall_identity(theory, strong[name], weak[name], N)
            _expect(ok and deg >= N, f"catalog weak table agrees only through {deg}")
            return ok, deg
        return Task(f"verify:{name}:{N}", run)

    return ([infer_task(n, N) for n, N in ORACLE_DEGREES.items()]
            + [verify_task(n, ORACLE_DEGREES[n]) for n in ORACLE_COMPLETE])


# ---------------------------------------------------------------------------
# numeric

# the CLI defaults and the acceptance tolerances of tests 7a-7d
R = 3.0
ZETA = 3.0 + 0.2j


def numeric():
    from wallcross import tba

    spec = tba.QuadratureSpec(nodes=400, T=6.0, tol=1e-10)
    # The first Gauss-Legendre eigensolve in a process initialises the
    # LAPACK backend and now and then takes about 1 s instead of 0.03 s.
    # Every `wallcross numeric` process pays it once, so it is set-up.
    spec.grid()

    def residue_move():
        zc = tba.near_wall_context(R=R, scale=0.1, side="mid")
        lhs, rhs, err = tba.residue_move_check(
            zc, (1, 0), (0, 1), 1 + 10j, -0.5 + 10j, ZETA, spec)
        _expect(err < 1e-8, f"residue move residual {err:.2e}")
        return complex(lhs), complex(rhs), float(err)

    def scale_invariance():
        rels = tuple(float(tba.scale_invariance_check(tba.OVModel(q=q, R=R),
                                                      ZETA, spec=spec))
                     for q in (1, 2))
        _expect(max(rels) < 1e-6, f"scale-invariance errors {rels}")
        return rels

    def decay_fit():
        zc = tba.near_wall_context(R=R, scale=0.1)
        chain = [(1, 0), (0, 1)] * 2
        rows = tuple(float(abs(tba.propagator(zc, tba.chain_tree(chain[:n]),
                                              ZETA, spec)))
                     for n in range(1, len(chain) + 1))
        slope = float(tba.decay_slope(zc, chain, ZETA, spec))
        _expect(slope <= -1.5, f"decay slope {slope}")
        return rows, slope

    def ov_fixed_point():
        res = float(tba.ov_fixed_point_residual(tba.OVModel(R=R), ZETA, spec))
        _expect(res < 10 * spec.tol, f"fixed-point residual {res:.2e}")
        return res

    return [Task(f.__name__, f) for f in
            (residue_move, scale_invariance, decay_fit, ov_fixed_point)]


WORKLOADS: dict[str, Callable[[], list[Task]]] = {
    "conjecture": conjecture,
    "invariant": invariant,
    "oracle": oracle,
    "numeric": numeric,
}

# workloads whose pass times are scaled by a reference timed in the worker
# between tasks; the others are scaled by the Fraction reference timed in
# the benchmark's own process (see speed.py)
IN_WORKER_REFERENCE = {"numeric": speed.LAPACK}
