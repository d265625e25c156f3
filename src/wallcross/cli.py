"""Command-line entry points and machine-readable reports.

Each subcommand builds its report, and `main` alone writes it and picks
the exit code: 0 unless the report says "ok": false, which exits 1; 2 on
bad configuration or input, a library error (such as a size bound) or a
file that cannot be written, reported in one line, or a reader that
closed the output pipe (silently).  Reports are JSON with fixed field
order; a report bounded by --max-vertices names its bound.  Tabular
outputs are CSV.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .decay import conjecture_check, gmn_contribution, run_decay
from .gmn import enumerate_diagrams, root_direction, weight_W
from .js import js_tree_values
from .ks import (FactorizationError, check_coverage, infer_weak_spectrum,
                 verify_wall_identity)
from .lattice import Theory, theory_by_name
from .spectrum import DEFAULT_K, UnknownSpectrumError, spectrum_table, strong_table
from . import tba

PASS, FAIL, CONFIG_ERROR = 0, 1, 2


class ConfigError(Exception):
    pass


def _parse_charge(theory: Theory, text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.replace("(", "").replace(")", "").split(","))
    except ValueError:
        raise ConfigError(f"cannot parse charge {text!r}")
    if len(parts) != theory.rank:
        raise ConfigError(f"charge {text!r} has rank {len(parts)}, "
                          f"expected {theory.rank}")
    return parts


def _theory(name: str) -> Theory:
    try:
        return theory_by_name(name)
    except ValueError:
        raise ConfigError(f"unknown theory {name!r}")


def _theory_and_target(args) -> tuple[Theory, tuple[int, ...]]:
    theory = _theory(args.theory)
    return theory, _parse_charge(theory, args.target)


def _report(command: str, theory: Theory, target: tuple[int, ...] | None,
            max_vertices: int | None) -> dict:
    """A report's opening fields.  A bound, when given, is named: a bounded
    run lists, indexes or compares only trees and diagrams of at most that
    many vertices."""
    report = {"command": command, "theory": theory.name}
    if target is not None:
        report["target"] = list(target)
    if max_vertices is not None:
        report["max_vertices"] = max_vertices
    return report


def _emit(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=1)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        # flush here, so that a closed pipe is reported inside main
        print(text, flush=True)


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(args) -> dict:
    theory = _theory(args.theory)
    table = spectrum_table(theory.name, args.region, K=args.K)
    rows = [(list(g), w) for g, w in sorted(table.entries.items())]
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(theory.basis) + ["omega"])
            for g, w in rows:
                writer.writerow(g + [w])
    return table.to_json()


def cmd_js(args) -> dict:
    theory, target = _theory_and_target(args)
    table = strong_table(theory)
    trees = js_tree_values(theory, table, target,
                           max_vertices=args.max_vertices)
    # the tree totals are coefficients of sigma(target) summing to the
    # invariant; a vertex bound leaves out terms, so its sum is partial
    dt = sum(tv.total for tv in trees.values())
    report = _report("js", theory, target, args.max_vertices)
    report["dt_weak" if args.max_vertices is None else "partial_sum"] = str(dt)
    report["trees"] = [{"charges": [list(c) for c in tv.charges],
                        "edges": [list(e) for e in tv.edges],
                        "total": str(tv.total)}
                       for key, tv in sorted(trees.items())]
    return report


def cmd_gmn(args) -> dict:
    theory, target = _theory_and_target(args)
    table = strong_table(theory)
    diagrams = enumerate_diagrams(theory, table, target,
                                  max_vertices=args.max_vertices)
    # each weight is a coefficient along the framing direction
    direction = list(root_direction(theory))
    out = []
    for diag in diagrams:
        w = weight_W(theory, table, diag)
        out.append({"diagram": diag.describe(),
                    "weight": str(w),
                    "total": direction,
                    "contribution": repr(gmn_contribution(theory, diag, w))})
    return {**_report("gmn", theory, target, args.max_vertices),
            "diagrams": out}


def cmd_decay_trace(args) -> dict:
    theory, target = _theory_and_target(args)
    table = strong_table(theory)
    diagrams = enumerate_diagrams(theory, table, target,
                                  max_vertices=args.max_vertices)
    if not diagrams:
        raise ConfigError(f"no framed diagrams with total charge {target}")
    if not 0 <= args.index < len(diagrams):
        raise ConfigError(f"diagram index {args.index} out of range "
                          f"(0..{len(diagrams) - 1})")
    diag = diagrams[args.index]
    trace = run_decay(theory, diag)
    # the diagram's charges give the target, so the report names none
    return {
        **_report("decay-trace", theory, None, args.max_vertices),
        "diagram": diag.describe(),
        "eps_sum": str(trace.eps_sum),
        "bracket": repr(trace.bracket()),
        "singular": [{"key": s.key, "side": s.side, "coeff": s.coeff}
                     for s in trace.singular],
        "jumps": {k: (None if v is None else str(v))
                  for k, v in sorted(trace.jumps.items())},
        "steps": trace.steps,
    }


def cmd_check_conjecture(args) -> dict:
    theory, target = _theory_and_target(args)
    rep = conjecture_check(theory, target, max_vertices=args.max_vertices)
    return {
        **_report("check-conjecture", theory, target, args.max_vertices),
        "ok": rep.ok,
        "ledger": {k: str(v) for k, v in sorted(rep.ledger.items())},
        "free_symbols": rep.free_symbols,
        "constraints": [list(c) for c in rep.constraints],
        "trees": [{"charges": [list(c) for c in tc.charges],
                   "edges": [list(e) for e in tc.edges],
                   "js": str(tc.js_total),
                   "gmn": str(tc.resolved_gmn),
                   "framings": len(tc.framings),
                   "ok": tc.ok}
                  for key, tc in sorted(rep.trees.items())],
    }


def cmd_ks_oracle(args) -> dict:
    theory = _theory(args.theory)
    strong = strong_table(theory)
    if args.against_table:
        # with K >= N every complete catalog rule covers degree N; a table
        # that does not is refused before any product is built
        weak = spectrum_table(theory.name, "weak", K=max(DEFAULT_K, args.N))
        check_coverage(weak, args.N)
    # the inference raises unless its weak product agrees with the strong
    # one through N, so it has made the round trip
    inferred = infer_weak_spectrum(theory, strong, args.N)
    checks = {"round_trip": {"ok": True, "agree_through": args.N}}
    ok = True
    if args.against_table:
        ok_w, deg_w = verify_wall_identity(theory, strong, weak, args.N)
        checks["catalog_weak_table"] = {"ok": ok_w, "agree_through": deg_w}
        ok = ok and ok_w
    return {
        "command": "ks-oracle",
        "theory": theory.name,
        "N": args.N,
        "ok": ok,
        "checks": checks,
        "inferred_weak": inferred.to_json(),
    }


NUMERIC_CHECKS = ("residue_move", "scale_invariance", "decay_fit",
                  "ov_fixed_point")
# |rhs| of residue_move is about 1e-18, so |lhs - rhs| < 1e-8 cannot fail
RESIDUE_MOVE_REL_TOL = 1e-3     # bound on |lhs - rhs| / |rhs| as well


def _finite(check: str, x) -> float:
    """x as a float for the report of `check`, which inf or nan would spoil."""
    if not math.isfinite(x):
        raise ValueError(f"{check} gave a non-finite result: the quadrature "
                         "left the floating-point range")
    return float(x)


@np.errstate(all="ignore")   # _finite reports an overflow in one line
def cmd_numeric(args) -> dict:
    spec = tba.QuadratureSpec(nodes=args.nodes, T=args.T, tol=args.tol)
    zeta = complex(args.zeta_re, args.zeta_im)
    if not 0 < abs(zeta) < math.inf:
        raise ConfigError("zeta = --zeta-re + i --zeta-im must be nonzero "
                          "and finite")
    if not 0 < args.R < math.inf:
        raise ConfigError(f"R must be positive and finite, got {args.R}")
    names = args.checks or NUMERIC_CHECKS
    for name in names:
        if name not in NUMERIC_CHECKS:
            raise ConfigError(f"unknown numeric check {name!r}")
    if args.csv and "decay_fit" not in names:
        raise ConfigError("--csv writes the decay_fit rows, but decay_fit "
                          "is not among the checks")
    checks, mags = {}, []
    for name in names:
        if name == "residue_move":
            zc = tba.near_wall_context(R=args.R, scale=0.1, side="mid")
            lhs, rhs, err = tba.residue_move_check(
                zc, (1, 0), (0, 1), 1 + 10j, -0.5 + 10j, zeta, spec)
            rel = _finite(name, err / abs(rhs))
            checks[name] = {"lhs": [_finite(name, x) for x in (lhs.real, lhs.imag)],
                            "rhs": [_finite(name, x) for x in (rhs.real, rhs.imag)],
                            "residual": _finite(name, err), "relative_residual": rel,
                            "ok": bool(err < 1e-8 and rel <= RESIDUE_MOVE_REL_TOL)}
        elif name == "scale_invariance":
            out = {f"q{q}": _finite(name, tba.scale_invariance_check(
                tba.OVModel(q=q, R=args.R), zeta, spec=spec)) for q in (1, 2)}
            checks[name] = {"relative_errors": out,
                            "ok": all(rel < 1e-6 for rel in out.values())}
        elif name == "decay_fit":
            zc = tba.near_wall_context(R=args.R, scale=0.1)
            mags = tba.chain_magnitudes(zc, [(1, 0), (0, 1)] * 2, zeta, spec)
            # the slope is finite only if every |G_n| is
            slope = _finite(name, tba.log_slope(mags))
            checks[name] = {"slope": slope, "ok": slope <= -1.5}
        else:
            res = tba.ov_fixed_point_residual(tba.OVModel(R=args.R), zeta, spec)
            checks[name] = {"residual": _finite(name, res),
                            "ok": bool(res < 10 * spec.tol)}
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "R", "abs_G"])
            writer.writerows((n, args.R, g) for n, g in enumerate(mags, 1))
    return {"command": "numeric", "R": args.R, "nodes": args.nodes,
            "ok": all(c["ok"] for c in checks.values()), "checks": checks}


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wallcross",
                                description=__doc__.splitlines()[0])
    p.add_argument("--config", help="JSON file of option values, which "
                   "override the command line")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--output", help="write the JSON report here")
        return sp

    def add_target(name, fn, **kw):
        sp = add(name, fn, **kw)
        sp.add_argument("theory")
        sp.add_argument("target")
        sp.add_argument("--max-vertices", type=int, default=None)
        return sp

    sp = add("spectrum", cmd_spectrum, help="print a BPS index table")
    sp.add_argument("theory")
    sp.add_argument("region", choices=["strong", "weak"])
    sp.add_argument("--K", type=int, default=DEFAULT_K)
    sp.add_argument("--csv", help="also write the entries as CSV")

    add_target("js", cmd_js, help="combinatorial weak-side invariant")
    add_target("gmn", cmd_gmn, help="framed diagrams, weights, contributions")
    sp = add_target("decay-trace", cmd_decay_trace,
                    help="step log of the decay process for one diagram")
    sp.add_argument("--index", type=int, default=0,
                    help="diagram index in enumeration order")
    add_target("check-conjecture", cmd_check_conjecture,
               help="compare both wall-crossing computations tree by tree")

    sp = add("ks-oracle", cmd_ks_oracle,
             help="verify spectra against the ordered-product identity")
    sp.add_argument("theory")
    sp.add_argument("--N", type=int, default=6, help="series truncation degree")
    sp.add_argument("--against-table", action="store_true",
                    help="also compare with the catalog weak table")

    sp = add("numeric", cmd_numeric, help="floating-point identity checks")
    sp.add_argument("checks", nargs="*",
                    help=f"subset of: {' '.join(NUMERIC_CHECKS)} (default all)")
    sp.add_argument("--R", type=float, default=3.0)
    sp.add_argument("--nodes", type=int, default=400)
    sp.add_argument("--T", type=float, default=6.0)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--zeta-re", type=float, default=3.0)
    sp.add_argument("--zeta-im", type=float, default=0.2)
    sp.add_argument("--csv", help="write decay-fit rows as CSV")
    return p


def _config_ok(action: argparse.Action, value) -> bool:
    """Whether the command line could give the option this value."""
    if action.nargs == 0:
        return isinstance(value, bool)
    if action.nargs == "*":
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    kind = {None: str, int: int, float: (int, float)}[action.type]
    return (isinstance(value, kind) and not isinstance(value, bool)
            and (action.choices is None or value in action.choices))


def _apply_config(parser: argparse.ArgumentParser, args) -> None:
    """Override args from the --config JSON object.  Each key must be an
    option of the subcommand, and each value of that option's type and
    among its choices, as on the command line."""
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(str(e))
    if not isinstance(data, dict):
        raise ConfigError("top level must be an object")
    sub = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    options = {a.dest: a for a in sub._actions if a.dest != "help"}
    for key, value in data.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"{key!r} is not an option of {sub.prog}")
        if not _config_ok(action, value):
            raise ConfigError(f"{key!r} cannot be {value!r}")
        setattr(args, action.dest, value)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(parser, args)
        report = args.fn(args)
        _emit(report, args.output)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return CONFIG_ERROR
    except BrokenPipeError:
        # the reader has gone: send the unflushed rest of the report nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CONFIG_ERROR
    except (OSError, ValueError, UnknownSpectrumError, FactorizationError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return CONFIG_ERROR
    return FAIL if report.get("ok") is False else PASS


if __name__ == "__main__":
    sys.exit(main())
