"""Command-line entry points and machine-readable reports.

Exit codes: 0 all checks pass, 1 a check failed, 2 bad configuration or
input, or a library error (such as a size bound), reported in
one line.  Reports are JSON with fixed field order; tabular outputs are CSV.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

from .decay import (ROOT_FIRST, SCHEDULES, conjecture_check, gmn_contribution,
                    run_decay)
from .gmn import enumerate_diagrams, weight_W
from .js import js_tree_values
from .ks import FactorizationError, infer_weak_spectrum, verify_wall_identity
from .lattice import Theory, theory_by_name
from .spectrum import DEFAULT_K, UnknownSpectrumError, spectrum_table
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
    except (KeyError, ValueError):
        raise ConfigError(f"unknown theory {name!r}")


def _emit(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=1)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(args) -> int:
    theory = _theory(args.theory)
    table = spectrum_table(theory.name, args.region, K=args.K)
    rows = [(list(g), w) for g, w in sorted(table.entries.items())]
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(theory.basis) + ["omega"])
            for g, w in rows:
                writer.writerow(g + [w])
    _emit(table.to_json(), args.output)
    return PASS


def cmd_js(args) -> int:
    theory = _theory(args.theory)
    target = _parse_charge(theory, args.target)
    table = spectrum_table(theory.name, "strong")
    trees = js_tree_values(theory, table, target,
                           max_vertices=args.max_vertices)
    # the tree totals are coefficients of sigma(target) summing to the invariant
    dt = sum(tv.total.coeff() for tv in trees.values())
    report = {
        "command": "js",
        "theory": theory.name,
        "target": list(target),
        "dt_weak": str(dt),
        "trees": [{"charges": [list(c) for c in tv.charges],
                   "edges": [list(e) for e in tv.edges],
                   "total": repr(tv.total)}
                  for key, tv in sorted(trees.items())],
    }
    _emit(report, args.output)
    return PASS


def cmd_gmn(args) -> int:
    theory = _theory(args.theory)
    target = _parse_charge(theory, args.target)
    table = spectrum_table(theory.name, "strong")
    diagrams = enumerate_diagrams(theory, table, target,
                                  max_vertices=args.max_vertices)
    out = []
    for diag in diagrams:
        wval, total = weight_W(theory, table, diag)
        out.append({"diagram": diag.describe(),
                    "weight": str(wval),
                    "total": list(total),
                    "contribution": repr(gmn_contribution(
                        theory, table, diag, schedule=args.schedule))})
    report = {"command": "gmn", "theory": theory.name,
              "target": list(target), "diagrams": out}
    _emit(report, args.output)
    return PASS


def cmd_decay_trace(args) -> int:
    theory = _theory(args.theory)
    target = _parse_charge(theory, args.target)
    table = spectrum_table(theory.name, "strong")
    diagrams = enumerate_diagrams(theory, table, target,
                                  max_vertices=args.max_vertices)
    if not diagrams:
        raise ConfigError(f"no framed diagrams with total charge {target}")
    if not 0 <= args.index < len(diagrams):
        raise ConfigError(f"diagram index {args.index} out of range "
                          f"(0..{len(diagrams) - 1})")
    diag = diagrams[args.index]
    trace = run_decay(theory, diag, schedule=args.schedule, keep_steps=True)
    report = {
        "command": "decay-trace",
        "theory": theory.name,
        "diagram": diag.describe(),
        "schedule": args.schedule,
        "eps_sum": str(trace.eps_sum),
        "bracket": repr(trace.bracket()),
        "singular": [{"key": s.key, "side": s.side, "coeff": s.coeff}
                     for s in trace.singular],
        "jumps": {k: (None if v is None else str(v))
                  for k, v in sorted(trace.jumps.items())},
        "steps": trace.steps,
    }
    _emit(report, args.output)
    return PASS


def cmd_check_conjecture(args) -> int:
    theory = _theory(args.theory)
    target = _parse_charge(theory, args.target)
    rep = conjecture_check(theory, target, max_vertices=args.max_vertices,
                           schedule=args.schedule)
    report = {
        "command": "check-conjecture",
        "theory": rep.theory,
        "target": list(rep.target),
        "ok": rep.ok,
        "ledger": {k: str(v) for k, v in sorted(rep.ledger.items())},
        "free_symbols": rep.free_symbols,
        "constraints": [list(c) for c in rep.constraints],
        "trees": [{"charges": [list(c) for c in tc.charges],
                   "edges": [list(e) for e in tc.edges],
                   "js": repr(tc.js_total),
                   "gmn": repr(tc.resolved_gmn),
                   "framings": len(tc.framings),
                   "ok": tc.ok}
                  for key, tc in sorted(rep.trees.items())],
    }
    _emit(report, args.output)
    return PASS if rep.ok else FAIL


def cmd_ks_oracle(args) -> int:
    theory = _theory(args.theory)
    strong = spectrum_table(theory.name, "strong")
    checks = {}
    inferred = infer_weak_spectrum(theory, strong, args.N)
    ok_rt, deg_rt = verify_wall_identity(theory, strong, inferred, args.N)
    checks["round_trip"] = {"ok": ok_rt, "agree_through": deg_rt}
    ok = ok_rt
    if args.against_table:
        weak = spectrum_table(theory.name, "weak")
        ok_w, deg_w = verify_wall_identity(theory, strong, weak, args.N)
        checks["catalog_weak_table"] = {"ok": ok_w, "agree_through": deg_w}
        ok = ok and ok_w
    report = {
        "command": "ks-oracle",
        "theory": theory.name,
        "N": args.N,
        "ok": ok,
        "checks": checks,
        "inferred_weak": inferred.to_json(),
    }
    _emit(report, args.output)
    return PASS if ok else FAIL


def cmd_numeric(args) -> int:
    spec = tba.QuadratureSpec(nodes=args.nodes, T=args.T, tol=args.tol)
    zeta = complex(args.zeta_re, args.zeta_im)
    if zeta == 0:
        raise ConfigError("zeta = --zeta-re + i --zeta-im must be nonzero")
    checks = {}
    names = args.checks or ["residue_move", "scale_invariance", "decay_fit",
                            "ov_fixed_point"]
    for name in names:
        if name == "residue_move":
            zc = tba.near_wall_context(R=args.R, scale=0.1, side="mid")
            lhs, rhs, err = tba.residue_move_check(
                zc, (1, 0), (0, 1), 1 + 10j, -0.5 + 10j, zeta, spec)
            checks[name] = {"lhs": [float(lhs.real), float(lhs.imag)],
                            "rhs": [float(rhs.real), float(rhs.imag)],
                            "residual": float(err), "ok": bool(err < 1e-8)}
        elif name == "scale_invariance":
            out = {}
            ok = True
            for q in (1, 2):
                rel = tba.scale_invariance_check(tba.OVModel(q=q, R=args.R),
                                                 zeta, spec=spec)
                out[f"q{q}"] = float(rel)
                ok = ok and rel < 1e-6
            checks[name] = {"relative_errors": out, "ok": bool(ok)}
        elif name == "decay_fit":
            zc = tba.near_wall_context(R=args.R, scale=0.1)
            chain = [(1, 0), (0, 1)] * 2
            rows = []
            for n in range(1, len(chain) + 1):
                g = tba.propagator(zc, tba.chain_tree(chain[:n]), zeta, spec)
                rows.append((n, args.R, float(abs(g))))
            slope = tba.decay_slope(zc, chain, zeta, spec)
            if args.csv:
                with open(args.csv, "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["n", "R", "abs_G"])
                    writer.writerows(rows)
            checks[name] = {"slope": float(slope), "ok": bool(slope <= -1.5)}
        elif name == "ov_fixed_point":
            res = tba.ov_fixed_point_residual(tba.OVModel(R=args.R), zeta, spec)
            checks[name] = {"residual": float(res), "ok": bool(res < 10 * spec.tol)}
        else:
            raise ConfigError(f"unknown numeric check {name!r}")
    ok = all(c["ok"] for c in checks.values())
    report = {"command": "numeric", "R": args.R, "nodes": args.nodes,
              "ok": ok, "checks": checks}
    _emit(report, args.output)
    return PASS if ok else FAIL


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wallcross",
                                description=__doc__.splitlines()[0])
    p.add_argument("--config", help="JSON file with default argument values")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--output", help="write the JSON report here")
        return sp

    sp = add("spectrum", cmd_spectrum, help="print a BPS index table")
    sp.add_argument("theory")
    sp.add_argument("region", choices=["strong", "weak"])
    sp.add_argument("--K", type=int, default=DEFAULT_K)
    sp.add_argument("--csv", help="also write the entries as CSV")

    sp = add("js", cmd_js, help="combinatorial weak-side invariant")
    sp.add_argument("theory")
    sp.add_argument("target")
    sp.add_argument("--max-vertices", type=int, default=None)

    sp = add("gmn", cmd_gmn, help="framed diagrams, weights, contributions")
    sp.add_argument("theory")
    sp.add_argument("target")
    sp.add_argument("--max-vertices", type=int, default=None)
    sp.add_argument("--schedule", choices=list(SCHEDULES), default=ROOT_FIRST)

    sp = add("decay-trace", cmd_decay_trace,
             help="step log of the decay process for one diagram")
    sp.add_argument("theory")
    sp.add_argument("target")
    sp.add_argument("--index", type=int, default=0,
                    help="diagram index in enumeration order")
    sp.add_argument("--max-vertices", type=int, default=None)
    sp.add_argument("--schedule", choices=list(SCHEDULES), default=ROOT_FIRST)

    sp = add("check-conjecture", cmd_check_conjecture,
             help="compare both wall-crossing computations tree by tree")
    sp.add_argument("theory")
    sp.add_argument("target")
    sp.add_argument("--max-vertices", type=int, default=None)
    sp.add_argument("--schedule", choices=list(SCHEDULES), default=ROOT_FIRST)

    sp = add("ks-oracle", cmd_ks_oracle,
             help="verify spectra against the ordered-product identity")
    sp.add_argument("theory")
    sp.add_argument("--N", type=int, default=6, help="series truncation degree")
    sp.add_argument("--against-table", action="store_true",
                    help="also compare with the catalog weak table")

    sp = add("numeric", cmd_numeric, help="floating-point identity checks")
    sp.add_argument("checks", nargs="*",
                    help="subset of: residue_move scale_invariance "
                         "decay_fit ov_fixed_point (default all)")
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
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return CONFIG_ERROR
    except (ValueError, UnknownSpectrumError, FactorizationError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
