"""Outside-in recorder: per-layer spans and counters without changing the
program.

``Recorder.install`` replaces chosen public functions of the ``wallcross``
modules by wrappers and rebinds every alias: a function imported by name
into another module (``decay`` imports ``js_tree_values``,
``enumerate_diagrams``, ``weight_W``, ``solve_linear``, ``free_unknowns``
and ``canon_unoriented``; ``js`` and ``gmn`` import
``enumerate_labelled_trees``) is replaced there too, or calls made through
that name would go unrecorded.  ``uninstall`` restores every original.

A span records calls, inclusive time (outermost call only, so recursion is
not counted twice) and self time (its duration minus that of the spans it
directly encloses).  Hot functions get a counter instead of a span.
"""
from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter


def _u_hook(rec, args, out):
    rec.counters["js.u_nonzero"] += out != 0


def _trees_hook(rec, args, out):
    rec.counters["trees.labelled_trees"] += len(out)
    if rec.open["gmn.enumerate_diagrams"]:
        rec.counters["gmn.labelled_trees"] += len(out)


def _run_decay_hook(rec, args, out):
    rec.counters["decay.singular"] += len(out.singular)
    rec.counters["decay.jumps"] += len(out.jumps)


def _solve_hook(rec, args, out):
    rec.counters["symbolic.equations"] += len(args[0])
    rec.counters["symbolic.unknowns"] += len(args[1])


def _series_mul_hook(rec, args, out):
    rec.counters["ks.mul_term_pairs"] += len(args[1]) * len(args[2])


def _bytes_hook(rec, args, out):
    rec.counters["tba.kernel_bytes"] += int(getattr(out, "nbytes", 0))


# (module, attribute, kind, hook).  kind "span" times the call; "count" only
# counts it.  A hook(recorder, args, result) adds layer counters.
WRAPPED = [
    ("wallcross.lattice", "Theory.z", "count", None),
    ("wallcross.lattice", "Theory.pair", "count", None),
    ("wallcross.spectrum", "spectrum_table", "span", None),
    ("wallcross.trees", "enumerate_labelled_trees", "span", _trees_hook),
    ("wallcross.trees", "canon_unoriented", "span", None),
    ("wallcross.trees", "canon_oriented", "span", None),
    ("wallcross.js", "decompositions", "span",
     lambda rec, a, out: rec.counters.update({"js.decompositions": len(out)})),
    ("wallcross.js", "u_symbol", "span", _u_hook),
    ("wallcross.js", "s_symbol", "span", None),
    ("wallcross.js", "js_tree_values", "span", None),
    ("wallcross.js", "js_wallcross", "span", None),
    ("wallcross.gmn", "enumerate_diagrams", "span",
     lambda rec, a, out: rec.counters.update({"gmn.diagrams": len(out)})),
    ("wallcross.gmn", "weight_W", "span", None),
    ("wallcross.decay", "run_decay", "span", _run_decay_hook),
    ("wallcross.decay", "conjecture_check", "span", None),
    ("wallcross.symbolic", "solve_linear", "span", _solve_hook),
    ("wallcross.symbolic", "free_unknowns", "span",
     lambda rec, a, out: rec.counters.update({"symbolic.free_symbols": len(out)})),
    ("wallcross.ks", "infer_weak_spectrum", "span", None),
    ("wallcross.ks", "verify_wall_identity", "span", None),
    ("wallcross.ks", "spectrum_auto", "span", None),
    ("wallcross.ks", "compose", "span", None),
    ("wallcross.ks", "series_mul", "count", _series_mul_hook),
    ("wallcross.tba", "residue_move_check", "span", None),
    ("wallcross.tba", "scale_invariance_check", "span", None),
    ("wallcross.tba", "decay_slope", "span", None),
    ("wallcross.tba", "ov_fixed_point_residual", "span", None),
    ("wallcross.tba", "propagator", "span", None),
    ("wallcross.tba", "rho", "count", _bytes_hook),
    ("wallcross.tba", "ZContext.x_sf", "count", _bytes_hook),
]


def span_name(module: str, attr: str) -> str:
    """"wallcross.js", "u_symbol" -> "js.u_symbol"."""
    return module.split(".", 1)[1] + "." + attr.rsplit(".", 1)[-1]


class Recorder:
    def __init__(self):
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.open: Counter = Counter()      # nesting depth per span name
        self._stack: list[list] = []        # [name, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------
    def _span(self, name, fn, hook):
        rec = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            rec.calls[name] += 1
            rec.open[name] += 1
            frame = [name, 0.0]
            rec._stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                rec._stack.pop()
                rec.open[name] -= 1
                if not rec.open[name]:
                    rec.incl[name] += dt
                rec.self_s[name] += dt - frame[1]
                if rec._stack:
                    rec._stack[-1][1] += dt
            if hook is not None:
                hook(rec, args, out)
            return out
        return wrapper

    def _count(self, name, fn, hook):
        rec = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            rec.calls[name] += 1
            out = fn(*args, **kwargs)
            if hook is not None:
                hook(rec, args, out)
            return out
        return wrapper

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder already installed")
        for module in dict.fromkeys(m for m, *_ in WRAPPED):
            importlib.import_module(module)
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "wallcross" or n.startswith("wallcross.")]
        for module, attr, kind, hook in WRAPPED:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner, attr = getattr(owner, cls_name), meth
            name = span_name(module, attr)
            original = getattr(owner, attr, None)
            if original is None:
                # the layer no longer has this function; its metrics stay 0
                # and the run reports them as never fired
                continue
            make = self._span if kind == "span" else self._count
            wrapper = make(name, original, hook)
            self._patch(owner, attr, original, wrapper)
            if isinstance(owner, type):
                continue
            # rebind every alias made by `from .module import name`
            for mod in package:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, alias, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        return {"calls": self.calls, "incl": self.incl, "self_s": self.self_s,
                "counters": self.counters}

    def add(self, totals: dict) -> None:
        """Add the totals of another recorder, e.g. of another process."""
        for key, values in totals.items():
            store = getattr(self, key)
            for name, v in values.items():
                store[name] += v


# ---------------------------------------------------------------------------
# per-layer metrics

EXACT = ("conjecture", "invariant")
TABLES = ("conjecture", "invariant", "oracle")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit, better, workloads on which it must be non-zero, value).
# value(rec, n) reads the totals of n traced processes, each of which set
# up and ran one pass; counts and times are per process.  The comment
# before each group names the end-to-end metric the group should move, and
# on which workload.
LAYER_METRICS = [
    # wall_s on invariant and conjecture; a compiled theory cuts z_calls
    ("lattice.z_calls", "count", "lower", EXACT,
     lambda r, n: r.calls["lattice.z"] / n),
    ("lattice.pair_calls", "count", "lower", EXACT,
     lambda r, n: r.calls["lattice.pair"] / n),
    # setup_s on every workload that builds tables: a traced process records
    # its set-up as well as its pass
    ("spectrum.table_s", "s", "lower", TABLES,
     lambda r, n: r.incl["spectrum.spectrum_table"] / n),
    # wall_s on invariant, and on conjecture through gmn
    ("trees.labelled_calls", "count", "lower", EXACT,
     lambda r, n: r.calls["trees.enumerate_labelled_trees"] / n),
    ("trees.labelled_trees", "count", "lower", EXACT,
     lambda r, n: r.counters["trees.labelled_trees"] / n),
    ("trees.labelled_s", "s", "lower", EXACT,
     lambda r, n: r.incl["trees.enumerate_labelled_trees"] / n),
    # wall_s on conjecture
    ("trees.canon_calls", "count", "lower", ("conjecture",),
     lambda r, n: (r.calls["trees.canon_unoriented"]
                   + r.calls["trees.canon_oriented"]) / n),
    ("trees.canon_s", "s", "lower", ("conjecture",),
     lambda r, n: (r.incl["trees.canon_unoriented"]
                   + r.incl["trees.canon_oriented"]) / n),
    # wall_s on invariant and conjecture
    ("js.decompositions", "count", "lower", EXACT,
     lambda r, n: r.counters["js.decompositions"] / n),
    ("js.decompositions_s", "s", "lower", EXACT,
     lambda r, n: r.incl["js.decompositions"] / n),
    ("js.u_calls", "count", "lower", EXACT,
     lambda r, n: r.calls["js.u_symbol"] / n),
    ("js.u_s", "s", "lower", EXACT,
     lambda r, n: r.incl["js.u_symbol"] / n),
    ("js.u_nonzero_frac", "ratio", "higher", EXACT,
     lambda r, n: _ratio(r.counters["js.u_nonzero"], r.calls["js.u_symbol"])),
    ("js.s_calls", "count", "lower", EXACT,
     lambda r, n: r.calls["js.s_symbol"] / n),
    ("js.s_s", "s", "lower", EXACT,
     lambda r, n: r.incl["js.s_symbol"] / n),
    # wall_s on invariant only
    ("js.wallcross_self_s", "s", "lower", ("invariant",),
     lambda r, n: r.self_s["js.js_wallcross"] / n),
    # wall_s on conjecture only
    ("js.tree_values_self_s", "s", "lower", ("conjecture",),
     lambda r, n: r.self_s["js.js_tree_values"] / n),
    # wall_s on conjecture
    ("gmn.enumerate_s", "s", "lower", ("conjecture",),
     lambda r, n: r.incl["gmn.enumerate_diagrams"] / n),
    ("gmn.diagrams", "count", "lower", ("conjecture",),
     lambda r, n: r.counters["gmn.diagrams"] / n),
    ("gmn.diagrams_per_tree", "ratio", "higher", ("conjecture",),
     lambda r, n: _ratio(r.counters["gmn.diagrams"], r.counters["gmn.labelled_trees"])),
    ("gmn.weight_s", "s", "lower", ("conjecture",),
     lambda r, n: r.incl["gmn.weight_W"] / n),
    ("decay.run_s", "s", "lower", ("conjecture",),
     lambda r, n: r.incl["decay.run_decay"] / n),
    ("decay.runs", "count", "lower", ("conjecture",),
     lambda r, n: r.calls["decay.run_decay"] / n),
    ("decay.singular", "count", "lower", ("conjecture",),
     lambda r, n: r.counters["decay.singular"] / n),
    ("decay.jumps", "count", "lower", ("conjecture",),
     lambda r, n: r.counters["decay.jumps"] / n),
    ("decay.conjecture_self_s", "s", "lower", ("conjecture",),
     lambda r, n: r.self_s["decay.conjecture_check"] / n),
    ("symbolic.solve_s", "s", "lower", ("conjecture",),
     lambda r, n: r.incl["symbolic.solve_linear"] / n),
    ("symbolic.free_s", "s", "lower", ("conjecture",),
     lambda r, n: r.incl["symbolic.free_unknowns"] / n),
    ("symbolic.unknowns", "count", "lower", ("conjecture",),
     lambda r, n: r.counters["symbolic.unknowns"] / n),
    ("symbolic.equations", "count", "lower", ("conjecture",),
     lambda r, n: r.counters["symbolic.equations"] / n),
    ("symbolic.free_symbols", "count", "lower", ("conjecture",),
     lambda r, n: r.counters["symbolic.free_symbols"] / n),
    # wall_s and peak_rss_mb on oracle
    ("ks.infer_s", "s", "lower", ("oracle",),
     lambda r, n: r.incl["ks.infer_weak_spectrum"] / n),
    ("ks.verify_s", "s", "lower", ("oracle",),
     lambda r, n: r.incl["ks.verify_wall_identity"] / n),
    ("ks.spectrum_auto_calls", "count", "lower", ("oracle",),
     lambda r, n: r.calls["ks.spectrum_auto"] / n),
    ("ks.compose_s", "s", "lower", ("oracle",),
     lambda r, n: r.incl["ks.compose"] / n),
    ("ks.series_mul_calls", "count", "lower", ("oracle",),
     lambda r, n: r.calls["ks.series_mul"] / n),
    ("ks.mul_term_pairs", "count", "lower", ("oracle",),
     lambda r, n: r.counters["ks.mul_term_pairs"] / n),
    # wall_s on numeric
    ("tba.residue_move_s", "s", "lower", ("numeric",),
     lambda r, n: r.incl["tba.residue_move_check"] / n),
    ("tba.scale_invariance_s", "s", "lower", ("numeric",),
     lambda r, n: r.incl["tba.scale_invariance_check"] / n),
    ("tba.decay_fit_s", "s", "lower", ("numeric",),
     lambda r, n: r.incl["tba.decay_slope"] / n),
    ("tba.fixed_point_s", "s", "lower", ("numeric",),
     lambda r, n: r.incl["tba.ov_fixed_point_residual"] / n),
    ("tba.propagator_calls", "count", "lower", ("numeric",),
     lambda r, n: r.calls["tba.propagator"] / n),
    # bytes of kernel output arrays, computed from array sizes (not measured
    # memory traffic)
    ("tba.kernel_bytes", "B-computed", "lower", ("numeric",),
     lambda r, n: r.counters["tba.kernel_bytes"] / n),
]
