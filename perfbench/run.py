"""Benchmark of the wallcross package.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from ``workloads.py`` in a closed loop with one client:
one task at a time.  Each pass is a fresh process (``worker.py``) that sets
up the workload and runs its fixed task list once, in an order drawn from
the seed, as each ``wallcross`` command runs in a process of its own.
Passes repeat until S seconds have gone by.  Every output is checked
against its reference.

--trace 0 reports the end-to-end metrics:
  setup_s       median set-up time of the fresh processes (importing
                wallcross and building the workload's theories and tables);
                at least 11 of them, topped up with set-up-only processes
  wall_s        median pass time
  peak_rss_mb   median peak resident set of a pass's process
  correct_frac  tasks that returned their reference value / tasks attempted
                (1 - fail_frac; a task that raises or returns a wrong value
                fails)

--trace 1 spends half the time on untraced passes and half on passes under
the outside-in recorder of ``tracer.py``, and reports the per-layer metrics
with the run-level ones (``process.*``, ``trace.overhead_frac``).  It also
checks that traced outputs equal untraced ones and that every layer metric
of the workload is non-zero.

Times are seconds scaled to a nominal machine speed by a reference
computation timed while the worker runs, never during library code
(``speed.py``); the measured seconds are printed next to them, kept in the
record line and, in a traced run, reported as ``process.wall_measured_s``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it records the
seed, the machine, the library versions and every measured time.  The exit
status is 1 when an output differs from its reference, and 2 without a
result when a worker process fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

import speed
import workloads
from worker import OK, RAISED, WRONG

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 11
WORKER_TIMEOUT = 150.0


@dataclass
class Run:
    """One worker process and the factors that scale its times to nominal
    speed (``speed.py``)."""
    out: dict                    # the worker's JSON
    setup_scale: float
    scale: float = 0.0           # of the pass; 0 in a set-up-only process

    @property
    def setup(self) -> float:
        t0, t1 = self.out["setup"]
        return t1 - t0

    @property
    def wall(self) -> float:
        return self.out["pass_s"]

    @property
    def scaled(self) -> float:
        return self.wall * self.scale

    @property
    def outcomes(self) -> dict:
        return self.out.get("outcomes", {})

    def failed(self) -> int:
        return sum(kind != OK for kind, _ in self.outcomes.values())


def run_worker(workload: str, mode: str, order_seed: int) -> Run:
    status, stdout, stderr, samples = speed.run_sampled(
        [sys.executable, str(WORKER), workload, mode, str(order_seed)],
        WORKER_TIMEOUT, workloads.ROOT)
    if status != 0:
        sys.stderr.write(stderr)
        print(f"perfbench: worker {mode} exited with status {status}",
              file=sys.stderr)
        sys.exit(2)
    out = json.loads(stdout)
    # set-up is import and Fraction work in every workload
    run = Run(out, speed.scale(speed.FRACTION, samples, *out["setup"]))
    if "pass" in out:
        reference = workloads.IN_WORKER_REFERENCE.get(workload)
        if reference is not None:
            run.scale = speed.scale(reference, out["samples"], *out["pass"])
        else:
            run.scale = speed.scale(speed.FRACTION, samples, *out["pass"])
    return run


def run_passes(workload: str, mode: str, rng: random.Random,
               seconds: float) -> list[Run]:
    """At least one pass; another while it would end nearer to `seconds`
    than stopping now would."""
    runs: list[Run] = []
    start = perf_counter()
    while not runs or perf_counter() - start + runs[-1].wall / 2 < seconds:
        runs.append(run_worker(workload, mode, rng.getrandbits(32)))
    return runs


def median_scaled(runs: list[Run]) -> float:
    return statistics.median(r.scaled for r in runs)


def environment(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def outcomes(passes: list[Run], kind: str) -> list[str]:
    return sorted({f"{name}: {msg}" for p in passes
                   for name, (k, msg) in p.outcomes.items() if k == kind})


def timed_run(args) -> tuple[dict, list[Run], list[str], list[Run]]:
    passes = run_passes(args.workload, "pass", random.Random(args.seed),
                        args.seconds)
    setups = passes + [run_worker(args.workload, "setup", 0)
                       for _ in range(SETUP_SAMPLES - len(passes))]
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.failed() for p in passes)
    n_tasks = len(passes[0].outcomes)
    metrics = {
        "setup_s": (statistics.median(r.setup * r.setup_scale for r in setups),
                    "s", f"median of {len(setups)} fresh processes; measured "
                    f"{statistics.median(r.setup for r in setups):.4g} s"),
        "wall_s": (median_scaled(passes), "s",
                   f"median of {len(passes)} passes of {n_tasks} tasks; "
                   f"measured {statistics.median(p.wall for p in passes):.4g} s"),
        "peak_rss_mb": (statistics.median(p.out["rss_mb"] for p in passes), "MB",
                        "median ru_maxrss of a pass's process"),
        "correct_frac": ((attempted - failed) / attempted, "ratio",
                         f"fail_frac {failed / attempted:.4g}: "
                         f"{failed} of {attempted} tasks failed"),
    }
    return metrics, passes, [], setups


def traced_run(args) -> tuple[dict, list[Run], list[str], list[Run]]:
    from tracer import LAYER_METRICS, Recorder

    rng = random.Random(args.seed)
    untraced = run_passes(args.workload, "pass", rng, args.seconds / 2)
    traced = run_passes(args.workload, "trace", rng, args.seconds / 2)
    totals = Recorder()
    for p in traced:
        totals.add(p.out["trace"])

    problems = []
    want = untraced[0].outcomes
    for p in untraced[1:] + traced:
        for name, out in p.outcomes.items():
            if out != want[name]:
                problems.append(f"output of {name} changed between passes: "
                                f"{want[name]!r} -> {out!r}")

    n = len(traced)
    metrics = {}
    for name, unit, _better, homes, value in LAYER_METRICS:
        v = value(totals, n)
        metrics[name] = (v, unit, f"per process, {n} traced processes")
        if args.workload in homes and not v:
            problems.append(f"{name} never fired on {args.workload}")
    base = median_scaled(untraced)
    k = len(untraced)
    metrics["process.cpu_s"] = (
        statistics.median(p.out["cpu_s"] for p in untraced), "s",
        f"CPU seconds per untraced pass, {k} passes")
    metrics["process.wall_measured_s"] = (
        statistics.median(p.wall for p in untraced), "s",
        f"measured seconds per untraced pass, {k} passes; scaled {base:.4g} s")
    metrics["process.speed_scale"] = (
        statistics.median(p.scale for p in untraced), "ratio",
        "scaled / measured seconds of an untraced pass")
    metrics["trace.overhead_frac"] = (
        (median_scaled(traced) - base) / base, "ratio",
        "(traced - untraced wall_s) / untraced")
    return metrics, untraced + traced, problems, []


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json promises for this mode."""
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workloads.use_checkout_source()
    env = environment(args)

    run = traced_run if args.trace else timed_run
    metrics, passes, problems, setups = run(args)
    problems += outcomes(passes, WRONG)
    produced = {name: unit for name, (_v, unit, _n) in metrics.items()}
    if produced != declared_metrics(args.trace):
        problems.append("metrics differ from those declared in BENCHMARK.json")
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.failed() for p in passes)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {attempted} tasks, {failed} failed")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:26s} {value:14.6g} {unit:10s} {note}")
    for line in outcomes(passes, RAISED):
        print(f"  raised  {line}")
    for line in problems:
        print(f"  problem {line}")
    env["setup_s"] = [r.setup for r in setups]
    env["setup_scale"] = [r.setup_scale for r in setups]
    env["pass_s"] = [p.wall for p in passes]
    env["pass_scale"] = [p.scale for p in passes]
    env["pass_cpu_s"] = [p.out["cpu_s"] for p in passes]
    env["task_median_s"] = {name: statistics.median(p.out["task_s"][name]
                                                    for p in passes)
                            for name in sorted(passes[0].out["task_s"])}
    print("record " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
