"""The benchmark's workloads still run against the library.

perfbench/workloads.py calls library names (for example
``Value.sign_unit`` and ``Theory.sigma_trivial``) that no library code
needs.  A benchmark run counts a task that raises as failed, so a broken
name would only lower its correct fraction; this test makes it fail the
test suite instead.  Likewise a traced run reports a per-layer metric
that never fires on its home workload; the traced worker test makes a
library change that silences one fail here.
"""
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the one conjecture task that fails on the current code
FAILING_CONJECTURE_TASKS = {"nf1:2,1,-1"}
WORKER_TIMEOUT_S = 60

# counts of one traced conjecture pass that no speed-up may change: what
# the check computes, not how
CONJECTURE_COUNTS = {
    "gmn.diagrams": 132, "decay.runs": 132, "decay.singular": 173,
    "decay.jumps": 147, "symbolic.equations": 62, "symbolic.unknowns": 81,
    "symbolic.free_symbols": 36, "js.u_calls": 472, "js.s_calls": 798,
    "trees.canon_calls": 410}
# the same for one traced invariant pass: the decompositions summed, the
# symbols and pairings they need, and the supported trees of each
# multiset's first ordering, whatever walks them (only that ordering needs
# its parts paired and its trees listed)
INVARIANT_COUNTS = {
    "js.decompositions": 533, "js.u_calls": 533, "js.s_calls": 703,
    "lattice.pair_calls": 57, "trees.labelled_calls": 43,
    "trees.labelled_trees": 791}


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        # workloads.py imports its sibling module speed.py
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


def test_every_workload_builds_its_tasks(workloads):
    for name, build in workloads.WORKLOADS.items():
        tasks = build()
        assert tasks, name
        assert len({t.name for t in tasks}) == len(tasks), name


def test_conjecture_tasks_pass_except_the_known_failure(workloads):
    failed = set()
    for task in workloads.conjecture():
        try:
            task.run()
        except (workloads.Mismatch, ValueError):
            failed.add(task.name)
    assert failed == FAILING_CONJECTURE_TASKS


@pytest.mark.parametrize("name", ["invariant", "oracle", "numeric"])
def test_tasks_pass_in_two_orders(workloads, name):
    # a benchmark pass runs its tasks in an order drawn from its seed, and
    # run.py exits 1 when an output differs from its reference: what one
    # task leaves behind must not change another's output in either order
    tasks = workloads.WORKLOADS[name]()
    outputs = []
    for seed in (1, 2):
        order = list(tasks)
        random.Random(seed).shuffle(order)
        outputs.append({task.name: repr(task.run()) for task in order})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("seed", [1, 2])
def test_worker_passes_match_their_references(workloads, seed):
    # what the benchmark itself runs: a fresh worker process per pass, with
    # its own task order and its own string hashing; run.py exits 1 when
    # any task's output differs from its reference
    raised = set()
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "worker.py"), name, "pass", str(seed)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
            env={**os.environ, "PYTHONHASHSEED": str(seed)})
        assert proc.returncode == 0, proc.stderr
        outcomes = json.loads(proc.stdout)["outcomes"]
        assert outcomes.keys() == {t.name for t in workloads.WORKLOADS[name]()}
        assert not {t for t, (kind, _) in outcomes.items() if kind == "wrong"}, name
        raised |= {t for t, (kind, _) in outcomes.items() if kind == "raised"}
    assert raised == FAILING_CONJECTURE_TASKS


def _worker(name, mode, seed):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), name, mode, str(seed)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        env={**os.environ, "PYTHONHASHSEED": str(seed)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_worker_passes_fire_every_home_metric(workloads):
    # a traced benchmark run fails when a per-layer metric never fires on
    # a workload it names as home, or when a traced output differs from
    # an untraced one: the same worker passes are checked here
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name in workloads.WORKLOADS:
        traced = _worker(name, "trace", 3)
        assert traced["outcomes"] == _worker(name, "pass", 3)["outcomes"], name
        rec = tracer.Recorder()
        rec.add(traced["trace"])
        values = {metric: value(rec, 1)
                  for metric, _, _, homes, value in tracer.LAYER_METRICS
                  if name in homes}
        assert values, name
        assert [m for m, v in values.items() if not v] == [], name
        if name == "conjecture":
            assert {m: values[m] for m in CONJECTURE_COUNTS} == CONJECTURE_COUNTS
        if name == "invariant":
            assert {m: values[m] for m in INVARIANT_COUNTS} == INVARIANT_COUNTS
