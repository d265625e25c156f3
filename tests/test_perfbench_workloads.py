"""The benchmark's workloads still run against the library.

perfbench/workloads.py calls library names (for example
``Value.sign_unit`` and ``Theory.sigma_trivial``) that no library code
needs.  A benchmark run counts a task that raises as failed, so a broken
name would only lower its correct fraction; this test makes it fail the
test suite instead.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the one conjecture task that fails on the current code
FAILING_CONJECTURE_TASKS = {"nf1:2,1,-1"}


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
