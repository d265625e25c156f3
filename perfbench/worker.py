"""One fresh process of a benchmark run.

Usage: python3 perfbench/worker.py WORKLOAD MODE ORDER_SEED

MODE is ``setup`` (set-up only), ``pass`` (set-up, then one pass over the
workload's tasks in an order drawn from ORDER_SEED) or ``trace`` (the same
pass under the outside-in recorder of ``tracer.py``, installed before
set-up so that the tables set-up builds are recorded too).  For a workload
in ``workloads.IN_WORKER_REFERENCE`` the reference of ``speed.py`` is timed
before each task and after the last, outside the task times.

Set-up is importing ``wallcross`` from the checkout's ``src`` and building
the workload's theories and tables.  Each pass runs in a process of its
own, as each ``wallcross`` command does, so nothing a pass leaves in memory
is reused by the next one.

Prints one JSON object: the perf_counter times at which set-up and the
pass started and ended (system-wide, so the parent can match them with its
own clock), the summed task seconds, the CPU seconds of the pass, each
task's outcome and seconds, the in-worker reference timings, the peak
resident set and, when traced, the recorder's totals.
"""
import json
import random
import resource
import sys
from time import perf_counter, process_time

import speed
import workloads
from workloads import Mismatch

OK, WRONG, RAISED = "ok", "wrong", "raised"


def run_pass(tasks, order_seed: int, reference) -> dict:
    order = list(tasks)
    random.Random(order_seed).shuffle(order)
    outcomes, task_s, samples, cpu_s = {}, {}, [], 0.0

    def time_reference():
        if reference is not None:
            samples.extend(speed.time_work(reference[0])
                           for _ in range(speed.BETWEEN_TASKS))

    if reference is not None:
        reference[0]()                           # warm-up, untimed
    t0 = perf_counter()
    for task in order:
        time_reference()
        c0, s0 = process_time(), perf_counter()
        try:
            outcomes[task.name] = (OK, repr(task.run()))
        except Mismatch as e:
            outcomes[task.name] = (WRONG, str(e))
        except Exception as e:  # a library error fails the task, not the run
            outcomes[task.name] = (RAISED, repr(e))
        task_s[task.name] = perf_counter() - s0
        cpu_s += process_time() - c0
    time_reference()
    t1 = perf_counter()
    return {"pass": (t0, t1), "pass_s": sum(task_s.values()),
            "cpu_s": cpu_s, "outcomes": outcomes,
            "task_s": task_s, "samples": samples}


def main(workload: str, mode: str, order_seed: int) -> dict:
    workloads.use_checkout_source()
    rec = None
    t0 = perf_counter()
    if mode == "trace":
        from tracer import Recorder
        rec = Recorder()
        rec.install()
    tasks = workloads.WORKLOADS[workload]()
    t1 = perf_counter()
    workloads.check_library_origin()
    result = {"setup": (t0, t1)}
    if mode != "setup":
        result.update(run_pass(tasks, order_seed,
                               workloads.IN_WORKER_REFERENCE.get(workload)))
    if rec is not None:
        rec.uninstall()
        result["trace"] = rec.totals()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


if __name__ == "__main__":
    workload, mode, order_seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    if workload not in workloads.WORKLOADS or mode not in ("setup", "pass", "trace"):
        sys.exit(__doc__.split("\n\n")[1])
    print(json.dumps(main(workload, mode, order_seed)))
