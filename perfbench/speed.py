"""Scaling measured times to a nominal machine speed.

On a shared virtual machine the speed of the same code drifts by up to
1.7x within seconds, with no steal time, so neither wall nor CPU seconds
repeat from run to run.  The benchmark therefore times a short reference
computation along with each measurement and reports

    scaled seconds = measured seconds * nominal / reference seconds

that is, seconds on a machine on which the reference takes its nominal
time.  References are timed in the CPU time of their own thread, so a
reference that loses its CPU to another thread is not counted slower.  The
reference is benchmark code, so a change to wallcross moves only the
measured seconds.  It is never timed while library code of the measured
process is running:

- FRACTION (Fraction arithmetic and dict updates, the work of the exact
  layers and of set-up) runs in the benchmark's own process while the
  worker process runs the library, every INTERVAL seconds, on the CPU the
  worker last ran on: the two vCPUs do not always drift together.  It
  shares no heap with the library.  A Fraction reference timed in the
  worker between tasks, where the library's heap slows it, tracked exact
  passes far worse (per-pass coefficient of variation of scaled times 0.05
  to 0.09, against 0.01 to 0.02).
- LAPACK (a small eigensolve; each quadrature rebuilds its Gauss-Legendre
  nodes with one) is timed in the worker between two tasks of a numeric
  pass, after the library's work has returned.  Numeric passes keep both
  CPUs busy (numpy's BLAS threads), and a reference timed in the
  benchmark's process left the per-pass spread of numeric times where it
  was (coefficient of variation 0.08 to 0.11); timed in the worker, it
  brought it to 0.06.
"""
from __future__ import annotations

import os
import statistics
import subprocess
from fractions import Fraction
from functools import cache
from time import perf_counter, thread_time

INTERVAL = 0.05   # seconds between two timings of the reference


def fraction_work() -> None:
    acc, counts = Fraction(0), {}
    for i in range(400):
        key = (i % 13, i % 7)
        counts[key] = counts.get(key, 0) + 1
        acc += Fraction(i % 5, 3)


@cache
def _tridiagonal():
    import numpy as np
    n = 120
    m = np.diag(np.arange(1.0, n + 1))
    off = np.full(n - 1, 0.5)
    return np, m + np.diag(off, 1) + np.diag(off, -1)


def lapack_work() -> None:
    np, m = _tridiagonal()
    np.linalg.eigvalsh(m)


# (work, its nominal CPU seconds): about 1 ms each on the machine the
# benchmark was built on
FRACTION = (fraction_work, 0.0008)
LAPACK = (lapack_work, 0.0008)
BETWEEN_TASKS = 5   # timings of an in-worker reference before each task


def time_work(work) -> tuple[float, float]:
    """(when it started, CPU seconds it took) for one run of `work`."""
    t0, c0 = perf_counter(), thread_time()
    work()
    return t0, thread_time() - c0


def _cpu_of(pid: int) -> int:
    """The CPU on which process `pid` last ran (field 39 of its stat)."""
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def run_sampled(cmd: list[str], timeout: float, cwd) -> tuple:
    """Run `cmd` to its end while timing FRACTION every INTERVAL seconds on
    the CPU the child last ran on.  Returns (exit status, stdout, stderr,
    samples).  The child is killed after `timeout` seconds."""
    work = FRACTION[0]
    work()                                       # warm-up, untimed
    samples = []
    deadline = perf_counter() + timeout
    cpus = os.sched_getaffinity(0)
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=cwd) as proc:
        try:
            while True:
                try:
                    os.sched_setaffinity(0, {_cpu_of(proc.pid)})
                except (OSError, ValueError, IndexError):
                    pass                         # sample where we are
                samples.append(time_work(work))
                try:
                    out, err = proc.communicate(timeout=INTERVAL)
                    break
                except subprocess.TimeoutExpired:
                    if perf_counter() > deadline:
                        proc.kill()
                        out, err = proc.communicate()
                        err += f"\nkilled after {timeout} s"
                        break
        finally:
            os.sched_setaffinity(0, cpus)
    return proc.returncode, out, err, samples


def scale(reference, samples: list[tuple[float, float]],
          start: float, end: float) -> float:
    """Factor turning seconds measured from `start` to `end` (perf_counter
    times, which are system-wide) into seconds at nominal speed.  Uses the
    samples taken then, widened by one interval on each side so that a
    short span has some.  The harmonic mean weights the samples as the work
    they stand for."""
    near = [d for t, d in samples if start - INTERVAL <= t <= end + INTERVAL]
    return reference[1] / statistics.harmonic_mean(near or [d for _, d in samples])
