"""The process under test: one closed-loop caller running one workload.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It imports the package, generates the first cycle of inputs and
runs one task of each kind as warm-up, then prints ``READY``.  It goes on
only if the next line on stdin is ``GO``; a set-up probe is simply closed.

Untraced, it runs tasks back to back until ``--seconds`` have passed and at
least one seeded task has run after the prologue.
Traced, it installs the span wrappers and runs exactly the prologue and the
first cycle, so the per-layer counts of a seed repeat from run to run.  Each
traced task also runs once untraced, right before or after it in turn, so
the tracing overhead is measured in the same host state; only the traced
run's outcome counts.  Then, with the wrappers off and untimed, it runs the
workload's probe set and reports how many of those tasks failed; probes are
not tasks of the run.
It times the workload's calibration kernel (best of three, outside every
task) when it starts and whenever a quarter second of task time has gone by;
each task is given the mean of the two kernel times around it, so
``run.py`` can scale the task's time by the host's speed at that moment.
Either way it prints one JSON line with the task latencies, the calibration
time that belongs to each task, failures by type and the run's metadata.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import glob
import json
import math
import os
import resource
import shutil
import sys
import tempfile
from time import perf_counter

#: task time between two calibrations, and kernel repeats per calibration
CAL_EVERY_S = 0.25
CAL_REPEATS = 3


def _blas_info() -> dict:
    """BLAS library of numpy and its thread count, read without changing it."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)  # already loaded by numpy: the same handle
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["threads"] = int(getattr(lib, symbol)())
                return info
    return info


def _calibrate(kernel) -> float:
    """Best of a few timings of the calibration kernel, in seconds."""
    best = math.inf
    for _ in range(CAL_REPEATS):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


def _run_pair(tracer, task, plain_first: bool):
    """The traced run of a task, and the time of an untraced run of it made
    right before or after."""
    runs = {}
    for traced in ((False, True) if plain_first else (True, False)):
        tracer.enable(traced)
        runs[traced] = _run_task(task)
    tracer.enable(True)
    return runs[True], runs[False][0]


def _run_task(task):
    """Time the package calls of one task, then check their outputs."""
    t0 = perf_counter()
    try:
        out = task.run()
    except Exception as exc:  # any exception is a failed task, never fatal
        return perf_counter() - t0, None, type(exc).__name__, False
    elapsed = perf_counter() - t0
    failure, wrong = task.check(out)
    return elapsed, out, failure, wrong


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args()

    scratch = tempfile.mkdtemp(prefix="worker-", dir=args.tmp)
    try:
        return _serve(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _serve(args, scratch: str) -> int:
    import workloads  # imports bic_lab

    stream = workloads.TaskStream(args.workload, args.seed, scratch)
    seen = set()
    for task in stream.prologue + stream.first_cycle:
        if task.kind not in seen:
            seen.add(task.kind)
            _run_task(task)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 0

    latencies = []
    cal_s = []
    pending_s = 0.0
    last_cal = _calibrate(stream.kernel)
    failures = collections.Counter()
    failed_tasks = []
    untraced_s = []
    wrong = 0
    byte_identical = reproduced = 0
    start = perf_counter()
    for i, task in enumerate(stream if tracer is None else stream.prologue + stream.first_cycle):
        if (tracer is None and i > len(stream.prologue)
                and perf_counter() - start >= args.seconds):
            break
        if tracer is None:
            elapsed, out, failure, bad = _run_task(task)
        else:
            tracer.task = i
            (elapsed, out, failure, bad), plain_s = _run_pair(tracer, task, i % 2 == 0)
            untraced_s.append(plain_s)
        latencies.append(elapsed)
        pending_s += elapsed
        if pending_s >= CAL_EVERY_S:
            cal = _calibrate(stream.kernel)
            cal_s += [0.5 * (last_cal + cal)] * (len(latencies) - len(cal_s))
            last_cal, pending_s = cal, 0.0
        if failure is not None:
            failures[failure] += 1
            failed_tasks.append(i)
        wrong += bad
        if task.kind == "reproduce" and out is not None:
            reproduced += 1
            byte_identical += task.byte_identical(out)
    if len(cal_s) < len(latencies):
        cal_s += [0.5 * (last_cal + _calibrate(stream.kernel))] * (len(latencies) - len(cal_s))

    import numpy
    import scipy

    record = {
        "latencies_s": latencies,
        "cal_s": cal_s,
        "cal_kernel": stream.kernel.__name__,
        "prologue_tasks": len(stream.prologue),
        "failures": dict(sorted(failures.items())),
        "failed_tasks": failed_tasks,
        "wrong": wrong,
        "reproduce_runs": reproduced,
        "reproduce_byte_identical": byte_identical,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "bic_lab_threads_env": os.environ.get("BIC_LAB_THREADS"),
    }
    if tracer is not None:
        record["layers"] = {k: list(v) for k, v in
                            tracer.layer_metrics(sum(latencies)).items()}
        record["layers"]["trace.overhead_frac"] = [sum(latencies) / sum(untraced_s) - 1.0, "1"]
        tracer.enable(False)
        probe_failures = collections.Counter()
        probes = stream.probes()
        for task in probes:
            failure = _run_task(task)[2]
            if failure is not None:
                probe_failures[failure] += 1
        n_failed = sum(probe_failures.values())
        record["layers"]["probe.tasks"] = [len(probes), "count"]
        record["layers"]["probe.failed_frac"] = [n_failed / len(probes) if probes else 0.0, "1"]
        record["probe_failures"] = dict(sorted(probe_failures.items()))
        spans_path = os.path.join(args.tmp, f"spans-{args.workload}-seed{args.seed}.csv")
        tracer.write_spans(spans_path)
        record["spans_file"] = os.path.relpath(spans_path)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
