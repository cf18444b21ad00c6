"""bic-lab benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload width_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each measurement starts a fresh
single-threaded interpreter (``bench/worker.py``) with ``PYTHONPATH=src`` and
``BIC_LAB_THREADS`` removed from its environment, so the default serial path
is measured; the BLAS thread count is left as found and recorded.

Throughput and median latency are scaled to a reference host speed.  The
worker times a fixed calibration kernel, which calls nothing in bic_lab,
at the start and after every quarter second of task time; each task's time
is multiplied by ``REF_CAL_S`` over the mean kernel time around it.  A
shared host that switches between a fast and a slow state for seconds at a
time moves the typical task and the kernel alike, so the scaled figures stay
put while the raw ones move by up to 1.8x.  The slowest tasks do not follow the kernel, so
the tail latency is in the metadata line, raw and scaled, but not among the
gated metrics (see bench/NOTES.md).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

    setup_s            median over seven fresh interpreters of the time from
                       launch until the first task can start (import, input
                       generation, one warm-up task of each kind); not scaled
    norm_tasks_per_s   seeded tasks completed per second of their scaled
                       task time (the prologue's reproduce runs are checked
                       and counted as tasks, but timed apart, in metadata)
    norm_task_p50_ms   median scaled latency of the seeded tasks
    peak_rss_mb        maximum resident set size of the measured process

``--trace 1`` reports the per-layer metrics instead: a traced process runs
the workload's prologue and first cycle once, with spans around the
package's public functions, and times each task untraced too for the
tracing overhead.  It then runs the workload's probe set (broad random
geometries, where the package is known to decline or fail some tasks)
untimed and reports ``probe.failed_frac``.  ``-X importtime`` gives the
import split, and the module sizes are counted from ``src/bic_lab``.

A task fails when it raises, records a per-point error or fails an output
check; the workloads are chosen so that none does, and ``failed`` in the
result counts any that do.

The line before the result holds the run's metadata; ``--out FILE`` also
appends both, as one JSON record, to FILE for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("width_sweep", "design_scan", "elimination")
#: tail percentile per workload: the highest of 50/75/90/95/99 that leaves at
#: least 10 tasks beyond it in a 30 s run at the seed commit.  It is fixed so
#: that runs of different commits report the same statistic.  99.9 is left
#: out: on a shared 2-core host it measures scheduler jitter, not the program
TAIL_PERCENTILE = {"width_sweep": 95.0, "design_scan": 99.0, "elimination": 75.0}
#: each calibration kernel's time on the reference host (a 2-core 2.0 GHz
#: Xeon VM, typical within a run); scaled task times are in these units
REF_CAL_S = {"small_numpy_kernel": 2.5e-3, "dense_solve_kernel": 6.0e-3}
MODULES = ("params", "hamiltonian", "bic", "spectrum", "microscopic", "discretized",
           "dressing", "recipes", "cli", "errors")
SETUP_SAMPLES = 7
READY_TIMEOUT_S = 120.0
OUT_DIR = ".bench_out"


class BenchError(Exception):
    pass


def _readline(proc, deadline: float, buf: bytearray) -> bytes:
    """One line from the worker's unbuffered stdout, or BenchError at deadline."""
    fd = proc.stdout.fileno()
    while b"\n" not in buf:
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise BenchError("worker did not answer in time")
        chunk = os.read(fd, 65536)
        if not chunk:
            raise BenchError(f"worker exited early with code {proc.wait()}")
        buf.extend(chunk)
    line, _, rest = bytes(buf).partition(b"\n")
    buf[:] = rest
    return line


def _launch(cmd_args, env, go: bool, timeout_s: float):
    """Start a worker; return (set-up seconds, its result record or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + cmd_args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, bufsize=0)
    try:
        buf = bytearray()
        if _readline(proc, t0 + READY_TIMEOUT_S, buf) != b"READY":
            raise BenchError("worker did not report READY")
        setup_s = time.perf_counter() - t0
        if not go:
            proc.stdin.close()
            if proc.wait(timeout=30) != 0:
                raise BenchError("set-up probe failed")
            return setup_s, None
        proc.stdin.write(b"GO\n")
        proc.stdin.close()
        line = _readline(proc, time.perf_counter() + timeout_s, buf)
        if proc.wait(timeout=30) != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return setup_s, json.loads(line)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def _percentile(sorted_values, p: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    k = (len(sorted_values) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def _import_times(env) -> dict:
    """Cumulative import seconds of numpy, scipy and bic_lab in a fresh
    interpreter, each counted at its outermost module only."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bic_lab"],
                          env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError("import bic_lab failed")
    entries = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(parts[1])))
    totals = {"numpy": 0, "scipy": 0, "bic_lab": 0}
    stack = []
    # importtime prints children before parents; walking backwards visits
    # every module after its ancestors
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and all(a.split(".")[0] != top for _, a in stack):
            totals[top] += cumulative
        stack.append((depth, name))
    return {f"setup.import.{k}_s": (v / 1e6, "s") for k, v in totals.items()}


def _module_lines(src: str) -> dict:
    out = {}
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                n = sum(1 for _ in fh)
            total += n
            if name[:-3] in MODULES:
                out[f"{name[:-3]}.lines"] = (n, "count")
    out["src.lines"] = (total, "count")
    return out


def _scaled(run: dict) -> list:
    """Task times scaled by the host speed measured next to each task."""
    ref = REF_CAL_S[run["cal_kernel"]]
    return [t * ref / c for t, c in zip(run["latencies_s"], run["cal_s"])]


def _summary(run: dict, percentile: float) -> dict:
    """Throughput and latencies of the seeded tasks, raw and scaled.  The
    prologue's few long tasks are only summed: one kernel timing on each
    side cannot follow the host through seconds of work."""
    n0 = run["prologue_tasks"]
    scaled = _scaled(run)
    out = {"tasks": len(run["latencies_s"]),
           "cal_median_ms": 1e3 * statistics.median(run["cal_s"]),
           "prologue_raw_s": sum(run["latencies_s"][:n0]),
           "prologue_norm_s": sum(scaled[:n0])}
    for prefix, lat in (("raw_", run["latencies_s"][n0:]), ("norm_", scaled[n0:])):
        lat = sorted(lat)
        tail = _percentile(lat, percentile)
        out[prefix + "tasks_per_s"] = len(lat) / sum(lat)
        out[prefix + "task_p50_ms"] = 1e3 * statistics.median(lat)
        out[prefix + "task_tail_ms"] = 1e3 * tail
        out[prefix + "tail_beyond"] = sum(x > tail for x in lat)
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool, root: str):
    src = os.path.join(root, "src")
    env = dict(os.environ)
    threads_env = env.pop("BIC_LAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    tmp = os.path.join(root, OUT_DIR)
    os.makedirs(tmp, exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--tmp", tmp]
    run_timeout = seconds + 120.0
    percentile = TAIL_PERCENTILE[workload]

    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "started_at": time.time(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "bic_lab_threads_cleared": True,
            "bic_lab_threads_found": threads_env,
            "tail_percentile": percentile,
            "closed_loop_clients": 1}
    if not trace:
        setups = [_launch(base, env, go=False, timeout_s=run_timeout)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup_s, run = _launch(base, env, go=True, timeout_s=run_timeout)
        setups.append(setup_s)
        s = _summary(run, percentile)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "norm_tasks_per_s": (s["norm_tasks_per_s"], "1/s"),
            "norm_task_p50_ms": (s["norm_task_p50_ms"], "ms"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
        meta["setup_samples_s"] = setups
    else:
        imports = _import_times(env)
        _, run = _launch(base + ["--trace"], env, go=True, timeout_s=run_timeout)
        s = _summary(run, percentile)
        metrics = {k: tuple(v) for k, v in run["layers"].items()}
        metrics.update(imports)
        metrics.update(_module_lines(os.path.join(src, "bic_lab")))
        metrics["trace.tasks"] = (len(run["latencies_s"]), "count")
        meta["spans_file"] = run["spans_file"]
        meta["probe_failures"] = run["probe_failures"]
    meta.update(s)
    # failed_tasks holds the indices of the failed tasks, for bench/compare.py
    for key in ("failures", "failed_tasks", "reproduce_runs", "reproduce_byte_identical",
                "python", "numpy", "scipy", "blas", "bic_lab_threads_env", "cal_kernel"):
        meta[key] = run[key]
    attempted = len(run["latencies_s"])
    failed = sum(run["failures"].values())
    correct = run["wrong"] == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return meta, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the metadata and result as one JSON line")
    args = ap.parse_args(argv)
    # a terminated bench still unwinds, so the worker it started is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bic_lab", "__init__.py")):
        print("bench: run from the root of a bic-lab checkout (src/bic_lab missing)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        meta, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        print(f"bench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(got.items()) ^ set(declared.items()))}", file=sys.stderr)
        return 1
    print(json.dumps(meta))
    print(json.dumps(result))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"meta": meta, "result": result}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
