"""Compare two sets of bench results, such as a parent commit and a change.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by ``bench/run.py --out``.  For every
workload and end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, the ratio of the medians with its base, the pairs won
(runs with the same seed on both sides) and a verdict:

    better      the change wins at least nine tenths of all pairs, ties
                counting for neither, and the medians differ by more than
                the distance between the base's quartiles
    worse       the change's median is worse than the base's by more than
                the metric's bound, and neither side spreads wider than it
    unchanged   neither, and neither side spreads wider than the bound, or
                every run of the change reads better than every base run
    unresolved  otherwise: the run-to-run spread is wider than the bound

Spread is the distance between the quartiles as a share of the median.

No metric of a workload is called ``better`` when a record of the change
is not correct, or when, on the tasks both runs of a seed attempted (the
same inputs on both sides), the change failed more of them than the base.

Verdicts need at least ten pairs, made interleaved: sorted by start time,
the runs of a workload must come two by two, one of each side with the same
seed.  Otherwise the figures are printed without a verdict, because a
shared host can run one whole set in a slower state than the other.

The unscaled throughput and latencies, and the scaled tail, are listed
from the metadata without a verdict.  Traced records, if any, are listed per
layer with their medians and ratio, without a verdict.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
MIN_PAIRS = 10
#: metadata figures listed without a verdict
INFO = ("raw_tasks_per_s", "raw_task_p50_ms", "raw_task_tail_ms", "norm_task_tail_ms")


def _load(path: str) -> dict:
    """{(workload, trace): {seed: record}} from one results file."""
    out = collections.defaultdict(dict)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                meta, result = rec["meta"], rec["result"]
                out[meta["workload"], meta["trace"]][meta["seed"]] = {
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    "correct": result["correct"],
                    "started_at": meta["started_at"],
                    "tasks": meta["tasks"],
                    "failed_tasks": meta["failed_tasks"],
                    "info": {k: meta[k] for k in INFO},
                }
    return out


def _stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _spread(q1: float, med: float, q3: float) -> float:
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: dict, new: dict, better: str, bound: float) -> tuple[str, int, int]:
    """Verdict for one metric from {seed: value} of each side, with the pairs
    the change won and the number of pairs."""
    sign = 1.0 if better == "higher" else -1.0
    b, n = list(base.values()), list(new.values())
    bq1, bmed, bq3 = _stats(b)
    nq1, nmed, nq3 = _stats(n)
    seeds = sorted(set(base) & set(new))
    wins = sum(sign * (new[s] - base[s]) > 0 for s in seeds)
    gain = sign * (nmed - bmed)
    if seeds and wins >= 0.9 * len(seeds) and gain > bq3 - bq1:
        return "better", wins, len(seeds)
    wide = max(_spread(bq1, bmed, bq3), _spread(nq1, nmed, nq3)) > bound
    if -gain > bound * abs(bmed):
        return ("unresolved" if wide else "worse"), wins, len(seeds)
    if not wide or min(sign * v for v in n) > max(sign * v for v in b):
        return "unchanged", wins, len(seeds)
    return "unresolved", wins, len(seeds)


def interleaved(base: dict, new: dict) -> bool:
    """True when the runs, sorted by start time, come in same-seed pairs of
    one base and one new run."""
    runs = sorted([(r["started_at"], "base", s) for s, r in base.items()]
                  + [(r["started_at"], "new", s) for s, r in new.items()])
    if len(runs) % 2:
        return False
    return all({a[1], b[1]} == {"base", "new"} and a[2] == b[2]
               for a, b in zip(runs[::2], runs[1::2]))


def more_failures(base: dict, new: dict) -> list[str]:
    """Seeds on which the change failed more of the commonly attempted
    tasks than the base, as 'seed: base -> new' strings."""
    out = []
    for s in sorted(set(base) & set(new)):
        common = min(base[s]["tasks"], new[s]["tasks"])
        fb = sum(i < common for i in base[s]["failed_tasks"])
        fn = sum(i < common for i in new[s]["failed_tasks"])
        if fn > fb:
            out.append(f"seed {s}: {fb} -> {fn} of {common}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    with open(SPEC) as fh:
        spec = json.load(fh)
    base, new = _load(args.base), _load(args.new)

    def fmt(values):
        q1, med, q3 = _stats(values)
        return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"

    for workload in [w["name"] for w in spec["workloads"]]:
        b, n = base.get((workload, 0)), new.get((workload, 0))
        if not b or not n:
            continue
        print(f"== {workload} (end to end)")
        paired = interleaved(b, n) and len(set(b) & set(n)) >= MIN_PAIRS
        if not paired:
            print(f"  runs not made in at least {MIN_PAIRS} interleaved same-seed pairs: "
                  "no verdicts")
        incorrect = sorted(s for s, r in n.items() if not r["correct"])
        if incorrect:
            print(f"  change incorrect on seeds {incorrect}: no metric can be better")
        worse_failures = more_failures(b, n)
        if worse_failures:
            print(f"  change fails more common tasks ({'; '.join(worse_failures)}): "
                  "no metric can be better")
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = {s: r["metrics"][name] for s, r in b.items()}
            nv = {s: r["metrics"][name] for s, r in n.items()}
            v, wins, pairs = verdict(bv, nv, m["better"], m["bound"])
            if v == "better" and (incorrect or worse_failures):
                v = "better withheld"
            if not paired:
                v = "-"
            bmed = _stats(list(bv.values()))[1]
            nmed = _stats(list(nv.values()))[1]
            ratio = nmed / bmed if bmed else float("nan")
            print(f"  {name:18s} base {fmt(list(bv.values()))}  new {fmt(list(nv.values()))}  "
                  f"new/base {ratio:.4f} (base {bmed:.4g} {m['unit']})  "
                  f"won {wins}/{pairs}  bound {m['bound']}  {v}")
        for name in INFO:
            bv = [r["info"][name] for r in b.values()]
            nv = [r["info"][name] for r in n.values()]
            ratio = _stats(nv)[1] / _stats(bv)[1]
            print(f"  {name:18s} base {fmt(bv)}  new {fmt(nv)}  new/base {ratio:.4f}  (no verdict)")
    for workload in [w["name"] for w in spec["workloads"]]:
        b, n = base.get((workload, 1)), new.get((workload, 1))
        if not b or not n:
            continue
        print(f"== {workload} (per layer, traced)")
        for m in spec["per_layer"]:
            name = m["name"]
            bmed = statistics.median(r["metrics"][name] for r in b.values())
            nmed = statistics.median(r["metrics"][name] for r in n.values())
            if bmed or nmed:
                ratio = f"{nmed / bmed:.4f}" if bmed else "-"
                print(f"  {name:44s} base {bmed:<12.6g} new {nmed:<12.6g} new/base {ratio}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
