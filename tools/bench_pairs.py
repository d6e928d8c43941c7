"""Alternated benchmark pairs of two source checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --workload design-scan --pairs 10 --seed 101

PARENT and CHANGE are checkouts of two commits, each with its own
``perfbench/run.py`` (a ``git clone`` or ``git archive`` of the parent, say).
Pair i runs both checkouts with seed ``--seed + i``, parent first when i is
even and change first when i is odd, each for ``--seconds`` in its own
process.  Every run's end-to-end metrics are printed as it finishes.  Then,
for each metric, the table gives each side's median and quartiles, the
change's median over the parent's, and the pairs the change won by the
direction ``BENCHMARK.json`` gives the metric (ties count for neither side).
A metric reads ``gain`` when the change won at least nine tenths of the
pairs and the medians differ by more than the parent's interquartile range.
It reads ``worse`` when the change's median is worse than the parent's by
more than the metric's ``bound`` in ``BENCHMARK.json``, a fraction of the
parent's median.  It reads ``unresolved`` when the parent's interquartile
range is wider than that bound and not every run of the change beats every
run of the parent: the runs spread too widely to call the metric unchanged.

The last row, ``operations``, gives each side's median and quartiles of the
operations a run attempted and their ratio, with no wins and no marks.  A run
keeps every operation's output until its checks run, so read a
``peak_rss_mb`` change against this row.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``; its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds + 600)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def sides(name: str, parent: list[float], change: list[float]) -> str:
    """The start of a table row: each side's median and quartiles and the
    ratio of the medians."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    ratio = cm / pm if pm else float("nan")
    return (f"{name:<18} {pm:>11.5g} [{p1:.5g}, {p3:.5g}]  {cm:>11.5g} [{c1:.5g}, {c3:.5g}]"
            f"  {ratio:>7.4f}")


def summarize(metric: str, better: str, bound: float,
              parent: list[float], change: list[float]) -> str:
    """One table row: ``sides``, the pairs the change won and the row's marks."""
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    marks = []
    if wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1:
        marks.append("gain")
    if sign * (cm - pm) < -bound * abs(pm):
        marks.append("worse")
    if p3 - p1 > bound * abs(pm) and not all(
        sign * (c - p) > 0 for c in change for p in parent
    ):
        marks.append("unresolved")
    return (f"{sides(metric, parent, change)}  {wins:>2}/{len(parent)}"
            f"{''.join('  ' + m for m in marks)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--seconds", type=float, default=40.0)
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs[side].append(result)
            values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            print(f"pair {i} seed {seed} {side:<6} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, {args.seconds:g} s runs; "
          f"median [q1, q3] of parent, then change; change/parent; change wins")
    for metric, m in metrics.items():
        if any(metric not in r["metrics"] for side in runs.values() for r in side):
            continue
        parent = [r["metrics"][metric]["value"] for r in runs["parent"]]
        change = [r["metrics"][metric]["value"] for r in runs["change"]]
        print(summarize(metric, m["better"], m["bound"], parent, change))
    print(sides("operations", *([r["attempted"] for r in runs[side]]
                                for side in ("parent", "change"))))
    failed = sum(r["failed"] for side in runs.values() for r in side)
    print(f"failed operations: {failed}; every run correct: "
          f"{all(r['correct'] for side in runs.values() for r in side)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
