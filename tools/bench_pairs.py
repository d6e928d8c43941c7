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

``--json FILE`` also writes what is printed: every run's result line with
its pair, seed and side and the machine fields (``environment``) of its
detail line; each metric's medians, quartiles, ratio, wins and marks; the
operations row; the failed operations and whether every run was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run in ``checkout``: its detail line and its
    result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds + 600)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare_sides(parent: list[float], change: list[float]) -> dict:
    """Each side's median and quartiles and the ratio of the medians."""
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    return {"parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "ratio": cm / pm if pm else float("nan")}


def judge(better: str, bound: float, parent: list[float], change: list[float]) -> dict:
    """``compare_sides``, the pairs the change won and the metric's marks."""
    row = compare_sides(parent, change)
    p1, pm, p3 = (row["parent"][k] for k in ("q1", "median", "q3"))
    cm = row["change"]["median"]
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
    return {**row, "better": better, "bound": bound, "wins": wins,
            "pairs": len(parent), "marks": marks}


def format_sides(name: str, row: dict) -> str:
    """The start of a table row from ``compare_sides``."""
    p, c = row["parent"], row["change"]
    return (f"{name:<18} {p['median']:>11.5g} [{p['q1']:.5g}, {p['q3']:.5g}]  "
            f"{c['median']:>11.5g} [{c['q1']:.5g}, {c['q3']:.5g}]  {row['ratio']:>7.4f}")


def format_row(name: str, row: dict) -> str:
    """One table row from ``judge``: the sides, the wins and the marks."""
    return (f"{format_sides(name, row)}  {row['wins']:>2}/{row['pairs']}"
            f"{''.join('  ' + m for m in row['marks'])}")


def tabulate(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """The table of ``runs`` (records of ``main``): a ``judge`` row for each
    metric that every run reports, the operations row, the failed
    operations and whether every run was correct."""
    results = {side: [r["result"] for r in runs if r["side"] == side]
               for side in ("parent", "change")}
    table = {}
    for metric, m in metrics.items():
        if all(metric in r["metrics"] for side in results.values() for r in side):
            parent, change = ([r["metrics"][metric]["value"] for r in results[side]]
                              for side in ("parent", "change"))
            table[metric] = judge(m["better"], m["bound"], parent, change)
    operations = compare_sides(*([r["attempted"] for r in results[side]]
                                 for side in ("parent", "change")))
    every = [r for side in results.values() for r in side]
    return {"metrics": table, "operations": operations,
            "failed_operations": sum(r["failed"] for r in every),
            "every_run_correct": all(r["correct"] for r in every)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--json", type=Path, metavar="FILE",
                   help="also write every run and the table to FILE")
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            detail, result = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs.append({"pair": i, "seed": seed, "side": side,
                         "machine": detail["environment"], "result": result})
            values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            print(f"pair {i} seed {seed} {side:<6} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    table = tabulate(runs, metrics)
    print(f"\n{args.workload}: {args.pairs} pairs, {args.seconds:g} s runs; "
          f"median [q1, q3] of parent, then change; change/parent; change wins")
    for metric, row in table["metrics"].items():
        print(format_row(metric, row))
    print(format_sides("operations", table["operations"]))
    print(f"failed operations: {table['failed_operations']}; every run correct: "
          f"{table['every_run_correct']}")
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
             "first_seed": args.seed, "runs": runs, **table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
