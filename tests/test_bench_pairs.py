"""The marks of ``tools/bench_pairs.py``'s table on synthetic runs; no
benchmark runs here."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def summarize(metric, better, bound, parent, change):
    return bench_pairs.format_row(metric, bench_pairs.judge(better, bound, parent, change))


def marks(better, bound, parent, change):
    return summarize("metric", better, bound, parent, change).split("/10")[1].split()


@pytest.mark.parametrize("better, change, want", [
    # every change run 10% faster: a gain, and nothing else
    ("lower", [0.9 * p for p in PARENT], ["gain"]),
    ("higher", [1.1 * p for p in PARENT], ["gain"]),
    # the same runs: no mark
    ("lower", PARENT, []),
    # 5% worse, inside a 24% bound: not worse, and not a gain
    ("lower", [1.05 * p for p in PARENT], []),
    # 30% worse, beyond the bound, in either direction
    ("lower", [1.3 * p for p in PARENT], ["worse"]),
    ("higher", [0.7 * p for p in PARENT], ["worse"]),
])
def test_gain_and_worse(better, change, want):
    assert marks(better, 0.24, PARENT, change) == want


# quartiles 80 and 120 about a median of 100: a spread of 40% of the median
WIDE = [60.0, 80.0, 80.0, 90.0, 100.0, 100.0, 110.0, 120.0, 120.0, 140.0]


def test_wide_parent_spread_is_unresolved():
    assert marks("lower", 0.24, WIDE, list(WIDE)) == ["unresolved"]
    # a change worse beyond the bound is also marked so
    assert marks("lower", 0.24, WIDE, [1.3 * p for p in WIDE]) == ["worse", "unresolved"]


def test_wide_spread_resolved_when_every_change_run_is_better():
    change = [50.0] * 10  # below every parent run
    assert marks("lower", 0.24, WIDE, change) == ["gain"]
    # one change run that does not beat the slowest parent run leaves it unresolved
    assert marks("lower", 0.24, WIDE, [50.0] * 9 + [70.0]) == ["gain", "unresolved"]


def test_spread_inside_bound_is_resolved():
    # a 40% spread is inside a bound of 0.5
    assert marks("lower", 0.5, WIDE, list(WIDE)) == []


def test_row_reports_medians_ratio_and_wins():
    row = summarize("find_s", "lower", 0.24, PARENT, [0.9 * p for p in PARENT])
    fields = row.split()
    assert fields[0] == "find_s"
    assert float(fields[1]) == pytest.approx(100.0)
    assert fields[-3] == "0.9000" and fields[-2] == "10/10"


def test_operations_row_has_sides_and_ratio_but_no_marks():
    parent = [5000, 5100, 4900, 5050, 4950]
    change = [6000, 6100, 5900, 6050, 5950]
    row = bench_pairs.format_sides("operations", bench_pairs.compare_sides(parent, change))
    fields = row.replace("[", " ").replace("]", " ").replace(",", " ").split()
    assert fields[0] == "operations"
    assert [float(f) for f in fields[1:7]] == [5000, 4950, 5050, 6000, 5950, 6050]
    assert fields[7] == "1.2000" and len(fields) == 8
    # a metric row starts with the same columns
    metric = summarize("operations", "lower", 0.24, parent, change)
    assert metric.startswith(row + "  ")


def synthetic_run(side, seed):
    """A detail and a result line as ``perfbench/run.py`` prints them: the
    change is 10% faster on find_s and equal on fit_s."""
    find_s = (0.9 if side == "change" else 1.0) * (1.0 + seed / 100)
    detail = {"workload": "synthetic", "seed": seed,
              "environment": {"nproc": 2, "python": "3.x", "side": side}}
    result = {"correct": True, "failed": 0, "attempted": 1000 + seed,
              "metrics": {"find_s": {"value": find_s, "unit": "s"},
                          "fit_s": {"value": 2.0, "unit": "s"}}}
    return detail, result


def test_json_writes_what_is_printed(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "find_s", "better": "lower", "bound": 0.24},
        {"name": "fit_s", "better": "lower", "bound": 0.24},
        {"name": "cli_s", "better": "lower", "bound": 0.24},
    ]}))
    sides = {parent: "parent", change: "change"}
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, workload, seed, seconds: synthetic_run(sides[checkout], seed))
    out = tmp_path / "BENCH_test.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "synthetic",
                             "--pairs", "4", "--seed", "7", "--json", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    written = json.loads(out.read_text())

    assert (written["workload"], written["pairs"], written["first_seed"]) == ("synthetic", 4, 7)
    # every run in the order it ran, parent first in even pairs
    assert [(r["pair"], r["seed"], r["side"]) for r in written["runs"]] == [
        (0, 7, "parent"), (0, 7, "change"), (1, 8, "change"), (1, 8, "parent"),
        (2, 9, "parent"), (2, 9, "change"), (3, 10, "change"), (3, 10, "parent")]
    for run in written["runs"]:
        detail, result = synthetic_run(run["side"], run["seed"])
        assert run["machine"] == detail["environment"] and run["result"] == result

    # cli_s is in no run, so it has no row, as in the printed table
    assert list(written["metrics"]) == ["find_s", "fit_s"]
    find = written["metrics"]["find_s"]
    assert find["parent"]["median"] == pytest.approx(1.085)
    assert find["ratio"] == pytest.approx(0.9)
    assert (find["wins"], find["pairs"], find["marks"]) == (4, 4, ["gain"])
    assert written["metrics"]["fit_s"]["marks"] == [] and written["metrics"]["fit_s"]["wins"] == 0
    assert written["operations"]["change"]["median"] == 1008.5
    assert (written["failed_operations"], written["every_run_correct"]) == (0, True)

    # the printed rows are the written ones
    rows = [bench_pairs.format_row(name, row) for name, row in written["metrics"].items()]
    rows.append(bench_pairs.format_sides("operations", written["operations"]))
    assert printed[-4:-1] == rows
