"""Smoke test of the benchmark at a tiny size: every workload, the output
checks and the tracer.  Run with ``PYTHONPATH=src python -m pytest perfbench``."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from couplerkit import numdiag, presets
from couplerkit.fitkit import CouplerFluxModel, FitResult

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = list(workloads.WORKLOADS)


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny", "--setup-repeats", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result = run_bench(workload, trace=1)
    assert_metrics(result, BENCH["per_layer"])
    metrics = result["metrics"]
    assert metrics["cli.import_s"]["value"] > 0
    assert metrics["numdiag.build_hamiltonian.calls"]["value"] > 0  # set-up warms numdiag
    assert 0 <= metrics["trace.unaccounted_share"]["value"] < 1


def test_untraced_run_reports_every_end_to_end_metric():
    result = run_bench("design-scan", trace=0)
    assert_metrics(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_lists_known_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


def test_layer_map_covers_the_per_layer_metrics():
    layer_map = json.loads((HERE / "layer_map.json").read_text())["map"]
    assert set(layer_map) == {m["name"] for m in BENCH["per_layer"]}
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for per_workload in layer_map.values():
        assert set(per_workload) == set(WORKLOADS)
        assert all(set(moved) <= end_to_end for moved in per_workload.values())


def test_dense_reference_agrees_with_numdiag():
    m = presets.device_flux_builder(presets.ASYMMETRIC_DEVICE, resonant=False)(5.3)
    ref, worst = checks.reference_zz(m, (5, 5, 5))
    assert worst > checks.LABEL_THRESHOLD
    assert ref == pytest.approx(numdiag.zz_numeric(m, (5, 5, 5)), abs=1e-12)


def test_checks_catch_wrong_outputs():
    builder = presets.device_flux_builder(presets.ASYMMETRIC_DEVICE, resonant=False)
    xs = np.linspace(5.0, 5.4, 3)
    models = [builder(float(x)) for x in xs]
    lines = ["x_value,g_eff_mhz,g_mhz,zeta2_mhz,zeta34_mhz,zeta_pert_mhz,zeta_numeric_mhz"]
    for x, m in zip(xs, models):
        cells = checks.effective_cells(m)
        zz = numdiag.zz_numeric(m)
        lines.append(",".join([f"{x:.9g}"] + [cells[k] for k in (
            "g_eff_mhz", "g_mhz", "zeta2_mhz", "zeta34_mhz", "zeta_pert_mhz")] + [f"{zz * 1e3:.9g}"]))
    good = "\n".join(lines) + "\n"
    assert checks.check_sweep_csv(good, xs, models, (5, 5, 5)) == []
    head, row, *rest = good.split("\n")
    cells = row.split(",")
    cells[-1] = f"{float(cells[-1]) * 1.001:.9g}"
    assert checks.check_sweep_csv("\n".join([head, ",".join(cells), *rest]), xs, models, (5, 5, 5))
    cells = row.split(",")
    cells[2] = ""
    assert checks.check_sweep_csv("\n".join([head, ",".join(cells), *rest]), xs, models, (5, 5, 5))

    def f(wc):
        return checks.reference_zz(builder(wc), (5, 5, 5))[0]

    assert checks.check_roots([5.0177241], f) == []
    assert checks.check_roots([5.02], f)

    true = CouplerFluxModel(g12_mhz=-9.4, g1c_g2c_mhz2=-17318.56, coupler_ec_ghz=0.18,
                            coupler_ej_sum_ghz=30.0)
    off = CouplerFluxModel(g12_mhz=-9.9, g1c_g2c_mhz2=-17318.56, coupler_ec_ghz=0.18,
                           coupler_ej_sum_ghz=30.0)
    fit = FitResult(params=off, free=("g12_mhz", "g1c_g2c_mhz2"), rms_residual_mhz=0.0,
                    converged=True, n_evaluations=1, covariance={})
    assert checks.check_fit(fit, true, noiseless=True)
    assert checks.check_fit(fit, true, noiseless=False) == []
