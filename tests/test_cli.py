import contextlib
import copy
import csv
import io
import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import couplerkit as ck
from couplerkit import cli, effmodel, numdiag
from couplerkit.capnet import netlist_to_dict
from couplerkit.cli import main
from couplerkit.fitkit import CouplerFluxModel, synth_g_dataset
from couplerkit.presets import (
    ASYMMETRIC_DEVICE,
    FLOATING_DESIGN_RATES_ASYMMETRIC,
    FLOATING_DESIGN_RATES_SYMMETRIC,
    floating_coupler_design,
    grounded_coupler_design,
)


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def model_block(rates, omegac=4.0, omega1=4.58, omega2=4.64):
    return {
        "omega1": omega1, "omega2": omega2, "omegac": omegac,
        "eta1": 0.23, "eta2": 0.233, "etac": 0.19,
        "g1c": rates["g1c"], "g2c": rates["g2c"], "g12": rates["g12"],
    }


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestEnergies:
    def test_symmetric_design_classified(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "net.json", netlist_to_dict(floating_coupler_design(True))
        )
        rc, out, _ = run(capsys, "energies", path)
        assert rc == 0
        assert "configuration: symmetric" in out
        assert "ec1" in out and "e12" in out

    def test_zero_coupling_degenerate(self, tmp_path, capsys):
        net = {
            "schema": 1,
            "topology": "floating-floating",
            "capacitors": [
                {"a": 0, "b": 1, "fF": 110}, {"a": 0, "b": 2, "fF": 110},
                {"a": 0, "b": 5, "fF": 110}, {"a": 0, "b": 6, "fF": 110},
                {"a": 0, "b": 3, "fF": 80}, {"a": 0, "b": 4, "fF": 80},
                {"a": 1, "b": 2, "fF": 46}, {"a": 5, "b": 6, "fF": 46},
                {"a": 3, "b": 4, "fF": 61},
            ],
        }
        path = write_json(tmp_path, "net.json", net)
        rc, out, _ = run(capsys, "energies", path)
        assert rc == 0
        assert "configuration: degenerate" in out

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc, _, err = run(capsys, "energies", str(path))
        assert rc == 2
        assert "input error" in err

    def test_isolated_coupler_is_a_library_error(self, tmp_path, capsys):
        # coupler pads that touch only each other leave the coupler's free
        # mode no capacitance: a CouplerKitError that main reports as "error:"
        caps = [(0, 1, 110), (0, 2, 110), (0, 5, 110), (0, 6, 110),
                (1, 2, 46), (5, 6, 46), (3, 4, 61)]
        path = write_json(tmp_path, "net.json", {
            "schema": 1, "topology": "floating-floating",
            "capacitors": [{"a": a, "b": b, "fF": c} for a, b, c in caps],
        })
        rc, out, err = run(capsys, "energies", path)
        assert (rc, out) == (2, "")
        assert err.startswith("error: free-mode capacitance block is singular ")
        assert err.count("\n") == 1

    def test_grounded_design_prints_its_closed_form(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "net.json", netlist_to_dict(grounded_coupler_design(True))
        )
        rc, out, _ = run(capsys, "energies", path)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "topology: grounded-floating"
        assert lines[5].split() == ["e12", "0.00277427124", "0.00325029067", "0.171583597"]

    def test_outer_pad_coupling_leaves_no_closed_form(self, tmp_path, capsys):
        net = netlist_to_dict(floating_coupler_design(True))
        net["capacitors"].append({"a": 1, "b": 3, "fF": 1.0})
        rc, out, _ = run(capsys, "energies", write_json(tmp_path, "net.json", net))
        assert rc == 0
        lines = out.splitlines()
        assert all(line.split()[2:] == ["-", "-"] for line in lines[2:8])
        assert lines[8] == ("closed-form unavailable: closed-form assumptions violated: "
                            "outer-pad coupling C13 must be absent")


class TestSweep:
    def test_symmetric_band_g_crosses_zero_once(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "model": model_block(FLOATING_DESIGN_RATES_SYMMETRIC),
            "sweep": {"quantity": "g", "variable": "coupler-frequency",
                      "range": [2.77, 4.0], "points": 120},
        }
        path = write_json(tmp_path, "cfg.json", cfg)
        out_csv = tmp_path / "sweep.csv"
        rc, _, _ = run(capsys, "sweep", "--config", path, "--out", str(out_csv))
        assert rc == 0
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        assert len(rows) == 120
        g = [float(r["g_mhz"]) for r in rows]
        changes = sum(
            1 for a, b in zip(g, g[1:]) if np.sign(a) != np.sign(b)
        )
        assert changes == 1
        xs = [float(r["x_value"]) for r in rows]
        assert xs == sorted(xs)

    def test_two_point_sweep_two_rows(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "model": model_block(FLOATING_DESIGN_RATES_SYMMETRIC),
            "sweep": {"quantity": "both", "variable": "coupler-frequency",
                      "range": [3.0, 3.5], "points": 2},
        }
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, out, _ = run(capsys, "sweep", "--config", path)
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert lines[0] == (
            "x_value,g_eff_mhz,g_mhz,zeta2_mhz,zeta34_mhz,zeta_pert_mhz"
        )

    def test_numeric_backend_adds_column(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "model": model_block(FLOATING_DESIGN_RATES_ASYMMETRIC, omegac=5.5),
            "sweep": {"quantity": "zz", "variable": "coupler-frequency",
                      "range": [5.0, 6.0], "points": 3},
            "backend": "both",
            "levels": [4, 4, 4],
        }
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, out, _ = run(capsys, "sweep", "--config", path)
        assert rc == 0
        header = out.strip().splitlines()[0]
        assert header.endswith("zeta_numeric_mhz")
        row = out.strip().splitlines()[1].split(",")
        assert row[-1] != ""       # numeric zeta populated
        assert row[1] == ""        # g columns empty for quantity=zz

    def test_flux_sweep_with_model_and_squid(self, tmp_path, capsys):
        # asymmetric device over a flux range covering its two zz zeros
        dev = ASYMMETRIC_DEVICE
        cfg = {
            "schema": 1,
            "model": {
                "omega1": dev.omega1_max, "omega2": dev.omega2_max,
                "omegac": dev.omegac_max, "eta1": dev.eta1, "eta2": dev.eta2,
                "etac": 0.19,
                "g1c": -abs(dev.g1c_g2c) ** 0.5,
                "g2c": abs(dev.g1c_g2c) ** 0.5,
                "g12": dev.g12,
            },
            "coupler_squid": {"ej_sum": dev.coupler_squid.ej_sum,
                              "asymmetry": 0.0},
            "coupler_ec": dev.coupler_ec,
            "sweep": {"quantity": "zz", "variable": "coupler-flux",
                      "range": [0.0, 0.345], "points": 80},
        }
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, out, _ = run(capsys, "sweep", "--config", path)
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        zeta = [float(r["zeta_pert_mhz"]) for r in rows if r["zeta_pert_mhz"]]
        changes = sum(
            1 for a, b in zip(zeta, zeta[1:]) if np.sign(a) != np.sign(b)
        )
        assert changes == 2

    def test_resonance_rows_left_empty_with_warning(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "model": model_block(FLOATING_DESIGN_RATES_SYMMETRIC),
            "sweep": {"quantity": "g", "variable": "coupler-frequency",
                      "range": [4.5, 4.7], "points": 41},
        }
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, out, err = run(capsys, "sweep", "--config", path)
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 41
        empty = [r for r in rows if r["g_mhz"] == ""]
        assert empty, "rows at the qubit resonances must be blanked"
        assert "warning" in err

    def test_byte_identical_repeat(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "model": model_block(FLOATING_DESIGN_RATES_ASYMMETRIC, omegac=5.5),
            "sweep": {"quantity": "both", "variable": "coupler-frequency",
                      "range": [4.8, 6.14], "points": 50},
        }
        path = write_json(tmp_path, "cfg.json", cfg)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(capsys, "sweep", "--config", path, "--out", str(a))[0] == 0
        assert run(capsys, "sweep", "--config", path, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestFind:
    def test_symmetric_design_root(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "model": model_block(FLOATING_DESIGN_RATES_SYMMETRIC),
            "sweep": {"quantity": "g", "variable": "coupler-frequency",
                      "range": [2.77, 4.0], "points": 200},
        }
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, out, _ = run(capsys, "find", "--config", path, "--target", "g")
        assert rc == 0
        assert float(out.strip()) == pytest.approx(3.5288, abs=2e-3)

    def test_band_above_qubits_exit_3(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "model": model_block(FLOATING_DESIGN_RATES_SYMMETRIC),
            "sweep": {"quantity": "g", "variable": "coupler-frequency",
                      "range": [4.8, 6.5], "points": 100},
        }
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, _, err = run(capsys, "find", "--config", path, "--target", "g")
        assert rc == 3
        assert "no root" in err

    @staticmethod
    def device_flux_config(flux_range):
        dev = ASYMMETRIC_DEVICE
        return {
            "schema": 1,
            "model": {
                "omega1": dev.omega1_max, "omega2": dev.omega2_max,
                "omegac": dev.omegac_max, "eta1": dev.eta1, "eta2": dev.eta2,
                "etac": 0.19,
                "g1c": -abs(dev.g1c_g2c) ** 0.5,
                "g2c": abs(dev.g1c_g2c) ** 0.5,
                "g12": dev.g12,
            },
            "coupler_squid": {"ej_sum": dev.coupler_squid.ej_sum,
                              "asymmetry": 0.0},
            "coupler_ec": dev.coupler_ec,
            "sweep": {"quantity": "zz", "variable": "coupler-flux",
                      "range": flux_range, "points": 200},
        }

    def test_all_poles_warn_before_no_root(self, tmp_path, capsys):
        # equal qubit frequencies put every point on the Delta_12 floor
        cfg = {
            "schema": 1,
            "model": model_block(FLOATING_DESIGN_RATES_SYMMETRIC, omega2=4.58),
            "sweep": {"range": [5.0, 6.0]},
        }
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, out, err = run(capsys, "find", "--config", path, "--target", "zz")
        assert (rc, out, err) == (3, "", (
            "warning: every prescan point in [5, 6] hit a resonance pole or fell "
            "outside the flux domain\n"
            "no zz roots in [5, 6]\n"
        ))

    def test_zz_roots_printed(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json", self.device_flux_config([0.0, 0.345]))
        rc, out, _ = run(capsys, "find", "--config", path, "--target", "zz")
        assert rc == 0
        roots = [float(line) for line in out.strip().splitlines()]
        assert len(roots) == 2  # two flux ratios where zz vanishes

    @pytest.mark.parametrize("flux_range, skipped, out", [
        ([0.0, 0.45], 12, "0.258921995\n0.294714449\n"),
        ([0.3, 0.45], 34, ""),
    ])
    def test_numeric_find_skips_unlabeled_points(self, tmp_path, capsys, flux_range,
                                                 skipped, out):
        # a point whose states cannot be labeled is skipped like a pole
        path = write_json(tmp_path, "cfg.json", self.device_flux_config(flux_range))
        rc, got_out, err = run(capsys, "find", "--config", path, "--target", "zz",
                               "--backend", "numeric")
        lo, hi = flux_range
        warned = (f"warning: {skipped} of 200 prescan points in [{lo:g}, {hi:g}] "
                  "could not be labeled and were skipped\n")
        if out:
            assert (rc, got_out, err) == (0, out, warned)
        else:
            assert (rc, got_out, err) == (3, "", warned + f"no zz roots in [{lo:g}, {hi:g}]\n")

    @pytest.mark.parametrize("backend", ["numeric", "both"])
    def test_g_target_says_it_uses_the_effective_model(self, tmp_path, capsys, backend):
        cfg = {
            "schema": 1,
            "model": model_block(FLOATING_DESIGN_RATES_SYMMETRIC),
            "sweep": {"range": [2.77, 4.0]},
        }
        path = write_json(tmp_path, "cfg.json", cfg)
        effective = run(capsys, "find", "--config", path, "--target", "g")
        rc, out, err = run(capsys, "find", "--config", path, "--target", "g",
                           "--backend", backend)
        assert (rc, out) == effective[:2]
        assert err == (f"warning: g is found with the effective model; backend "
                       f"'{backend}' applies to --target zz only\n") + effective[2]

    @pytest.mark.parametrize("flux_range, code", [([0.0, 0.45], 0), ([0.0, 0.05], 3)])
    def test_flux_band_is_not_printed_in_ghz(self, tmp_path, capsys, flux_range, code):
        # two roots warn and none is a no-root error; both name the band,
        # which is in flux quanta here
        path = write_json(tmp_path, "cfg.json", self.device_flux_config(flux_range))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, _, err = run(capsys, "find", "--config", path, "--target", "g")
        err += "".join(f"{w.message}\n" for w in caught)
        assert rc == code
        assert f"[0, {flux_range[1]:g}]" in err
        assert "] GHz" not in err

    def test_warning_is_one_line_without_a_path(self, tmp_path):
        path = write_json(tmp_path, "cfg.json", self.device_flux_config([0.0, 0.45]))
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "couplerkit.cli", "find", "--config", path, "--target", "g"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0 and len(proc.stdout.splitlines()) == 1
        assert proc.stderr == (
            "warning: net coupling crosses zero 2 times in [0, 0.45]; returning the lowest root\n"
        )

    @pytest.mark.parametrize("target", ["g", "zz"])
    def test_flux_domain_edge_is_skipped(self, tmp_path, capsys, target):
        # a symmetric SQUID has EJ = 0 at half a flux quantum, which the sweep
        # blanks; the prescan must skip that point instead of aborting
        dev = ASYMMETRIC_DEVICE
        cfg = {
            "schema": 1,
            "model": model_block(FLOATING_DESIGN_RATES_SYMMETRIC,
                                 omegac=dev.omegac_max),
            "coupler_squid": {"ej_sum": dev.coupler_squid.ej_sum,
                              "asymmetry": 0.0},
            "coupler_ec": dev.coupler_ec,
            "sweep": {"quantity": target, "variable": "coupler-flux",
                      "range": [0.0, 0.5], "points": 50},
        }
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, _, err = run(capsys, "sweep", "--config", path)
        assert rc == 0 and "Josephson energy must be positive" in err
        rc, out, err = run(capsys, "find", "--config", path, "--target", target)
        assert rc in (0, 3)
        assert "Josephson energy" not in err
        assert (rc == 0) == bool(out.strip())


class TestFit:
    def make_dataset(self, tmp_path, rows=25, noise=0.0):
        ec = 0.17666
        true = CouplerFluxModel(
            g12_mhz=-9.4, g1c_g2c_mhz2=-(131.6**2), coupler_ec_ghz=ec,
            coupler_ej_sum_ghz=ck.ej_for_frequency(ec, 6.526),
            coupler_asymmetry=0.0,
        )
        phi = np.linspace(0.0, 0.42 * 2 * np.pi, rows)
        data = synth_g_dataset(true, phi, 3.449, 3.449, noise_sigma_mhz=noise)
        path = tmp_path / "data.csv"
        path.write_text(data.to_csv())
        return str(path), true

    def fit_config(self, tmp_path, true, free=("g12_mhz", "g1c_g2c_mhz2")):
        return write_json(tmp_path, "fit.json", {
            "schema": 1,
            "init": {
                "g12_mhz": -6.0, "g1c_g2c_mhz2": -(110.0**2),
                "coupler_ec_ghz": true.coupler_ec_ghz,
                "coupler_ej_sum_ghz": true.coupler_ej_sum_ghz,
                "coupler_asymmetry": 0.0,
            },
            "free": list(free),
        })

    def test_round_trip(self, tmp_path, capsys):
        data_path, true = self.make_dataset(tmp_path)
        cfg = self.fit_config(tmp_path, true)
        out_path = tmp_path / "result.json"
        rc, _, _ = run(capsys, "fit", data_path, "--config", cfg,
                       "--out", str(out_path))
        assert rc == 0
        result = json.loads(out_path.read_text())
        assert result["g12_mhz"] == pytest.approx(-9.4, rel=1e-3)
        assert result["product_sqrt_mhz"] == pytest.approx(131.6, rel=1e-3)

    def test_three_rows_is_an_input_error(self, tmp_path, capsys):
        text = (
            "phi_over_phi0,g_mhz,sign,omega1_ghz,omega2_ghz\n"
            "0.0,10,-1,3.449,3.449\n0.1,8,-1,3.449,3.449\n0.2,5,-1,3.449,3.449\n"
        )
        data_path = tmp_path / "tiny.csv"
        data_path.write_text(text)
        cfg = self.fit_config(
            tmp_path,
            CouplerFluxModel(
                g12_mhz=-9.4, g1c_g2c_mhz2=-(131.6**2), coupler_ec_ghz=0.17666,
                coupler_ej_sum_ghz=ck.ej_for_frequency(0.17666, 6.526),
                coupler_asymmetry=0.0,
            ),
            free=("g12_mhz", "g1c_g2c_mhz2", "coupler_ej_sum_ghz",
                  "coupler_asymmetry"),
        )
        rc, _, err = run(capsys, "fit", str(data_path), "--config", cfg)
        assert_input_error(rc, err, "dataset: need at least 6 rows, got 3")

    @pytest.mark.parametrize("column", [3, 4])
    @pytest.mark.parametrize("value", ["-3.4", "0.0"])
    def test_non_positive_qubit_frequency_is_an_input_error(self, tmp_path, capsys,
                                                            column, value):
        data_path, true = self.make_dataset(tmp_path, rows=6)
        lines = Path(data_path).read_text().splitlines()
        cells = lines[1].split(",")
        cells[column] = value
        lines[1] = ",".join(cells)
        Path(data_path).write_text("\n".join(lines) + "\n")
        rc, out, err = run(capsys, "fit", data_path, "--config", self.fit_config(tmp_path, true))
        name = ("omega1_ghz", "omega2_ghz")[column - 3]
        assert out == ""
        assert_input_error(rc, err, f"dataset: {name} values must be positive")

    @pytest.mark.parametrize("free, text", [
        (5, "free must be a non-empty list of parameter names, got 5"),
        ("g12_mhz", "free must be a non-empty list of parameter names, got 'g12_mhz'"),
        (["nope"], "unknown fit parameter 'nope'"),
        ([], "free must be a non-empty list"),
        ([1], "unknown fit parameter 1"),
        (["g12_mhz", "g12_mhz"], "free lists 'g12_mhz' more than once"),
    ])
    def test_bad_free_is_an_input_error(self, tmp_path, capsys, free, text):
        data_path, true = self.make_dataset(tmp_path, rows=12)
        cfg = json.loads(open(self.fit_config(tmp_path, true)).read())
        cfg["free"] = free
        rc, out, err = run(capsys, "fit", data_path, "--config",
                           write_json(tmp_path, "bad.json", cfg))
        assert out == ""
        assert_input_error(rc, err, text)

    @pytest.mark.parametrize("value", ["-6.0", True])
    def test_bool_or_string_init_is_an_input_error(self, tmp_path, capsys, value):
        path, true = self.make_dataset(tmp_path)
        config = self.fit_config(tmp_path, true)
        cfg = json.loads(Path(config).read_text())
        cfg["init"]["g12_mhz"] = value
        rc, out, err = run(capsys, "fit", path, "--config", write_json(tmp_path, "fit.json", cfg))
        assert out == ""
        assert_input_error(rc, err, f"init.g12_mhz must be a number, got {value!r}")

    def test_non_finite_init_is_an_input_error(self, tmp_path, capsys):
        data_path, true = self.make_dataset(tmp_path, rows=12)
        cfg = json.loads(open(self.fit_config(tmp_path, true)).read())
        cfg["init"]["g12_mhz"] = float("inf")
        rc, _, err = run(capsys, "fit", data_path, "--config",
                         write_json(tmp_path, "bad.json", cfg))
        assert_input_error(rc, err, "init.g12_mhz = inf is not finite")

    def test_repeated_flux_is_an_input_error(self, tmp_path, capsys):
        data_path, true = self.make_dataset(tmp_path, rows=12)
        lines = open(data_path).read().splitlines()
        lines[3] = lines[2].split(",")[0] + "," + lines[3].split(",", 1)[1]
        bad = tmp_path / "repeated.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc, _, err = run(capsys, "fit", str(bad), "--config",
                         self.fit_config(tmp_path, true))
        assert_input_error(rc, err, "dataset: flux values must be distinct")

    def test_optimizer_overflow_is_a_fit_error(self, tmp_path, capsys, monkeypatch):
        # bounded inputs keep the optimizer in range, so the overflow is injected
        def overflowing(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(ck.fitkit, "fit_g_vs_flux", overflowing)
        data_path, true = self.make_dataset(tmp_path, rows=12)
        rc, out, err = run(capsys, "fit", data_path, "--config",
                           self.fit_config(tmp_path, true))
        assert (rc, out) == (4, "")
        assert err == "fit error: math range error\n", err

    @pytest.mark.parametrize("name, value", [
        ("g12_mhz", 1e300), ("g1c_g2c_mhz2", -1.2e299), ("coupler_ej_sum_ghz", 2e6),
    ])
    def test_huge_init_is_an_input_error(self, tmp_path, capsys, name, value):
        data_path, true = self.make_dataset(tmp_path, rows=12)
        cfg = json.loads(open(self.fit_config(tmp_path, true)).read())
        cfg["init"][name] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            rc, out, err = run(capsys, "fit", data_path, "--config",
                               write_json(tmp_path, "huge.json", cfg))
        assert out == ""
        assert_input_error(rc, err, f"init.{name} = {value!r} is out of range")

    @pytest.mark.parametrize("free", [
        ("g12_mhz", "g1c_g2c_mhz2", "coupler_asymmetry"),
        ("coupler_ec_ghz", "coupler_ej_sum_ghz"),
    ])
    def test_free_coupler_parameters(self, tmp_path, capsys, free):
        # the simplex steps outside the SQUID/transmon domain on the way
        data_path, true = self.make_dataset(tmp_path, rows=12)
        cfg = self.fit_config(tmp_path, true, free=free)
        rc, out, err = run(capsys, "fit", data_path, "--config", cfg)
        assert rc == 0, err
        assert json.loads(out)["free"] == list(free)

    def test_model_not_finite_on_a_row_is_not_converged(self, tmp_path, capsys):
        # at half a flux quantum the junction-symmetric coupler SQUID has no
        # Josephson energy, so no trial point gives a finite model: the fit
        # stops after one evaluation and says why
        data_path, true = self.make_dataset(tmp_path, rows=12)
        with open(data_path, "a") as f:
            f.write("0.5,37.860373,-1,3.449,3.449\n")
        rc, out, err = run(capsys, "fit", data_path, "--config", self.fit_config(tmp_path, true))
        assert rc == 0
        result = json.loads(out)
        assert (result["converged"], result["rms_residual_mhz"]) == (False, 1e6)
        assert (result["g12_mhz"], result["n_evaluations"]) == (-6.0, 1)
        assert err == (
            "warning: the model is not finite at the initial guess on row 12 "
            "(Phi/Phi0 = 0.5), and no free parameter moves the coupler: "
            "returning the initial guess\n"
        )

    def test_refine_key_is_ignored(self, tmp_path, capsys):
        data_path, true = self.make_dataset(tmp_path, rows=12, noise=0.2)
        cfg = self.fit_config(tmp_path, true)
        plain = run(capsys, "fit", data_path, "--config", cfg)
        with open(cfg) as fh:
            payload = json.load(fh)
        payload["refine"] = False
        cfg = write_json(tmp_path, "fit_refine.json", payload)
        assert run(capsys, "fit", data_path, "--config", cfg) == plain

    def test_byte_identical_repeat(self, tmp_path, capsys):
        data_path, true = self.make_dataset(tmp_path, noise=0.2)
        cfg = self.fit_config(tmp_path, true)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "fit", data_path, "--config", cfg, "--out", str(a))[0] == 0
        assert run(capsys, "fit", data_path, "--config", cfg, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestNetlistRoute:
    def test_sweep_from_netlist_and_squids(self, tmp_path, capsys):
        net = floating_coupler_design(True)
        e = ck.energies_exact(net)
        cfg = {
            "schema": 1,
            "netlist": netlist_to_dict(net),
            "squids": {
                "qubit1": {"ej_sum": ck.ej_for_frequency(e.ec1, 4.58),
                           "asymmetry": 0.1},
                "qubit2": {"ej_sum": ck.ej_for_frequency(e.ec2, 4.64),
                           "asymmetry": 0.1},
                "coupler": {"ej_sum": ck.ej_for_frequency(e.ecc, 6.041),
                            "asymmetry": 0.0},
            },
            "sweep": {"quantity": "g", "variable": "coupler-flux",
                      "range": [0.05, 0.45], "points": 60},
        }
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, out, _ = run(capsys, "sweep", "--config", path)
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        g = [float(r["g_mhz"]) for r in rows if r["g_mhz"]]
        # coupler sweeps from near its sweet spot down through the qubits:
        # the net coupling must cross zero below them
        assert min(g) < 0 < max(g)

    def test_missing_squids_is_input_error(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "netlist": netlist_to_dict(floating_coupler_design(True)),
            "sweep": {"quantity": "g", "variable": "coupler-frequency",
                      "range": [3.0, 4.0], "points": 5},
        }
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, _, err = run(capsys, "sweep", "--config", path)
        assert rc == 2
        assert "squids" in err


def assert_input_error(rc, err, text):
    assert rc == 2
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    assert text in err


def model_run(**extra):
    cfg = {
        "schema": 1,
        "model": model_block(FLOATING_DESIGN_RATES_SYMMETRIC),
        "sweep": {"quantity": "g", "range": [2.77, 4.0], "points": 5},
    }
    cfg.update(extra)
    return cfg


def netlist_run(**extra):
    net = floating_coupler_design(True)
    e = ck.energies_exact(net)
    cfg = {
        "schema": 1,
        "netlist": netlist_to_dict(net),
        "squids": {
            "qubit1": {"ej_sum": ck.ej_for_frequency(e.ec1, 4.58)},
            "qubit2": {"ej_sum": ck.ej_for_frequency(e.ec2, 4.64)},
            "coupler": {"ej_sum": ck.ej_for_frequency(e.ecc, 6.041)},
        },
        "sweep": {"quantity": "g", "variable": "coupler-flux",
                  "range": [0.05, 0.45], "points": 5},
    }
    cfg.update(extra)
    return cfg


COMMANDS = [("sweep",), ("find", "--target", "g")]


class TestRunConfigErrors:
    @pytest.mark.parametrize("cfg, text", [
        (model_run(levels=5), "levels must be three"),
        (model_run(model=5), "model block must be an object"),
        (netlist_run(flux=[]), "flux must be an object"),
        (netlist_run(flux={"qubit1": None}), "flux entries must be numbers"),
        (netlist_run(netlist="no-such-netlist.json"), "file not found: no-such-netlist.json"),
        (netlist_run(squids={"qubit1": {"ej_sum": 1e200}, "qubit2": {"ej_sum": 15.0},
                             "coupler": {"ej_sum": 28.0}}), "out of range"),
    ])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_malformed_config_exit_2(self, tmp_path, capsys, monkeypatch, cfg, text, command):
        monkeypatch.chdir(tmp_path)
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, out, err = run(capsys, command[0], "--config", path, *command[1:])
        assert out == ""
        assert_input_error(rc, err, text)

    @pytest.mark.parametrize("cfg, command, text", [
        (netlist_run(squids={"qubit1": {"ej_sum": 1e200}, "qubit2": {"ej_sum": 15.0},
                             "coupler": {"ej_sum": 28.0}}),
         ("sweep",), "squids.qubit1.ej_sum = 1e+200 is out of range"),
        (model_run(model=dict(model_block(FLOATING_DESIGN_RATES_SYMMETRIC), g12=1e200),
                   sweep={"quantity": "zz", "range": [2.77, 4.0], "points": 5}),
         ("sweep",), "model.g12 = 1e+200 is out of range"),
        (model_run(sweep={"range": [2.77, float("nan")]}),
         ("find", "--target", "g"), "sweep.range = nan is out of range"),
    ])
    def test_out_of_range_number_names_its_field(self, tmp_path, capsys, cfg, command, text):
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, out, err = run(capsys, command[0], "--config", path, *command[1:])
        assert out == ""
        assert_input_error(rc, err, text)

    @pytest.mark.parametrize("text, message", [
        ("{nope", ": invalid JSON: Expecting property name"),
        ("[1, 2]", ": top level must be a JSON object"),
    ])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_must_be_a_json_object(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        rc, out, err = run(capsys, command[0], "--config", str(path), *command[1:])
        assert out == ""
        assert_input_error(rc, err, f"input error: {path}{message}")

    def test_sweep_points_above_bound(self, tmp_path, capsys):
        cfg = model_run(sweep={"quantity": "g", "range": [2.77, 4.0], "points": 1_000_001})
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, out, err = run(capsys, "sweep", "--config", path)
        assert out == ""
        assert_input_error(rc, err, "sweep.points = 1000001 is out of range")

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("coupler_ec", [-0.2, 0.0])
    def test_coupler_ec_must_be_positive(self, tmp_path, capsys, command, coupler_ec):
        cfg = model_run(
            coupler_squid={"ej_sum": 30.0}, coupler_ec=coupler_ec,
            sweep={"quantity": "g", "variable": "coupler-flux", "range": [0.0, 0.4], "points": 5},
        )
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, out, err = run(capsys, command[0], "--config", path, *command[1:])
        assert out == ""
        assert_input_error(rc, err, f"coupler_ec = {coupler_ec!r} must be positive")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_coupler_without_positive_frequency(self, tmp_path, capsys, command):
        cfg = model_run(
            coupler_squid={"ej_sum": 1.0}, coupler_ec=100.0,
            sweep={"quantity": "g", "variable": "coupler-flux", "range": [0.0, 0.4], "points": 5},
        )
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, out, err = run(capsys, command[0], "--config", path, *command[1:])
        assert out == ""
        assert_input_error(
            rc, err, "coupler_ec = 100.0 leaves the coupler no positive frequency "
            "(at most -425.269119 GHz with coupler_squid)",
        )

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("route", [model_run, netlist_run])
    @pytest.mark.parametrize("lo", [0.0, -1.0])
    def test_coupler_frequency_range_must_be_positive(self, tmp_path, capsys, command,
                                                      route, lo):
        cfg = route(sweep={"quantity": "g", "range": [lo, 6.0], "points": 5})
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, out, err = run(capsys, command[0], "--config", path, *command[1:])
        assert out == ""
        assert_input_error(
            rc, err, f"sweep.range must hold positive coupler frequencies, got [{lo}, 6.0]"
        )

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("backend", ["effective", "numeric"])
    @pytest.mark.parametrize("levels, text", [
        ([1, 5, 5], "levels must be three integers in [2, 12], got (1, 5, 5)"),
        ([3.7, 5, 5], "levels[0] must be an integer, got 3.7"),
        ([3, True, 5], "levels[1] must be an integer, got True"),
        ([3, 5, "5"], "levels[2] must be an integer, got '5'"),
    ])
    def test_levels_are_checked_for_every_backend(self, tmp_path, capsys, command,
                                                  backend, levels, text):
        path = write_json(tmp_path, "cfg.json", model_run(backend=backend, levels=levels))
        rc, out, err = run(capsys, command[0], "--config", path, *command[1:])
        assert out == ""
        assert_input_error(rc, err, text)

    def test_levels_option_is_checked_for_every_backend(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json", model_run())
        rc, out, err = run(capsys, "sweep", "--config", path, "--levels", "1,5,5")
        assert out == ""
        assert_input_error(rc, err, "levels must be three integers in [2, 12], got (1, 5, 5)")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_empty_levels_option_is_an_input_error(self, tmp_path, capsys, command):
        path = write_json(tmp_path, "cfg.json", model_run(backend="numeric"))
        rc, out, err = run(capsys, command[0], "--config", path, *command[1:], "--levels", "")
        assert out == ""
        assert_input_error(rc, err, "levels must be three comma-separated integers: ")

    @pytest.mark.parametrize("points", [10.9, True, "10", None])
    def test_sweep_points_must_be_an_integer(self, tmp_path, capsys, points):
        path = write_json(tmp_path, "cfg.json", model_run(
            sweep={"quantity": "g", "range": [2.77, 4.0], "points": points}))
        rc, out, err = run(capsys, "sweep", "--config", path)
        assert out == ""
        assert_input_error(rc, err, f"sweep.points must be an integer, got {points!r}")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_qubit_without_positive_frequency_at_its_flux(self, tmp_path, capsys, command):
        # the symmetric qubit SQUID has no Josephson energy at half a flux quantum
        path = write_json(tmp_path, "cfg.json", netlist_run(flux={"qubit1": 0.5}))
        rc, out, err = run(capsys, command[0], "--config", path, *command[1:])
        assert out == ""
        assert_input_error(
            rc, err, "squids.qubit1 at flux.qubit1 = 0.5 leaves qubit 1 no positive frequency"
        )

    @pytest.mark.parametrize("command", COMMANDS)
    def test_tiny_qubit_ej_sum(self, tmp_path, capsys, command):
        cfg = netlist_run()
        cfg["squids"]["qubit2"] = {"ej_sum": 0.01}
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, out, err = run(capsys, command[0], "--config", path, *command[1:])
        assert (rc, out) == (2, "")
        warning, error = err.splitlines()
        assert warning == ("warning: qubit2: EJ/EC = 0.1 at zero flux is below the transmon "
                           "regime threshold 20.0")
        assert error == ("input error: squids.qubit2 at flux.qubit2 = 0.0 leaves qubit 2 "
                         "no positive frequency")

    @pytest.mark.parametrize("command", ["energies", "sweep"])
    @pytest.mark.parametrize("field, value", [
        ("a", "1e400"), ("a", "2.9"), ("a", "true"), ("b", "\"3\""),
    ])
    def test_capacitor_node_ids_must_be_integers(self, tmp_path, capsys, command, field,
                                                 value):
        net = netlist_to_dict(floating_coupler_design(True))
        net["capacitors"][2][field] = "VALUE"
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net).replace('"VALUE"', value))
        if command == "energies":
            argv = ["energies", str(net_path)]
        else:
            argv = ["sweep", "--config",
                    write_json(tmp_path, "cfg.json", netlist_run(netlist=str(net_path)))]
        rc, out, err = run(capsys, *argv)
        shown = {"1e400": "inf", "true": "True", '"3"': "'3'"}.get(value, value)
        assert out == ""
        assert_input_error(rc, err, f"capacitors[2].{field} must be an integer, got {shown}")

    @pytest.mark.parametrize("command", ["energies", "sweep"])
    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_capacitances_out_of_range(self, tmp_path, capsys, command, scale):
        # every capacitance scaled alike keeps the network valid, but the
        # energy formulas divide by zero or overflow
        net = netlist_to_dict(floating_coupler_design(True))
        for cap in net["capacitors"]:
            cap["fF"] *= scale
        net_path = write_json(tmp_path, "net.json", net)
        if command == "energies":
            argv = ["energies", net_path]
        else:
            argv = ["sweep", "--config", write_json(tmp_path, "cfg.json", netlist_run(netlist=net_path))]
        rc, out, err = run(capsys, *argv)
        assert out == ""
        assert_input_error(rc, err, f"capacitors[0].fF = {110 * scale!r} is outside "
                                    "[1e-06, 1e+06] fF")

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.filterwarnings("ignore:net coupling crosses zero 2 times")
    def test_coupler_flux_run_ignores_configured_coupler_flux(self, tmp_path, capsys,
                                                              command):
        # the symmetric coupler SQUID has no Josephson energy at half a flux
        # quantum, so only a coupler-frequency run, which starts from the
        # model at flux.coupler, fails there
        cfg = netlist_run(flux={"coupler": 0.5})
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, out, err = run(capsys, command[0], "--config", path, *command[1:])
        assert rc in (0, 3) and "error" not in err
        if command[0] == "sweep":
            assert rc == 0 and err == ""
            rows = list(csv.DictReader(io.StringIO(out)))
            assert len(rows) == 5 and all(r["g_mhz"] for r in rows)
        cfg["sweep"] = {"quantity": "g", "range": [2.77, 4.0], "points": 5}
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, out, err = run(capsys, command[0], "--config", path, *command[1:])
        assert (rc, out) == (2, "")
        assert err == ("input error: squids.coupler at flux.coupler = 0.5 leaves the "
                       "coupler no positive frequency\n")

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("value", ["4.58", True])
    @pytest.mark.parametrize("field, cfg", [
        ("model.omega1", lambda v: model_run(model={**model_block(FLOATING_DESIGN_RATES_SYMMETRIC),
                                                    "omega1": v})),
        ("coupler_ec", lambda v: model_run(
            coupler_squid={"ej_sum": 30.0}, coupler_ec=v,
            sweep={"quantity": "g", "variable": "coupler-flux", "range": [0.0, 0.4],
                   "points": 5})),
        ("squids.coupler.ej_sum", lambda v: netlist_run(squids={
            **netlist_run()["squids"], "coupler": {"ej_sum": v}})),
        ("squids.qubit1.asymmetry", lambda v: netlist_run(squids={
            **netlist_run()["squids"], "qubit1": {"ej_sum": 15.0, "asymmetry": v}})),
        ("squids.qubit2.ej_small", lambda v: netlist_run(squids={
            **netlist_run()["squids"], "qubit2": {"ej_large": 15.0, "ej_small": v}})),
        ("flux.qubit1", lambda v: netlist_run(flux={"qubit1": v})),
        ("sweep.range", lambda v: model_run(sweep={"quantity": "g", "range": [2.77, v],
                                                   "points": 5})),
        ("capacitors[4].fF", lambda v: netlist_run(netlist={
            **netlist_to_dict(floating_coupler_design(True)),
            "capacitors": [dict(c, fF=v) if i == 4 else c for i, c in enumerate(
                netlist_to_dict(floating_coupler_design(True))["capacitors"])]})),
    ])
    def test_bool_or_string_is_not_a_number(self, tmp_path, capsys, command, value, field,
                                            cfg):
        path = write_json(tmp_path, "cfg.json", cfg(value))
        rc, out, err = run(capsys, command[0], "--config", path, *command[1:])
        assert out == ""
        assert_input_error(rc, err, f"{field} must be a number, got {value!r}")

    def test_find_without_range(self, tmp_path, capsys):
        cfg = model_run()
        del cfg["sweep"]["range"]
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, _, err = run(capsys, "find", "--config", path, "--target", "g")
        assert_input_error(rc, err, "'range'")

    def test_find_rejects_config_backend(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json", model_run(backend="magic"))
        rc, _, err = run(capsys, "find", "--config", path, "--target", "g")
        assert_input_error(rc, err, "backend must be effective|numeric|both")

    def test_find_needs_no_points_or_quantity(self, tmp_path, capsys):
        cfg = model_run()
        cfg["sweep"] = {"range": [2.77, 4.0]}
        path = write_json(tmp_path, "cfg.json", cfg)
        rc, out, _ = run(capsys, "find", "--config", path, "--target", "g")
        assert rc == 0
        assert float(out) == pytest.approx(3.5288, abs=2e-3)

    def test_netlist_path_relative_to_working_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path, "net.json", netlist_to_dict(floating_coupler_design(True)))
        inline = write_json(tmp_path, "inline.json", netlist_run())
        by_path = write_json(tmp_path, "by_path.json", netlist_run(netlist="net.json"))
        assert run(capsys, "sweep", "--config", inline) == run(
            capsys, "sweep", "--config", by_path
        )


class TestMissingFiles:
    def test_netlist_argument(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        rc, _, err = run(capsys, "energies", missing)
        assert_input_error(rc, err, f"file not found: {missing}")

    def test_dataset(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "fit.json", {"schema": 1, "init": {}})
        missing = str(tmp_path / "nope.csv")
        rc, _, err = run(capsys, "fit", missing, "--config", cfg)
        assert_input_error(rc, err, f"file not found: {missing}")


HALF_FLUX_SWEEP = {"quantity": "both", "variable": "coupler-flux",
                   "range": [0.4, 0.5], "points": 201}


class TestHalfFluxQuantum:
    """A symmetric coupler SQUID tuned to just below half a flux quantum has a
    small positive EJ at which the transmon formula gives a negative coupler
    frequency; those points are outside the flux domain, like EJ = 0."""

    @staticmethod
    def config(route):
        if route == "netlist":
            return netlist_run(sweep=dict(HALF_FLUX_SWEEP))
        return {**TestFind.device_flux_config([0.4, 0.5]), "sweep": dict(HALF_FLUX_SWEEP)}

    @pytest.mark.parametrize("route", ["model", "netlist"])
    def test_sweep_blanks_negative_coupler_frequency(self, tmp_path, capsys, route):
        path = write_json(tmp_path, "cfg.json", self.config(route))
        rc, out, err = run(capsys, "sweep", "--config", path)
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 201
        blank = [r for r in rows if r["g_mhz"] == ""]
        assert len(blank) > 1 and rows[-len(blank):] == blank
        assert all(set(r.values()) == {r["x_value"], ""} for r in blank)
        warned = err.splitlines()
        assert len(warned) == len(blank)
        assert "coupler frequency must be positive" in warned[0]
        assert all(line.startswith(f"warning: x = {r['x_value']}: ")
                   for line, r in zip(warned, blank))

    @pytest.mark.parametrize("route", ["model", "netlist"])
    @pytest.mark.parametrize("target", ["g", "zz"])
    def test_find_skips_negative_coupler_frequency(self, tmp_path, capsys, route, target):
        # the 200-point prescan of [0.4, 0.5] lands on such points
        path = write_json(tmp_path, "cfg.json", self.config(route))
        rc, out, err = run(capsys, "find", "--config", path, "--target", target)
        assert rc in (0, 3)
        assert "input error" not in err and "must be positive" not in err
        assert (rc == 0) == bool(out.strip())


def run_catching_exit(argv):
    """``run_in_process`` that also records argparse's SystemExit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


class TestSharedParser:
    @pytest.fixture
    def commands(self, tmp_path, monkeypatch):
        """Every subcommand, an argparse error and help, at a fixed help width."""
        monkeypatch.setenv("COLUMNS", "80")
        net = write_json(tmp_path, "net.json", netlist_to_dict(floating_coupler_design(True)))
        run_cfg = write_json(tmp_path, "run.json", model_run())
        data, true = TestFit().make_dataset(tmp_path, rows=12)
        fit_cfg = TestFit().fit_config(tmp_path, true)
        return [
            ["energies", net],
            ["sweep", "--config", run_cfg, "--backend", "both", "--levels", "3,3,3"],
            ["find", "--config", run_cfg, "--target", "g"],
            ["fit", data, "--config", fit_cfg],
            ["find", "--config", run_cfg],
            ["sweep", "--backend", "fast"],
            ["--help"],
            ["fit", "--help"],
            ["energies", net],
        ]

    def test_shared_parser_matches_fresh_parsers(self, commands):
        shared = [run_catching_exit(argv) for argv in commands]
        with mock.patch.object(cli, "build_parser", cli.build_parser.__wrapped__):
            fresh = [run_catching_exit(argv) for argv in commands]
        assert shared == fresh
        assert [rc for rc, _, _ in shared] == [0, 0, 0, 0, 2, 2, 0, 0, 0]

    def test_parser_is_built_once_per_process(self, commands):
        cli.build_parser()  # the one build, if no earlier test ran main
        with mock.patch.object(cli.argparse, "ArgumentParser",
                               side_effect=AssertionError("parser built again")):
            for argv in commands:
                run_catching_exit(argv)

    def test_cold_help_matches_in_process(self, commands):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
        proc = subprocess.run([sys.executable, "-m", "couplerkit.cli", "--help"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_catching_exit(["--help"])


# -- property test of the run-config reader ------------------------------------

def _key_paths(obj, prefix=()):
    """Path of every value nested in a JSON-like config."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


def _too_many_points(value):
    try:
        return int(value) > 50
    except (TypeError, ValueError, OverflowError):
        return False


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)
)
REPLACEMENTS = st.one_of(SCALARS, st.lists(SCALARS, max_size=3))
CONFIG_NAMES = itertools.count()


@pytest.fixture(scope="module")
def fuzz_runs(tmp_path_factory):
    """Valid sweep/find configs on the model-block and netlist routes."""
    root = tmp_path_factory.mktemp("fuzz")
    net_path = root / "net.json"
    net_path.write_text(json.dumps(netlist_to_dict(floating_coupler_design(False))))
    dev = ASYMMETRIC_DEVICE
    flux_model = {
        "schema": 1,
        "model": model_block(FLOATING_DESIGN_RATES_ASYMMETRIC, omegac=dev.omegac_max,
                             omega1=dev.omega1_max, omega2=dev.omega2_max),
        "coupler_squid": {"ej_sum": dev.coupler_squid.ej_sum, "asymmetry": 0.0},
        "coupler_ec": dev.coupler_ec,
        "sweep": {"quantity": "both", "variable": "coupler-flux",
                  "range": [0.0, 0.345], "points": 10},
    }
    runs = [
        model_run(backend="effective", levels=[3, 3, 3]),
        flux_model,
        netlist_run(flux={"qubit1": 0.05, "qubit2": 0.1, "coupler": 0.0}),
        netlist_run(netlist=str(net_path), levels=[3, 4, 3]),
    ]
    return root, runs


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_mutated_run_config_fails_cleanly(fuzz_runs, data):
    """A dropped key or a null/string/list/number value gives exit 0, 2 or 3;
    a failure prints one message, and an exception escaping main fails the test."""
    root, runs = fuzz_runs
    cfg = copy.deepcopy(data.draw(st.sampled_from(runs)))
    *parents, key = data.draw(st.sampled_from(list(_key_paths(cfg))))
    holder = cfg
    for p in parents:
        holder = holder[p]
    if isinstance(holder, dict) and data.draw(st.booleans()):
        del holder[key]
    else:
        values = REPLACEMENTS
        if key == "points":  # keep sweeps short
            values = values.filter(lambda v: not _too_many_points(v))
        holder[key] = data.draw(values)
    # a new file per example: truncating a just-written file can force a flush
    cfg_path = root / f"cfg-{next(CONFIG_NAMES)}.json"
    cfg_path.write_text(json.dumps(cfg))
    command = data.draw(st.sampled_from(
        [("sweep",), ("find", "--target", "g"), ("find", "--target", "zz")]
    ))

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([command[0], "--config", str(cfg_path), *command[1:]])
    if rc != 0:
        assert rc in (2, 3)
        # skipped sweep rows warn before a later row fails
        messages = [
            line for line in err.getvalue().splitlines() if not line.startswith("warning: ")
        ]
        assert len(messages) == 1, err.getvalue()
        assert messages[0].startswith(
            ("input error: ", "error: ", "no root: ", "no zz roots")
        ), messages


# -- property test of the fit-input readers ------------------------------------

@pytest.fixture(scope="module")
def fuzz_fit(tmp_path_factory):
    """A valid 8-row dataset and fit config."""
    root = tmp_path_factory.mktemp("fitfuzz")
    data_path, true = TestFit().make_dataset(root, rows=8)
    cfg = json.loads(open(TestFit().fit_config(root, true)).read())
    return root, cfg, open(data_path).read().splitlines()


CELLS = st.one_of(st.text(max_size=8), st.floats().map(repr), st.integers().map(str))


def _mutated_rows(data, rows):
    """Truncate the rows, repeat one row's flux in another, or retype a cell."""
    header, body = rows[0], rows[1:]
    how = data.draw(st.sampled_from(["truncate", "repeat", "cell"]))
    if how == "truncate":
        body = body[:data.draw(st.integers(0, len(body) - 1))]
    elif how == "repeat":
        i, j = data.draw(st.lists(st.integers(0, len(body) - 1), min_size=2,
                                  max_size=2, unique=True))
        body[j] = body[i].split(",")[0] + "," + body[j].split(",", 1)[1]
    else:
        i = data.draw(st.integers(0, len(body) - 1))
        cells = body[i].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(CELLS)
        body[i] = ",".join(cells)
    return [header, *body]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_fit_input_fails_cleanly(fuzz_fit, data):
    """A mutated fit config or dataset gives exit 0, 2 or 4 with at most one
    non-warning line on stderr; an exception escaping main fails the test."""
    root, cfg, rows = fuzz_fit
    cfg = copy.deepcopy(cfg)
    if data.draw(st.booleans()):
        *parents, key = data.draw(st.sampled_from(list(_key_paths(cfg))))
        holder = cfg
        for p in parents:
            holder = holder[p]
        if isinstance(holder, dict) and data.draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = data.draw(REPLACEMENTS)
    else:
        rows = _mutated_rows(data, rows)
    n = next(CONFIG_NAMES)
    cfg_path, data_path = root / f"fit-{n}.json", root / f"data-{n}.csv"
    cfg_path.write_text(json.dumps(cfg))
    data_path.write_text("\n".join(rows) + "\n")

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(["fit", str(data_path), "--config", str(cfg_path)])
    messages = err.getvalue().splitlines()
    if rc == 0:
        assert messages == [] and json.loads(out.getvalue())["schema"] == 1
    else:
        assert rc in (2, 4) and out.getvalue() == ""
        assert len(messages) == 1, err.getvalue()
        assert messages[0].startswith(("input error: ", "fit error: ")), messages


# -- property test of the netlist reader -----------------------------------------

@pytest.fixture(scope="module")
def fuzz_netlists(tmp_path_factory):
    """Both bundled topologies, and the squids a netlist run config adds."""
    root = tmp_path_factory.mktemp("netfuzz")
    nets = [netlist_to_dict(floating_coupler_design(False)),
            netlist_to_dict(grounded_coupler_design(True))]
    return root, nets, netlist_run()["squids"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_netlist_fails_cleanly(fuzz_netlists, data):
    """A netlist file with a dropped key or a null/string/list/number value
    gives exit 0, 2 or 3 from energies, sweep and find, with at most one
    non-warning line on stderr; an exception escaping main fails the test."""
    root, nets, squids = fuzz_netlists
    net = copy.deepcopy(data.draw(st.sampled_from(nets)))
    *parents, key = data.draw(st.sampled_from(list(_key_paths(net))))
    holder = net
    for p in parents:
        holder = holder[p]
    if isinstance(holder, dict) and data.draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = data.draw(REPLACEMENTS)
    n = next(CONFIG_NAMES)
    net_path = root / f"net-{n}.json"
    net_path.write_text(json.dumps(net))
    cfg_path = root / f"run-{n}.json"
    cfg_path.write_text(json.dumps({
        "schema": 1, "netlist": str(net_path), "squids": squids,
        "sweep": {"quantity": "both", "variable": "coupler-flux",
                  "range": [0.0, 0.45], "points": 5},
    }))
    argv = data.draw(st.sampled_from([
        ["energies", str(net_path)],
        ["sweep", "--config", str(cfg_path)],
        ["find", "--config", str(cfg_path), "--target", "g"],
        ["find", "--config", str(cfg_path), "--target", "zz"],
    ]))

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(argv)
    if rc != 0:
        assert rc in (2, 3) and out.getvalue() == ""
        messages = [
            line for line in err.getvalue().splitlines() if not line.startswith("warning: ")
        ]
        assert len(messages) == 1, err.getvalue()
        assert messages[0].startswith(
            ("input error: ", "error: ", "no root: ", "no zz roots")
        ), messages


# -- property test of the sweep against a per-row reference ----------------------

def per_row_sweep_rows(builder, xs, quantity, backend, levels):
    """The sweep as one float model, g and ZZ evaluation per row."""
    want_g = quantity in ("g", "both")
    want_zz = quantity in ("zz", "both")
    want_numeric = want_zz and backend in ("numeric", "both")
    want_pert = want_zz and backend in ("effective", "both")
    header = ["x_value", "g_eff_mhz", "g_mhz", "zeta2_mhz", "zeta34_mhz", "zeta_pert_mhz"]
    if want_numeric:
        header.append("zeta_numeric_mhz")
    rows = []
    for x in xs:
        x = float(x)
        cells = {"x_value": cli._fmt(x)}
        try:
            m = builder(x)
        except ck.CouplerKitError as exc:
            print(f"warning: x = {cli._fmt(x)}: {exc}", file=sys.stderr)
            rows.append(",".join(cells.get(h, "") for h in header))
            continue
        if want_g:
            try:
                eff = effmodel.g_net(m)
                cells["g_eff_mhz"] = cli._fmt(eff.g_eff * 1e3)
                cells["g_mhz"] = cli._fmt(eff.g * 1e3)
            except ck.ResonanceError as exc:
                print(f"warning: x = {cli._fmt(x)}: {exc}", file=sys.stderr)
        if want_pert:
            try:
                zz = effmodel.zz_perturbative(m)
                cells["zeta2_mhz"] = cli._fmt(zz.zeta2 * 1e3)
                cells["zeta34_mhz"] = cli._fmt(zz.zeta34 * 1e3)
                cells["zeta_pert_mhz"] = cli._fmt(zz.zeta_total * 1e3)
            except ck.ResonanceError as exc:
                print(f"warning: x = {cli._fmt(x)}: {exc}", file=sys.stderr)
        if want_numeric:
            try:
                cells["zeta_numeric_mhz"] = cli._fmt(numdiag.zz_numeric(m, levels) * 1e3)
            except (ck.LabelingError, ck.ResonanceError) as exc:
                print(f"warning: x = {cli._fmt(x)}: {exc}", file=sys.stderr)
        rows.append(",".join(cells.get(h, "") for h in header))
    return header, rows


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@st.composite
def sweep_configs(draw):
    """Sweeps that cross resonance poles, flux-domain edges and, for a large
    coupler E_C, a coupler frequency that turns negative partway."""
    route = draw(st.sampled_from(["frequency", "model-flux", "netlist"]))
    rates = draw(st.sampled_from(
        [FLOATING_DESIGN_RATES_SYMMETRIC, FLOATING_DESIGN_RATES_ASYMMETRIC]
    ))
    dev = ASYMMETRIC_DEVICE
    if route == "frequency":
        w1 = draw(st.floats(4.0, 4.7))
        w2 = draw(st.one_of(st.just(w1), st.floats(4.0, 4.7)))  # w1 = w2: all on the floor
        lo = draw(st.one_of(st.just(w1), st.just(w2), st.floats(3.5, 4.5)))
        hi = lo + draw(st.floats(0.05, 1.5))
        cfg = {"model": model_block(rates, omegac=5.0, omega1=w1, omega2=w2),
               "sweep": {"variable": "coupler-frequency", "range": [lo, hi]}}
    elif route == "model-flux":
        cfg = {"model": model_block(rates, omegac=dev.omegac_max,
                                    omega1=dev.omega1_max, omega2=dev.omega2_max),
               "coupler_squid": {"ej_sum": dev.coupler_squid.ej_sum,
                                 "asymmetry": draw(st.sampled_from([0.0, 0.2]))},
               "coupler_ec": draw(st.one_of(st.sampled_from([dev.coupler_ec, 0.3, 100.0]),
                                            st.floats(0.05, 0.5))),
               "sweep": {"variable": "coupler-flux",
                         "range": [draw(st.sampled_from([-0.5, 0.0, -0.2])),
                                   draw(st.sampled_from([0.5, 0.345, 0.6]))]}}
    else:
        net = draw(st.sampled_from([floating_coupler_design(True), floating_coupler_design(False),
                                    grounded_coupler_design(True)]))
        e = ck.energies_exact(net)
        squids = {
            name: {"ej_sum": ck.ej_for_frequency(ec, draw(st.floats(lo_f, hi_f))),
                   "asymmetry": draw(st.sampled_from([0.0, 0.1, 0.3]))}
            for name, ec, lo_f, hi_f in (("qubit1", e.ec1, 4.0, 4.7), ("qubit2", e.ec2, 4.0, 4.7),
                                         ("coupler", e.ecc, 3.5, 6.6))
        }
        flux = {"qubit1": draw(st.floats(-0.3, 0.3)), "qubit2": draw(st.floats(-0.3, 0.3))}
        cfg = {"netlist": netlist_to_dict(net), "squids": squids, "flux": flux,
               "sweep": {"variable": "coupler-flux", "range": [-0.6, 0.6]}}
    cfg["schema"] = 1
    cfg["sweep"]["points"] = draw(st.integers(2, 60))
    cfg["sweep"]["quantity"] = draw(st.sampled_from(["g", "zz", "both"]))
    backend = draw(st.sampled_from([["--backend", "effective"],
                                    ["--backend", "both", "--levels", "3,3,3"]]))
    return cfg, backend


@settings(max_examples=150, deadline=None)
@given(case=sweep_configs())
# the only blank cells are numeric: at x = 4.25 and 4.5 the coupler hybridizes
# with the qubits; at omega1 = omega2 the perturbative cells would be blank too
@example(case=({
    "schema": 1,
    "model": model_block(FLOATING_DESIGN_RATES_SYMMETRIC, omegac=5.0, omega1=4.3, omega2=4.305),
    "sweep": {"variable": "coupler-frequency", "range": [3.5, 6.0], "points": 11,
              "quantity": "zz"},
}, ["--backend", "both", "--levels", "3,3,3"]))
def test_sweep_matches_per_row_reference(tmp_path_factory, case):
    """The array sweep prints what one float evaluation per row prints:
    the same CSV, the same warnings and the same exit code."""
    cfg, backend = case
    path = tmp_path_factory.mktemp("sweep") / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ["sweep", "--config", str(path), *backend]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # EJ/EC below the transmon regime
        got = run_in_process(argv)
        with mock.patch.object(cli, "_sweep_rows", per_row_sweep_rows):
            want = run_in_process(argv)
    assert got == want
