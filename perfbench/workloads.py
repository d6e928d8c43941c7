"""Seeded inputs and timed operations of the benchmark's workloads.

Each workload generates a fixed pool of inputs from the seed during set-up and
then runs rounds; one round runs every input in the pool once, in one process,
one operation at a time (a closed loop with one caller).  The program only
ever sees the generated objects or files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from couplerkit import capnet, cli, effmodel, fitkit, numdiag, presets
from couplerkit.errors import NoRootError
from couplerkit.squid import SquidParams, flux_for_ej, phase_from_flux_ratio
from couplerkit.transmon import TransmonParams, TransmonRole, ej_for_frequency, system_model

import checks

HERE = Path(__file__).resolve().parent


@dataclass
class Sample:
    kind: str            # sweep | find | fit | energies | model | cli
    key: str             # input identity; each input runs once per round
    wall: float
    rows: int = 0
    cells: int = 0
    blanks: int = 0
    problems: list[str] = field(default_factory=list)
    check: Callable[[], list[str]] | None = None


class Recorder:
    """Times operations and keeps what is needed to check them afterwards."""

    def __init__(self, tracer=None):
        self.samples: list[Sample] = []
        self.round_walls: list[float] = []
        self.tracer = tracer

    def timed(self, kind: str, key: str, fn, check=None, rows: int = 0) -> object:
        if self.tracer is not None:
            self.tracer.op = len(self.samples)
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # an operation that fails is counted, not fatal
            wall = time.perf_counter() - start
            self.samples.append(Sample(kind, key, wall, rows, problems=[f"raised {exc!r}"]))
            return None
        wall = time.perf_counter() - start
        sample = Sample(kind, key, wall, rows)
        if check is not None:
            sample.check = lambda: check(out)
        if kind == "sweep":
            sample.cells, sample.blanks = _count_cells(out if isinstance(out, str) else out[1])
        self.samples.append(sample)
        return out

    def run_checks(self) -> None:
        for sample in self.samples:
            if sample.check is not None:
                try:
                    sample.problems += sample.check()
                except Exception as exc:
                    sample.problems.append(f"check raised {exc!r}")
                sample.check = None


def _count_cells(text: str) -> tuple[int, int]:
    lines = text.splitlines()[1:]
    cells = [c for line in lines for c in line.split(",")[1:]]
    return len(cells), sum(c == "" for c in cells)


def cli_in_process(argv: list[str]) -> tuple[int, str, str]:
    """In-process ``couplerkit`` command: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_cli(argv: list[str]) -> str:
    """In-process ``couplerkit`` command; returns stdout, fails on a nonzero exit."""
    code, out, err = cli_in_process(argv)
    if code != 0:
        raise RuntimeError(f"couplerkit {' '.join(argv)} exited {code}: {err[-300:]}")
    return out


# -- seeded designs ------------------------------------------------------------

DESIGN_CLASSES = [
    (topology, symmetric, placement)
    for placement in ("above", "below")
    for topology in ("floating", "grounded")
    for symmetric in (True, False)
]


@dataclass
class Design:
    """A perturbed bundled netlist with SQUIDs sized to seeded target bands."""

    key: str
    net: capnet.CapNetwork
    energies: capnet.ModeEnergies
    squids: dict
    placement: str
    want_class: capnet.Configuration
    targets: tuple[float, float, float]

    def transmons(self):
        roles = (TransmonRole.QUBIT_1, TransmonRole.QUBIT_2, TransmonRole.COUPLER)
        ecs = (self.energies.ec1, self.energies.ec2, self.energies.ecc)
        return [
            TransmonParams(
                e_c=ec,
                squid=SquidParams.from_sum_asymmetry(
                    self.squids[name]["ej_sum"], self.squids[name]["asymmetry"]
                ),
                role=role,
            )
            for name, ec, role in zip(("qubit1", "qubit2", "coupler"), ecs, roles)
        ]

    def model_at(self, coupler_flux: float):
        q1, q2, c = self.transmons()
        return system_model(self.energies, q1, q2, c, phi_ec=phase_from_flux_ratio(coupler_flux))

    def device(self) -> presets.ReferenceDevice:
        m0 = self.model_at(0.0)
        return presets.ReferenceDevice(
            name=self.key, omega1_max=m0.omega1, omega2_max=m0.omega2,
            eta1=m0.eta1, eta2=m0.eta2, omegac_max=m0.omegac,
            coupler_ec=self.energies.ecc, g12=m0.g12, g1c_g2c=m0.g1c * m0.g2c,
        )

    def sweep_config(self, lo: float, hi: float, points: int) -> dict:
        return {
            "schema": 1,
            "netlist": capnet.netlist_to_dict(self.net),
            "squids": self.squids,
            "flux": {"qubit1": 0.0, "qubit2": 0.0},
            "sweep": {"variable": "coupler-flux", "quantity": "both",
                      "range": [lo, hi], "points": points},
        }

    def sweep_models(self, lo: float, hi: float, points: int):
        xs = np.linspace(lo, hi, points)
        return xs, [self.model_at(float(x)) for x in xs]


def make_design(rng: np.random.Generator, key: str, topology: str, symmetric: bool,
                placement: str) -> Design:
    make = presets.floating_coupler_design if topology == "floating" else presets.grounded_coupler_design
    base = make(symmetric)
    want = capnet.classify_configuration(capnet.energies_exact(base))
    while True:
        caps = tuple(
            (a, b, round(v * math.exp(rng.normal(0.0, 0.04)), 4)) for a, b, v in base.capacitors
        )
        net = capnet.CapNetwork(topology=base.topology, capacitors=caps)
        energies = capnet.energies_exact(net)
        if capnet.classify_configuration(energies) is want:
            break
    w1, w2 = rng.uniform(4.1, 4.3), rng.uniform(4.4, 4.64)
    if rng.random() < 0.5:
        w1, w2 = w2, w1
    wc = rng.uniform(5.9, 6.5) if placement == "above" else rng.uniform(3.5, 3.9)
    squids = {
        name: {"ej_sum": ej_for_frequency(ec, w), "asymmetry": asym}
        for name, ec, w, asym in (
            ("qubit1", energies.ec1, w1, rng.uniform(0.0, 0.4)),
            ("qubit2", energies.ec2, w2, rng.uniform(0.0, 0.4)),
            ("coupler", energies.ecc, wc, 0.0),
        )
    }
    return Design(key, net, energies, squids, placement, want, (w1, w2, wc))


@dataclass
class FitCase:
    key: str
    data: fitkit.GFluxDataset
    true: fitkit.CouplerFluxModel
    init: fitkit.CouplerFluxModel
    free: tuple[str, ...]
    noiseless: bool


def device_fit_case(rng, key: str, device: presets.ReferenceDevice, rows: int, signs: bool,
                    n_free: int, noise: float, placement: str, offsets=None) -> FitCase:
    """Synthetic g(phi) measurement of a device, qubits held at its resonance.

    The initial guess is the truth scaled by ``offsets`` (g12, product, EJ sum),
    drawn from ``rng`` when not given."""
    squid = device.coupler_squid
    true = fitkit.CouplerFluxModel(
        g12_mhz=device.g12 * 1e3, g1c_g2c_mhz2=device.g1c_g2c * 1e6,
        coupler_ec_ghz=device.coupler_ec, coupler_ej_sum_ghz=squid.ej_sum,
    )
    w = device.resonance
    # keep the coupler clear of the qubit pole over the measured flux range
    wc_end = w + 0.5 if placement == "above" else max(1.8, device.omegac_max - 1.5)
    phi_max = min(flux_for_ej(squid, ej_for_frequency(device.coupler_ec, wc_end)), 0.42 * 2 * math.pi)
    phi = np.linspace(0.0, phi_max, rows)
    data = fitkit.synth_g_dataset(
        true, phi, w, w, noise_sigma_mhz=noise, seed=int(rng.integers(2**31)), with_signs=signs
    )
    free = fitkit.DEFAULT_FREE + (("coupler_ej_sum_ghz",) if n_free == 3 else ())
    if offsets is None:
        offsets = (rng.uniform(0.7, 1.3), rng.uniform(0.8, 1.2), rng.uniform(0.98, 1.02))
    init = replace(
        true,
        g12_mhz=true.g12_mhz * offsets[0],
        g1c_g2c_mhz2=true.g1c_g2c_mhz2 * offsets[1],
        coupler_ej_sum_ghz=true.coupler_ej_sum_ghz * (offsets[2] if n_free == 3 else 1.0),
    )
    return FitCase(key, data, true, init, free, noise == 0.0)


def run_fit(case: FitCase) -> fitkit.FitResult:
    return fitkit.fit_g_vs_flux(case.data, case.init, free=case.free)


# -- workloads -------------------------------------------------------------------

def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per workload; any integer seed is accepted."""
    return np.random.default_rng([seed % 2**64, stream])

@dataclass(frozen=True)
class Size:
    find_prescan: int = effmodel.PRESCAN_POINTS
    numeric_sweeps: int = 4        # sweeps at (5,5,5) per round, plus one at (7,7,7)
    numeric_rows: int = 30
    numeric_rows_777: int = 10
    scan_designs: int = 24
    scan_rows: int = 200
    fit_rows: tuple[int, ...] = (12, 50, 200)
    cold_rows: int = 200


FULL = Size()
TINY = Size(find_prescan=16, numeric_sweeps=2, numeric_rows=4, numeric_rows_777=2,
            scan_designs=4, scan_rows=12, fit_rows=(12, 20, 30), cold_rows=12)


class NumericZZ:
    """Exact diagonalization: numeric-backend CLI sweeps from netlist configs
    and numeric find_zero_zz on both reference devices (qubits at their sweet
    spots), plus four small device fits so that fit_s exists here too."""

    name = "numeric-zz"

    def __init__(self, seed: int, size: Size = FULL):
        rng = seeded_rng(seed, 1)
        self.size = size
        self.finds = [
            ("find-symmetric", presets.SYMMETRIC_DEVICE,
             (rng.uniform(4.35, 4.45), rng.uniform(5.95, 6.03))),
            ("find-asymmetric", presets.ASYMMETRIC_DEVICE,
             (rng.uniform(4.35, 4.45), rng.uniform(6.45, 6.52))),
        ]
        self.sweeps = []
        for i in range(size.numeric_sweeps + 1):
            levels = (5, 5, 5) if i < size.numeric_sweeps else (7, 7, 7)
            points = size.numeric_rows if i < size.numeric_sweeps else size.numeric_rows_777
            topology, symmetric, placement = DESIGN_CLASSES[int(rng.integers(len(DESIGN_CLASSES)))]
            design = make_design(rng, f"sweep-{i}", topology, symmetric, placement)
            hi = rng.uniform(0.25, 0.35)
            self.sweeps.append((design, levels, (0.0, hi, points)))
        self.fits = [
            device_fit_case(rng, f"fit-{device.name}-{signs}", device, 12, signs, 2, 0.0, "above",
                            offsets=(0.8, 0.9, 1.0))
            for device in (presets.SYMMETRIC_DEVICE, presets.ASYMMETRIC_DEVICE)
            for signs in (True, False)
        ]
        self.files = _InputFiles(seed, self.name)
        self.configs = [
            self.files.write_json(f"{d.key}.json", d.sweep_config(*span)) for d, _, span in self.sweeps
        ]

    def warm_up(self) -> None:
        for levels in ((5, 5, 5), (7, 7, 7)):
            numdiag.zz_numeric(presets.device_flux_builder(presets.ASYMMETRIC_DEVICE, False)(5.0), levels)
        run_fit(self.fits[0])

    def run_round(self, rec: Recorder) -> None:
        for (design, levels, span), path in zip(self.sweeps, self.configs):
            argv = ["sweep", "--config", path, "--backend", "both", "--levels", ",".join(map(str, levels))]
            xs_models = lambda d=design, s=span: d.sweep_models(*s)
            rec.timed("sweep", design.key, lambda a=argv: run_cli(a),
                      check=lambda out, xm=xs_models, lv=levels: checks.check_sweep_csv(out, *xm(), lv),
                      rows=span[2])
        for key, device, band in self.finds:
            rec.timed("find", key, lambda d=device, b=band: effmodel.find_zero_zz(
                presets.device_flux_builder(d, resonant=False), b, backend="numeric",
                levels=(5, 5, 5), prescan_points=self.size.find_prescan),
                check=lambda roots, d=device: _check_numeric_roots(roots, d))
        for fit in self.fits:
            rec.timed("fit", fit.key, lambda c=fit: run_fit(c),
                      check=lambda r, c=fit: checks.check_fit(r, c.true, c.noiseless))


def _check_numeric_roots(roots, device) -> list[str]:
    builder = presets.device_flux_builder(device, resonant=False)

    def f(wc):
        zz, _ = checks.reference_zz(builder(wc), (5, 5, 5))
        return float("nan") if zz is None else zz

    return checks.check_roots(roots, f)


# (free parameters, noisy).  A third free parameter is fitted to noiseless data
# only: noisy three-parameter fits sometimes run Nelder-Mead to its iteration
# cap (about 19k model evaluations, 12 s), and one such input would set a run's
# whole fit time.
FIT_VARIANTS = ((2, False), (3, False), (2, True), (2, True))


class DesignScan:
    """A library user exploring seeded netlists: energies, model, zero-g and
    perturbative zero-zz finds, a 200-row effective CLI sweep and a g(phi) fit.
    Runs the scalar per-point path and the array path of the flux model; never
    calls numdiag outside set-up."""

    name = "design-scan"

    def __init__(self, seed: int, size: Size = FULL):
        rng = seeded_rng(seed, 2)
        self.size = size
        self.items = []
        self.files = _InputFiles(seed, self.name)
        for i in range(size.scan_designs):
            topology, symmetric, placement = DESIGN_CLASSES[i % len(DESIGN_CLASSES)]
            design = make_design(rng, f"design-{i}", topology, symmetric, placement)
            wc = design.targets[2]
            band = (rng.uniform(3.9, 4.0), wc - 0.005) if placement == "above" else (
                wc - rng.uniform(1.0, 1.4), wc - 0.005)
            # fit classes in a fixed cycle: rows x signs x (free parameters, noise)
            rows = size.fit_rows[i % len(size.fit_rows)]
            signs = (i // 3) % 2 == 0
            n_free, noisy = FIT_VARIANTS[(i // 6) % len(FIT_VARIANTS)]
            noise = rng.uniform(0.05, 0.2) if noisy else 0.0
            device = design.device()
            fit = device_fit_case(rng, design.key, device, rows, signs, n_free, noise, placement)
            span = (0.0, rng.uniform(0.3, 0.4), size.scan_rows)
            path = self.files.write_json(f"{design.key}.json", design.sweep_config(*span))
            self.items.append((design, device, band, fit, span, path))

    def warm_up(self) -> None:
        numdiag.zz_numeric(presets.device_flux_builder(presets.ASYMMETRIC_DEVICE, False)(5.0))
        self._run_design(Recorder(), *self.items[0])

    def run_round(self, rec: Recorder) -> None:
        for item in self.items:
            self._run_design(rec, *item)

    def _run_design(self, rec, design, device, band, fit, span, path) -> None:
        key = design.key
        rec.timed("energies", key, lambda: _energies_and_class(design.net),
                  check=lambda out: _check_energies(out, design))
        rec.timed("model", key, lambda: design.model_at(0.0),
                  check=lambda m: _check_model(m, design))
        rec.timed("find", key + "-g", lambda: _find_g(device, band),
                  check=lambda root: _check_g_root(root, device))
        rec.timed("find", key + "-zz", lambda: effmodel.find_zero_zz(
            presets.device_flux_builder(device, resonant=False), band),
            check=lambda roots: _check_pert_roots(roots, device))
        rec.timed("sweep", key, lambda: run_cli(["sweep", "--config", path, "--backend", "effective"]),
                  check=lambda out: checks.check_sweep_csv(out, *design.sweep_models(*span)),
                  rows=span[2])
        rec.timed("fit", key, lambda: run_fit(fit),
                  check=lambda r: checks.check_fit(r, fit.true, fit.noiseless))


def _energies_and_class(net):
    energies = capnet.energies_exact(net)
    return energies, capnet.classify_configuration(energies)


def _check_energies(out, design: Design) -> list[str]:
    energies, cls = out
    problems = [] if energies == design.energies else ["energies differ from set-up"]
    if cls is not design.want_class:
        problems.append(f"classified {cls.value}, expected {design.want_class.value}")
    return problems


def _check_model(m, design: Design) -> list[str]:
    got = (m.omega1, m.omega2, m.omegac)
    if any(abs(g - t) > 1e-9 for g, t in zip(got, design.targets)):
        return [f"zero-flux frequencies {got} miss targets {design.targets}"]
    return []


def _find_g(device, band):
    try:
        return effmodel.find_zero_g(presets.device_flux_builder(device, resonant=False), band)
    except NoRootError:
        return None


def _check_g_root(root, device) -> list[str]:
    if root is None:
        return []
    builder = presets.device_flux_builder(device, resonant=False)
    return checks.check_roots([root], lambda wc: effmodel.g_net(builder(wc)).g)


def _check_pert_roots(roots, device) -> list[str]:
    builder = presets.device_flux_builder(device, resonant=False)
    return checks.check_roots(roots, lambda wc: effmodel.zz_perturbative(builder(wc)).zeta_total)


class _InputFiles:
    """Generated input files, kept under the benchmark's ignored output folder."""

    def __init__(self, seed: int, workload: str):
        self.dir = HERE / "out" / f"inputs-{workload}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)

    def write_json(self, name: str, payload: dict) -> str:
        path = self.dir / name
        path.write_text(json.dumps(payload))
        return str(path)

    def write_text(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text)
        return str(path)

    def remove(self) -> None:
        for path in self.dir.iterdir():
            path.unlink()
        self.dir.rmdir()


class CliCold:
    """Fresh ``python -m couplerkit.cli`` processes, one at a time, on inputs
    made from the bundled designs: energies, effective sweep, find g, fit."""

    name = "cli-cold"

    def __init__(self, seed: int, size: Size = FULL):
        rng = seeded_rng(seed, 3)
        self.files = _InputFiles(seed, self.name)
        self.tracer = None
        topology, symmetric, placement = DESIGN_CLASSES[int(rng.integers(len(DESIGN_CLASSES)))]
        make = presets.floating_coupler_design if topology == "floating" else presets.grounded_coupler_design
        net_path = self.files.write_json("netlist.json", capnet.netlist_to_dict(make(symmetric)))
        design = make_design(rng, "sweep", topology, symmetric, placement)
        sweep_path = self.files.write_json(
            "sweep.json", design.sweep_config(0.0, rng.uniform(0.3, 0.4), size.cold_rows))
        if rng.random() < 0.5:
            rates, band = presets.FLOATING_DESIGN_RATES_SYMMETRIC, (2.77, 4.0)
        else:
            rates, band = presets.FLOATING_DESIGN_RATES_ASYMMETRIC, (4.8, 6.14)
        find_path = self.files.write_json("find.json", {
            "schema": 1,
            "model": {"omega1": 4.58, "omega2": 4.64, "omegac": 4.0, "eta1": 0.23,
                      "eta2": 0.233, "etac": 0.19, **rates},
            "sweep": {"quantity": "g", "variable": "coupler-frequency", "points": 200,
                      "range": [band[0] + rng.uniform(-0.05, 0.05), band[1] + rng.uniform(-0.05, 0.05)]},
        })
        device = (presets.SYMMETRIC_DEVICE, presets.ASYMMETRIC_DEVICE)[int(rng.integers(2))]
        fit = device_fit_case(rng, "fit", device, 25, True, 2, 0.1, "above")
        data_path = self.files.write_text("data.csv", fit.data.to_csv())
        fit_path = self.files.write_json("fit.json", {
            "schema": 1, "free": list(fit.free),
            "init": {name: getattr(fit.init, name) for name in fitkit.FIT_PARAMETER_NAMES},
        })
        self.commands = [
            ("cli", "energies", ["energies", net_path], 0),
            ("sweep", "sweep", ["sweep", "--config", sweep_path, "--backend", "effective"], size.cold_rows),
            ("find", "find", ["find", "--config", find_path, "--target", "g"], 0),
            ("fit", "fit", ["fit", data_path, "--config", fit_path], 0),
        ]
        self.expected: dict[str, tuple[int, str]] = {}
        self.child_traces: list[dict] = []

    def warm_up(self) -> None:
        numdiag.zz_numeric(presets.device_flux_builder(presets.ASYMMETRIC_DEVICE, False)(5.0))
        for _, key, argv, _ in self.commands:
            self.expected[key] = cli_in_process(argv)[:2]
        self._cold(self.commands[0][2])

    def _cold(self, argv) -> tuple[int, str]:
        env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        if self.tracer is None:
            cmd = [sys.executable, "-m", "couplerkit.cli", *argv]
        else:
            trace_path = self.files.dir / "child-trace.json"
            env["PERFBENCH_TRACE_OUT"] = str(trace_path)
            env["PERFBENCH_SPAWNED_AT"] = repr(time.time())
            cmd = [sys.executable, str(HERE / "traced_cli.py"), *argv]
        proc = subprocess.run(cmd, cwd=HERE.parent, env=env, capture_output=True, text=True, timeout=120)
        if self.tracer is not None:
            self.child_traces.append({**json.loads(trace_path.read_text()), "op": self.tracer.op})
            trace_path.unlink()
        return proc.returncode, proc.stdout

    def run_round(self, rec: Recorder) -> None:
        for kind, key, argv, rows in self.commands:
            rec.timed(kind, key, lambda a=argv: self._cold(a),
                      check=lambda out, k=key: [] if out == self.expected[k] else
                      [f"cold {k} output differs from in-process: {out!r:.200}"],
                      rows=rows)


WORKLOADS = {w.name: w for w in (NumericZZ, DesignScan, CliCold)}
