"""Compare the CLI's bytes and the library's bits between two source checkouts.

    python3 tools/cli_corpus.py CHECKOUT_A CHECKOUT_B
    python3 tools/cli_corpus.py --write-digests tests/cli_digests.json

Each checkout runs the same fixed corpus in one subprocess of its own, with
its ``src`` and ``perfbench`` on the import path.  The corpus runs CLI
commands, each an in-process ``cli.main`` call:

- the effective ``sweep`` of every design-scan input of seeds 1-100, the
  ``--backend both`` sweep of every numeric-zz input of seeds 1-6, and
  ``find --target g`` and ``--target zz`` on each, with the same options;
- ``fit`` on every seeded fit case of those seeds, its dataset written as a
  CSV and its initial guess and free parameters as a fit config;
- malformed run configs, each run with ``sweep`` and ``find --target g``;

and library calls, each giving ``float.hex`` entries or the type and
message of an error or a warning:

- ``zz_numeric`` on a 200-point array and as 120 float calls at 3,3,3,
  4,3,5, 5,5,5 and 7,7,7 levels, on both reference devices, resonant and
  detuned, over coupler frequencies 2.5-6.5 GHz;
- ``find_zero_g`` and both ``find_zero_zz`` backends on both devices;
- 120 ``fit_g_vs_flux`` results (the five parameters, ``rms_residual_mhz``,
  ``n_evaluations``, ``converged`` and ``covariance``) on synthetic data of
  both devices: 12, 50 and 200 rows; signed, magnitude-only and mixed-sign
  rows; noise 0 and 0.1 MHz; free parameters default, +E_J,sum and
  +asymmetry, and +E_C at 12 rows.

The CLI inputs are built with the checkout's ``perfbench/workloads.py`` and
removed afterwards.  Every config is passed by a path relative to its
folder, and each checkout's root reads ``<root>`` in stdout and stderr, so
that only the program's own output is compared.  Each command runs inside
``warnings.catch_warnings()``, so each one warns as a fresh process does;
an exception that escapes ``main`` stands in for its exit code.
The script prints, by label, every command whose exit code, stdout or
stderr differs and every library entry whose value differs, then the
records and differences of each command and library function, and exits 1
when any record differs.  Numeric values depend on the LAPACK build, so
compare checkouts on one machine.

``--write-digests FILE`` runs a subset of the corpus with the checkout that
holds this script and writes the machine fields and, for each command, the
exit code and the sha256 of stdout and of stderr, and for each array or
float ``zz_numeric`` run and each find, the count and sha256 of its
entries.  The subset: every malformed config, the first numeric-zz sweep of
seed 1 (5,5,5 levels, ``--backend both``), every command of design-scan
seeds 1-3 but ``fit``, ``zz_numeric`` at 5,5,5 and every find.
``tests/test_cli_digests.py`` checks the committed file; a change to the
CLI's output or the library's bits regenerates it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DESIGN_SEEDS = range(1, 101)
NUMERIC_SEEDS = range(1, 7)
DIGEST_DESIGN_SEEDS = range(1, 4)
SHOWN_CHARS = 600  # of a differing stderr or stdout
ZZ_LEVELS = ((3, 3, 3), (4, 3, 5), (5, 5, 5), (7, 7, 7))


def malformed_configs() -> list[dict]:
    """Run configs that a reader rejects, or that the model cannot evaluate."""
    import couplerkit as ck
    from couplerkit.capnet import netlist_to_dict
    from couplerkit.presets import FLOATING_DESIGN_RATES_SYMMETRIC, floating_coupler_design

    model = {"omega1": 4.58, "omega2": 4.64, "omegac": 4.0, "eta1": 0.23, "eta2": 0.233,
             "etac": 0.19, **FLOATING_DESIGN_RATES_SYMMETRIC}

    def model_run(**extra):
        cfg = {"schema": 1, "model": dict(model),
               "sweep": {"quantity": "g", "range": [2.77, 4.0], "points": 5}}
        return {**cfg, **extra}

    net = floating_coupler_design(True)
    e = ck.energies_exact(net)

    def netlist_run(**extra):
        cfg = {"schema": 1, "netlist": netlist_to_dict(net),
               "squids": {"qubit1": {"ej_sum": ck.ej_for_frequency(e.ec1, 4.58)},
                          "qubit2": {"ej_sum": ck.ej_for_frequency(e.ec2, 4.64)},
                          "coupler": {"ej_sum": ck.ej_for_frequency(e.ecc, 6.041)}},
               "sweep": {"quantity": "g", "variable": "coupler-flux",
                         "range": [0.05, 0.45], "points": 5}}
        return {**cfg, **extra}

    def with_node(field, value):
        bad = netlist_to_dict(net)
        bad["capacitors"][2][field] = value
        return netlist_run(netlist=bad)

    flux_sweep = {"quantity": "g", "variable": "coupler-flux", "range": [0.0, 0.4], "points": 5}
    tiny = netlist_run()
    tiny["squids"] = {**tiny["squids"], "qubit2": {"ej_sum": 0.01}}
    return [
        model_run(levels=5),
        model_run(model=5),
        netlist_run(flux=[]),
        netlist_run(flux={"qubit1": None}),
        netlist_run(netlist="no-such-netlist.json"),
        netlist_run(squids={"qubit1": {"ej_sum": 1e200}, "qubit2": {"ej_sum": 15.0},
                            "coupler": {"ej_sum": 28.0}}),
        model_run(model={**model, "g12": 1e200},
                  sweep={"quantity": "zz", "range": [2.77, 4.0], "points": 5}),
        model_run(sweep={"range": [2.77, float("nan")]}),
        model_run(sweep={"quantity": "g", "range": [2.77, 4.0], "points": 1_000_001}),
        model_run(coupler_squid={"ej_sum": 30.0}, coupler_ec=-0.2, sweep=flux_sweep),
        model_run(coupler_squid={"ej_sum": 30.0}, coupler_ec=0.0, sweep=flux_sweep),
        model_run(coupler_squid={"ej_sum": 1.0}, coupler_ec=100.0, sweep=flux_sweep),
        model_run(sweep={"quantity": "g", "range": [0.0, 6.0], "points": 5}),
        netlist_run(sweep={"quantity": "g", "range": [-1.0, 6.0], "points": 5}),
        netlist_run(flux={"coupler": 0.5}),
        netlist_run(flux={"coupler": 0.5}, sweep={"quantity": "g", "range": [2.77, 4.0],
                                                  "points": 5}),
        model_run(backend="magic"),
        model_run(levels=[1, 5, 5]),
        model_run(levels=[1, 5, 5], backend="numeric"),
        model_run(levels=[3.7, 5, 5]),
        model_run(sweep={"quantity": "g", "range": [2.77, 4.0], "points": 10.9}),
        model_run(sweep={"quantity": "g", "range": [2.77, 4.0], "points": True}),
        netlist_run(flux={"qubit1": 0.5}),
        tiny,
        with_node("a", 2.9),
        with_node("a", True),
        with_node("a", float("inf")),
        with_node("b", "3"),
    ]


def corpus(digests: bool = False):
    """(label, folder, argv) of every command, or of the digest subset; argv
    names a file in the folder, which is removed once its commands have run."""
    import workloads

    malformed = workloads._InputFiles(0, "cli-corpus")
    try:
        for i, cfg in enumerate(malformed_configs()):
            name = Path(malformed.write_json(f"malformed-{i}.json", cfg)).name
            yield f"malformed-{i} sweep", malformed, ["sweep", "--config", name]
            yield f"malformed-{i} find-g", malformed, ["find", "--config", name, "--target", "g"]
    finally:
        malformed.remove()

    for seed in NUMERIC_SEEDS[:1] if digests else NUMERIC_SEEDS:
        work = workloads.NumericZZ(seed)
        try:
            for (design, levels, _), path in zip(work.sweeps, work.configs):
                opts = ["--backend", "both", "--levels", ",".join(map(str, levels))]
                runs = _runs(f"numeric-zz/{seed}/{design.key}", work.files, path, opts)
                if digests:  # the sweep of the first config only, at 5,5,5
                    yield next(runs)
                    break
                yield from runs
            if not digests:
                for fit in work.fits:
                    yield _fit_run(f"numeric-zz/{seed}/{fit.key}", work.files, fit)
        finally:
            work.files.remove()

    for seed in DIGEST_DESIGN_SEEDS if digests else DESIGN_SEEDS:
        work = workloads.DesignScan(seed)
        try:
            for design, _, _, fit, _, path in work.items:
                label = f"design-scan/{seed}/{design.key}"
                yield from _runs(label, work.files, path, ["--backend", "effective"])
                if not digests:
                    yield _fit_run(label, work.files, fit)
        finally:
            work.files.remove()


def _runs(label, files, path, opts):
    name = Path(path).name
    yield f"{label} sweep", files, ["sweep", "--config", name, *opts]
    for target in ("g", "zz"):
        yield f"{label} find-{target}", files, ["find", "--config", name, "--target", target, *opts]


def _fit_run(label, files, fit):
    """The ``fit`` command of a seeded fit case, with its dataset written as
    a CSV and its initial guess and free parameters as a fit config."""
    from couplerkit.fitkit import FIT_PARAMETER_NAMES

    data = Path(files.write_text(f"{fit.key}-data.csv", fit.data.to_csv())).name
    config = Path(files.write_json(f"{fit.key}-fit.json", {
        "schema": 1, "free": list(fit.free),
        "init": {name: getattr(fit.init, name) for name in FIT_PARAMETER_NAMES},
    })).name
    return f"{label} fit", files, ["fit", data, "--config", config]


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.atleast_1d(values)]


def _where(device, resonant: bool) -> str:
    return f"{device.name} {'resonant' if resonant else 'detuned'}"


def zz_groups(ck, levels_list):
    """(label, entries) of each array and float ``zz_numeric`` run over
    coupler frequencies 2.5-6.5 GHz: values, and the errors of float calls."""
    for device in (ck.presets.ASYMMETRIC_DEVICE, ck.presets.SYMMETRIC_DEVICE):
        for resonant in (True, False):
            builder = ck.presets.device_flux_builder(device, resonant)
            for levels in levels_list:
                group = f"zz_numeric {_where(device, resonant)} levels={levels}"
                wcs = np.linspace(2.5, 6.5, 200)
                yield f"{group} array", _hex(ck.zz_numeric(builder(wcs), levels))
                entries = []
                for wc in np.linspace(2.5, 6.5, 120).tolist():
                    try:
                        entries.append(ck.zz_numeric(builder(wc), levels).hex())
                    except (ck.LabelingError, ck.FluxDomainError) as exc:
                        entries.append(f"{type(exc).__name__}: {exc}")
                yield f"{group} float", entries


def find_groups(ck):
    """(label, entries) of each zero find: roots or an error, then warnings."""
    numeric = {"backend": "numeric"}
    for device in (ck.presets.SYMMETRIC_DEVICE, ck.presets.ASYMMETRIC_DEVICE):
        finds = [(False, band, find, options) for band in ((2.5, 4.0), (4.4, 6.5))
                 for find, options in ((ck.find_zero_g, {}), (ck.find_zero_zz, {}),
                                       (ck.find_zero_zz, numeric))]
        finds += [(True, (4.4, 6.5), ck.find_zero_zz, {}),
                  (True, (5.9, 7.0), ck.find_zero_zz,
                   {**numeric, "levels": (4, 4, 4), "prescan_points": 40})]
        for resonant, band, find, options in finds:
            builder = ck.presets.device_flux_builder(device, resonant)
            entries = []
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                try:
                    entries += _hex(find(builder, band, **options))
                except (ck.NoRootError, ck.FluxDomainError) as exc:
                    entries.append(f"{type(exc).__name__}: {exc}")
            entries += [f"{w.category.__name__}: {w.message}" for w in seen]
            shown = "".join(f" {name}={value}" for name, value in options.items())
            yield f"{find.__name__} {_where(device, resonant)} {list(band)}{shown}", entries


def fit_cases(ck):
    """(label, dataset, initial guess, free parameters) of every fit."""
    default = ck.fitkit.DEFAULT_FREE
    for device in (ck.presets.ASYMMETRIC_DEVICE, ck.presets.SYMMETRIC_DEVICE):
        squid = device.coupler_squid
        true = ck.CouplerFluxModel(
            g12_mhz=device.g12 * 1e3, g1c_g2c_mhz2=device.g1c_g2c * 1e6,
            coupler_ec_ghz=device.coupler_ec, coupler_ej_sum_ghz=squid.ej_sum,
        )
        w = device.resonance
        # the coupler stays 0.5 GHz above the qubits over the measured flux range
        wc_end = ck.ej_for_frequency(device.coupler_ec, w + 0.5)
        phi_max = min(ck.flux_for_ej(squid, wc_end), 0.42 * 2 * np.pi)
        init = replace(true, g12_mhz=0.8 * true.g12_mhz, g1c_g2c_mhz2=1.1 * true.g1c_g2c_mhz2,
                       coupler_ej_sum_ghz=1.01 * squid.ej_sum,
                       coupler_ec_ghz=1.02 * device.coupler_ec)
        free_sets = (default, default + ("coupler_ej_sum_ghz",),
                     default + ("coupler_asymmetry",), default + ("coupler_ec_ghz",))
        for rows in (12, 50, 200):
            for signs in ("signed", "magnitude", "mixed"):
                for seed, noise in enumerate((0.0, 0.1)):
                    data = ck.synth_g_dataset(true, np.linspace(0.0, phi_max, rows), w, w,
                                              noise_sigma_mhz=noise, seed=seed,
                                              with_signs=signs != "magnitude")
                    if signs == "mixed":
                        sign = data.sign.copy()
                        sign[::3] = 0.0
                        data = replace(data, sign=sign)
                    for free in free_sets if rows == 12 else free_sets[:3]:
                        # only the freed parameters start away from the truth
                        start = replace(true, **{name: getattr(init, name) for name in free})
                        yield f"{device.name} {rows} {signs} {noise} {free}", data, start, free


def fit_groups(ck):
    """(label, entry) of every fit: its values, or its error."""
    for label, data, init, free in fit_cases(ck):
        try:
            r = ck.fit_g_vs_flux(data, init, free=free)
        except (ck.CouplerKitError, ValueError, ArithmeticError) as exc:
            entry = f"{label}: {type(exc).__name__}: {exc}"
        else:
            covariance = " ".join(f"{k}={v.hex()}" for k, v in r.covariance.items())
            entry = (f"{label}: {' '.join(_hex(astuple(r.params)))} "
                     f"{r.rms_residual_mhz.hex()} {r.n_evaluations} {r.converged} "
                     f"{covariance}")
        yield f"fit_g_vs_flux {label}", [entry]


def library(ck, digests: bool):
    """(label, entries) of every library run, or of the digest subset."""
    yield from zz_groups(ck, ((5, 5, 5),) if digests else ZZ_LEVELS)
    yield from find_groups(ck)
    if not digests:
        yield from fit_groups(ck)


def worker(root: Path, digests: bool) -> None:
    """Run the corpus with this process's ``couplerkit``: one JSON line per
    command, then one per library entry, or per group of entries with
    ``digests``."""
    import couplerkit as ck
    from couplerkit import cli, presets  # noqa: F401  (binds ck.presets)

    def emit(**record):
        print(json.dumps(record), flush=True)

    start = os.getcwd()
    for label, files, argv in corpus(digests):
        os.chdir(files.dir)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                code = cli.main(argv)
        except Exception as exc:  # an exception that escapes main is compared too
            code = f"raised {exc!r}"
        finally:
            os.chdir(start)
        stdout = out.getvalue().replace(str(root), "<root>")
        emit(kind=label.rsplit(" ", 1)[1], label=label, code=code,
             stdout=stdout if len(stdout) <= SHOWN_CHARS else None,
             stdout_sha256=_sha256(stdout),
             stderr=err.getvalue().replace(str(root), "<root>"))
    for group, entries in library(ck, digests):
        kind = group.split(" ", 1)[0]
        if digests:
            emit(kind=kind, label=group, entries=len(entries), sha256=_sha256("\n".join(entries)))
        else:
            for i, entry in enumerate(entries):
                emit(kind=kind, label=f"{group} #{i}", value=entry)


def run_checkout(checkout: Path, digests: bool = False) -> dict[str, dict]:
    root = checkout.resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(root),
         *(["--digests"] if digests else [])],
        cwd=root, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: the corpus in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    return {r["label"]: r for r in results}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def machine() -> dict:
    """The fields that the numeric cells' bytes may depend on."""
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def digests() -> dict[str, dict]:
    """The exit code and stdout and stderr sha256 of each digest command, and
    the count and sha256 of each digest group of library entries, run with
    the checkout that holds this script."""
    found = {"commands": {}, "library": {}}
    for label, r in run_checkout(ROOT, digests=True).items():
        if "sha256" in r:
            found["library"][label] = {"entries": r["entries"], "sha256": r["sha256"]}
        else:
            found["commands"][label] = {"code": r["code"], "stdout_sha256": r["stdout_sha256"],
                                        "stderr_sha256": _sha256(r["stderr"])}
    return found


def _shown(text: str | None) -> str:
    if text is None:
        return "(long; only its hash is kept)"
    return repr(text if len(text) <= SHOWN_CHARS else text[:SHOWN_CHARS] + "...")


def _compared(record: dict | None) -> dict | None:
    """What must match: all but the shown stdout, which its sha256 covers."""
    return record and {k: v for k, v in record.items() if k != "stdout"}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:  # the subprocess of one checkout
        worker(Path(argv[1]), argv[2:] == ["--digests"])
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", type=Path, nargs="?", help="first checkout (the parent, say)")
    p.add_argument("b", type=Path, nargs="?", help="second checkout")
    p.add_argument("--write-digests", type=Path, metavar="FILE",
                   help="write the digest subset's digests of this checkout to FILE")
    args = p.parse_args(argv)
    if args.write_digests:
        found = digests()
        args.write_digests.write_text(json.dumps(
            {"machine": machine(), **found}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(found['commands'])} command and {len(found['library'])} "
              f"library digests to {args.write_digests}")
        return 0
    if args.b is None:
        p.error("compare needs two checkouts")
    a, b = run_checkout(args.a), run_checkout(args.b)
    runs, differ, library_kinds = Counter(), Counter(), set()
    for label in dict.fromkeys([*a, *b]):
        ra, rb = a.get(label), b.get(label)
        kind = (ra or rb)["kind"]
        runs[kind] += 1
        if "value" in (ra or rb):
            library_kinds.add(kind)
        if _compared(ra) == _compared(rb):
            continue
        differ[kind] += 1
        if ra is None or rb is None:
            print(f"{label}: only in {'A' if rb is None else 'B'}")
        elif "value" in ra:
            print(f"{label}:\n  A: {ra['value']}\n  B: {rb['value']}")
        else:
            print(f"{label}: exit {ra['code']} -> {rb['code']}")
            if ra["stdout_sha256"] != rb["stdout_sha256"]:
                print(f"  stdout A: {_shown(ra['stdout'])}\n  stdout B: {_shown(rb['stdout'])}")
            if ra["stderr"] != rb["stderr"]:
                print(f"  stderr A: {_shown(ra['stderr'])}\n  stderr B: {_shown(rb['stderr'])}")
    for part, count, kinds in (("command", "runs", sorted(runs.keys() - library_kinds)),
                               ("library", "entries", sorted(library_kinds))):
        print(f"\n{part:<14} {count:>7} {'differ':>6}")
        for kind in kinds:
            print(f"{kind:<14} {runs[kind]:>7} {differ[kind]:>6}")
        print(f"{'all':<14} {sum(runs[k] for k in kinds):>7} {sum(differ[k] for k in kinds):>6}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
