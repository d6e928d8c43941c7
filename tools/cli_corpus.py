"""Compare the CLI's exit codes, stdout and stderr between two source checkouts.

    python3 tools/cli_corpus.py CHECKOUT_A CHECKOUT_B
    python3 tools/cli_corpus.py --write-digests tests/cli_digests.json

Each checkout runs the same fixed corpus of ``couplerkit`` commands in one
subprocess of its own, with its ``src`` and ``perfbench`` on the import path;
every command is an in-process ``cli.main`` call.  The corpus:

- the effective ``sweep`` of every design-scan input of seeds 1-100;
- the ``--backend both`` sweep of every numeric-zz input of seeds 1-6;
- ``find --target g`` and ``find --target zz`` on each of those configs,
  with the same backend options;
- ``fit`` on every seeded fit case of those seeds of both workloads, its
  dataset written as a CSV and its initial guess and free parameters as a
  fit config;
- malformed run configs, each run with ``sweep`` and ``find --target g``.

The inputs are built with the checkout's ``perfbench/workloads.py`` and
removed afterwards.  Every config is passed by a path relative to its
folder, and each checkout's root reads ``<root>`` in stdout and stderr, so
that only the program's own output is compared.  Each command runs inside
``warnings.catch_warnings()``, so each one warns as a fresh process does;
an exception that escapes ``main`` stands in for its exit code.
The script prints every command whose exit code, stdout or stderr differs,
then the number of commands and differences by command, and exits 1 when
any command differs.

``--write-digests FILE`` runs a fixed subset of the corpus with the checkout
that holds this script and writes, for each command, the exit code and the
sha256 of stdout and of stderr, next to the machine fields (numeric cells
depend on the LAPACK build).  The subset: every malformed config, the first
numeric-zz sweep of seed 1 (5,5,5 levels, ``--backend both``) and every
command of design-scan seeds 1-3 but ``fit``.  ``tests/test_cli_digests.py``
checks the committed file; a change to the CLI's output regenerates it.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DESIGN_SEEDS = range(1, 101)
NUMERIC_SEEDS = range(1, 7)
DIGEST_DESIGN_SEEDS = range(1, 4)
SHOWN_CHARS = 600  # of a differing stderr or stdout


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


def worker(root: Path, digests: bool) -> None:
    """Run the corpus with this process's ``couplerkit``; one JSON line each."""
    from couplerkit import cli

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
        print(json.dumps({
            "label": label, "code": code,
            "stdout": stdout if len(stdout) <= SHOWN_CHARS else None,
            "stdout_sha256": _sha256(stdout),
            "stderr": err.getvalue().replace(str(root), "<root>"),
        }), flush=True)


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
    """Exit code and stdout and stderr sha256 of each digest command, run
    with the checkout that holds this script."""
    return {
        label: {"code": r["code"], "stdout_sha256": r["stdout_sha256"],
                "stderr_sha256": _sha256(r["stderr"])}
        for label, r in run_checkout(ROOT, digests=True).items()
    }


def _shown(text: str | None) -> str:
    if text is None:
        return "(long; only its hash is kept)"
    return repr(text if len(text) <= SHOWN_CHARS else text[:SHOWN_CHARS] + "...")


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
        commands = digests()
        args.write_digests.write_text(json.dumps(
            {"machine": machine(), "commands": commands}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(commands)} digests to {args.write_digests}")
        return 0
    if args.b is None:
        p.error("compare needs two checkouts")
    a, b = run_checkout(args.a), run_checkout(args.b)
    runs, differ = Counter(), Counter()
    for label, ra in a.items():
        rb = b[label]
        command = label.rsplit(" ", 1)[1]
        runs[command] += 1
        if (ra["code"], ra["stdout_sha256"], ra["stderr"]) == (rb["code"], rb["stdout_sha256"], rb["stderr"]):
            continue
        differ[command] += 1
        print(f"{label}: exit {ra['code']} -> {rb['code']}")
        if ra["stdout_sha256"] != rb["stdout_sha256"]:
            print(f"  stdout A: {_shown(ra['stdout'])}\n  stdout B: {_shown(rb['stdout'])}")
        if ra["stderr"] != rb["stderr"]:
            print(f"  stderr A: {_shown(ra['stderr'])}\n  stderr B: {_shown(rb['stderr'])}")
    print(f"\n{'command':<8} {'runs':>6} {'differ':>6}")
    for command in sorted(runs):
        print(f"{command:<8} {runs[command]:>6} {differ[command]:>6}")
    print(f"{'all':<8} {sum(runs.values()):>6} {sum(differ.values()):>6}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
