"""couplerkit benchmark.

    python3 perfbench/run.py --workload numeric-zz --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads are defined in ``workloads.py``; ``BENCHMARK.json``
lists the ones whose metrics gate changes (cli-cold is left out of that list
because cold processes are too noisy on a shared 2-vCPU machine; its start-up
cost still shows in ``setup_s`` and in the traced ``cli.*`` start-up figures).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run (``layer_map.json`` says which
end-to-end metric each should move).  Every timed operation is checked after
the timed loop.  The last line of stdout is the result JSON; the line before
it holds the environment, sample counts and any failed checks.  The same
record, with every operation's wall time, goes to ``perfbench/out/``, and a
traced run writes its spans there.  ``--workload all`` runs each workload in
its own process and prints one table.
"""

import time

STARTED = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input; for the smoke test")
    p.add_argument("--setup-repeats", type=int, default=SETUP_REPEATS)
    p.add_argument("--setup-only", action="store_true",
                   help="time import, input generation and warm-up, print them, exit")
    return p.parse_args(argv)


def _import_library():
    """Import couplerkit from this checkout's src/, timing the import."""
    if not (ROOT / "src" / "couplerkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no couplerkit sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    t0 = time.perf_counter()
    import couplerkit.cli  # noqa: F401
    import workloads  # noqa: F401

    return time.perf_counter() - t0


def make_workload(args):
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    size = workloads.TINY if args.size == "tiny" else workloads.FULL
    return workloads.WORKLOADS[args.workload](args.seed, size)


def setup_only(args) -> None:
    import_s = _import_library()
    workload = make_workload(args)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        workload.warm_up()
    workload.files.remove()
    print(json.dumps({"started": STARTED, "import_s": import_s}))


def measure_setup(args) -> list[dict]:
    """Set up the workload in fresh interpreters; each sample is one process."""
    samples = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    for _ in range(args.setup_repeats):
        spawned = time.time()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr[-2000:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append({"wall_s": wall, "interpreter_s": child["started"] - spawned,
                        "import_s": child["import_s"]})
    return samples


def run_rounds(workload, rec, seconds=None, rounds=None) -> tuple[int, float]:
    """Run whole rounds until ``seconds`` pass or ``rounds`` are done."""
    done, t0 = 0, time.perf_counter()
    while True:
        start = time.perf_counter()
        workload.run_round(rec)
        rec.round_walls.append(time.perf_counter() - start)
        done += 1
        elapsed = time.perf_counter() - t0
        if (rounds is not None and done >= rounds) or (seconds is not None and elapsed >= seconds):
            return done, elapsed


def timed_warm_up(workload) -> float:
    """Warm-up from cold numdiag caches, timed; the traced and untraced halves
    of a traced run each start with one."""
    import couplerkit.numdiag as numdiag

    cache = getattr(numdiag, "_mode_operators", None)  # private; may go away
    if hasattr(cache, "cache_clear"):
        cache.cache_clear()
    t0 = time.perf_counter()
    workload.warm_up()
    return time.perf_counter() - t0


# -- metrics ------------------------------------------------------------------------

def _fastest_by_key(samples, kinds) -> dict[str, tuple[float, int, int]]:
    walls, rows = defaultdict(list), {}
    for s in samples:
        if s.kind in kinds:
            walls[s.key].append(s.wall)
            rows[s.key] = s.rows
    return {k: (min(v), rows[k], len(v)) for k, v in walls.items()}


def end_to_end(workload, samples, setup) -> tuple[dict, dict]:
    """Each input's fastest repeat, combined over a round's fixed mix of inputs.

    Not the median: on a shared 2-vCPU virtual machine (x86-64, OpenBLAS
    0.3.31) each vCPU switches between a free and a contended state, about
    1.6x slower, every second or so, in a mix that drifts over minutes.  Over
    30 s windows of a fixed CPU loop there, the window medians spread by an
    interquartile range of 43% of their median and the window minima by 8%.
    A median reports the state mix; the fastest repeat reports the program.
    Set-up time is the median of its repeats.
    """
    cli_kinds = ("cli", "sweep", "find", "fit") if workload.name == "cli-cold" else ("sweep",)
    values, counts = {}, {}
    setup_walls = [s["wall_s"] for s in setup]
    values["setup_s"], counts["setup_s"] = statistics.median(setup_walls), len(setup_walls)
    sweeps = _fastest_by_key(samples, ("sweep",))
    values["sweep_rows_per_s"] = sum(r for _, r, _ in sweeps.values()) / sum(m for m, _, _ in sweeps.values())
    counts["sweep_rows_per_s"] = sum(n for *_, n in sweeps.values())
    for metric, kinds in (("find_s", ("find",)), ("fit_s", ("fit",)), ("cli_s", cli_kinds)):
        per_key = _fastest_by_key(samples, kinds)
        values[metric] = statistics.fmean(m for m, _, _ in per_key.values())
        counts[metric] = sum(n for *_, n in per_key.values())
    values["peak_rss_mb"] = peak_rss_mb()
    counts["peak_rss_mb"] = 1
    return values, counts


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def per_layer(tracer, rounds, traced_wall, untraced_wall, samples, startups) -> dict:
    """Layer figures from the tracer's aggregates.

    Counts and times are per round of the traced loop, its warm-up included;
    ratios, means and start-up times cover the whole run.  ``<layer>.busy_s``
    is the time spent in the layer's own code (its self time); the
    ``busy_s`` of a function includes what it calls.
    """
    calls, busy, own, counters = tracer.calls, tracer.busy, tracer.self_time, tracer.counters
    layer_self = tracer.layer_self()

    def layer_calls(layer):
        return sum(n for name, n in calls.items() if name.startswith(layer + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    finds = calls["effmodel.find_zero_g"] + calls["effmodel.find_zero_zz"]
    fits = calls["fitkit.fit_g_vs_flux"]
    resonance = sum(n for (name, err), n in tracer.errors.items() if err == "ResonanceError")
    cells = sum(s.cells for s in samples if s.kind == "sweep")
    blanks = sum(s.blanks for s in samples if s.kind == "sweep")
    interp = [s["interpreter_s"] for s in startups]
    imports = [s["import_s"] for s in startups]
    accounted = sum(layer_self.values()) + tracer.counters["child_startup_s"]
    per_round = 1.0 / rounds
    m = {
        "numdiag.build_hamiltonian.calls": (calls["numdiag.build_hamiltonian"] * per_round, "count"),
        "numdiag.build_hamiltonian.busy_s": (busy["numdiag.build_hamiltonian"] * per_round, "s"),
        "numdiag.dressed_spectrum.busy_s": (busy["numdiag.dressed_spectrum"] * per_round, "s"),
        "numdiag.zz_numeric.self_s": (own["numdiag.zz_numeric"] * per_round, "s"),
        "numdiag.basis_states": (ratio(counters["basis_states"], calls["numdiag.build_hamiltonian"]), "states"),
        "numdiag.labeling_failures": (tracer.errors[("numdiag.zz_numeric", "LabelingError")] * per_round, "count"),
        "numdiag.busy_s": (layer_self["numdiag"] * per_round, "s"),
        "effmodel.g_net.calls": (calls["effmodel.g_net"] * per_round, "count"),
        "effmodel.zz_perturbative.calls": (calls["effmodel.zz_perturbative"] * per_round, "count"),
        "effmodel.busy_s": (layer_self["effmodel"] * per_round, "s"),
        "effmodel.evals_per_find": (ratio(counters["evals_in_find"], finds), "count"),
        "effmodel.brentq.calls": (calls["effmodel.brentq"] * per_round, "count"),
        "effmodel.roots_per_bracket": (ratio(counters["useful_brackets"], calls["effmodel.brentq"]), "ratio"),
        "effmodel.resonance_skips": (resonance * per_round, "count"),
        "presets.builder.calls": (calls["presets.builder"] * per_round, "count"),
        "presets.builder.busy_s": (busy["presets.builder"] * per_round, "s"),
        "transmon.calls": (layer_calls("transmon") * per_round, "count"),
        "transmon.busy_s": (layer_self["transmon"] * per_round, "s"),
        "squid.calls": (layer_calls("squid") * per_round, "count"),
        "squid.busy_s": (layer_self["squid"] * per_round, "s"),
        "fitkit.fit_g_vs_flux.self_s": (own["fitkit.fit_g_vs_flux"] * per_round, "s"),
        "fitkit.model_g_mhz.calls": (calls["fitkit.model_g_mhz"] * per_round, "count"),
        "fitkit.model_g_mhz.busy_s": (busy["fitkit.model_g_mhz"] * per_round, "s"),
        "fitkit.nfev_per_fit": (ratio(counters["model_evals_in_fit"], fits), "count"),
        "fitkit.converged_ratio": (ratio(counters["fits_converged"], fits), "ratio"),
        "fitkit.busy_s": (layer_self["fitkit"] * per_round, "s"),
        "cli.interpreter_s": (statistics.median(interp), "s"),
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.main.self_s": (layer_self["cli"] * per_round, "s"),
        "cli.sweep_blank_ratio": (ratio(blanks, cells), "ratio"),
        "capnet.calls": (layer_calls("capnet") * per_round, "count"),
        "capnet.busy_s": (layer_self["capnet"] * per_round, "s"),
        "trace.overhead_s": ((traced_wall - untraced_wall) * per_round, "s"),
        "trace.overhead_share": (ratio(traced_wall - untraced_wall, untraced_wall), "ratio"),
        "trace.unaccounted_share": (ratio(traced_wall - accounted, traced_wall), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


# -- environment ----------------------------------------------------------------------

def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # older numpy has no dict form; the record is informational
        blas = {"name": "unknown"}
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in threads},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


# -- main -------------------------------------------------------------------------------

def run(args) -> tuple[dict, dict, dict]:
    """Measure one workload; returns (result line, detail record, raw walls)."""
    _import_library()
    setup = measure_setup(args)
    from tracer import Tracer
    from workloads import Recorder

    workload = make_workload(args)
    detail = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed)}
    try:
        workload.warm_up()
        if args.trace == 0:
            rec = Recorder()
            detail["rounds"], detail["loop_s"] = run_rounds(workload, rec, seconds=args.seconds)
            detail["round_walls_s"] = rec.round_walls
            rec.run_checks()
            values, counts = end_to_end(workload, rec.samples, setup)
            units = {"setup_s": "s", "sweep_rows_per_s": "1/s", "find_s": "s", "fit_s": "s",
                     "cli_s": "s", "peak_rss_mb": "MB"}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
            detail["samples"] = counts
        else:
            plain = Recorder()
            untraced_wall = timed_warm_up(workload)
            rounds, loop_s = run_rounds(workload, plain, seconds=args.seconds / 2)
            untraced_wall += loop_s
            tracer = Tracer()
            rec = Recorder(tracer)
            workload.tracer = tracer
            tracer.install()
            try:
                traced_wall = timed_warm_up(workload)
                traced_wall += run_rounds(workload, rec, rounds=rounds)[1]
            finally:
                tracer.uninstall()
                workload.tracer = None
            startups = list(setup)
            extra_spans = []
            for child in getattr(workload, "child_traces", ()):
                tracer.merge(child["aggregates"])
                tracer.counters["child_startup_s"] += child["interpreter_s"] + child["import_s"]
                startups.append(child)
                extra_spans += [[*span[:4], child["op"]] for span in child["spans"]]
            plain.run_checks()
            rec.run_checks()
            rec.samples += plain.samples
            metrics = per_layer(tracer, rounds, traced_wall, untraced_wall, rec.samples, startups)
            detail.update(rounds=rounds, traced_wall_s=traced_wall, untraced_wall_s=untraced_wall,
                          spans_kept=len(tracer.spans) + len(extra_spans),
                          spans_dropped=tracer.spans_dropped)
            tracer.write(HERE / "out" / f"spans-{workload.name}-{args.seed}.jsonl", extra_spans)
    finally:
        workload.files.remove()
    problems = [(s.kind, s.key, p) for s in rec.samples for p in s.problems]
    failed = sum(bool(s.problems) for s in rec.samples)
    detail["problems"] = problems[:20]
    result = {"correct": failed == 0, "attempted": len(rec.samples), "failed": failed,
              "metrics": metrics}
    walls = defaultdict(list)
    for s in rec.samples:
        walls[f"{s.kind}:{s.key}"].append(s.wall)
    return result, detail, walls


def run_all(args) -> int:
    """Every workload in its own process; one table of metrics with units and counts."""
    _import_library()
    import workloads

    failed = 0
    print(f"{'workload':<12} {'metric':<34} {'value':>14} {'unit':<7} samples")
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
               "--setup-repeats", str(args.setup_repeats)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{name:<12} failed:\n{proc.stderr[-2000:]}")
            failed += 1
            continue
        lines = proc.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            count = detail.get("samples", {}).get(metric, detail.get("rounds"))
            print(f"{name:<12} {metric:<34} {m['value']:>14.6g} {m['unit']:<7} {count}")
        print(f"{name:<12} {'failed/attempted':<34} {result['failed']:>14} {'ops':<7} {result['attempted']}")
        failed += result["failed"] > 0
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup_only(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result, detail, walls = run(args)
    out = HERE / "out" / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**detail, "result": result, "walls_s": walls}, indent=2))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
