"""Command-line interface: energies, sweep, find, fit.

Exit codes: 0 success, 2 input/schema error, 3 no root found, 4 fit error.
All numeric output is formatted to 9 significant digits so repeated runs on
identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import capnet, effmodel, fitkit, numdiag
from .effmodel import ModelBuilder
from .errors import (
    AssumptionViolationError,
    CouplerKitError,
    FluxDomainError,
    LabelingError,
    NetlistError,
    NoRootError,
    ResonanceError,
    UnderdeterminedFitError,
)
from .squid import SquidParams, ej_of_flux, phase_from_flux_ratio
from .transmon import (
    SystemModel,
    TransmonParams,
    TransmonRole,
    frequency_from_energies,
    system_model,
    tune_coupler,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_ROOT = 3
EXIT_FIT = 4

# every run-config number is a frequency, energy or rate in GHz or a flux in
# Phi/Phi0; far larger magnitudes overflow the model formulas
MAX_CONFIG_MAGNITUDE = 1e6


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _round9(obj):
    """Round every float in a JSON-ready structure to 9 significant digits."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _read_file(path: str) -> str:
    shown = path if path.isprintable() else repr(path)  # keep messages one line
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise NetlistError(f"file not found: {shown}") from None
    except (OSError, ValueError) as exc:
        raise NetlistError(f"cannot read {shown}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        data = json.loads(_read_file(path))
    except ValueError as exc:  # JSONDecodeError, or an integer too long to read
        raise NetlistError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise NetlistError(f"{path}: top level must be a JSON object")
    if data.get("schema", 1) != 1:
        raise NetlistError(f"{path}: unsupported schema version {data.get('schema')!r}")
    return data


def _bounded(field: str, value) -> float:
    """``value`` of the config ``field`` as a float (``capnet.json_number``);
    NaN, infinities and magnitudes above MAX_CONFIG_MAGNITUDE are input
    errors that name the field."""
    number = capnet.json_number(field, value)
    if not abs(number) <= MAX_CONFIG_MAGNITUDE:
        raise NetlistError(
            f"{field} = {value!r} is out of range "
            f"(magnitude at most {MAX_CONFIG_MAGNITUDE:g})"
        )
    return number


def _squid_from_config(cfg: dict, where: str) -> SquidParams:
    if not isinstance(cfg, dict):
        raise NetlistError(f"{where} must be an object")
    try:
        if "ej_sum" in cfg:
            return SquidParams.from_sum_asymmetry(
                _bounded(f"{where}.ej_sum", cfg["ej_sum"]),
                capnet.json_number(f"{where}.asymmetry", cfg.get("asymmetry", 0.0)),
            )
        return SquidParams(
            _bounded(f"{where}.ej_large", cfg["ej_large"]),
            _bounded(f"{where}.ej_small", cfg["ej_small"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise NetlistError(
            f"{where} needs 'ej_sum' (+ optional 'asymmetry') or "
            f"'ej_large'/'ej_small': {exc}"
        ) from exc


def _model_block(cfg: dict) -> tuple[SystemModel, ModelBuilder | None]:
    """Model block plus its coupler-flux builder (None without 'coupler_squid')."""
    block = cfg["model"]
    if not isinstance(block, dict):
        raise NetlistError("model block must be an object")
    names = [f.name for f in fields(SystemModel)]
    missing = [n for n in names if n not in block]
    if missing:
        raise NetlistError(f"model block missing fields: {', '.join(missing)}")
    try:
        base = SystemModel(**{n: _bounded(f"model.{n}", block[n]) for n in names})
    except (TypeError, ValueError, OverflowError) as exc:
        raise NetlistError(f"model block: {exc}") from exc
    if "coupler_squid" not in cfg:
        return base, None
    squid = _squid_from_config(cfg["coupler_squid"], "coupler_squid")
    try:
        e_c = _bounded("coupler_ec", cfg["coupler_ec"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise NetlistError(
            "coupler-flux sweeps from a model block need numeric 'coupler_ec'"
        ) from exc
    if not e_c > 0:
        raise NetlistError(f"coupler_ec = {e_c!r} must be positive")
    ej_max = ej_of_flux(squid, 0.0)
    omegac_max = frequency_from_energies(e_c, ej_max)
    if not omegac_max > 0:
        raise NetlistError(
            f"coupler_ec = {e_c!r} leaves the coupler no positive frequency "
            f"(at most {_fmt(omegac_max)} GHz with coupler_squid)"
        )

    def build(flux_ratio) -> SystemModel:  # a float or a 1-d array
        ej = ej_of_flux(squid, phase_from_flux_ratio(flux_ratio))
        return tune_coupler(base, e_c, ej_max, ej)

    return base, build


def _netlist_model(cfg: dict) -> tuple[float, ModelBuilder]:
    """Configured coupler flux plus the coupler-flux builder of a netlist config."""
    source = cfg["netlist"]
    if isinstance(source, str):
        source = _read_file(source)
    elif not isinstance(source, dict):
        raise NetlistError("netlist must be a JSON object")
    energies = capnet.energies_exact(capnet.load_netlist(source))
    squids = cfg.get("squids")
    if not isinstance(squids, dict):
        raise NetlistError("netlist input needs a 'squids' object")
    trans = []
    for key, e_c, role in (
        ("qubit1", energies.ec1, TransmonRole.QUBIT_1),
        ("qubit2", energies.ec2, TransmonRole.QUBIT_2),
        ("coupler", energies.ecc, TransmonRole.COUPLER),
    ):
        if key not in squids:
            raise NetlistError(f"squids block missing '{key}'")
        trans.append(TransmonParams(
            e_c=e_c, squid=_squid_from_config(squids[key], f"squids.{key}"), role=role
        ))
    flux = cfg.get("flux", {})
    if not isinstance(flux, dict):
        raise NetlistError("flux must be an object")
    try:
        x1, x2, xc = (
            _bounded(f"flux.{k}", flux.get(k, 0.0))
            for k in ("qubit1", "qubit2", "coupler")
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise NetlistError(f"flux entries must be numbers: {exc}") from exc
    phi1, phi2 = phase_from_flux_ratio(x1), phase_from_flux_ratio(x2)
    for n, x, phi, qubit in ((1, x1, phi1, trans[0]), (2, x2, phi2, trans[1])):
        ej = ej_of_flux(qubit.squid, phi)
        if not (ej > 0 and frequency_from_energies(qubit.e_c, ej) > 0):
            raise NetlistError(
                f"squids.qubit{n} at flux.qubit{n} = {x!r} leaves qubit {n} "
                "no positive frequency"
            )

    def build(flux_ratio) -> SystemModel:  # a float or a 1-d array
        return system_model(
            energies, *trans, phi_e1=phi1, phi_e2=phi2,
            phi_ec=phase_from_flux_ratio(flux_ratio),
        )

    return xc, build


def _read_levels(text: str | None, raw) -> tuple[int, int, int]:
    """Truncation levels from ``--levels`` text, or else the config's
    ``levels`` list; every backend needs what ``numdiag`` accepts."""
    if text is not None:
        try:
            raw = [int(n) for n in text.split(",")]
        except ValueError as exc:
            raise NetlistError(
                f"levels must be three comma-separated integers: {exc}"
            ) from exc
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise NetlistError("levels must be three comma-separated integers")
    levels = tuple(capnet.json_integer(f"levels[{i}]", n) for i, n in enumerate(raw))
    try:
        return numdiag._check_levels(levels)
    except ValueError as exc:
        raise NetlistError(str(exc)) from exc


def _read_run(
    cfg: dict, args: argparse.Namespace
) -> tuple[ModelBuilder, tuple[float, float], str, tuple[int, int, int]]:
    """Validate what ``sweep`` and ``find`` share in a run config.

    Returns the builder mapping the sweep variable to a SystemModel, the
    sweep range, the backend and the truncation levels; command-line
    ``--backend``/``--levels`` override the config.
    """
    backend = args.backend or cfg.get("backend", "effective")
    if backend not in ("effective", "numeric", "both"):
        raise NetlistError(f"backend must be effective|numeric|both, got {backend!r}")
    levels = _read_levels(args.levels, cfg.get("levels", numdiag.DEFAULT_LEVELS))
    if "model" in cfg:
        base, flux_builder = _model_block(cfg)
    elif "netlist" in cfg:
        coupler_flux, flux_builder = _netlist_model(cfg)
        base = None  # built only for a coupler-frequency run, which uses it
    else:
        raise NetlistError("config needs a 'model' block or a 'netlist'")
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict):
        raise NetlistError("config needs a 'sweep' object")
    variable = sweep.get("variable", "coupler-frequency")
    if variable == "coupler-frequency":
        import couplerkit.presets as presets

        if base is None:
            try:
                base = flux_builder(coupler_flux)
            except FluxDomainError as exc:
                raise NetlistError(
                    f"squids.coupler at flux.coupler = {coupler_flux!r} leaves "
                    "the coupler no positive frequency"
                ) from exc
        builder = presets.frequency_sweep_builder(base)
    elif variable != "coupler-flux":
        raise NetlistError(
            f"sweep.variable must be 'coupler-frequency' or 'coupler-flux', "
            f"got {variable!r}"
        )
    elif flux_builder is None:
        raise NetlistError(
            "coupler-flux sweeps from a model block need 'coupler_squid' "
            "and 'coupler_ec'"
        )
    else:
        builder = flux_builder
    try:
        lo, hi = (_bounded("sweep.range", v) for v in sweep["range"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise NetlistError(f"sweep block needs 'range': [lo, hi]: {exc}") from exc
    if not lo < hi:
        raise NetlistError(f"sweep range must satisfy lo < hi, got [{lo}, {hi}]")
    if variable == "coupler-frequency" and not lo > 0:
        raise NetlistError(
            f"sweep.range must hold positive coupler frequencies, got [{lo}, {hi}]"
        )
    return builder, (lo, hi), backend, levels


def cmd_energies(args: argparse.Namespace) -> int:
    net = capnet.load_netlist(_read_file(args.netlist))
    exact = capnet.energies_exact(net)
    closed = None
    closed_note = ""
    try:
        if net.topology is capnet.Topology.FLOATING_FLOATING:
            closed = capnet.energies_closed_form_floating(net)
        else:
            closed = capnet.energies_closed_form_grounded(net)
    except AssumptionViolationError as exc:
        closed_note = str(exc)
    print(f"topology: {net.topology.value}")
    print(f"{'energy':<6} {'exact_ghz':>14} {'closed_ghz':>14} {'rel_dev':>10}")
    for name in ("ec1", "ec2", "ecc", "e12", "e1c", "e2c"):
        ex = getattr(exact, name)
        if closed is None:
            print(f"{name:<6} {_fmt(ex):>14} {'-':>14} {'-':>10}")
        else:
            cl = getattr(closed, name)
            dev = abs(cl - ex) / abs(ex) if ex != 0.0 else float("nan")
            dev_s = _fmt(dev) if np.isfinite(dev) else "-"
            print(f"{name:<6} {_fmt(ex):>14} {_fmt(cl):>14} {dev_s:>10}")
    if closed_note:
        print(f"closed-form unavailable: {closed_note}")
    cls = capnet.classify_configuration(exact, degenerate_tol=args.degenerate_tol)
    print(f"configuration: {cls.value}")
    return EXIT_OK


def _sweep_warnings(builder: ModelBuilder, x: float, blank) -> None:
    """Print the ``warning: x = ...`` lines of a sweep row with blank cells:
    the error of the builder at ``x``, or else that of each float
    evaluation in ``blank`` (in column order) on the model there."""
    try:
        m = builder(x)
    except CouplerKitError as exc:
        print(f"warning: x = {_fmt(x)}: {exc}", file=sys.stderr)
        return
    for evaluate in blank:
        try:
            evaluate(m)
        except (ResonanceError, LabelingError) as exc:
            print(f"warning: x = {_fmt(x)}: {exc}", file=sys.stderr)


def _sweep_rows(
    builder: ModelBuilder,
    xs: np.ndarray,
    quantity: str,
    backend: str,
    levels: tuple[int, int, int],
) -> tuple[list[str], list[str]]:
    """Header cells and row lines of the sweep CSV.

    The model, g and both ZZs are one array evaluation over ``xs``, and
    every cell is its ``%.9g`` value (the bytes of ``_fmt``), or blank where
    that value is not finite.  A row of finite values is written with one
    format; a row with a blank cell prints, through ``_sweep_warnings``, the
    warnings that a per-row float evaluation prints there.
    """
    want_g = quantity in ("g", "both")
    want_zz = quantity in ("zz", "both")
    want_numeric = want_zz and backend in ("numeric", "both")
    want_pert = want_zz and backend in ("effective", "both")
    header = ["x_value", "g_eff_mhz", "g_mhz", "zeta2_mhz", "zeta34_mhz", "zeta_pert_mhz"]

    m = builder(xs)
    values = {"x_value": xs}
    sources = [None]  # the float evaluation behind each column of values
    if want_g:
        eff = effmodel.g_net(m)
        values["g_eff_mhz"], values["g_mhz"] = eff.g_eff * 1e3, eff.g * 1e3
        sources += [effmodel.g_net] * 2
    if want_pert:
        zz = effmodel.zz_perturbative(m)
        values["zeta2_mhz"] = zz.zeta2 * 1e3
        values["zeta34_mhz"] = zz.zeta34 * 1e3
        values["zeta_pert_mhz"] = zz.zeta_total * 1e3
        sources += [effmodel.zz_perturbative] * 3
    if want_numeric:
        header.append("zeta_numeric_mhz")
        values["zeta_numeric_mhz"] = numdiag.zz_numeric(m, levels) * 1e3
        sources.append(functools.partial(numdiag.zz_numeric, levels=levels))
    row_format = ",".join("%.9g" if h in values else "" for h in header)
    table = np.column_stack(list(values.values()))
    finite = np.isfinite(table)
    lines = []
    for i, (ok, row) in enumerate(zip(finite.all(axis=1).tolist(), table.tolist())):
        if ok:
            lines.append(row_format % tuple(row))
            continue
        row_ok = finite[i].tolist()
        cells = {h: _fmt(v) for h, v, f in zip(values, row, row_ok) if f}
        lines.append(",".join(cells.get(h, "") for h in header))
        blank = dict.fromkeys(s for s, f in zip(sources, row_ok) if not f)
        _sweep_warnings(builder, row[0], blank)
    return header, lines


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config)
    builder, (lo, hi), backend, levels = _read_run(cfg, args)
    sweep = cfg["sweep"]
    try:
        points = capnet.json_integer("sweep.points", sweep["points"])
    except KeyError as exc:
        raise NetlistError(f"sweep block needs 'points': {exc}") from exc
    if points < 2:
        raise NetlistError(f"sweep needs at least 2 points, got {points}")
    _bounded("sweep.points", points)  # every row is allocated at once
    quantity = sweep.get("quantity", "both")
    if quantity not in ("g", "zz", "both"):
        raise NetlistError(f"sweep.quantity must be g|zz|both, got {quantity!r}")
    header, rows = _sweep_rows(
        builder, np.linspace(lo, hi, points), quantity, backend, levels
    )
    out = args.out or cfg.get("out")
    text = "\n".join([",".join(header), *rows]) + "\n"
    if out:
        Path(out).write_text(text)
        print(f"wrote {len(rows)} rows to {out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_find(args: argparse.Namespace) -> int:
    builder, band, backend, levels = _read_run(_load_json(args.config), args)
    if args.target == "g":
        if backend != "effective":
            print(
                f"warning: g is found with the effective model; backend "
                f"{backend!r} applies to --target zz only",
                file=sys.stderr,
            )
        try:
            root = effmodel.find_zero_g(builder, band)
        except NoRootError as exc:
            print(f"no root: {exc}", file=sys.stderr)
            return EXIT_NO_ROOT
        print(_fmt(root))
        return EXIT_OK
    zz_backend = "numeric" if backend in ("numeric", "both") else "perturbative"
    roots = effmodel.find_zero_zz(builder, band, backend=zz_backend, levels=levels)
    if not roots:
        print(f"no zz roots in [{_fmt(band[0])}, {_fmt(band[1])}]", file=sys.stderr)
        return EXIT_NO_ROOT
    for r in roots:
        print(_fmt(r))
    return EXIT_OK


def _read_fit(cfg: dict) -> tuple[fitkit.CouplerFluxModel, tuple[str, ...]]:
    """Validate a fit config: the initial model and the free parameter names."""
    init_block = cfg.get("init")
    if not isinstance(init_block, dict):
        raise NetlistError("fit config needs an 'init' object")
    try:
        init = fitkit.CouplerFluxModel(
            **{k: capnet.json_number(f"init.{k}", init_block[k])
               for k in fitkit.FIT_PARAMETER_NAMES if k in init_block}
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise NetlistError(f"init block: {exc}") from exc
    for name in fitkit.FIT_PARAMETER_NAMES:
        if not np.isfinite(getattr(init, name)):
            raise NetlistError(f"init.{name} = {getattr(init, name)!r} is not finite")
        _bounded(f"init.{name}", getattr(init, name))
    free = cfg.get("free", list(fitkit.DEFAULT_FREE))
    if not isinstance(free, list) or not free:
        raise NetlistError(f"free must be a non-empty list of parameter names, got {free!r}")
    for name in free:
        if name not in fitkit.FIT_PARAMETER_NAMES:
            raise NetlistError(
                f"unknown fit parameter {name!r} in free; expected names from "
                f"{', '.join(fitkit.FIT_PARAMETER_NAMES)}"
            )
        if free.count(name) > 1:
            raise NetlistError(f"free lists {name!r} more than once")
    return init, tuple(free)


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config)
    try:
        data = fitkit.GFluxDataset.from_csv(_read_file(args.dataset))
    except ValueError as exc:  # the dataset's own row checks
        raise NetlistError(f"dataset: {exc}") from exc
    init, free = _read_fit(cfg)
    try:
        result = fitkit.fit_g_vs_flux(data, init, free=free)
    except ArithmeticError as exc:  # the optimizer left the float range
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    payload = _round9(
        {
            "schema": 1,
            "g12_mhz": result.params.g12_mhz,
            "g1c_g2c_mhz2": result.params.g1c_g2c_mhz2,
            "product_sqrt_mhz": result.product_sqrt_mhz,
            "coupler_ec_ghz": result.params.coupler_ec_ghz,
            "coupler_ej_sum_ghz": result.params.coupler_ej_sum_ghz,
            "coupler_asymmetry": result.params.coupler_asymmetry,
            "free": list(result.free),
            "rms_residual_mhz": result.rms_residual_mhz,
            "converged": result.converged,
            "n_evaluations": result.n_evaluations,
            "covariance": result.covariance,
        }
    )
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote fit result to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``couplerkit`` parser, built once per process and shared by every
    ``main`` call; ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="couplerkit",
        description="Quantize qubit-coupler-qubit circuits and locate "
        "zero-coupling operating points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energies", help="charging/coupling energies of a netlist")
    p.add_argument("netlist", help="netlist JSON path")
    p.add_argument(
        "--degenerate-tol",
        type=float,
        default=1e-6,
        help="|e1c*e2c| threshold for the degenerate classification (GHz^2)",
    )
    p.set_defaults(func=cmd_energies)

    p = sub.add_parser("sweep", help="sweep g and/or zz, emit CSV")
    p.add_argument("--config", required=True, help="run config JSON path")
    p.add_argument("--out", help="output CSV path (default: config 'out' or stdout)")
    p.add_argument("--backend", choices=["effective", "numeric", "both"])
    p.add_argument("--levels", help="truncation as n1,nc,n2")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("find", help="locate zero-coupling / zero-zz points")
    p.add_argument("--config", required=True, help="run config JSON path")
    p.add_argument("--target", choices=["g", "zz"], required=True)
    p.add_argument("--backend", choices=["effective", "numeric", "both"])
    p.add_argument("--levels", help="truncation as n1,nc,n2")
    p.set_defaults(func=cmd_find)

    p = sub.add_parser("fit", help="fit g-vs-flux data, emit JSON")
    p.add_argument("dataset", help="dataset CSV path")
    p.add_argument("--config", required=True, help="fit config JSON path")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_fit)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a library warning as one ``warning:`` line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """Run one command; its library errors and the warnings that the
    caller's filters let through become stderr lines."""
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (NetlistError, AssumptionViolationError) as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except UnderdeterminedFitError as exc:
            print(f"fit error: {exc}", file=sys.stderr)
            return EXIT_FIT
        except CouplerKitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
