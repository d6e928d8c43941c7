"""One digest of the numeric ZZ values and zero-finder results of a checkout.

    python3 tools/zz_digest.py [CHECKOUT]

Imports ``couplerkit`` from ``CHECKOUT/src`` (by default the checkout that
holds this script) and prints the sha256 of a fixed list of entries and
their count.  Run it in two checkouts: the same sha256 means the same bits.

- ``zz_numeric`` on a 200-point array and as 120 float calls, at each of
  3,3,3, 4,3,5, 5,5,5 and 7,7,7 levels, on both reference devices with
  resonant and with detuned qubits, over coupler frequencies 2.5-6.5 GHz:
  each value as ``float.hex`` (NaN included), or the type and message of
  the error a float call raises;
- ``find_zero_g`` and both ``find_zero_zz`` backends on both devices: each
  root as ``float.hex``, each warning's category and message, and the type
  and message of an error;
- ``fit_g_vs_flux`` on synthetic g(phi) data of both devices, at 12, 50 and
  200 rows, all-signed, magnitude-only and mixed-sign (every third row
  magnitude-only), noiseless and with 0.1 MHz noise, with the default free
  parameters and with E_J,sum or the SQUID asymmetry freed as well, and at
  12 rows with (g12, product, E_C) free: the five parameters,
  ``rms_residual_mhz`` and ``covariance`` as ``float.hex``, with
  ``n_evaluations`` and ``converged``, or the type and message of an error.

The values depend on the LAPACK build, so compare digests taken on one
machine.
"""

from __future__ import annotations

import hashlib
import sys
import warnings
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

LEVELS = ((3, 3, 3), (4, 3, 5), (5, 5, 5), (7, 7, 7))
BAND = (2.5, 6.5)
ARRAY_POINTS, FLOAT_POINTS = 200, 120


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.atleast_1d(values)]


def zz_entries(ck) -> list[str]:
    """Array and float ``zz_numeric`` values, and the errors of float calls."""
    entries = []
    for device in (ck.presets.ASYMMETRIC_DEVICE, ck.presets.SYMMETRIC_DEVICE):
        for resonant in (True, False):
            builder = ck.presets.device_flux_builder(device, resonant)
            for levels in LEVELS:
                entries += _hex(ck.zz_numeric(builder(np.linspace(*BAND, ARRAY_POINTS)), levels))
                for wc in np.linspace(*BAND, FLOAT_POINTS).tolist():
                    try:
                        entries.append(ck.zz_numeric(builder(wc), levels).hex())
                    except (ck.LabelingError, ck.FluxDomainError) as exc:
                        entries.append(f"{type(exc).__name__}: {exc}")
    return entries


def find_entries(ck) -> list[str]:
    """Roots, warnings and errors of the zero finders."""
    sym, asym = ck.presets.SYMMETRIC_DEVICE, ck.presets.ASYMMETRIC_DEVICE
    finds = []
    for device in (sym, asym):
        detuned = ck.presets.device_flux_builder(device, resonant=False)
        for band in ((2.5, 4.0), (4.4, 6.5)):
            finds += [
                lambda b=detuned, band=band: [ck.find_zero_g(b, band)],
                lambda b=detuned, band=band: ck.find_zero_zz(b, band),
                lambda b=detuned, band=band: ck.find_zero_zz(b, band, backend="numeric"),
            ]
        resonant = ck.presets.device_flux_builder(device, resonant=True)
        finds += [
            lambda b=resonant: ck.find_zero_zz(b, (4.4, 6.5)),
            lambda b=resonant: ck.find_zero_zz(b, (5.9, 7.0), backend="numeric",
                                               levels=(4, 4, 4), prescan_points=40),
        ]
    entries = []
    for find in finds:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            try:
                entries += _hex(find())
            except (ck.NoRootError, ck.FluxDomainError) as exc:
                entries.append(f"{type(exc).__name__}: {exc}")
        entries += [f"{w.category.__name__}: {w.message}" for w in seen]
    return entries


FIT_ROWS = (12, 50, 200)
FIT_SIGNS = ("signed", "magnitude", "mixed")
FIT_NOISE = (0.0, 0.1)


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
        for rows in FIT_ROWS:
            for signs in FIT_SIGNS:
                for seed, noise in enumerate(FIT_NOISE):
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


def fit_entries(ck) -> list[str]:
    """Values of every fit, or its error."""
    entries = []
    for label, data, init, free in fit_cases(ck):
        try:
            r = ck.fit_g_vs_flux(data, init, free=free)
        except (ck.CouplerKitError, ValueError, ArithmeticError) as exc:
            entries.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        covariance = " ".join(f"{k}={v.hex()}" for k, v in r.covariance.items())
        entries.append(f"{label}: {' '.join(_hex(astuple(r.params)))} "
                       f"{r.rms_residual_mhz.hex()} {r.n_evaluations} {r.converged} "
                       f"{covariance}")
    return entries


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    checkout = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(checkout.resolve() / "src"))
    import couplerkit as ck
    import couplerkit.presets  # noqa: F401  (binds ck.presets)

    entries = zz_entries(ck) + find_entries(ck) + fit_entries(ck)
    digest = hashlib.sha256("\n".join(entries).encode()).hexdigest()
    print(f"{digest} {len(entries)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
