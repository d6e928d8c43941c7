"""Fit measured coupling-vs-flux data to the effective coupler model.

The model ties the net coupling to the coupler flux bias through the SQUID:

    g(phi) = g12 - (P0 / Upsilon^2(phi) / 2) * sum_j (1/Delta_j + 1/Sigma_j)

with P0 = g1c*g2c at zero flux and omega_c(phi) from the transmon formula.
Only the product P0 is identifiable from g(phi) data, never the individual
qubit-coupler rates, so the product is the fit parameter and its square root
is reported for convenience.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from numpy import ndarray
from scipy.optimize import least_squares, minimize

from .errors import NetlistError, UnderdeterminedFitError
from .squid import SquidParams, ej_of_flux
from .transmon import frequency_from_energies

CSV_HEADER = ["phi_over_phi0", "g_mhz", "sign", "omega1_ghz", "omega2_ghz"]


FIT_PARAMETER_NAMES = (
    "g12_mhz",
    "g1c_g2c_mhz2",
    "coupler_ec_ghz",
    "coupler_ej_sum_ghz",
    "coupler_asymmetry",
)

DEFAULT_FREE = ("g12_mhz", "g1c_g2c_mhz2")
SIMPLEX_MAX_ITERATIONS = 4000
# every row's residual when the model is not finite on some row
INFEASIBLE_RESIDUAL_MHZ = 1e6


@dataclass(frozen=True)
class GFluxDataset:
    """Rows of (coupler flux, coupling magnitude, optional sign, qubit freqs).

    ``phi`` is the reduced flux in radians; ``sign`` holds +-1 where the sign
    of g is known and 0 for magnitude-only rows.  Qubit frequencies are known
    inputs per row (the resonance condition during the measurement) and must
    be positive.
    """

    phi: np.ndarray
    g_mhz: np.ndarray
    sign: np.ndarray
    omega1_ghz: np.ndarray
    omega2_ghz: np.ndarray

    def __post_init__(self):
        arrays = {
            name: np.asarray(getattr(self, name), dtype=float)
            for name in ("phi", "g_mhz", "sign", "omega1_ghz", "omega2_ghz")
        }
        n = len(arrays["phi"])
        for name, arr in arrays.items():
            if arr.ndim != 1 or len(arr) != n:
                raise ValueError(f"{name} must be 1-d of common length")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} values must be finite")
            object.__setattr__(self, name, arr)
        if n < 6:
            raise ValueError(f"need at least 6 rows, got {n}")
        if np.any(self.g_mhz < 0):
            raise ValueError("coupling magnitudes must be non-negative")
        if len(np.unique(self.phi)) != n:
            raise ValueError("flux values must be distinct")
        if not np.all(np.isin(self.sign, (-1.0, 0.0, 1.0))):
            raise ValueError("sign entries must be -1, 0 or +1")
        for name in ("omega1_ghz", "omega2_ghz"):
            if not np.all(getattr(self, name) > 0):
                raise ValueError(f"{name} values must be positive")

    def __len__(self) -> int:
        return len(self.phi)

    @classmethod
    def from_flux_ratio(cls, flux_ratio, g_mhz, sign, omega1_ghz, omega2_ghz):
        return cls(
            phi=2.0 * math.pi * np.asarray(flux_ratio, dtype=float),
            g_mhz=g_mhz,
            sign=sign,
            omega1_ghz=omega1_ghz,
            omega2_ghz=omega2_ghz,
        )

    @classmethod
    def from_csv(cls, source: str | Path) -> "GFluxDataset":
        """Read `phi_over_phi0,g_mhz,sign,omega1_ghz,omega2_ghz` rows.

        ``source`` is CSV text, or a ``Path`` to read it from.  An empty sign
        cell means magnitude-only.
        """
        text = source.read_text() if isinstance(source, Path) else source
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise NetlistError("empty dataset CSV") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise NetlistError(
                f"dataset header must be {','.join(CSV_HEADER)}, got {','.join(header)}"
            )
        cols: list[list[float]] = [[], [], [], [], []]
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 5:
                raise NetlistError(f"line {line_no}: expected 5 cells, got {len(row)}")
            try:
                cols[0].append(float(row[0]))
                cols[1].append(float(row[1]))
                cols[2].append(float(row[2]) if row[2].strip() else 0.0)
                cols[3].append(float(row[3]))
                cols[4].append(float(row[4]))
            except ValueError as exc:
                raise NetlistError(f"line {line_no}: {exc}") from exc
        return cls.from_flux_ratio(*cols)

    def to_csv(self) -> str:
        out = [",".join(CSV_HEADER)]
        for i in range(len(self)):
            sign = f"{int(self.sign[i]):d}" if self.sign[i] != 0.0 else ""
            out.append(
                f"{self.phi[i] / (2.0 * math.pi):.9g},{self.g_mhz[i]:.9g},{sign},"
                f"{self.omega1_ghz[i]:.9g},{self.omega2_ghz[i]:.9g}"
            )
        return "\n".join(out) + "\n"


@dataclass(frozen=True)
class CouplerFluxModel:
    """Parameter set of the g(phi) model; the fit optimizes a subset of these."""

    g12_mhz: float
    g1c_g2c_mhz2: float
    coupler_ec_ghz: float
    coupler_ej_sum_ghz: float
    coupler_asymmetry: float = 0.0


@dataclass(frozen=True)
class FitResult:
    """Outcome of ``fit_g_vs_flux``.

    ``n_evaluations`` is the simplex search's objective evaluations plus the
    ``nfev`` scipy reports for the Levenberg-Marquardt pass.  scipy 1.17
    leaves that pass's finite-difference Jacobian evaluations out of
    ``nfev``; releases that run MINPACK's ``lmdif`` count them.
    ``covariance`` holds the variance of each free parameter, empty when the
    refinement was not kept or there are no spare rows.
    """

    params: CouplerFluxModel
    free: tuple[str, ...]
    rms_residual_mhz: float
    converged: bool
    n_evaluations: int
    covariance: dict[str, float]

    @property
    def g12_mhz(self) -> float:
        return self.params.g12_mhz

    @property
    def g1c_g2c_mhz2(self) -> float:
        return self.params.g1c_g2c_mhz2

    @property
    def product_sqrt_mhz(self) -> float:
        """sqrt(|g1c*g2c|), the usual report of the product magnitude."""
        return math.sqrt(abs(self.params.g1c_g2c_mhz2))


def model_g_mhz(params: CouplerFluxModel, phi, omega1_ghz, omega2_ghz) -> np.ndarray:
    """Signed net coupling (MHz) at reduced flux values ``phi`` (radians).

    ``phi`` is a float or an array, and the qubit frequencies broadcast to its
    shape.  Three 1-d float arrays of one shape, as a fit passes them, are
    used as they are.
    """
    w1, w2 = omega1_ghz, omega2_ghz
    if not (
        type(phi) is ndarray and type(w1) is ndarray and type(w2) is ndarray
        and phi.ndim == 1 and phi.dtype == w1.dtype == w2.dtype == float
        and phi.shape == w1.shape == w2.shape
    ):
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        w1 = np.broadcast_to(np.asarray(w1, dtype=float), phi.shape)
        w2 = np.broadcast_to(np.asarray(w2, dtype=float), phi.shape)
        if phi.ndim > 1:
            return model_g_mhz(params, phi.ravel(), w1.ravel(), w2.ravel()).reshape(phi.shape)
    squid = SquidParams.from_sum_asymmetry(
        params.coupler_ej_sum_ghz, params.coupler_asymmetry
    )
    # Python floats take the math path of the flux chain: the bits of
    # np.float64 rows, at less cost
    ejs = np.array([ej_of_flux(squid, p) for p in phi.tolist()])
    if (ejs <= 0).any():
        return np.full(phi.shape, np.nan)
    e_c = params.coupler_ec_ghz
    wc = np.array([frequency_from_energies(e_c, ej) for ej in ejs.tolist()])
    # product scales as 1/Upsilon^2 = sqrt(EJ(phi)/EJ(0))
    product_ghz2 = params.g1c_g2c_mhz2 * 1e-6 * np.sqrt(ejs / squid.ej_sum)
    s = 1.0 / (wc - w1) + 1.0 / (wc + w1) + 1.0 / (wc - w2) + 1.0 / (wc + w2)
    g_ghz = params.g12_mhz * 1e-3 - 0.5 * product_ghz2 * s
    return g_ghz * 1e3


def synth_g_dataset(
    params: CouplerFluxModel,
    phi,
    omega1_ghz,
    omega2_ghz,
    noise_sigma_mhz: float = 0.0,
    seed: int = 0,
    with_signs: bool = True,
) -> GFluxDataset:
    """Deterministic synthetic dataset drawn from the model.

    Gaussian noise of ``noise_sigma_mhz`` is added to the signed coupling
    before taking magnitudes; zero sigma reproduces the model exactly.
    """
    phi = np.asarray(phi, dtype=float)
    w1 = np.broadcast_to(np.asarray(omega1_ghz, dtype=float), phi.shape).copy()
    w2 = np.broadcast_to(np.asarray(omega2_ghz, dtype=float), phi.shape).copy()
    g = model_g_mhz(params, phi, w1, w2)
    if noise_sigma_mhz > 0.0:
        rng = np.random.default_rng(seed)
        g = g + rng.normal(scale=noise_sigma_mhz, size=g.shape)
    sign = np.sign(g) if with_signs else np.zeros_like(g)
    return GFluxDataset(
        phi=phi, g_mhz=np.abs(g), sign=sign, omega1_ghz=w1, omega2_ghz=w2
    )


def fit_g_vs_flux(
    data: GFluxDataset,
    init: CouplerFluxModel,
    free: tuple[str, ...] = DEFAULT_FREE,
) -> FitResult:
    """Least-squares fit of the flux model to a dataset.

    Starts with a derivative-free simplex search from ``init`` (at most
    ``SIMPLEX_MAX_ITERATIONS`` iterations), then refines with a
    finite-difference Levenberg-Marquardt pass (relative step 1e-6) that is
    kept when it does not raise the objective.  Parameters not named in
    ``free`` are held at their ``init`` values.  Deterministic for identical
    inputs.  Raises UnderdeterminedFitError when there are fewer rows than
    free parameters.  ``converged`` is True when the simplex or the kept
    refinement converged and the returned parameters give a finite model on
    every row; otherwise the best parameters so far are returned.
    """
    free = tuple(free)
    for name in free:
        if name not in FIT_PARAMETER_NAMES:
            raise ValueError(f"unknown fit parameter {name!r}")
        if free.count(name) > 1:
            raise ValueError(f"free lists {name!r} more than once")
    if not free:
        raise ValueError("at least one parameter must be free")
    if len(data) < len(free):
        raise UnderdeterminedFitError(
            f"{len(data)} rows cannot determine {len(free)} free parameters"
        )
    for f in fields(init):
        if not np.isfinite(getattr(init, f.name)):
            raise ValueError(f"initial guess {f.name} is not finite")

    # scale factors keep the simplex well conditioned across parameter units
    scales = {name: max(abs(getattr(init, name)), 1.0) for name in free}
    held = [getattr(init, name) for name in FIT_PARAMETER_NAMES]
    slots = [(FIT_PARAMETER_NAMES.index(name), scales[name]) for name in free]

    def model_at(x: np.ndarray) -> CouplerFluxModel:
        values = held.copy()
        for (slot, scale), value in zip(slots, x.tolist()):
            values[slot] = value * scale
        return CouplerFluxModel(*values)

    n = len(data)
    phi, w1, w2 = data.phi, data.omega1_ghz, data.omega2_ghz
    signed = data.sign != 0.0
    magnitude = ~signed
    signed_g = data.sign[signed] * data.g_mhz[signed]
    magnitude_g = data.g_mhz[magnitude]

    def residuals(x: np.ndarray) -> np.ndarray:
        try:
            g = model_g_mhz(model_at(x), phi, w1, w2)
        except ValueError:
            # free coupler parameters can step outside the SQUID/transmon domain
            return np.full(n, INFEASIBLE_RESIDUAL_MHZ)
        if not np.isfinite(g).all():
            return np.full(n, INFEASIBLE_RESIDUAL_MHZ)
        res = np.empty(n)
        res[signed] = g[signed] - signed_g
        res[magnitude] = np.abs(g[magnitude]) - magnitude_g
        return res

    def objective(x: np.ndarray) -> float:
        return float(np.sum(residuals(x) ** 2))

    x0 = np.array([getattr(init, name) / scales[name] for name in free])
    simplex = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={
            "maxiter": SIMPLEX_MAX_ITERATIONS,
            "xatol": 1e-10,
            "fatol": 1e-14,
            "adaptive": True,
        },
    )
    best_x = simplex.x
    n_evaluations = int(simplex.nfev)
    converged = bool(simplex.success)

    jacobian = None
    # the row count check above guarantees LM's rows >= parameters
    gn = least_squares(
        residuals,
        best_x,
        method="lm",
        diff_step=1e-6,
        max_nfev=2000,
    )
    n_evaluations += int(gn.nfev)
    if np.sum(gn.fun**2) <= simplex.fun:
        best_x, res = gn.x, gn.fun
        converged = converged or bool(gn.success)
        jacobian = gn.jac
    else:
        res = residuals(best_x)

    # parameters whose model is not finite on some row sit on the wall of
    # every row: whatever the optimizers reported, that is no fit
    converged = converged and not (res == INFEASIBLE_RESIDUAL_MHZ).all()
    params = model_at(best_x)
    rms = float(np.sqrt(np.mean(res**2)))

    covariance: dict[str, float] = {}
    if jacobian is not None and len(data) > len(free):
        sigma2 = float(np.sum(res**2)) / (len(data) - len(free))
        try:
            cov = sigma2 * np.linalg.inv(jacobian.T @ jacobian)
            for i, name in enumerate(free):
                covariance[name] = float(cov[i, i]) * scales[name] ** 2
        except np.linalg.LinAlgError:
            covariance = {}

    return FitResult(
        params=params,
        free=free,
        rms_residual_mhz=rms,
        converged=converged,
        n_evaluations=n_evaluations,
        covariance=covariance,
    )
