"""Effective two-qubit model: net coupling, dressed frequencies, perturbative ZZ.

Detuning conventions: Delta_j = omega_c - omega_j and Sigma_j =
omega_c + omega_j for the coupler-mediated exchange; Delta_12 =
omega_1 - omega_2 for the ZZ expansion.

``g_net`` and ``zz_perturbative`` take a model of one point or of an array of
points.  On an array a point whose denominator is below the resonance floor
is NaN in every field of the result, where a float model raises
ResonanceError.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy import ndarray
from scipy.optimize import brentq

from .errors import FluxDomainError, NoRootError, ResonanceError
from .transmon import SystemModel

RESONANCE_FLOOR = 1e-3           # GHz
ROOT_TOLERANCE = 1e-6            # GHz, 1 kHz
PRESCAN_POINTS = 200
# |g_jc/Delta_j| above which dressed_frequencies warns, and at which it refuses
DISPERSIVE_WARN_RATIO = 0.3
DISPERSIVE_MAX_RATIO = 0.5


@dataclass(frozen=True)
class EffectiveCoupling:
    """Net |01>-|10> coupling and its coupler-mediated part, GHz."""

    g: float
    g_eff: float
    delta1: float
    delta2: float
    sigma1: float
    sigma2: float


@dataclass(frozen=True)
class ZZBreakdown:
    """Perturbative ZZ: constant second-order term plus flux-dependent remainder."""

    zeta2: float
    zeta34: float
    delta12: float

    @property
    def zeta_total(self) -> float:
        return self.zeta2 + self.zeta34


@dataclass(frozen=True)
class DressedFrequencies:
    omega01_1: float
    omega01_2: float
    omega02_1: float
    omega02_2: float


def _check_floor(name: str, value: float) -> None:
    if abs(value) < RESONANCE_FLOOR:
        raise ResonanceError(name, value, RESONANCE_FLOOR)


def _blank_poles(denominators: tuple, values: tuple) -> list[ndarray]:
    """``values`` with NaN at every point where a denominator is below
    RESONANCE_FLOOR in magnitude: the array form of ``_check_floor``."""
    poles = np.logical_or.reduce([abs(d) < RESONANCE_FLOOR for d in denominators])
    return [np.where(poles, np.nan, v) for v in values]


def g_net(m: SystemModel) -> EffectiveCoupling:
    """Net qubit-qubit coupling g = g12 - g_eff.

    g_eff = (g1c g2c / 2) sum_j (1/Delta_j + 1/Sigma_j).  Raises
    ResonanceError when a qubit-coupler detuning is below RESONANCE_FLOOR.
    """
    d1, d2 = m.omegac - m.omega1, m.omegac - m.omega2
    s1, s2 = m.omegac + m.omega1, m.omegac + m.omega2
    if type(d1) is ndarray:
        d1, d2, s1, s2 = _blank_poles((d1, d2), (d1, d2, s1, s2))
    else:
        _check_floor("Delta_1", d1)
        _check_floor("Delta_2", d2)
    g_eff = 0.5 * m.g1c * m.g2c * (1.0 / d1 + 1.0 / s1 + 1.0 / d2 + 1.0 / s2)
    return EffectiveCoupling(
        g=m.g12 - g_eff, g_eff=g_eff, delta1=d1, delta2=d2, sigma1=s1, sigma2=s2
    )


def dressed_frequencies(m: SystemModel) -> DressedFrequencies:
    """Coupler-dressed 01 and 02 qubit frequencies to second order in g_jc.

    For each qubit (Duffing ladder, coupling g (a c+ + a+ c - a c - a+ c+)):

        w01 = w + g^2/(w - wc) - 2 g^2/(S - eta) + g^2/S
        w02 = 2w - 2 g^2/(D + eta) - 3 g^2/(S - 2 eta) + g^2/S

    with D = wc - w, S = wc + w.  Both reduce to the familiar -g^2/D - g^2/S
    shifts as eta -> 0 and match exact two-mode diagonalization to
    O(g^4/D^3).
    """
    out = {}
    for tag, w, eta, g in (
        ("1", m.omega1, m.eta1, m.g1c),
        ("2", m.omega2, m.eta2, m.g2c),
    ):
        d = m.omegac - w
        s = m.omegac + w
        _check_floor(f"Delta_{tag}", d)
        _check_floor(f"Delta_{tag} + eta_{tag}", d + eta)
        _check_floor(f"Sigma_{tag} - eta_{tag}", s - eta)
        _check_floor(f"Sigma_{tag} - 2 eta_{tag}", s - 2 * eta)
        ratio = abs(g / d)
        if ratio >= DISPERSIVE_MAX_RATIO:
            raise ResonanceError(f"|g_{tag}c/Delta_{tag}|", ratio, DISPERSIVE_MAX_RATIO)
        if ratio > DISPERSIVE_WARN_RATIO:
            warnings.warn(
                f"|g_{tag}c/Delta_{tag}| = {ratio:.3f} exceeds the dispersive "
                f"guideline {DISPERSIVE_WARN_RATIO}",
                stacklevel=2,
            )
        g2 = g * g
        out["01_" + tag] = w - g2 / d - 2.0 * g2 / (s - eta) + g2 / s
        out["02_" + tag] = (
            2.0 * w - 2.0 * g2 / (d + eta) - 3.0 * g2 / (s - 2.0 * eta) + g2 / s
        )
    return DressedFrequencies(
        omega01_1=out["01_1"],
        omega01_2=out["01_2"],
        omega02_1=out["02_1"],
        omega02_2=out["02_2"],
    )


def zz_perturbative(m: SystemModel) -> ZZBreakdown:
    """Perturbative ZZ interaction zeta = zeta2 + zeta34.

    zeta2 = -2 g12^2 (eta1 + eta2) / [(D12 - eta1)(D12 + eta2)] is flux
    independent.  zeta34 carries the coupler-mediated terms; the model's
    g1c/g2c must already include the flux suppression by 1/Upsilon, as
    models from ``transmon.tune_coupler`` or ``transmon.system_model`` do.
    """
    d12 = m.omega1 - m.omega2
    d1, d2 = m.omegac - m.omega1, m.omegac - m.omega2
    if type(d12) is ndarray:
        d12, d1, d2 = _blank_poles(
            (d12, d12 - m.eta1, d12 + m.eta2, d1, d2, d1 + d2 + m.etac),
            (d12, d1, d2),
        )
    else:
        _check_floor("Delta_12", d12)
        _check_floor("Delta_12 - eta_1", d12 - m.eta1)
        _check_floor("Delta_12 + eta_2", d12 + m.eta2)
        _check_floor("Delta_1", d1)
        _check_floor("Delta_2", d2)
        _check_floor("Delta_1 + Delta_2 + eta_c", d1 + d2 + m.etac)

    zeta2 = -2.0 * (m.g12 * m.g12) * (m.eta1 + m.eta2) / ((d12 - m.eta1) * (d12 + m.eta2))

    gg = m.g1c * m.g2c
    gg2 = gg * gg
    inv = 1.0 / d1 + 1.0 / d2
    zeta34 = (
        -2.0 * m.g12 * gg * (
            (1.0 / d2) * (1.0 / d12 + 2.0 / (-d12 + m.eta1))
            + (1.0 / d1) * (2.0 / (d12 + m.eta2) - 1.0 / d12)
        )
        - 2.0 * gg2 / (d1 + d2 + m.etac) * (inv * inv)
        + gg2 / (d1 * d1) * (2.0 / (d12 + m.eta2) - 1.0 / d12 + 1.0 / d2)
        + gg2 / (d2 * d2) * (2.0 / (-d12 + m.eta1) + 1.0 / d12 + 1.0 / d1)
    )
    return ZZBreakdown(zeta2=zeta2, zeta34=zeta34, delta12=d12)


# maps the swept variable, a float or a 1-d array of points, to a SystemModel;
# on an array a point where the float call raises ResonanceError or
# FluxDomainError is NaN
ModelBuilder = Callable[[float | ndarray], SystemModel]


def _scan(
    f: Callable[[ndarray], ndarray], band: Sequence[float], points: int
) -> tuple[ndarray, ndarray]:
    """``points`` equally spaced values in ``band`` and ``f`` of them, NaN at
    poles and outside the flux domain; warns when every value is NaN."""
    lo, hi = band
    if not lo < hi:
        raise ValueError(f"band must satisfy lo < hi, got ({lo}, {hi})")
    xs = np.linspace(lo, hi, points)
    ys = np.broadcast_to(np.asarray(f(xs), dtype=float), xs.shape)
    if np.isnan(ys).all():
        warnings.warn(
            f"every prescan point in [{lo:.6g}, {hi:.6g}] hit a resonance pole "
            f"or fell outside the flux domain",
            stacklevel=3,
        )
    return xs, ys


def _memoized(f: Callable[[float], float]) -> Callable[[float], float]:
    """``f`` evaluated at most once per exact argument; errors are not kept."""
    values: dict[float, float] = {}

    def once(x: float) -> float:
        if x not in values:
            values[x] = f(x)
        return values[x]

    return once


def _refine_brackets(
    f: Callable[[float], float], xs: np.ndarray, ys: np.ndarray
) -> list[float]:
    """Roots of ``f`` from its prescan ``ys = f(xs)``, in ascending order.

    One array pass picks the candidate intervals, those with both ends
    finite and either the left value exactly zero or both values nonzero
    with opposite signs; Python then runs once per candidate.  A grid point
    exactly on zero counts once, unless the curve is identically zero around
    it.  Brent refines each sign change to ROOT_TOLERANCE on floats, and a
    bracket that converges onto a pole, or raises at one, is discarded.
    """
    # a trailing 0.0 makes the last grid point the left end of one more
    # interval, so a zero there follows the same rule as any other
    y = np.append(ys, 0.0)
    ya, yb = y[:-1], y[1:]
    prev = np.concatenate((y[1:2], y[:-2]))  # left neighbour; yb at the first point
    on_zero = (ya == 0.0) & ((np.isfinite(prev) & (prev != 0.0)) | (yb != 0.0))
    crossing = (ya != 0.0) & (yb != 0.0) & (np.sign(ya) != np.sign(yb))
    candidates = np.isfinite(ya) & np.isfinite(yb) & (on_zero | crossing)
    roots = []
    for i in np.flatnonzero(candidates):
        if ys[i] == 0.0:
            roots.append(float(xs[i]))
            continue
        try:
            root = brentq(f, xs[i], xs[i + 1], xtol=ROOT_TOLERANCE)
            value = f(root)
        except (ResonanceError, FluxDomainError):
            continue  # bracket straddles a resonance pole or a flux-domain edge
        # a genuine root has |f| far below the bracket values; a pole blows up
        if abs(value) <= min(abs(ys[i]), abs(ys[i + 1])):
            roots.append(float(root))
    return roots


def find_zero_g(
    builder: ModelBuilder,
    band: Sequence[float],
    prescan_points: int = PRESCAN_POINTS,
) -> float:
    """Builder input (coupler GHz or flux) in ``band`` where g vanishes.

    Prescans the band with one call of ``builder`` on an array of points,
    then refines with Brent's method on floats to ROOT_TOLERANCE (1 kHz).
    Raises NoRootError (with the endpoint couplings) when g does not change
    sign; warns when more than one sign change is seen, and when every
    prescan point is NaN.
    """

    def f(wc):
        return g_net(builder(wc)).g

    xs, ys = _scan(f, band, prescan_points)
    roots = _refine_brackets(_memoized(f), xs, ys)
    if not roots:
        finite = np.where(np.isfinite(ys))[0]
        f_lo = ys[finite[0]] if finite.size else float("nan")
        f_hi = ys[finite[-1]] if finite.size else float("nan")
        raise NoRootError((band[0], band[1]), f_lo, f_hi)
    if len(roots) > 1:
        warnings.warn(
            f"net coupling crosses zero {len(roots)} times in "
            f"[{band[0]:.6g}, {band[1]:.6g}]; returning the lowest root",
            stacklevel=2,
        )
    return roots[0]


def find_zero_zz(
    builder: ModelBuilder,
    band: Sequence[float],
    backend: str = "perturbative",
    levels: tuple[int, int, int] = (5, 5, 5),
    prescan_points: int = PRESCAN_POINTS,
) -> list[float]:
    """All coupler frequencies in ``band`` where the ZZ interaction vanishes.

    ``backend`` selects the perturbative expansion or exact diagonalization
    (``"numeric"``, truncated at ``levels`` per mode).  Returns an empty list
    when no roots are found.  The prescan calls ``builder`` once on an array
    of points, except on the numeric backend, which diagonalizes one point
    at a time.
    """
    if backend == "perturbative":

        def prescan(wc):
            return zz_perturbative(builder(wc)).zeta_total

        f = _memoized(prescan)

    elif backend == "numeric":
        from .numdiag import zz_numeric

        f = _memoized(lambda wc: zz_numeric(builder(wc), levels))

        def prescan(xs: ndarray) -> ndarray:
            # one eigensolve per point; a LabelingError ends the find here
            ys = np.empty_like(xs)
            for i, x in enumerate(xs):
                try:
                    ys[i] = f(x)
                except (ResonanceError, FluxDomainError):
                    ys[i] = np.nan
            return ys

    else:
        raise ValueError(f"backend must be 'perturbative' or 'numeric', got {backend!r}")

    xs, ys = _scan(prescan, band, prescan_points)
    return _refine_brackets(f, xs, ys)
