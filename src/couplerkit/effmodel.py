"""Effective two-qubit model: net coupling, dressed frequencies, perturbative ZZ.

Detuning conventions: Delta_j = omega_c - omega_j and Sigma_j =
omega_c + omega_j for the coupler-mediated exchange; Delta_12 =
omega_1 - omega_2 for the ZZ expansion.

``g_net``, ``zz_perturbative`` and ``dressed_frequencies`` take a model of one
point or of an array of points.  On an array a point where a float model
raises ResonanceError, at a denominator below the resonance floor or (for
``dressed_frequencies``) beyond the dispersive limit, is NaN in every field
of the result.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy import ndarray
from scipy.optimize import brentq

from . import numdiag
from .errors import (
    FluxDomainError,
    LabelingError,
    LabelingWarning,
    NoRootError,
    ResonanceError,
)
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


def _floor(denominators: dict, values: tuple) -> Sequence:
    """``values`` after the resonance floor: the one out-of-domain rule of
    this module.  On floats, a ResonanceError names the first of the named
    ``denominators`` below RESONANCE_FLOOR in magnitude.  On arrays, every
    point where one is below is NaN in each of ``values``, which are returned
    themselves when no point is a pole, so they must be arrays the caller
    owns.
    """
    poles = None
    for name, value in denominators.items():
        below = abs(value) < RESONANCE_FLOOR
        if type(value) is not ndarray:
            if below:
                raise ResonanceError(name, value, RESONANCE_FLOOR)
        elif poles is None:
            poles = below
        else:
            poles |= below
    if poles is None or not poles.any():
        return values
    return [np.where(poles, np.nan, v) for v in values]


def _pole_sum(d1, d2, s1, s2):
    """sum_j (1/Delta_j + 1/Sigma_j), the coupler-mediated exchange per unit
    g1c g2c / 2: the one home of this sum, which ``g_net`` and the flux fit's
    model both take.  Floats or arrays."""
    return 1.0 / d1 + 1.0 / s1 + 1.0 / d2 + 1.0 / s2


def g_net(m: SystemModel) -> EffectiveCoupling:
    """Net qubit-qubit coupling g = g12 - g_eff.

    g_eff = (g1c g2c / 2) sum_j (1/Delta_j + 1/Sigma_j).  Raises
    ResonanceError when a qubit-coupler detuning is below RESONANCE_FLOOR.
    """
    d1, d2 = m.omegac - m.omega1, m.omegac - m.omega2
    s1, s2 = m.omegac + m.omega1, m.omegac + m.omega2
    d1, d2, s1, s2 = _floor({"Delta_1": d1, "Delta_2": d2}, (d1, d2, s1, s2))
    g_eff = 0.5 * m.g1c * m.g2c * _pole_sum(d1, d2, s1, s2)
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
    O(g^4/D^3).  A float model raises ResonanceError at a denominator below
    RESONANCE_FLOOR or at |g_jc/Delta_j| >= DISPERSIVE_MAX_RATIO, and warns
    above DISPERSIVE_WARN_RATIO.  On an array such a failing point is NaN in
    every field, and one warning names the largest ratio above the guideline
    among the other points.
    """
    values, ratios = [], {}
    for tag, w, eta, g in (
        ("1", m.omega1, m.eta1, m.g1c),
        ("2", m.omega2, m.eta2, m.g2c),
    ):
        d = m.omegac - w
        s = m.omegac + w
        d, s = _floor({
            f"Delta_{tag}": d,
            f"Delta_{tag} + eta_{tag}": d + eta,
            f"Sigma_{tag} - eta_{tag}": s - eta,
            f"Sigma_{tag} - 2 eta_{tag}": s - 2 * eta,
        }, (d, s))
        name = f"|g_{tag}c/Delta_{tag}|"
        ratio = ratios[name] = abs(g / d)
        if type(ratio) is not ndarray:
            if ratio >= DISPERSIVE_MAX_RATIO:
                raise ResonanceError(name, ratio, DISPERSIVE_MAX_RATIO)
            _warn_dispersive(name, ratio)
        g2 = g * g
        values.append(w - g2 / d - 2.0 * g2 / (s - eta) + g2 / s)
        values.append(2.0 * w - 2.0 * g2 / (d + eta) - 3.0 * g2 / (s - 2.0 * eta) + g2 / s)
    if any(type(r) is ndarray for r in ratios.values()):
        # NaN where either qubit is at a pole or at the dispersive limit
        kept = np.logical_and(*(r < DISPERSIVE_MAX_RATIO for r in ratios.values()))
        values = [np.where(kept, v, np.nan) for v in values]
        worst = {name: np.where(kept, r, 0.0).max(initial=0.0) for name, r in ratios.items()}
        name = max(worst, key=worst.get)
        _warn_dispersive(name, worst[name])
    # values holds each qubit's 01 and 02 frequencies in turn
    return DressedFrequencies(*values[::2], *values[1::2])


def _warn_dispersive(name: str, ratio: float) -> None:
    """Warn the caller of ``dressed_frequencies`` when the coupling ratio
    ``name`` exceeds the dispersive guideline."""
    if ratio > DISPERSIVE_WARN_RATIO:
        warnings.warn(
            f"{name} = {ratio:.3f} exceeds the dispersive guideline "
            f"{DISPERSIVE_WARN_RATIO}",
            stacklevel=3,
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
    d12, d1, d2 = _floor({
        "Delta_12": d12,
        "Delta_12 - eta_1": d12 - m.eta1,
        "Delta_12 + eta_2": d12 + m.eta2,
        "Delta_1": d1,
        "Delta_2": d2,
        "Delta_1 + Delta_2 + eta_c": d1 + d2 + m.etac,
    }, (d12, d1, d2))

    zeta2 = -2.0 * (m.g12 * m.g12) * (m.eta1 + m.eta2) / ((d12 - m.eta1) * (d12 + m.eta2))

    gg = m.g1c * m.g2c
    gg2 = gg * gg
    r1, r2, r12 = 1.0 / d1, 1.0 / d2, 1.0 / d12
    a1, a2 = 2.0 / (-d12 + m.eta1), 2.0 / (d12 + m.eta2)
    inv = r1 + r2
    zeta34 = (
        -2.0 * m.g12 * gg * (r2 * (r12 + a1) + r1 * (a2 - r12))
        - 2.0 * gg2 / (d1 + d2 + m.etac) * (inv * inv)
        + gg2 / (d1 * d1) * (a2 - r12 + r2)
        + gg2 / (d2 * d2) * (a1 + r12 + r1)
    )
    return ZZBreakdown(zeta2=zeta2, zeta34=zeta34, delta12=d12)


# maps the swept variable, a float or a 1-d array of points, to a SystemModel;
# on an array a point where the float call raises ResonanceError or
# FluxDomainError is NaN
ModelBuilder = Callable[[float | ndarray], SystemModel]


# why an effective prescan value is NaN
_POLE_OR_DOMAIN = "hit a resonance pole or fell outside the flux domain"


def _refine_brackets(
    f: Callable[[float], float], xs: np.ndarray, ys: np.ndarray
) -> list[float]:
    """Roots of ``f`` from its prescan ``ys = f(xs)``, in ascending order.

    One array pass picks the candidate intervals, those with both ends
    finite and either the left value exactly zero or both values nonzero
    with opposite signs; Python then runs once per candidate.  A grid point
    exactly on zero counts once, unless the curve is identically zero around
    it.  Brent refines each sign change to ROOT_TOLERANCE on floats, starting
    from the bracket's prescan values and evaluating ``f`` at no point twice
    (errors are not kept), and a bracket that converges onto a pole, or
    raises at one or at a point whose states cannot be labeled, is discarded.
    """
    # a trailing 0.0 makes the last grid point the left end of one more
    # interval, so a zero there follows the same rule as any other
    y = np.append(ys, 0.0)
    ya, yb = y[:-1], y[1:]
    prev = np.concatenate((y[1:2], y[:-2]))  # left neighbour; yb at the first point
    on_zero = (ya == 0.0) & ((np.isfinite(prev) & (prev != 0.0)) | (yb != 0.0))
    crossing = (ya != 0.0) & (yb != 0.0) & (np.sign(ya) != np.sign(yb))
    candidates = np.isfinite(ya) & np.isfinite(yb) & (on_zero | crossing)
    values = {}  # f at each bracket end and each of Brent's points

    def once(x: float) -> float:
        if x not in values:
            values[x] = f(x)
        return values[x]

    roots = []
    for i in np.flatnonzero(candidates):
        if ys[i] == 0.0:
            roots.append(float(xs[i]))
            continue
        values[xs[i]], values[xs[i + 1]] = ys[i], ys[i + 1]
        try:
            root = brentq(once, xs[i], xs[i + 1], xtol=ROOT_TOLERANCE)
            value = once(root)
        except (ResonanceError, FluxDomainError, LabelingError):
            continue  # bracket straddles a pole, a flux-domain edge or an unlabeled point
        # a genuine root has |f| far below the bracket values; a pole blows up
        if abs(value) <= min(abs(ys[i]), abs(ys[i + 1])):
            roots.append(float(root))
    return roots


def _prescan_roots(
    builder: ModelBuilder,
    evaluate: Callable[[SystemModel], float | ndarray],
    band: Sequence[float],
    points: int,
    numeric: bool = False,
) -> tuple[list[float], ndarray]:
    """Roots in ``band`` of x -> evaluate(builder(x)), and its prescan values.

    ``builder`` and ``evaluate`` run once on ``points`` equally spaced values
    in ``band``, and ``_refine_brackets`` refines from them on floats.  Warns
    the finder's caller when every prescan value is NaN, naming the reasons a
    value can be NaN.  The ``numeric`` ZZ backend has no resonance floor: its
    reasons are the ones seen, and one LabelingWarning counts the modeled
    points it could not label.
    """
    lo, hi = band
    if not lo < hi:
        raise ValueError(f"band must satisfy lo < hi, got ({lo}, {hi})")
    if not points >= 2:
        raise ValueError(f"prescan_points must be at least 2, got {points}")
    xs = np.linspace(lo, hi, points)
    m = builder(xs)
    # floats of the grid's shape, also from a builder whose model does not
    # depend on the swept variable
    ys = np.broadcast_to(np.asarray(evaluate(m), dtype=float), xs.shape)
    causes, unlabeled = _POLE_OR_DOMAIN, 0
    if numeric:
        # m.omegac is NaN where the builder could not model the point
        modeled = np.isfinite(m.omegac)
        unlabeled = np.count_nonzero(modeled & np.isnan(ys))
        causes = " or ".join(
            cause for cause, seen in (
                ("fell outside the flux domain", not modeled.all()),
                ("could not be labeled", unlabeled),
            ) if seen
        )
    if np.isnan(ys).all():
        warnings.warn(f"every prescan point in [{lo:.6g}, {hi:.6g}] {causes}", stacklevel=3)
    if unlabeled:
        warnings.warn(
            f"{unlabeled} of {points} prescan points in [{lo:.6g}, {hi:.6g}] "
            "could not be labeled and were skipped",
            LabelingWarning,
            stacklevel=3,
        )
    return _refine_brackets(lambda x: evaluate(builder(x)), xs, ys), ys


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
    roots, ys = _prescan_roots(builder, lambda m: g_net(m).g, band, prescan_points)
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
    levels: tuple[int, int, int] = numdiag.DEFAULT_LEVELS,
    prescan_points: int = PRESCAN_POINTS,
) -> list[float]:
    """All coupler frequencies in ``band`` where the ZZ interaction vanishes.

    ``backend`` selects the perturbative expansion or exact diagonalization
    (``"numeric"``, truncated at ``levels`` per mode).  Returns an empty list
    when no roots are found.  The prescan calls ``builder`` and the backend
    once on an array of points, and Brent's method refines on floats,
    evaluating no point twice.  The numeric backend skips a point whose
    dressed states it cannot label (LabelingError) like a pole, and issues
    one LabelingWarning with the number of prescan points skipped so.
    """
    if backend == "perturbative":
        return _prescan_roots(
            builder, lambda m: zz_perturbative(m).zeta_total, band, prescan_points
        )[0]
    if backend == "numeric":
        return _prescan_roots(
            builder, lambda m: numdiag.zz_numeric(m, levels), band, prescan_points,
            numeric=True,
        )[0]
    raise ValueError(f"backend must be 'perturbative' or 'numeric', got {backend!r}")
