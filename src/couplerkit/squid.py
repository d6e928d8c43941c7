"""Flux-dependent Josephson energy of an asymmetric two-junction SQUID."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy import ndarray

from .errors import FluxDomainError


@dataclass(frozen=True)
class SquidParams:
    """Junction energies of the SQUID loop, E/h in GHz, ej_large >= ej_small > 0."""

    ej_large: float
    ej_small: float

    def __post_init__(self):
        if not (self.ej_large >= self.ej_small > 0):
            raise ValueError(
                f"need ej_large >= ej_small > 0, got "
                f"({self.ej_large}, {self.ej_small})"
            )

    @classmethod
    def from_sum_asymmetry(cls, ej_sum: float, asymmetry: float) -> "SquidParams":
        """Construct from the total energy and d = (EJL - EJS)/(EJL + EJS) in [0, 1)."""
        if not (0 <= asymmetry < 1):
            raise ValueError(f"asymmetry must be in [0, 1), got {asymmetry}")
        if not ej_sum > 0:
            raise ValueError(f"ej_sum must be positive, got {ej_sum}")
        return cls(
            ej_large=ej_sum * (1 + asymmetry) / 2,
            ej_small=ej_sum * (1 - asymmetry) / 2,
        )

    @property
    def ej_sum(self) -> float:
        return self.ej_large + self.ej_small

    @property
    def asymmetry(self) -> float:
        return (self.ej_large - self.ej_small) / self.ej_sum


def phase_from_flux_ratio(flux_ratio):
    """Reduced phase phi_e (radians) from the external flux in units of Phi_0
    (a float or an array)."""
    return 2.0 * math.pi * flux_ratio


def ej_of_flux(p: SquidParams, phi_e):
    """Effective Josephson energy at reduced external flux phi_e (radians).

    sqrt(EJS^2 + EJL^2 + 2 EJS EJL cos(phi_e)); 2pi-periodic and even,
    bounded by [EJL - EJS, EJL + EJS].  ``phi_e`` is a float or a 1-d array.
    """
    if type(phi_e) is ndarray:
        cos, sqrt, maximum = np.cos, np.sqrt, np.maximum
    else:
        cos, sqrt, maximum = math.cos, math.sqrt, max
    arg = p.ej_small**2 + p.ej_large**2 + 2.0 * p.ej_small * p.ej_large * cos(phi_e)
    return sqrt(maximum(arg, 0.0))


def phi0_of_flux(p: SquidParams, phi_e: float) -> float:
    """Junction-phase offset phi_0 at reduced flux phi_e (radians).

    Equals atan[(EJS - EJL)/(EJS + EJL) tan(phi_e/2)] on (-pi, pi) with
    phi_0(0) = 0; implemented with atan2 on the half-angle so the branch is
    continuous at phi_e = +-pi and beyond (the offset winds rather than
    jumping).  For a symmetric SQUID the offset is identically zero.
    """
    d = p.asymmetry
    if d == 0.0:
        return 0.0
    half = 0.5 * phi_e
    return -math.atan2(d * math.sin(half), math.cos(half))


def _reachable(p: SquidParams, ej):
    """``ej`` where the SQUID reaches it, in [EJL - EJS, EJL + EJS]: the one
    out-of-domain rule of this module.  Outside that range a float raises
    FluxDomainError and an array entry is NaN."""
    lo, hi = p.ej_large - p.ej_small, p.ej_sum
    if type(ej) is ndarray:
        return np.where((lo <= ej) & (ej <= hi), ej, np.nan)
    if not (lo <= ej <= hi):
        raise FluxDomainError(
            f"target energy {ej:.6g} GHz outside the SQUID range "
            f"[{lo:.6g}, {hi:.6g}] GHz"
        )
    return ej


def flux_for_ej(p: SquidParams, ej):
    """Reduced flux phi_e in [0, pi] at which the SQUID energy equals ej.

    Inverse of ej_of_flux on its decreasing branch; raises FluxDomainError
    outside [EJL - EJS, EJL + EJS].  On a 1-d array of energies, entries
    outside that range give NaN instead.
    """
    ej = _reachable(p, ej)
    cos_phi = (ej**2 - p.ej_large**2 - p.ej_small**2) / (
        2.0 * p.ej_large * p.ej_small
    )
    if type(ej) is ndarray:
        return np.arccos(np.clip(cos_phi, -1.0, 1.0))
    return math.acos(min(1.0, max(-1.0, cos_phi)))
