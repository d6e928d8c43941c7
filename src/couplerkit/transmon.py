"""Transmon spectra and coupling rates from charging/coupling energies.

All energies are E/h in GHz and all frequencies are ordinary frequencies
nu = omega/2pi in GHz, so formulas written in angular units carry over
unchanged (only ratios and linear combinations appear).

The flux-to-model functions (``ej_for_frequency``, ``frequency_from_energies``,
``anharmonicity_from_energies``, ``system_model``, ``coupling_rates`` and
``tune_coupler``) take the swept quantity as a float or as a 1-d array.  On a
float they use ``math`` and raise FluxDomainError where the Josephson energy
is not positive.  On an array every entry is computed with the same
operations, and an entry where the float call would raise FluxDomainError is
NaN instead; any other error still raises.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np
from numpy import ndarray

from .capnet import ModeEnergies
from .errors import FluxDomainError
from .squid import SquidParams, ej_of_flux


class TransmonRole(enum.Enum):
    QUBIT_1 = "qubit1"
    QUBIT_2 = "qubit2"
    COUPLER = "coupler"


# below this EJ/EC the transmon expressions degrade; warn, don't refuse
TRANSMON_RATIO_WARNING = 20.0


@dataclass(frozen=True)
class TransmonParams:
    """Charging energy plus SQUID of one transmon-like mode."""

    e_c: float
    squid: SquidParams
    role: TransmonRole

    def __post_init__(self):
        if not self.e_c > 0:
            raise ValueError(f"e_c must be positive, got {self.e_c}")
        if self.squid.ej_sum / self.e_c < TRANSMON_RATIO_WARNING:
            warnings.warn(
                f"{self.role.value}: EJ/EC = {self.squid.ej_sum / self.e_c:.1f} "
                f"at zero flux is below the transmon regime threshold "
                f"{TRANSMON_RATIO_WARNING}",
                stacklevel=2,
            )


@dataclass(frozen=True)
class SystemModel:
    """Three transmon-like modes plus their pairwise coupling rates.

    Frequencies and anharmonicities in GHz (eta stored as positive
    magnitudes); coupling rates signed, in GHz.

    The first six fields must be positive.  A model of several points holds
    1-d arrays: when any field is an array, every field is made an array of
    the common length, a point with NaN in any field becomes NaN in all of
    them (a point its builder could not model), and a ValueError names the
    first other point with a field that is not positive, as the float model
    of that point would.
    """

    omega1: float
    omega2: float
    omegac: float
    eta1: float
    eta2: float
    etac: float
    g1c: float
    g2c: float
    g12: float

    def __post_init__(self):
        if (
            type(self.omega1) is not ndarray and type(self.omega2) is not ndarray
            and type(self.omegac) is not ndarray and type(self.eta1) is not ndarray
            and type(self.eta2) is not ndarray and type(self.etac) is not ndarray
            and type(self.g1c) is not ndarray and type(self.g2c) is not ndarray
            and type(self.g12) is not ndarray
            and self.omega1 > 0 and self.omega2 > 0 and self.omegac > 0
            and self.eta1 > 0 and self.eta2 > 0 and self.etac > 0
        ):
            return  # the common case, a valid model of one point
        self._check_points()

    def _check_points(self) -> None:
        """The rest of ``__post_init__``: name the first non-positive field of a
        float model, or normalize and check a model of points."""
        names = [f.name for f in fields(self)]
        values = [getattr(self, name) for name in names]
        if ndarray not in map(type, values):
            name = next(n for n in names if not getattr(self, n) > 0)
            raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        values = np.array(np.broadcast_arrays(*values), dtype=float)
        values[:, np.isnan(values).any(axis=0)] = np.nan
        for name, column in zip(names, values):
            object.__setattr__(self, name, column)
        bad = np.argwhere(values[:6].T <= 0)  # (point, field); NaN is not <= 0
        if bad.size:
            point, field = bad[0]
            raise ValueError(f"{names[field]} must be positive, got {values[field, point]}")

    def swapped_qubits(self) -> "SystemModel":
        """The same system with the qubit labels exchanged."""
        return replace(
            self,
            omega1=self.omega2,
            omega2=self.omega1,
            eta1=self.eta2,
            eta2=self.eta1,
            g1c=self.g2c,
            g2c=self.g1c,
        )


def _ej_error(e_j: float) -> FluxDomainError:
    return FluxDomainError(f"Josephson energy must be positive, got {e_j}")


def _masked_ej(e_c: float, e_j: ndarray) -> ndarray:
    """``e_j`` with NaN where the float path raises FluxDomainError.

    A negative ``e_c`` raises the ValueError that ``math.sqrt`` raises on the
    float path, unless no entry gets that far.
    """
    positive = e_j > 0
    if e_c < 0 and positive.any():
        raise ValueError("math domain error")
    return np.where(positive, e_j, np.nan)


def frequency_from_energies(e_c: float, e_j):
    """01 transition frequency: sqrt(8 EJ EC) - EC (1 + xi/4), xi = sqrt(2 EC/EJ)."""
    if type(e_j) is ndarray:
        e_j, sqrt = _masked_ej(e_c, e_j), np.sqrt
    elif e_j <= 0:
        raise _ej_error(e_j)
    else:
        sqrt = math.sqrt
    xi = sqrt(2.0 * e_c / e_j)
    return sqrt(8.0 * e_j * e_c) - e_c * (1.0 + xi / 4.0)


def anharmonicity_from_energies(e_c: float, e_j):
    """Anharmonicity magnitude EC (1 + 9 xi/16)."""
    if type(e_j) is ndarray:
        e_j, sqrt = _masked_ej(e_c, e_j), np.sqrt
    elif e_j <= 0:
        raise _ej_error(e_j)
    else:
        sqrt = math.sqrt
    xi = sqrt(2.0 * e_c / e_j)
    return e_c * (1.0 + 9.0 * xi / 16.0)


def zpf_from_energies(e_c: float, e_j: float) -> tuple[float, float]:
    """Zero-point fluctuations (n_zpf, phi_zpf); their product is exactly 1/2."""
    if e_j <= 0:
        raise _ej_error(e_j)
    r = (e_j / (8.0 * e_c)) ** 0.25
    return r / math.sqrt(2.0), 1.0 / (r * math.sqrt(2.0))


def ej_for_frequency(e_c: float, omega):
    """Josephson energy whose 01 frequency equals ``omega`` (Newton solve).

    Each entry of an array ``omega`` takes the same Newton steps as a float
    and stops where the float would.
    """
    if type(omega) is ndarray:
        return _ej_for_frequencies(e_c, omega)
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    e_j = (omega + e_c) ** 2 / (8.0 * e_c)
    for _ in range(100):
        f = frequency_from_energies(e_c, e_j) - omega
        # d/dEJ sqrt(8 EJ EC) dominates; xi-term derivative is negligible
        step = f / math.sqrt(2.0 * e_c / e_j)
        e_j -= step
        if abs(step) < 1e-14 * e_j:
            break
    return e_j


def _ej_for_frequencies(e_c: float, omega: ndarray) -> ndarray:
    bad = np.flatnonzero(omega <= 0)  # NaN entries pass through as NaN
    if bad.size:
        raise ValueError(f"omega must be positive, got {omega[bad[0]]}")
    e_j = (omega + e_c) ** 2 / (8.0 * e_c)
    todo = np.arange(e_j.size)  # entries still iterating
    with np.errstate(invalid="ignore"):  # an entry reaching EJ <= 0 ends as NaN
        for _ in range(100):
            ej = e_j[todo]
            step = (frequency_from_energies(e_c, ej) - omega[todo]) / np.sqrt(2.0 * e_c / ej)
            e_j[todo] = ej = ej - step
            todo = todo[np.abs(step) >= 1e-14 * ej]
            if not todo.size:
                break
    return e_j


def _squid_energies(q1, q2, c, phi_e1, phi_e2, phi_ec):
    """The three SQUID energies; arrays of one length once any flux is an array."""
    ejs = (ej_of_flux(q1.squid, phi_e1), ej_of_flux(q2.squid, phi_e2), ej_of_flux(c.squid, phi_ec))
    if type(ejs[0]) is ndarray or type(ejs[1]) is ndarray or type(ejs[2]) is ndarray:
        return np.broadcast_arrays(*ejs)
    return ejs


def coupling_rates(
    e: ModeEnergies,
    q1: TransmonParams,
    q2: TransmonParams,
    c: TransmonParams,
    phi_e1: float = 0.0,
    phi_e2: float = 0.0,
    phi_ec: float = 0.0,
) -> tuple[float, float, float]:
    """Coupling rates (g1c, g2c, g12) in GHz from the coupling energies.

    g_jk = (E_jk / sqrt(2)) (EJj/ECj * EJk/ECk)^(1/4) [1 - (xi_j + xi_k)/8],
    xi = sqrt(2 EC/EJ); signs are inherited from the energies.
    """
    return _coupling_rates_at(e, q1, q2, c, *_squid_energies(q1, q2, c, phi_e1, phi_e2, phi_ec))


def _coupling_rates_at(
    e: ModeEnergies,
    q1: TransmonParams,
    q2: TransmonParams,
    c: TransmonParams,
    ej1: float,
    ej2: float,
    ejc: float,
) -> tuple[float, float, float]:
    """``coupling_rates`` at given Josephson energies of the three modes
    (three floats, or three arrays of one length)."""
    if type(ejc) is ndarray:
        ej1, ej2, ejc = (
            _masked_ej(q1.e_c, ej1), _masked_ej(q2.e_c, ej2), _masked_ej(c.e_c, ejc)
        )
        sqrt = np.sqrt
    else:
        for ej in (ej1, ej2, ejc):
            if ej <= 0:
                raise _ej_error(ej)
        sqrt = math.sqrt
    r1, r2, rc = ej1 / q1.e_c, ej2 / q2.e_c, ejc / c.e_c

    def rate(e_jk: float, ra: float, rb: float, eca: float, eja: float,
             ecb: float, ejb: float) -> float:
        xa, xb = sqrt(2.0 * eca / eja), sqrt(2.0 * ecb / ejb)
        return e_jk / math.sqrt(2.0) * (ra * rb) ** 0.25 * (1.0 - (xa + xb) / 8.0)

    g1c = rate(e.e1c, r1, rc, q1.e_c, ej1, c.e_c, ejc)
    g2c = rate(e.e2c, r2, rc, q2.e_c, ej2, c.e_c, ejc)
    g12 = rate(e.e12, r1, r2, q1.e_c, ej1, q2.e_c, ej2)
    return g1c, g2c, g12


def system_model(
    e: ModeEnergies,
    q1: TransmonParams,
    q2: TransmonParams,
    c: TransmonParams,
    phi_e1: float = 0.0,
    phi_e2: float = 0.0,
    phi_ec: float = 0.0,
) -> SystemModel:
    """Assemble the full three-mode model at the given flux biases."""
    ej1, ej2, ejc = _squid_energies(q1, q2, c, phi_e1, phi_e2, phi_ec)
    g1c, g2c, g12 = _coupling_rates_at(e, q1, q2, c, ej1, ej2, ejc)
    return SystemModel(
        omega1=frequency_from_energies(q1.e_c, ej1),
        omega2=frequency_from_energies(q2.e_c, ej2),
        omegac=frequency_from_energies(c.e_c, ejc),
        eta1=anharmonicity_from_energies(q1.e_c, ej1),
        eta2=anharmonicity_from_energies(q2.e_c, ej2),
        etac=anharmonicity_from_energies(c.e_c, ejc),
        g1c=g1c,
        g2c=g2c,
        g12=g12,
    )


def tune_coupler(base: SystemModel, e_c: float, ej_max: float, ej: float) -> SystemModel:
    """``base`` with its coupler SQUID tuned from ``ej_max`` down to ``ej``.

    The coupler frequency and anharmonicity follow from (``e_c``, ``ej``);
    g1c and g2c, given in ``base`` at ``ej_max``, are suppressed by
    1/Upsilon = (ej/ej_max)^(1/4).  Qubit parameters and g12 are unchanged.
    """
    omegac = frequency_from_energies(e_c, ej)
    if type(ej) is ndarray:
        ej = _masked_ej(e_c, ej)
    scale = (ej / ej_max) ** 0.25
    return SystemModel(
        omega1=base.omega1, omega2=base.omega2, omegac=omegac,
        eta1=base.eta1, eta2=base.eta2, etac=anharmonicity_from_energies(e_c, ej),
        g1c=base.g1c * scale, g2c=base.g2c * scale, g12=base.g12,
    )
