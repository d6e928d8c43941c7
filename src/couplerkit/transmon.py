"""Transmon spectra and coupling rates from charging/coupling energies.

All energies are E/h in GHz and all frequencies are ordinary frequencies
nu = omega/2pi in GHz, so formulas written in angular units carry over
unchanged (only ratios and linear combinations appear).

The flux-to-model functions (``ej_for_frequency``, ``frequency_from_energies``,
``anharmonicity_from_energies``, ``system_model``, ``coupling_rates`` and
``tune_coupler``) take the swept quantity as a float or as a 1-d array.  On a
float they use ``math`` and raise FluxDomainError where the Josephson energy
is not positive, and ``system_model`` and ``tune_coupler`` also where the
coupler frequency is not (a coupler SQUID tuned close to Phi0/2).  On an
array every entry is computed with the same operations, so it has the bits
of the float call, and an entry where the float call would raise
FluxDomainError is NaN instead; any other error still raises.  Each rule is
written once: ``_checked_ej`` holds the Josephson-energy rule and
``_coupler`` the coupler-frequency rule.
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

    The first six fields must be positive and the three coupling rates
    finite.  A model of several points holds 1-d arrays: when any field is an
    array, every field is made an array of the common length, a point with
    NaN in any field becomes NaN in all of them (a point its builder could
    not model), and a ValueError names the first other point with a field
    that is not positive or a rate that is infinite, as the float model of
    that point would.
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
            and math.isfinite(self.g1c) and math.isfinite(self.g2c)
            and math.isfinite(self.g12)
        ):
            return  # the common case, a valid model of one point
        self._check_points()

    def _check_points(self) -> None:
        """The rest of ``__post_init__``: name the first field of a float model
        that is not positive or not finite, or normalize and check a model of
        points."""
        values = [getattr(self, name) for name in _FIELDS]
        if ndarray not in map(type, values):
            for i, (name, value) in enumerate(zip(_FIELDS, values)):
                if i < 6 and not value > 0:
                    raise ValueError(f"{name} must be positive, got {value}")
                if i >= 6 and not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
        table = np.empty((len(values), *np.broadcast(*values).shape))
        for i, value in enumerate(values):
            table[i] = value
        nan = np.isnan(table).any(axis=0)
        if nan.any():
            table[:, nan] = np.nan
        for name, column in zip(_FIELDS, table):
            object.__setattr__(self, name, column)
        columns = table.reshape(len(values), -1)  # (field, point), also for 0-d fields
        bad = columns <= 0  # NaN is neither <= 0 nor infinite
        bad[6:] = np.isinf(columns[6:])
        if bad.any():
            point, field = np.argwhere(bad.T)[0]
            rule = "finite" if field >= 6 else "positive"
            raise ValueError(f"{_FIELDS[field]} must be {rule}, got {columns[field, point]}")

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


_FIELDS = tuple(f.name for f in fields(SystemModel))


def _checked_ej(e_c: float, e_j):
    """``e_j`` inside the transmon domain, and the ``sqrt`` to use on it.

    The one out-of-domain rule of this module: a float ``e_j`` that is not
    positive raises FluxDomainError, and the float path takes ``math.sqrt``.
    An array ``e_j`` is NaN there and takes ``np.sqrt``; a negative ``e_c``
    then raises the ValueError that ``math.sqrt`` raises on the float path,
    unless no entry gets that far.
    """
    if type(e_j) is not ndarray:
        if e_j <= 0:
            raise FluxDomainError(f"Josephson energy must be positive, got {e_j}")
        return e_j, math.sqrt
    positive = e_j > 0
    if e_c < 0 and positive.any():
        raise ValueError("math domain error")
    return np.where(positive, e_j, np.nan), np.sqrt


def _frequency(e_c: float, e_j, sqrt):
    xi = sqrt(2.0 * e_c / e_j)
    return sqrt(8.0 * e_j * e_c) - e_c * (1.0 + xi / 4.0)


def _anharmonicity(e_c: float, e_j, sqrt):
    xi = sqrt(2.0 * e_c / e_j)
    return e_c * (1.0 + 9.0 * xi / 16.0)


def _coupler(e_c: float, e_j, sqrt):
    """Frequency and anharmonicity of a coupler at an ``e_j`` from
    ``_checked_ej``.  The frequency must be positive too: FluxDomainError on
    a float, NaN on an array."""
    omegac = _frequency(e_c, e_j, sqrt)
    if type(omegac) is ndarray:
        omegac = np.where(omegac > 0, omegac, np.nan)
    elif not omegac > 0:
        raise FluxDomainError(f"coupler frequency must be positive, got {omegac} GHz")
    return omegac, _anharmonicity(e_c, e_j, sqrt)


def frequency_from_energies(e_c: float, e_j):
    """01 transition frequency: sqrt(8 EJ EC) - EC (1 + xi/4), xi = sqrt(2 EC/EJ)."""
    e_j, sqrt = _checked_ej(e_c, e_j)
    return _frequency(e_c, e_j, sqrt)


def anharmonicity_from_energies(e_c: float, e_j):
    """Anharmonicity magnitude EC (1 + 9 xi/16)."""
    e_j, sqrt = _checked_ej(e_c, e_j)
    return _anharmonicity(e_c, e_j, sqrt)


def ej_for_frequency(e_c: float, omega):
    """Josephson energy whose 01 frequency equals ``omega``.

    ``frequency_from_energies`` is a quadratic in sqrt(EJ); its positive root
    gives the closed form

        EJ = [(omega + EC) + sqrt((omega + EC)^2 + 4 EC^2)]^2 / (32 EC).
    """
    if type(omega) is ndarray:
        bad = np.flatnonzero(omega <= 0)  # NaN entries pass through as NaN
        if bad.size:
            raise ValueError(f"omega must be positive, got {omega[bad[0]]}")
        sqrt = np.sqrt
    elif not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    else:
        sqrt = math.sqrt
    if not e_c > 0:
        raise ValueError(f"e_c must be positive, got {e_c}")
    t = omega + e_c
    root = t + sqrt(t * t + 4.0 * e_c * e_c)
    return root * root / (32.0 * e_c)


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
    return _modes(e, q1, q2, c, phi_e1, phi_e2, phi_ec)[1]


def _modes(e: ModeEnergies, q1, q2, c, phi_e1, phi_e2, phi_ec) -> tuple[tuple, tuple]:
    """The three modes' Josephson energies at their fluxes, each through
    ``_checked_ej``, with the ``sqrt`` to use on them, and the coupling rates
    (g1c, g2c, g12) there; arrays of one length once any flux is an array."""
    ejs = (ej_of_flux(q1.squid, phi_e1), ej_of_flux(q2.squid, phi_e2), ej_of_flux(c.squid, phi_ec))
    if ndarray in map(type, ejs):
        ejs = np.broadcast_arrays(*ejs)
    (ej1, sqrt), (ej2, _), (ejc, _) = (
        _checked_ej(mode.e_c, ej) for mode, ej in zip((q1, q2, c), ejs)
    )
    r1, r2, rc = ej1 / q1.e_c, ej2 / q2.e_c, ejc / c.e_c

    def rate(e_jk: float, ra: float, rb: float, eca: float, eja: float,
             ecb: float, ejb: float) -> float:
        xa, xb = sqrt(2.0 * eca / eja), sqrt(2.0 * ecb / ejb)
        return e_jk / math.sqrt(2.0) * sqrt(sqrt(ra * rb)) * (1.0 - (xa + xb) / 8.0)

    return (ej1, ej2, ejc, sqrt), (
        rate(e.e1c, r1, rc, q1.e_c, ej1, c.e_c, ejc),
        rate(e.e2c, r2, rc, q2.e_c, ej2, c.e_c, ejc),
        rate(e.e12, r1, r2, q1.e_c, ej1, q2.e_c, ej2),
    )


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
    (ej1, ej2, ejc, sqrt), (g1c, g2c, g12) = _modes(e, q1, q2, c, phi_e1, phi_e2, phi_ec)
    omegac, etac = _coupler(c.e_c, ejc, sqrt)
    return SystemModel(
        omega1=_frequency(q1.e_c, ej1, sqrt),
        omega2=_frequency(q2.e_c, ej2, sqrt),
        omegac=omegac,
        eta1=_anharmonicity(q1.e_c, ej1, sqrt),
        eta2=_anharmonicity(q2.e_c, ej2, sqrt),
        etac=etac,
        g1c=g1c,
        g2c=g2c,
        g12=g12,
    )


def tune_coupler(base: SystemModel, e_c: float, ej_max: float, ej: float) -> SystemModel:
    """``base`` with its coupler SQUID tuned from ``ej_max`` down to ``ej``.

    The coupler frequency and anharmonicity follow from (``e_c``, ``ej``);
    g1c and g2c, given in ``base`` at ``ej_max``, are suppressed by
    1/Upsilon = (ej/ej_max)^(1/4).  Qubit parameters and g12 are unchanged.
    A coupler frequency that is not positive is a FluxDomainError (NaN on an
    array), as a Josephson energy that is not positive is.
    """
    if not ej_max > 0:
        raise ValueError(f"ej_max must be positive, got {ej_max}")
    ej, sqrt = _checked_ej(e_c, ej)
    omegac, etac = _coupler(e_c, ej, sqrt)
    scale = sqrt(sqrt(ej / ej_max))
    return SystemModel(
        omega1=base.omega1, omega2=base.omega2, omegac=omegac,
        eta1=base.eta1, eta2=base.eta2, etac=etac,
        g1c=base.g1c * scale, g2c=base.g2c * scale, g12=base.g12,
    )
