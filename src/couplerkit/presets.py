"""Bundled example designs and reference-device parameter sets.

The capacitance sets come from electromagnetic simulation of a floating
coupler between floating transmons (and a grounded-qubit variant); the
reference devices carry the characterized parameters of two fabricated
devices, one per coupler layout, as extracted from coupling-vs-flux fits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .capnet import CapNetwork, Topology, energies_exact
from .effmodel import ModelBuilder
from .squid import SquidParams, _reachable
from .transmon import (
    SystemModel,
    anharmonicity_from_energies,
    ej_for_frequency,
    frequency_from_energies,
    tune_coupler,
)


def floating_coupler_design(symmetric: bool) -> CapNetwork:
    """Floating qubits + floating coupler design capacitances (fF).

    The symmetric layout couples the qubits to different coupler pads
    (dominant C23 and C45); the asymmetric layout couples both to the same
    pad (dominant C23 and C35).
    """
    c35, c45 = (2.0, 19.5) if symmetric else (19.5, 2.0)
    return CapNetwork(
        topology=Topology.FLOATING_FLOATING,
        capacitors=(
            (0, 1, 110.0), (0, 2, 110.0), (0, 5, 110.0), (0, 6, 110.0),
            (0, 3, 80.0), (0, 4, 80.0),
            (1, 2, 46.0), (5, 6, 46.0), (3, 4, 61.0),
            (2, 3, 19.5), (2, 4, 2.0), (3, 5, c35), (4, 5, c45),
        ),
    )


def grounded_coupler_design(symmetric: bool) -> CapNetwork:
    """Grounded qubits + floating coupler design capacitances (fF)."""
    c24, c34 = (10.0, 11.0) if symmetric else (1.0, 10.0)
    return CapNetwork(
        topology=Topology.GROUNDED_FLOATING,
        capacitors=(
            (0, 1, 96.0), (0, 4, 97.0),
            (0, 2, 110.0), (0, 3, 110.0),
            (2, 3, 52.0),
            (1, 2, 10.0), (1, 3, 1.0), (2, 4, c24), (3, 4, c34),
        ),
    )


# frequency bands (GHz) used in the design studies
FLOATING_QUBIT_BANDS = ((4.1, 4.58), (4.1, 4.64))
FLOATING_COUPLER_BAND_SYMMETRIC = (2.77, 4.0)
FLOATING_COUPLER_BAND_ASYMMETRIC = (4.8, 6.14)
GROUNDED_QUBIT_FREQS = (4.18, 4.54)
GROUNDED_COUPLER_BAND_SYMMETRIC = (2.787, 3.663)
GROUNDED_COUPLER_BAND_ASYMMETRIC = (4.38, 5.71)

# reference coupling rates quoted for the floating designs (GHz)
FLOATING_DESIGN_RATES_SYMMETRIC = {"g12": -5.8e-3, "g1c": -85e-3, "g2c": -85e-3}
FLOATING_DESIGN_RATES_ASYMMETRIC = {"g12": -12e-3, "g1c": -79e-3, "g2c": 98e-3}


@dataclass(frozen=True)
class ReferenceDevice:
    """Characterized parameters of a fabricated two-qubit device.

    Frequencies/anharmonicities in GHz; ``g12`` and the signed coupler
    product ``g1c_g2c`` (GHz^2) are the coupling-vs-flux fit results, with
    the product anchored at zero coupler flux.  ``resonance`` is the common
    qubit frequency used during coupling measurements (the lower qubit's
    sweet spot).  The coupler SQUID is junction-symmetric.
    """

    name: str
    omega1_max: float
    omega2_max: float
    eta1: float
    eta2: float
    omegac_max: float
    coupler_ec: float
    g12: float
    g1c_g2c: float

    @property
    def resonance(self) -> float:
        return min(self.omega1_max, self.omega2_max)

    @property
    def coupler_squid(self) -> SquidParams:
        return SquidParams.from_sum_asymmetry(
            ej_for_frequency(self.coupler_ec, self.omegac_max), 0.0
        )


def _design_coupler_ec(symmetric: bool) -> float:
    return energies_exact(floating_coupler_design(symmetric)).ecc


SYMMETRIC_DEVICE = ReferenceDevice(
    name="symmetric",
    omega1_max=3.862,
    omega2_max=4.045,
    eta1=0.230,
    eta2=0.233,
    omegac_max=6.041,
    coupler_ec=_design_coupler_ec(True),
    g12=-5.7e-3,
    g1c_g2c=(107.8e-3) ** 2,
)

ASYMMETRIC_DEVICE = ReferenceDevice(
    name="asymmetric",
    omega1_max=3.449,
    omega2_max=3.63,
    eta1=0.219,
    eta2=0.215,
    omegac_max=6.526,
    coupler_ec=_design_coupler_ec(False),
    g12=-9.4e-3,
    g1c_g2c=-((131.6e-3) ** 2),
)


def frequency_sweep_builder(base: SystemModel) -> ModelBuilder:
    """Builder that moves only the coupler frequency, holding rates fixed.

    Matches plots drawn directly against coupler frequency, where the
    flux-induced coupling suppression is not modeled.  Like every library
    builder it takes a float or a 1-d array of points.
    """

    def build(omegac) -> SystemModel:
        return SystemModel(
            omega1=base.omega1, omega2=base.omega2, omegac=omegac,
            eta1=base.eta1, eta2=base.eta2, etac=base.etac,
            g1c=base.g1c, g2c=base.g2c, g12=base.g12,
        )

    return build


def device_flux_builder(device: ReferenceDevice, resonant: bool = True) -> ModelBuilder:
    """Builder mapping a coupler frequency to the flux-consistent model.

    The requested coupler frequency is converted to a SQUID Josephson energy
    and the device's zero-flux model is tuned there by ``tune_coupler``.
    ``resonant`` puts both qubits at the measurement resonance; otherwise
    they sit at their sweet spots.  A frequency the coupler SQUID cannot
    reach raises FluxDomainError, or is a NaN point of an array call.
    """
    squid = device.coupler_squid
    e_c, ej_max = device.coupler_ec, squid.ej_sum
    mag = abs(device.g1c_g2c) ** 0.5
    if resonant:
        w1 = w2 = device.resonance
    else:
        w1, w2 = device.omega1_max, device.omega2_max
    base = SystemModel(
        omega1=w1, omega2=w2, omegac=frequency_from_energies(e_c, ej_max),
        eta1=device.eta1, eta2=device.eta2,
        etac=anharmonicity_from_energies(e_c, ej_max),
        g1c=-mag, g2c=-mag if device.g1c_g2c > 0 else mag, g12=device.g12,
    )

    def build(omegac) -> SystemModel:
        ej = _reachable(squid, ej_for_frequency(e_c, omegac))
        return tune_coupler(base, e_c, ej_max, ej)

    return build
