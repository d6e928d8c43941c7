"""Lumped-element capacitance networks for qubit-coupler-qubit circuits.

Two topologies are supported:

* ``FLOATING_FLOATING``: both qubits and the coupler are floating pad pairs.
  Node ids: 0 = ground, 1-2 = qubit-1 pads, 3-4 = coupler pads,
  5-6 = qubit-2 pads.
* ``GROUNDED_FLOATING``: grounded qubits, floating coupler.
  Node ids: 0 = ground, 1 = qubit-1 node, 2-3 = coupler pads,
  4 = qubit-2 node.

All capacitances are in fF.  Energies are reported as E/h in GHz throughout,
normalized to the charging convention H = 4 E_C n^2 + 4 E_jk n_j n_k, so

    E_Ck = (e^2 / 2) * (C_red^-1)_kk,      E_jk = e^2 * (C_red^-1)_jk,

where C_red is the 3x3 capacitance matrix of the retained (qubit-1, coupler,
qubit-2) modes after the free plus-modes are eliminated.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.constants as const

from .errors import AssumptionViolationError, NetlistError, SingularNetworkError

# e^2/h in GHz*fF, from the exact SI values of e and h.
# Numerically 38.74045865 GHz*fF to 10 significant digits.
E2_OVER_H_GHZ_FF = const.e**2 / const.h * 1e15 / 1e9

# Positive-definiteness guard: smallest eigenvalue must exceed this fraction
# of the largest one.
_PD_RTOL = 1e-12


class Topology(enum.Enum):
    FLOATING_FLOATING = "floating-floating"
    GROUNDED_FLOATING = "grounded-floating"


class Configuration(enum.Enum):
    SYMMETRIC = "symmetric"
    ASYMMETRIC = "asymmetric"
    DEGENERATE = "degenerate"


# node counts excluding ground
_N_NODES = {Topology.FLOATING_FLOATING: 6, Topology.GROUNDED_FLOATING: 4}

# direct qubit-qubit pairs, accepted by the exact path but flagged
_QQ_PAIRS = {
    Topology.FLOATING_FLOATING: {(a, b) for a in (1, 2) for b in (5, 6)},
    Topology.GROUNDED_FLOATING: {(1, 4)},
}


@dataclass(frozen=True)
class CapNetwork:
    """Validated node-capacitor netlist.

    ``capacitors`` is a tuple of (node_a, node_b, value_fF) with node_a <
    node_b after normalization.  Duplicate pairs, self-capacitors, out-of-range
    node ids and non-positive values are rejected.
    """

    topology: Topology
    capacitors: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        n = _N_NODES[self.topology]
        seen = set()
        normalized = []
        for a, b, value in self.capacitors:
            if a == b:
                raise NetlistError(f"capacitor ({a}, {b}) connects a node to itself")
            if not (0 <= a <= n and 0 <= b <= n):
                raise NetlistError(
                    f"capacitor ({a}, {b}) references a node outside 0..{n} "
                    f"for topology {self.topology.value}"
                )
            if not (value > 0 and np.isfinite(value)):
                raise NetlistError(
                    f"capacitor ({a}, {b}) has non-positive value {value} fF"
                )
            pair = (min(a, b), max(a, b))
            if pair in seen:
                raise NetlistError(f"duplicate capacitor for node pair {pair}")
            seen.add(pair)
            normalized.append((pair[0], pair[1], float(value)))
        object.__setattr__(self, "capacitors", tuple(normalized))

    @property
    def has_direct_qubit_qubit(self) -> bool:
        """True when a capacitor bridges the two qubits directly."""
        pairs = _QQ_PAIRS[self.topology]
        return any((a, b) in pairs for a, b, _ in self.capacitors)

    def value(self, a: int, b: int) -> float:
        """Capacitance between two nodes, 0 if absent."""
        pair = (min(a, b), max(a, b))
        for x, y, v in self.capacitors:
            if (x, y) == pair:
                return v
        return 0.0


@dataclass(frozen=True)
class ModeEnergies:
    """Charging and coupling energies of the retained three modes, E/h in GHz.

    Coupling energies are signed; charging energies must be positive.
    """

    ec1: float
    ec2: float
    ecc: float
    e12: float
    e1c: float
    e2c: float

    def __post_init__(self):
        for name in ("ec1", "ec2", "ecc"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def _node_matrix(net: CapNetwork) -> np.ndarray:
    """Capacitance matrix over the non-ground node fluxes."""
    n = _N_NODES[net.topology]
    C = np.zeros((n, n))
    for a, b, v in net.capacitors:
        if a == 0:
            C[b - 1, b - 1] += v
        else:
            C[a - 1, a - 1] += v
            C[b - 1, b - 1] += v
            C[a - 1, b - 1] -= v
            C[b - 1, a - 1] -= v
    return C


def _pm_transform(topology: Topology) -> np.ndarray:
    """Columns express node fluxes in the plus/minus coordinates.

    Floating-floating coordinate order: (1p, 1m, cp, cm, 2p, 2m), with
    Phi_kp/m = Phi_outer +/- Phi_inner for each pad pair.  Grounded-floating
    order: (Q1, cp, cm, Q2).
    """
    if topology is Topology.FLOATING_FLOATING:
        V = np.zeros((6, 6))
        for pad, col in ((0, 0), (2, 2), (4, 4)):
            V[pad, col], V[pad, col + 1] = 0.5, -0.5        # inner node
            V[pad + 1, col], V[pad + 1, col + 1] = 0.5, 0.5  # outer node
        return V
    V = np.zeros((4, 4))
    V[0, 0] = 1.0
    V[1, 1], V[1, 2] = 0.5, -0.5
    V[2, 1], V[2, 2] = 0.5, 0.5
    V[3, 3] = 1.0
    return V


# indices of free plus-modes and retained (q1, coupler, q2) modes in the
# plus/minus coordinate ordering
_FREE_IDX = {Topology.FLOATING_FLOATING: [0, 2, 4], Topology.GROUNDED_FLOATING: [1]}
_KEEP_IDX = {Topology.FLOATING_FLOATING: [1, 3, 5], Topology.GROUNDED_FLOATING: [0, 2, 3]}


def build_cap_matrix(net: CapNetwork) -> np.ndarray:
    """Capacitance matrix in the plus/minus flux coordinates (fF).

    6x6 for floating-floating, 4x4 for grounded-floating; exactly symmetric
    by construction.
    """
    V = _pm_transform(net.topology)
    C = V.T @ _node_matrix(net) @ V
    return 0.5 * (C + C.T)


def reduce_free_modes(C: np.ndarray, topology: Topology) -> np.ndarray:
    """Eliminate the inductance-free plus-modes by Schur complement.

    The plus-mode charges are constants of motion (uniform pad charge); with
    them pinned at zero the retained block of C^-1 equals the inverse of the
    Schur complement returned here.  Row/column order of the result is
    (qubit-1, coupler, qubit-2).  Raises SingularNetworkError if the free
    block is singular or the reduced matrix is not positive definite.
    """
    keep, free = _KEEP_IDX[topology], _FREE_IDX[topology]
    A = C[np.ix_(keep, keep)]
    B = C[np.ix_(keep, free)]
    D = C[np.ix_(free, free)]
    d_eigs = np.linalg.eigvalsh(D)
    if d_eigs.min() <= _PD_RTOL * max(d_eigs.max(), 1e-300):
        raise SingularNetworkError(
            "free-mode capacitance block is singular (an isolated pad has "
            "no capacitance to the rest of the circuit)"
        )
    reduced = A - B @ np.linalg.solve(D, B.T)
    reduced = 0.5 * (reduced + reduced.T)
    eigs = np.linalg.eigvalsh(reduced)
    if eigs.min() <= _PD_RTOL * max(eigs.max(), 1e-300):
        raise SingularNetworkError(
            f"reduced capacitance matrix is not positive definite "
            f"(eigenvalues {eigs})"
        )
    return reduced


def energies_exact(net: CapNetwork) -> ModeEnergies:
    """Charging and coupling energies from exact matrix inversion.

    No small-capacitance assumption; arbitrary extra capacitors (including
    direct qubit-qubit ones) are handled.
    """
    Cinv = np.linalg.inv(reduce_free_modes(build_cap_matrix(net), net.topology))
    e2h = E2_OVER_H_GHZ_FF
    return ModeEnergies(
        ec1=0.5 * e2h * Cinv[0, 0],
        ecc=0.5 * e2h * Cinv[1, 1],
        ec2=0.5 * e2h * Cinv[2, 2],
        e12=e2h * Cinv[0, 2],
        e1c=e2h * Cinv[0, 1],
        e2c=e2h * Cinv[2, 1],
    )


def _floating_assumptions(net: CapNetwork) -> tuple[list[str], dict[str, float]]:
    violations = []
    cg = net.value(0, 1)
    for node in (2, 5, 6):
        if net.value(0, node) != cg:
            violations.append(
                "qubit pad ground capacitances C01, C02, C05, C06 must be equal"
            )
            break
    cgc = net.value(0, 3)
    if net.value(0, 4) != cgc:
        violations.append("coupler pad ground capacitances C03, C04 must be equal")
    cq = net.value(1, 2)
    if net.value(5, 6) != cq:
        violations.append("qubit shunt capacitances C12, C56 must be equal")
    for a, b in ((1, 3), (4, 6)):
        if net.value(a, b) != 0.0:
            violations.append(f"outer-pad coupling C{a}{b} must be absent")
    for a, b in ((1, 4), (3, 6)):
        if net.value(a, b) != 0.0:
            violations.append(f"coupling C{a}{b} must be absent")
    if net.has_direct_qubit_qubit:
        violations.append("direct qubit-qubit capacitors must be absent")
    values = {
        "cg": cg,
        "cgc": cgc,
        "cq": cq,
        "cc": net.value(3, 4),
        "c23": net.value(2, 3),
        "c24": net.value(2, 4),
        "c35": net.value(3, 5),
        "c45": net.value(4, 5),
    }
    return violations, values


def energies_closed_form_floating(net: CapNetwork) -> ModeEnergies:
    """Leading-order closed-form energies for the floating-floating topology.

    Valid when all qubit-coupler coupling capacitors are small against the
    shunt and ground capacitances; raises AssumptionViolationError when the
    structural symmetry assumptions (common C_g, common C_gc, no outer-pad or
    direct qubit-qubit couplings) do not hold.
    """
    if net.topology is not Topology.FLOATING_FLOATING:
        raise AssumptionViolationError(["topology must be floating-floating"])
    violations, v = _floating_assumptions(net)
    if violations:
        raise AssumptionViolationError(violations)
    e2h = E2_OVER_H_GHZ_FF
    dq = 2 * v["cq"] + v["cg"]
    dc = 2 * v["cc"] + v["cgc"]
    ctilde = v["cgc"] * dq**2 * dc
    e12 = -e2h / ctilde * (
        (v["c23"] + v["c24"]) * (v["c45"] + v["c35"]) * v["cc"]
        + (v["c23"] * v["c35"] + v["c45"] * v["c24"]) * v["cgc"]
    )
    return ModeEnergies(
        ec1=e2h / dq,
        ec2=e2h / dq,
        ecc=e2h / dc,
        e12=e12,
        e1c=-e2h * (v["c23"] - v["c24"]) / (dq * dc),
        e2c=-e2h * (v["c45"] - v["c35"]) / (dq * dc),
    )


def energies_closed_form_grounded(net: CapNetwork) -> ModeEnergies:
    """Leading-order closed-form energies for the grounded-floating topology.

    Requires equal coupler-pad ground capacitances and no direct qubit-qubit
    capacitor.  Note the e12 prefactor here is e^2/C_tot and the coupler
    charging prefactor e^2/(2 C_tot): the exact path confirms both in the
    small-coupling limit (see tests), fixing two transcription slips in the
    usual closed-form write-up.
    """
    if net.topology is not Topology.GROUNDED_FLOATING:
        raise AssumptionViolationError(["topology must be grounded-floating"])
    violations = []
    cgc = net.value(0, 2)
    if net.value(0, 3) != cgc:
        violations.append("coupler pad ground capacitances C02, C03 must be equal")
    if net.has_direct_qubit_qubit:
        violations.append("direct qubit-qubit capacitor must be absent")
    if violations:
        raise AssumptionViolationError(violations)
    c1, c2 = net.value(0, 1), net.value(0, 4)
    cc = net.value(2, 3)
    c12, c13 = net.value(1, 2), net.value(1, 3)
    c24, c34 = net.value(2, 4), net.value(3, 4)
    cs1 = c1 + c12 + c13
    cs2 = c2 + c34 + c24
    ctot = (
        c1 * c2 * c12 * c34
        + cgc * (c1 + c12) * (c2 + c34) * (2 * cc + cgc)
        + (cc + cgc) * (c1 * c12 * (c2 + c34) + c2 * c34 * (c1 + c12))
    )
    e2h = E2_OVER_H_GHZ_FF
    e12 = e2h / ctot * (
        c12 * c34 * (c13 + c24 + cc)
        + c13 * c24 * (c12 + c34 + cc)
        + (cc + cgc) * (c12 * c24 + c13 * c34)
    )
    e1c = -e2h / ctot * (c2 * (c12 * c34 - c13 * c24) + cgc * cs2 * (c12 - c13))
    e2c = e2h / ctot * (c1 * (c12 * c34 - c13 * c24) + cgc * cs1 * (c34 - c24))
    ec1 = e2h / (2 * ctot) * (
        c2 * c12 * c34
        + cc * cgc * (c2 + c34)
        + ((c12 + cgc) * (c2 + c34) + c2 * c34) * (cc + cgc)
    )
    ec2 = e2h / (2 * ctot) * (
        c1 * c12 * c34
        + cc * cgc * (c1 + c12)
        + ((c34 + cgc) * (c1 + c12) + c1 * c12) * (cc + cgc)
    )
    ecc = e2h / (2 * ctot) * (
        c1 * c12 * (c2 + c34)
        + c2 * c34 * (c1 + c12)
        + 2 * (c1 + c12) * (c2 + c34) * cgc
    )
    return ModeEnergies(ec1=ec1, ec2=ec2, ecc=ecc, e12=e12, e1c=e1c, e2c=e2c)


def classify_configuration(
    e: ModeEnergies, degenerate_tol: float = 1e-6
) -> Configuration:
    """Classify the coupler layout from the coupling-energy sign pattern.

    The coupling rates inherit the signs of the coupling energies, so
    sign(g12) = sign(e12) and sign(g1c*g2c) = sign(e1c*e2c).  Equal signs put
    the zero-coupling point above the qubits (asymmetric layout); opposite
    signs put it below (symmetric).  ``degenerate_tol`` is the |e1c*e2c|
    threshold in (GHz)^2 below which no classification is made.
    """
    product = e.e1c * e.e2c
    if abs(product) < degenerate_tol or e.e12 == 0.0:
        return Configuration.DEGENERATE
    if np.sign(product) == np.sign(e.e12):
        return Configuration.ASYMMETRIC
    return Configuration.SYMMETRIC


_TOPOLOGY_NAMES = {t.value: t for t in Topology}


def load_netlist(source: str | Path | dict) -> CapNetwork:
    """Build a CapNetwork from JSON text, a ``Path`` to a JSON file, or a parsed dict.

    Schema::

        {"schema": 1,
         "topology": "floating-floating" | "grounded-floating",
         "capacitors": [{"a": 2, "b": 3, "fF": 19.5}, ...]}

    The ``schema`` field is optional; when present it must equal 1.
    """
    if isinstance(source, dict):
        data = source
    else:
        text = source.read_text() if isinstance(source, Path) else source
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise NetlistError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise NetlistError("netlist must be a JSON object")
    if data.get("schema", 1) != 1:
        raise NetlistError(f"unsupported schema version {data.get('schema')!r}")
    topology = data.get("topology")
    if not isinstance(topology, str) or topology not in _TOPOLOGY_NAMES:
        raise NetlistError(
            f"field 'topology' must be one of {sorted(_TOPOLOGY_NAMES)}, "
            f"got {topology!r}"
        )
    caps = data.get("capacitors")
    if not isinstance(caps, list) or not caps:
        raise NetlistError("field 'capacitors' must be a non-empty list")
    entries = []
    for i, item in enumerate(caps):
        if not isinstance(item, dict):
            raise NetlistError(f"capacitors[{i}] must be an object")
        try:
            a, b, v = int(item["a"]), int(item["b"]), float(item["fF"])
        except (KeyError, TypeError, ValueError) as exc:
            raise NetlistError(
                f"capacitors[{i}] needs integer 'a', 'b' and numeric 'fF': {exc}"
            ) from exc
        entries.append((a, b, v))
    return CapNetwork(topology=_TOPOLOGY_NAMES[topology], capacitors=tuple(entries))


def netlist_to_dict(net: CapNetwork) -> dict:
    """Inverse of load_netlist, suitable for json.dumps."""
    return {
        "schema": 1,
        "topology": net.topology.value,
        "capacitors": [{"a": a, "b": b, "fF": v} for a, b, v in net.capacitors],
    }
