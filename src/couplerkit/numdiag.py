"""Exact numerics on the truncated three-mode bosonic Hamiltonian.

Each mode is a Duffing ladder E(n) = omega n - (eta/2) n (n - 1); couplings
keep all four quadrature products g (a b+ + a+ b - a b - a+ b+), i.e. the
counter-rotating terms are always included.  The product-basis index of
|k1, kc, k2> is (k1 * nc + kc) * n2 + k2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import LabelingError
from .transmon import SystemModel

DEFAULT_LEVELS = (5, 5, 5)
# 3+ levels per mode for production use; 2 is allowed so degenerate-manifold
# checks against analytic two-level spectra stay possible
MIN_LEVELS, MAX_LEVELS = 2, 12
LABEL_OVERLAP_THRESHOLD = 0.5


@dataclass
class TruncatedHamiltonian:
    levels: tuple[int, int, int]
    matrix: np.ndarray

    def index(self, k1: int, kc: int, k2: int) -> int:
        n1, nc, n2 = self.levels
        return (k1 * nc + kc) * n2 + k2


@lru_cache(maxsize=32)
def _mode_operators(levels: tuple[int, int, int]):
    """Per-truncation pieces of the Hamiltonian, which is linear in its nine
    parameters: the (N, 6) diagonal ladder columns k and k (k - 1) of each mode,
    the three coupling quadratures X_jk = -(a_j - a_j+)(a_k - a_k+), and the
    basis indices of the even and odd total-excitation sectors.  The couplings
    change the total excitation number by 0 or +-2, so the sectors never mix.
    """
    occupations = [k.ravel() for k in np.indices(levels, dtype=float)]
    ladder = np.stack([c for k in occupations for c in (k, k * (k - 1.0))], axis=1)

    def quadrature(n):
        lower = np.diag(np.sqrt(np.arange(1.0, n)), k=1)
        return lower - lower.T

    y1, yc, y2 = (quadrature(n) for n in levels)
    i1, ic, i2 = (np.eye(n) for n in levels)
    # the kron of two antisymmetric quadratures is exactly symmetric
    couplings = (
        -np.kron(np.kron(y1, yc), i2),
        -np.kron(np.kron(i1, yc), y2),
        -np.kron(np.kron(y1, ic), y2),
    )
    total = sum(occupations).astype(int)
    sectors = tuple(np.flatnonzero(total % 2 == parity) for parity in (0, 1))
    # every caller shares these arrays
    for a in (ladder, *couplings, *sectors):
        a.flags.writeable = False
    return ladder, couplings, sectors


def build_hamiltonian(
    m: SystemModel, levels: tuple[int, int, int] = DEFAULT_LEVELS
) -> TruncatedHamiltonian:
    """Assemble the truncated Hamiltonian (real, exactly symmetric, GHz)."""
    levels = tuple(int(n) for n in levels)
    if len(levels) != 3 or any(not MIN_LEVELS <= n <= MAX_LEVELS for n in levels):
        raise ValueError(
            f"levels must be three integers in [{MIN_LEVELS}, {MAX_LEVELS}], "
            f"got {levels}"
        )
    ladder, (x1c, x2c, x12), _ = _mode_operators(levels)
    h = m.g1c * x1c + m.g2c * x2c + m.g12 * x12
    p = np.array([
        m.omega1, -0.5 * m.eta1, m.omegac, -0.5 * m.etac, m.omega2, -0.5 * m.eta2
    ])
    # the couplings have a zero diagonal
    np.fill_diagonal(h, ladder @ p)
    return TruncatedHamiltonian(levels=levels, matrix=h)


def _sector_eigh(
    h: TruncatedHamiltonian, labels: tuple[tuple[int, int, int], ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonalize the parity sector that holds ``labels`` (all of one
    total-excitation parity).

    Returns the ascending energies, the squared eigenvector components with
    one row per sector state and one column per eigenstate, and the rows of
    ``labels``.
    """
    sector = _mode_operators(h.levels)[2][sum(labels[0]) % 2]
    energies, vectors = np.linalg.eigh(h.matrix[np.ix_(sector, sector)])
    rows = np.searchsorted(sector, [h.index(*label) for label in labels])
    return energies, vectors**2, rows


_ZZ_LABELS = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1))
_ZZ_SECTORS = (((0, 0, 0), (1, 0, 1)), ((1, 0, 0), (0, 0, 1)))


def zz_numeric(m: SystemModel, levels: tuple[int, int, int] = DEFAULT_LEVELS) -> float:
    """ZZ strength w(101) - w(100) - w(001) + w(000) from diagonalization (GHz).

    Each parity sector is diagonalized on its own.  A bare label takes the
    energy of the eigenstate it dominates (is the largest component of),
    with the largest overlap when it dominates several.  Raises
    LabelingError when any of the four computational states cannot be
    identified with overlap above 0.5 (near an avoided crossing).
    """
    h = build_hamiltonian(m, levels)
    matches = {}
    for labels in _ZZ_SECTORS:
        energies, amplitudes, rows = _sector_eigh(h, labels)
        dominant = np.argmax(amplitudes, axis=0)
        for label, row in zip(labels, rows):
            overlaps = np.where(dominant == row, amplitudes[row], -1.0)
            best = int(np.argmax(overlaps))
            matches[label] = float(energies[best]), float(overlaps[best])
    for label in _ZZ_LABELS:
        overlap = matches[label][1]
        if overlap < 0.0:
            raise LabelingError(f"no eigenstate is dominated by bare state {label}")
        if overlap <= LABEL_OVERLAP_THRESHOLD:
            raise LabelingError(
                f"bare state {label} is ambiguous (overlap {overlap:.3f} <= "
                f"{LABEL_OVERLAP_THRESHOLD})"
            )
    e = {label: energy for label, (energy, _) in matches.items()}
    return e[(1, 0, 1)] - e[(1, 0, 0)] - e[(0, 0, 1)] + e[(0, 0, 0)]


def g_numeric(m: SystemModel, levels: tuple[int, int, int] = DEFAULT_LEVELS) -> float:
    """Half the splitting of the two qubit-dominated single-excitation states.

    Requires the builder to have put the qubits on resonance; at resonance the
    qubit-like eigenstates are (anti)symmetric superpositions, so states are
    selected by total qubit single-excitation weight rather than a single bare
    label, and the coupler-like branch is excluded.
    """
    if abs(m.omega1 - m.omega2) > 1e-9:
        raise ValueError(
            f"g_numeric needs resonant qubits, got omega1 = {m.omega1}, "
            f"omega2 = {m.omega2}"
        )
    h = build_hamiltonian(m, levels)
    energies, amplitudes, (r100, r001, r010) = _sector_eigh(
        h, ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    )
    q_weight = amplitudes[r100] + amplitudes[r001]
    c_weight = amplitudes[r010]
    # a three-way qubit-qubit-coupler hybrid carries at most ~0.55 total qubit
    # weight, so 2/3 cleanly separates qubit-dominated states from it
    candidates = np.flatnonzero((q_weight > 2.0 / 3.0) & (q_weight > c_weight))
    if len(candidates) < 2:
        raise LabelingError(
            "cannot isolate two qubit-dominated single-excitation states "
            "(coupler too close in frequency)"
        )
    by_weight = candidates[np.argsort(-q_weight[candidates], kind="stable")]
    i, j = sorted(by_weight[:2])
    return 0.5 * abs(energies[j] - energies[i])
