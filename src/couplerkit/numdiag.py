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
from scipy.linalg.lapack import dsyevd, dsyevr

from .errors import LabelingError
from .transmon import SystemModel

DEFAULT_LEVELS = (5, 5, 5)
# 3+ levels per mode for production use; 2 is allowed so degenerate-manifold
# checks against analytic two-level spectra stay possible
MIN_LEVELS, MAX_LEVELS = 2, 12
LABEL_OVERLAP_THRESHOLD = 0.5


@dataclass
class TruncatedHamiltonian:
    """The truncated Hamiltonian as its even and odd total-excitation blocks.

    ``blocks[0]`` and ``blocks[1]`` hold the rows and columns of the even and
    odd sector states in ascending product-basis order; the couplings never
    connect the two sectors.
    """

    levels: tuple[int, int, int]
    blocks: tuple[np.ndarray, np.ndarray]

    def index(self, k1: int, kc: int, k2: int) -> int:
        n1, nc, n2 = self.levels
        return (k1 * nc + kc) * n2 + k2

    @property
    def matrix(self) -> np.ndarray:
        """The full product-basis matrix, assembled from the blocks on each read."""
        n = int(np.prod(self.levels))
        h = np.zeros((n, n))
        for (sector, _, _), block in zip(_mode_operators(self.levels), self.blocks):
            h[np.ix_(sector, sector)] = block
        return h

    def sector(
        self, labels: tuple[tuple[int, int, int], ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The block holding ``labels`` (all of one total-excitation parity)
        and the rows of the labels in it."""
        parity = sum(labels[0]) % 2
        indices = _mode_operators(self.levels)[parity][0]
        rows = np.searchsorted(indices, [self.index(*label) for label in labels])
        return self.blocks[parity], rows


@lru_cache(maxsize=32)
def _mode_operators(levels: tuple[int, int, int]):
    """Per-truncation pieces of the Hamiltonian, which is linear in its nine
    parameters, for the even and then the odd total-excitation sector.  The
    couplings change the total excitation number by 0 or +-2, so the sectors
    never mix.  Each sector holds its ascending basis indices, the (n_s, 6)
    diagonal ladder columns k and k (k - 1) of each mode, and, for each
    coupling quadrature X_1c, X_2c, X_12 with X_jk = -(a_j - a_j+)(a_k - a_k+),
    the flat positions and values of its nonzero entries in the block.
    """
    occupations = np.indices(levels).reshape(3, -1)
    quadratures = []
    for n in levels:
        lower = np.diag(np.sqrt(np.arange(1.0, n)), k=1)
        quadratures.append(lower - lower.T)
    sectors = []
    for parity in (0, 1):
        indices = np.flatnonzero(occupations.sum(axis=0) % 2 == parity)
        k = occupations[:, indices]
        ladder = np.stack(
            [c for kj in k.astype(float) for c in (kj, kj * (kj - 1.0))], axis=1
        )
        # <state a| Y_j |state b> for each mode, and whether mode j is unchanged
        y = [q[np.ix_(kj, kj)] for q, kj in zip(quadratures, k)]
        same = [kj[:, None] == kj for kj in k]
        couplings = []
        for j, l, spectator in ((0, 1, 2), (1, 2, 0), (0, 2, 1)):
            # the product of two antisymmetric quadratures is exactly symmetric
            x = -(y[j] * y[l]) * same[spectator]
            positions = np.flatnonzero(x)
            couplings.append((positions, x.ravel()[positions]))
        # every caller shares these arrays
        for a in (indices, ladder, *sum(couplings, ())):
            a.flags.writeable = False
        sectors.append((indices, ladder, tuple(couplings)))
    return tuple(sectors)


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
    rates = (m.g1c, m.g2c, m.g12)
    p = np.array([
        m.omega1, -0.5 * m.eta1, m.omegac, -0.5 * m.etac, m.omega2, -0.5 * m.eta2
    ])
    blocks = []
    for _, ladder, couplings in _mode_operators(levels):
        h = np.zeros((len(ladder), len(ladder)))
        # the three couplings have disjoint supports and a zero diagonal
        for g, (positions, values) in zip(rates, couplings):
            h.flat[positions] = g * values
        np.fill_diagonal(h, ladder @ p)
        blocks.append(h)
    return TruncatedHamiltonian(levels=levels, blocks=tuple(blocks))


# eigenpairs solved beyond the highest bare-energy rank of a sector's labels
_WINDOW_MARGIN = 1


def _eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a sector block, from the LAPACK build that runs
    ``dsyevr`` (numpy's ``eigh`` links a second one, with its own threads)."""
    energies, vectors, info = dsyevd(block)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevd failed with info = {info}")
    return energies, vectors


def _label_matches(block: np.ndarray, rows: np.ndarray) -> list[tuple[float, float]]:
    """(energy, overlap) of the eigenstate each label row takes: the one it
    dominates (is the largest component of) with the largest overlap, or an
    overlap of -1 when it dominates none.

    A label's squared overlaps sum to 1, so an eigenstate with overlap > 0.5
    is unique and dominated by the label, and that is the one the rule picks.
    Only the lowest eigenpairs, up to a margin above the labels' bare-energy
    ranks, are solved first; the full solve runs when any label has no such
    eigenstate among them.
    """
    diag = block.diagonal()
    rank = max(np.count_nonzero(diag <= diag[row]) for row in rows)
    count = min(len(diag), rank + _WINDOW_MARGIN)
    energies, vectors, _, _, info = dsyevr(block, range="I", il=1, iu=count)
    weights = vectors[rows] ** 2
    best = np.argmax(weights, axis=1)
    overlaps = weights[np.arange(len(rows)), best]
    if info == 0 and np.all(overlaps > LABEL_OVERLAP_THRESHOLD):
        return [(float(energies[b]), float(o)) for b, o in zip(best, overlaps)]
    energies, vectors = _eigh(block)
    amplitudes = vectors**2
    dominant = np.argmax(amplitudes, axis=0)
    matches = []
    for row in rows:
        overlaps = np.where(dominant == row, amplitudes[row], -1.0)
        best = int(np.argmax(overlaps))
        matches.append((float(energies[best]), float(overlaps[best])))
    return matches


_ZZ_LABELS = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1))
_ZZ_SECTORS = (((0, 0, 0), (1, 0, 1)), ((1, 0, 0), (0, 0, 1)))


def zz_numeric(m: SystemModel, levels: tuple[int, int, int] = DEFAULT_LEVELS) -> float:
    """ZZ strength w(101) - w(100) - w(001) + w(000) from diagonalization (GHz).

    Each parity sector is diagonalized on its own, for its lowest
    eigenpairs first.  A bare label takes the energy of the eigenstate it
    dominates (is the largest component of), with the largest overlap when
    it dominates several.  Raises LabelingError when any of the four
    computational states cannot be identified with overlap above 0.5 (near
    an avoided crossing).
    """
    h = build_hamiltonian(m, levels)
    matches = {}
    for labels in _ZZ_SECTORS:
        matches.update(zip(labels, _label_matches(*h.sector(labels))))
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
    block, (r100, r001, r010) = build_hamiltonian(m, levels).sector(
        ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    )
    energies, vectors = _eigh(block)
    amplitudes = vectors**2
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
