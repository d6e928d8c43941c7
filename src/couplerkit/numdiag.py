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
from scipy.linalg.lapack import dsyevr

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


def _label_rows(
    levels: tuple[int, int, int], labels: tuple[tuple[int, int, int], ...]
) -> tuple[int, np.ndarray]:
    """The parity of ``labels`` (all of one total-excitation parity) and
    their rows in the block of that sector."""
    parity = sum(labels[0]) % 2
    indices = _mode_operators(levels)[parity][0]
    return parity, np.searchsorted(indices, np.ravel_multi_index(np.transpose(labels), levels))


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


def _check_levels(levels) -> tuple[int, int, int]:
    """``levels`` as three ints in [MIN_LEVELS, MAX_LEVELS]; a ValueError
    otherwise, also for an entry with a non-integral value (NaN and infinity
    included)."""
    levels = tuple(levels)
    if len(levels) != 3 or not all(
        MIN_LEVELS <= n <= MAX_LEVELS and n == int(n) for n in levels
    ):
        raise ValueError(
            f"levels must be three integers in [{MIN_LEVELS}, {MAX_LEVELS}], "
            f"got {levels}"
        )
    return tuple(int(n) for n in levels)


def _parameters(m: SystemModel) -> tuple[np.ndarray, np.ndarray]:
    """The coupling rates g1c, g2c, g12 (3, P) and the diagonal ladder
    coefficients (P, 6) of a model of P points; a float model has P = 1."""
    rates = np.array([m.g1c, m.g2c, m.g12], dtype=float).reshape(3, -1)
    p = np.array([
        m.omega1, -0.5 * m.eta1, m.omegac, -0.5 * m.etac, m.omega2, -0.5 * m.eta2
    ], dtype=float).reshape(6, -1)
    return rates, np.ascontiguousarray(p.T)


def _fill_block(block: np.ndarray, sector, rates, p: np.ndarray) -> np.ndarray:
    """Write one point's sector Hamiltonian into ``block``, whose entries off
    the coupling supports and the diagonal stay zero; returns the diagonal."""
    _, ladder, couplings = sector
    flat = block.reshape(-1)
    # the three couplings have disjoint supports and a zero diagonal
    for g, (positions, values) in zip(rates, couplings):
        flat[positions] = g * values
    diagonal = ladder @ p
    flat[:: len(diagonal) + 1] = diagonal
    return diagonal


def _one_point(m: SystemModel, name: str) -> None:
    """A ValueError when ``m`` is a model of an array of points, which the
    function ``name`` does not take."""
    if type(m.omegac) is np.ndarray:
        raise ValueError(f"{name} takes a model of one point; zz_numeric takes arrays of points")


def build_hamiltonian(
    m: SystemModel, levels: tuple[int, int, int] = DEFAULT_LEVELS
) -> TruncatedHamiltonian:
    """Assemble the truncated Hamiltonian (real, exactly symmetric, GHz) of a
    model of one point."""
    _one_point(m, "build_hamiltonian")
    levels = _check_levels(levels)
    rates, p = _parameters(m)
    blocks = []
    for sector in _mode_operators(levels):
        h = np.zeros((len(sector[0]), len(sector[0])))
        _fill_block(h, sector, rates[:, 0], p[0])
        blocks.append(h)
    return TruncatedHamiltonian(levels=levels, blocks=tuple(blocks))


# eigenpairs solved beyond the highest bare-energy rank of a sector's labels
_WINDOW_MARGIN = 1


def _lowest(block: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The lowest ``count`` eigenpairs of a sector block, from LAPACK
    ``dsyevr`` (numpy's ``eigh`` links a second LAPACK, with its own threads)."""
    energies, vectors, _, _, info = dsyevr(block, range="I", il=1, iu=count)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed with info = {info}")
    return energies[:count], vectors


def _label_matches(block: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energies and overlaps of the eigenstates the label rows take, from all
    eigenpairs of ``block``: the one each label dominates (is the largest
    component of) with the largest overlap, or an overlap of -1 when it
    dominates none."""
    energies, vectors = _lowest(block, len(block))
    amplitudes = vectors**2
    dominant = np.argmax(amplitudes, axis=0)
    overlaps = np.where(dominant == rows[:, None], amplitudes[rows], -1.0)
    best = np.argmax(overlaps, axis=1)
    return energies[best], overlaps[np.arange(len(rows)), best]


def _sector_matches(
    block: np.ndarray, diagonal: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Energies and overlaps of the eigenstates the label rows take in one
    point's filled sector ``block``, whose diagonal is ``diagonal``.

    Only the lowest eigenpairs, up to a margin above the labels' bare-energy
    ranks, are solved.  A label's squared overlaps sum to 1, so an eigenstate
    with overlap > 0.5 is unique and dominated by the label, and that is the
    one the rule of ``_label_matches`` picks.  When any label has no such
    eigenstate among the solved ones, the full solve of ``_label_matches``
    answers instead.
    """
    rank = np.count_nonzero(diagonal <= diagonal[rows].max())
    energies, vectors = _lowest(block, min(len(block), rank + _WINDOW_MARGIN))
    weights = vectors[rows] ** 2
    best = weights.argmax(axis=1)
    overlaps = weights[np.arange(len(rows)), best]
    if overlaps.min() > LABEL_OVERLAP_THRESHOLD:
        return energies[best], overlaps
    return _label_matches(block, rows)


_ZZ_LABELS = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1))
_ZZ_SECTORS = (((0, 0, 0), (1, 0, 1)), ((1, 0, 0), (0, 0, 1)))


def zz_numeric(m: SystemModel, levels: tuple[int, int, int] = DEFAULT_LEVELS):
    """ZZ strength w(101) - w(100) - w(001) + w(000) from diagonalization (GHz).

    Each parity sector is diagonalized on its own, for its lowest
    eigenpairs first.  A bare label takes the energy of the eigenstate it
    dominates (is the largest component of), with the largest overlap when
    it dominates several.  On a float model, raises LabelingError when any
    of the four computational states cannot be identified with overlap
    above 0.5 (near an avoided crossing).  On a model of an array of points
    the result is an array, NaN at such a point and at a NaN point.
    """
    on_array = type(m.omegac) is np.ndarray
    # the sector blocks that each point is written into in turn: one zeroed
    # block per sector for an array, a float model's own blocks otherwise
    if on_array:
        levels = _check_levels(levels)
        blocks = [np.zeros((len(indices),) * 2) for indices, _, _ in _mode_operators(levels)]
    else:
        h = build_hamiltonian(m, levels)
        levels, blocks = h.levels, h.blocks
    # each sector's block, operators, label rows and the labels' places in _ZZ_LABELS
    sectors = []
    for labels in _ZZ_SECTORS:
        parity, rows = _label_rows(levels, labels)
        places = np.array([_ZZ_LABELS.index(label) for label in labels])
        sectors.append((blocks[parity], _mode_operators(levels)[parity], rows, places))
    rates, p = _parameters(m)
    zeta = np.full(len(p), np.nan)
    energies, overlaps = np.empty((2, len(_ZZ_LABELS)))
    for i in np.flatnonzero(np.isfinite(rates).all(axis=0) & np.isfinite(p).all(axis=1)):
        for block, sector, rows, places in sectors:
            diagonal = _fill_block(block, sector, rates[:, i], p[i])
            energies[places], overlaps[places] = _sector_matches(block, diagonal, rows)
        if overlaps.min() > LABEL_OVERLAP_THRESHOLD:
            e000, e100, e001, e101 = energies
            zeta[i] = e101 - e100 - e001 + e000
        elif not on_array:
            for label, overlap in zip(_ZZ_LABELS, overlaps):
                if overlap < 0.0:
                    raise LabelingError(f"no eigenstate is dominated by bare state {label}")
                if overlap <= LABEL_OVERLAP_THRESHOLD:
                    raise LabelingError(
                        f"bare state {label} is ambiguous (overlap {overlap:.3f} <= "
                        f"{LABEL_OVERLAP_THRESHOLD})"
                    )
    return zeta if on_array else float(zeta[0])


def g_numeric(m: SystemModel, levels: tuple[int, int, int] = DEFAULT_LEVELS) -> float:
    """Half the splitting of the two qubit-dominated single-excitation states.

    Requires the builder to have put the qubits on resonance; at resonance the
    qubit-like eigenstates are (anti)symmetric superpositions, so states are
    selected by total qubit single-excitation weight rather than a single bare
    label, and the coupler-like branch is excluded.  Takes a model of one
    point.
    """
    _one_point(m, "g_numeric")
    if abs(m.omega1 - m.omega2) > 1e-9:
        raise ValueError(
            f"g_numeric needs resonant qubits, got omega1 = {m.omega1}, "
            f"omega2 = {m.omega2}"
        )
    h = build_hamiltonian(m, levels)
    _, (r100, r001, r010) = _label_rows(h.levels, ((1, 0, 0), (0, 0, 1), (0, 1, 0)))
    block = h.blocks[1]
    energies, vectors = _lowest(block, len(block))
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
