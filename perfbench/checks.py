"""Output checks for the benchmark, including an independent dense reference.

Every check returns a list of problems; an empty list means the output is
correct.  A resonance or labeling blank and a ``NoRootError`` are valid
physics outcomes, not problems.
"""

from __future__ import annotations

import csv
import io
from functools import lru_cache

import numpy as np

from couplerkit import effmodel, fitkit
from couplerkit.errors import ResonanceError
from couplerkit.transmon import SystemModel

# overlap at which a bare label stops identifying one eigenstate
LABEL_THRESHOLD = 0.5
# |f| below this counts as an exact zero when judging a sign change (GHz);
# eigenvalue round-off in zeta is ~1e-13 GHz, real residuals are >= 1e-10
ZERO_FLOOR = 1e-12
# numeric zz cells: CSV holds 9 significant digits of the library value
ZZ_ATOL_MHZ, ZZ_RTOL = 1e-8, 1e-8
FIT_RECOVERY = 0.01


def _kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


def dense_hamiltonian(m: SystemModel, levels: tuple[int, int, int]) -> np.ndarray:
    """Three Duffing ladders coupled by -g (a - a+)(b - b+), built by kron."""
    singles = []
    for n, w, eta in (
        (levels[0], m.omega1, m.eta1),
        (levels[1], m.omegac, m.etac),
        (levels[2], m.omega2, m.eta2),
    ):
        k = np.arange(n, dtype=float)
        lower = np.diag(np.sqrt(k[1:]), 1)
        singles.append((np.diag(w * k - 0.5 * eta * k * (k - 1)), lower - lower.T, np.eye(n)))
    (h1, y1, i1), (hc, yc, ic), (h2, y2, i2) = singles
    return (
        _kron3(h1, ic, i2) + _kron3(i1, hc, i2) + _kron3(i1, ic, h2)
        - m.g1c * _kron3(y1, yc, i2)
        - m.g2c * _kron3(i1, yc, y2)
        - m.g12 * _kron3(y1, ic, y2)
    )


@lru_cache(maxsize=4096)
def _reference_zz(params: tuple, levels: tuple[int, int, int]) -> tuple[float | None, float]:
    energies, vectors = np.linalg.eigh(dense_hamiltonian(SystemModel(*params), levels))
    weights = vectors**2
    _, nc, n2 = levels
    level_of = {}
    worst = 1.0
    for k1, k2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
        row = weights[k1 * nc * n2 + k2]
        best = int(np.argmax(row))
        worst = min(worst, float(row[best]))
        level_of[k1, k2] = energies[best]
    if worst <= LABEL_THRESHOLD:
        return None, worst
    zz = level_of[1, 1] - level_of[1, 0] - level_of[0, 1] + level_of[0, 0]
    return float(zz), worst


def reference_zz(m: SystemModel, levels) -> tuple[float | None, float]:
    """(zeta in GHz or None when a label is ambiguous, worst label overlap)."""
    params = (m.omega1, m.omega2, m.omegac, m.eta1, m.eta2, m.etac, m.g1c, m.g2c, m.g12)
    return _reference_zz(params, tuple(levels))


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def effective_cells(m: SystemModel | None) -> dict[str, str]:
    """The CLI's effective-backend cells for one row, from direct library calls."""
    cells: dict[str, str] = {}
    if m is None:
        return cells
    try:
        eff = effmodel.g_net(m)
        cells["g_eff_mhz"] = _fmt(eff.g_eff * 1e3)
        cells["g_mhz"] = _fmt(eff.g * 1e3)
    except ResonanceError:
        pass
    try:
        zz = effmodel.zz_perturbative(m)
        cells["zeta2_mhz"] = _fmt(zz.zeta2 * 1e3)
        cells["zeta34_mhz"] = _fmt(zz.zeta34 * 1e3)
        cells["zeta_pert_mhz"] = _fmt(zz.zeta_total * 1e3)
    except ResonanceError:
        pass
    return cells


def check_sweep_csv(text: str, xs, models, levels=None) -> list[str]:
    """Compare a sweep CSV with direct library calls and, for the numeric
    column, with the dense reference.  ``models[i]`` is the model at row i, or
    None where the builder itself rejects the point."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    want = ["x_value", "g_eff_mhz", "g_mhz", "zeta2_mhz", "zeta34_mhz", "zeta_pert_mhz"]
    if levels is not None:
        want.append("zeta_numeric_mhz")
    if header != want:
        return [f"header {header} != {want}"]
    if len(body) != len(xs):
        return [f"{len(body)} rows, expected {len(xs)}"]
    problems = []
    for i, (row, x, m) in enumerate(zip(body, xs, models)):
        cells = dict(zip(header, row))
        expected = effective_cells(m)
        expected["x_value"] = _fmt(float(x))
        for name in want[:6]:
            if cells[name] != expected.get(name, ""):
                problems.append(f"row {i} {name}: {cells[name]!r} != {expected.get(name, '')!r}")
        if levels is not None:
            problems += _check_numeric_cell(i, cells["zeta_numeric_mhz"], m, levels)
    return problems


def _check_numeric_cell(i: int, cell: str, m, levels) -> list[str]:
    if m is None:
        return [] if cell == "" else [f"row {i}: numeric value {cell} for a rejected point"]
    ref, worst = reference_zz(m, levels)
    near_threshold = abs(worst - LABEL_THRESHOLD) < 1e-9
    if cell == "":
        if ref is None or near_threshold:
            return []
        return [f"row {i}: blank numeric zz, reference {ref * 1e3:.9g} MHz (overlap {worst:.3f})"]
    if ref is None:
        return [] if near_threshold else [f"row {i}: numeric zz {cell} where the reference is ambiguous"]
    ref_mhz = ref * 1e3
    if abs(float(cell) - ref_mhz) > ZZ_ATOL_MHZ + ZZ_RTOL * abs(ref_mhz):
        return [f"row {i}: numeric zz {cell} MHz != reference {ref_mhz:.12g} MHz"]
    return []


def check_roots(roots, f, tol: float = effmodel.ROOT_TOLERANCE) -> list[str]:
    """Each root must sit within tol of a sign change of f and not on a pole."""
    problems = []
    for r in roots:
        delta = tol + 4.0 * np.finfo(float).eps * abs(r)
        try:
            lo, mid, hi = f(r - delta), f(r), f(r + delta)
        except ResonanceError as exc:
            problems.append(f"root {r!r}: f undefined nearby ({exc})")
            continue
        if lo * hi > 0 and min(abs(lo), abs(hi)) > ZERO_FLOOR:
            problems.append(f"root {r!r}: no sign change, f = {lo:.3g} / {hi:.3g}")
        if abs(mid) > max(abs(lo), abs(hi)) + ZERO_FLOOR:
            problems.append(f"root {r!r}: |f| = {abs(mid):.3g} peaks at the root (a pole)")
    return problems


def check_fit(result: fitkit.FitResult, true: fitkit.CouplerFluxModel, noiseless: bool) -> list[str]:
    values = [getattr(result.params, name) for name in result.free]
    if not all(np.isfinite(values + [result.rms_residual_mhz])):
        return [f"non-finite fit result {values}"]
    if not noiseless:
        return []
    problems = []
    for name in result.free:
        got, want = getattr(result.params, name), getattr(true, name)
        if abs(got - want) > FIT_RECOVERY * abs(want):
            problems.append(f"{name}: fitted {got:.9g}, true {want:.9g}")
    return problems
