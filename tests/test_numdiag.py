import glob
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from couplerkit import (
    LabelingError,
    SystemModel,
    build_hamiltonian,
    dressed_frequencies,
    find_zero_g,
    find_zero_zz,
    g_net,
    g_numeric,
    zz_numeric,
)
from couplerkit import numdiag
from couplerkit.errors import FluxDomainError
from couplerkit.numdiag import _ZZ_LABELS
from couplerkit.presets import ASYMMETRIC_DEVICE, SYMMETRIC_DEVICE, device_flux_builder


def max_overlap_energies(matrix, indices):
    """Energy of the eigenstate with the largest weight on each bare index."""
    energies, vectors = np.linalg.eigh(matrix)
    return [energies[np.argmax(vectors[i] ** 2)] for i in indices]


def model(omega1=4.58, omega2=4.64, omegac=4.0, eta1=0.23, eta2=0.233,
          etac=0.19, g1c=-0.085, g2c=-0.085, g12=-0.0058):
    return SystemModel(omega1=omega1, omega2=omega2, omegac=omegac, eta1=eta1,
                       eta2=eta2, etac=etac, g1c=g1c, g2c=g2c, g12=g12)


class TestBuildHamiltonian:
    def test_levels_validation(self):
        with pytest.raises(ValueError):
            build_hamiltonian(model(), (1, 5, 5))
        with pytest.raises(ValueError):
            build_hamiltonian(model(), (5, 13, 5))
        with pytest.raises(ValueError):
            build_hamiltonian(model(), (5, 5))

    @pytest.mark.parametrize("levels", [
        (5.9, 5, 5), (5, 4.5, 5), (3, 3, 11.5), (math.inf, 5, 5), (5, math.nan, 5),
    ])
    def test_non_integral_levels_rejected(self, levels):
        builder = device_flux_builder(ASYMMETRIC_DEVICE, resonant=False)
        calls = {
            "build_hamiltonian": lambda: build_hamiltonian(model(), levels),
            "zz_numeric": lambda: zz_numeric(model(), levels),
            "array zz_numeric": lambda: zz_numeric(builder(np.linspace(4.4, 6.4, 5)), levels),
            "find_zero_zz": lambda: find_zero_zz(builder, (4.4, 6.5), backend="numeric",
                                                 levels=levels),
        }
        text = f"levels must be three integers in [2, 12], got {levels}"
        for name, call in calls.items():
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                call()

    @pytest.mark.parametrize("name", ["build_hamiltonian", "g_numeric"])
    def test_one_point_functions_refuse_array_models(self, name):
        # resonant qubits, so that g_numeric reaches its resonance test
        m = device_flux_builder(ASYMMETRIC_DEVICE, resonant=True)(np.array([5.0, 5.5]))
        text = f"{name} takes a model of one point; zz_numeric takes arrays of points"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            getattr(numdiag, name)(m, (3, 3, 3))

    def test_integral_float_levels_are_ints(self):
        levels = build_hamiltonian(model(), (5.0, np.int64(4), 3)).levels
        assert levels == (5, 4, 3)
        assert all(type(n) is int for n in levels)

    def test_uncoupled_is_diagonal_ladder(self):
        m = model(g1c=0.0, g2c=0.0, g12=0.0)
        h = build_hamiltonian(m, (4, 4, 4))
        off = h.matrix - np.diag(np.diag(h.matrix))
        assert np.allclose(off, 0.0)
        for k1, kc, k2 in itertools.product(range(4), repeat=3):
            expected = (
                m.omega1 * k1 - m.eta1 / 2 * k1 * (k1 - 1)
                + m.omegac * kc - m.etac / 2 * kc * (kc - 1)
                + m.omega2 * k2 - m.eta2 / 2 * k2 * (k2 - 1)
            )
            assert h.matrix[h.index(k1, kc, k2), h.index(k1, kc, k2)] == (
                pytest.approx(expected, rel=1e-12)
            )

    def test_exactly_hermitian(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = rng.uniform(3.0, 6.0, 3)
            g = rng.uniform(-0.1, 0.1, 3)
            m = model(omega1=w[0], omegac=w[1], omega2=w[2],
                      g1c=g[0], g2c=g[1], g12=g[2])
            h = build_hamiltonian(m, (4, 3, 5))
            assert np.array_equal(h.matrix, h.matrix.T)

    def test_two_level_rabi_spectrum_matches_analytic(self):
        # one qubit + coupler at resonance, two levels each: the four
        # eigenvalues are w +- g and w +- sqrt(w^2 + g^2), splitting 2g in the
        # single-excitation manifold
        w, g = 5.0, 0.08
        m = model(omega1=w, omegac=w, omega2=9.0, g1c=g, g2c=0.0, g12=0.0)
        h = build_hamiltonian(m, (2, 2, 2))
        # the idle third mode decouples; keep its ground-state block
        block = [h.index(k1, kc, 0) for k1 in range(2) for kc in range(2)]
        sub = np.linalg.eigvalsh(h.matrix[np.ix_(block, block)])
        expected = sorted([
            w - math.sqrt(w**2 + g**2),
            w - g,
            w + g,
            w + math.sqrt(w**2 + g**2),
        ])
        assert np.allclose(sub, expected, atol=1e-12)

    def test_basis_index_ordering(self):
        h = build_hamiltonian(model(), (3, 4, 5))
        assert h.index(0, 0, 0) == 0
        assert h.index(0, 0, 1) == 1
        assert h.index(0, 1, 0) == 5
        assert h.index(1, 0, 0) == 20
        assert h.index(2, 3, 4) == ((2 * 4) + 3) * 5 + 4


class TestDressedSpectrum:
    """Dressed states of the truncated Hamiltonian."""

    def test_dispersive_matches_effective_dressing(self):
        # cross couplings off so only the qubit-1/coupler dressing remains
        m = model(omegac=6.0, g2c=0.0, g12=0.0)
        h = build_hamiltonian(m, (6, 6, 3))
        e100, e000 = max_overlap_energies(
            h.matrix, [h.index(1, 0, 0), h.index(0, 0, 0)]
        )
        d = dressed_frequencies(m)
        assert e100 - e000 == pytest.approx(d.omega01_1, abs=2e-5)

    def test_ambiguity_flag_near_crossing(self):
        # three-way hybridization leaves one bare label without a dominant
        # eigenstate, so it must be flagged
        m = model(omega1=4.6, omega2=4.606, omegac=4.603, g1c=0.05, g2c=0.03,
                  g12=0.004)
        with pytest.raises(LabelingError, match=r"\(1, 0, 0\)"):
            zz_numeric(m, (4, 4, 4))

    def test_convergence_in_truncation(self):
        builder = device_flux_builder(ASYMMETRIC_DEVICE, resonant=False)
        m = builder(5.2)
        z4 = zz_numeric(m, (4, 4, 4))
        z5 = zz_numeric(m, (5, 5, 5))
        z6 = zz_numeric(m, (6, 6, 6))
        assert abs(z5 - z4) < 1e-6    # < 1 kHz
        assert abs(z6 - z5) < 1e-6
        assert abs(z6 - z5) <= abs(z5 - z4)  # successive deltas shrink


class TestZZNumeric:
    def test_uncoupled_is_zero(self):
        # the four-frequency combination carries only float addition roundoff
        assert zz_numeric(model(g1c=0.0, g2c=0.0, g12=0.0), (4, 4, 4)) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_qubit_exchange_symmetry(self):
        m = model(omegac=5.9, g1c=-0.07, g2c=0.09, g12=-0.008)
        assert zz_numeric(m.swapped_qubits()) == pytest.approx(
            zz_numeric(m), rel=1e-9, abs=1e-12
        )

    def test_offset_invariance(self):
        # a uniform diagonal shift cancels in the four-frequency combination
        m = model(omegac=5.9)
        h = build_hamiltonian(m, (5, 5, 5))
        labels = [h.index(*k) for k in ((1, 0, 1), (1, 0, 0), (0, 0, 1), (0, 0, 0))]

        def zz(matrix):
            e101, e100, e001, e000 = max_overlap_energies(matrix, labels)
            return e101 - e100 - e001 + e000

        shifted = h.matrix + 17.3 * np.eye(len(h.matrix))
        assert abs(zz(shifted) - zz(h.matrix)) < 1e-9

    def test_matches_perturbative_in_dispersive_regime(self):
        # well-conditioned instance: dispersive and away from the
        # straddling resonances Delta_12 = +-eta
        from couplerkit import zz_perturbative

        m = model(omega1=4.2, omega2=4.3, omegac=5.4, eta1=0.25, eta2=0.26,
                  etac=0.2, g1c=-0.06, g2c=0.07, g12=-0.008)
        pert = zz_perturbative(m).zeta_total
        num = zz_numeric(m)
        assert abs(pert - num) / abs(num) < 0.2

    def test_ambiguous_labeling_raises(self):
        m = model(omega1=4.6, omega2=4.64, omegac=4.6002, g1c=0.05, g2c=0.05,
                  g12=0.0)
        with pytest.raises(LabelingError):
            zz_numeric(m, (4, 4, 4))


class TestGNumeric:
    def test_requires_resonant_qubits(self):
        with pytest.raises(ValueError, match="resonant"):
            g_numeric(model())

    def test_direct_coupling_splitting(self):
        # splitting is 2|g12| up to counter-rotating corrections ~ (g/S)^2
        g = 0.004
        m = model(omega1=4.6, omega2=4.6, g1c=0.0, g2c=0.0, g12=g)
        assert g_numeric(m, (3, 3, 3)) == pytest.approx(abs(g), rel=1e-5)

    def test_matches_net_coupling_in_dispersive_band(self):
        # grid stays clear of the g = 0 crossing near 3.53 GHz, where a
        # relative comparison is meaningless
        for wc in (2.95, 3.1, 3.25, 3.35):
            m = model(omega1=4.61, omega2=4.61, omegac=wc)
            gn = abs(g_net(m).g)
            gm = g_numeric(m)
            assert abs(gm - gn) / gn < 0.05, wc

    def test_small_at_net_coupling_zero(self):
        # frozen: g_numeric stays below 100 kHz at the effective-model zero
        def builder(wc):
            return model(omega1=4.61, omega2=4.61, omegac=wc)

        root = find_zero_g(builder, (2.8, 4.0))
        assert g_numeric(builder(root)) < 100e-6

    def test_coupler_too_close_raises(self):
        m = model(omega1=4.6, omega2=4.6, omegac=4.602, g1c=0.05, g2c=0.05,
                  g12=0.0)
        with pytest.raises(LabelingError):
            g_numeric(m, (4, 4, 4))


def _matmul_hamiltonian(m, levels):
    """Dense reference: kron ladder operators, products taken per call."""
    n1, nc, n2 = levels

    def lower(n):
        return np.diag(np.sqrt(np.arange(1, n)), k=1)

    i1, ic, i2 = np.eye(n1), np.eye(nc), np.eye(n2)
    a1 = np.kron(np.kron(lower(n1), ic), i2)
    ac = np.kron(np.kron(i1, lower(nc)), i2)
    a2 = np.kron(np.kron(i1, ic), lower(n2))
    h = np.zeros_like(a1)
    for a, w, eta in ((a1, m.omega1, m.eta1), (ac, m.omegac, m.etac),
                      (a2, m.omega2, m.eta2)):
        h += w * (a.T @ a) - 0.5 * eta * (a.T @ a.T @ a @ a)
    for aa, ab, g in ((a1, ac, m.g1c), (a2, ac, m.g2c), (a1, a2, m.g12)):
        h += g * (aa @ ab.T + aa.T @ ab - aa @ ab - aa.T @ ab.T)
    return 0.5 * (h + h.T)


def _reference_zz(m, levels):
    """(zeta or None, first failure or None, overlaps, conditioning): every
    eigenstate is labelled by its largest bare-state weight, and each
    computational label takes the eigenstate it dominates with the largest
    weight (-1 if none).

    The first failure is the first label in ``_ZZ_LABELS`` order whose
    overlap is at most 0.5, with "none" when it dominates no eigenstate and
    "ambiguous" otherwise.  Conditioning is the smallest level spacing (GHz)
    and the smallest lead of an eigenstate's largest weight over its second
    largest.
    """
    energies, vectors = np.linalg.eigh(_matmul_hamiltonian(m, levels))
    weights = vectors**2
    top_two = np.sort(weights, axis=0)[-2:]
    conditioning = np.min(np.diff(energies)), np.min(top_two[1] - top_two[0])
    dominant = np.argmax(weights, axis=0)
    _, nc, n2 = levels
    found, overlaps, failure = {}, [], None
    for label in _ZZ_LABELS:
        k1, _, k2 = label
        row = k1 * nc * n2 + k2
        owned = np.flatnonzero(dominant == row)
        if owned.size == 0:
            overlap = -1.0
        else:
            best = owned[np.argmax(weights[row, owned])]
            overlap = weights[row, best]
            found[label] = energies[best]
        overlaps.append(overlap)
        if failure is None and overlap <= 0.5:
            failure = label, "none" if overlap < 0.0 else "ambiguous"
    if failure is not None:
        return None, failure, overlaps, conditioning
    zz = found[1, 0, 1] - found[1, 0, 0] - found[0, 0, 1] + found[0, 0, 0]
    return zz, None, overlaps, conditioning


def _assert_matches_reference(m, levels, ref, failure):
    if ref is not None:
        assert abs(zz_numeric(m, levels) - ref) <= 1e-12
        return
    label, kind = failure
    with pytest.raises(LabelingError) as raised:
        zz_numeric(m, levels)
    if kind == "none":
        assert str(raised.value) == f"no eigenstate is dominated by bare state {label}"
    else:
        assert str(raised.value).startswith(f"bare state {label} is ambiguous")


_frequency = st.floats(3.0, 7.0)
_coupling = st.floats(-0.15, 0.15)


@st.composite
def _models(draw):
    w1 = draw(_frequency)
    # one draw in three puts all three modes within 30 MHz of each other
    if draw(st.integers(0, 2)) == 0:
        near = st.floats(-0.03, 0.03)
        wc, w2 = w1 + draw(near), w1 + draw(near)
    else:
        wc, w2 = draw(_frequency), draw(_frequency)
    etas = [draw(st.floats(0.1, 0.35)) for _ in range(3)]
    return SystemModel(omega1=w1, omega2=w2, omegac=wc, eta1=etas[0],
                       eta2=etas[1], etac=etas[2], g1c=draw(_coupling),
                       g2c=draw(_coupling), g12=draw(_coupling))


@settings(max_examples=150, deadline=None)
@given(m=_models(), levels=st.tuples(*[st.integers(2, 7)] * 3))
def test_sector_diagonalization_matches_dense_reference(m, levels):
    h = build_hamiltonian(m, levels)
    assert np.max(np.abs(h.matrix - _matmul_hamiltonian(m, levels))) <= 1e-12
    parity = np.add.reduce(np.indices(levels)).ravel() % 2
    assert not np.any(h.matrix[np.ix_(parity == 0, parity == 1)])

    ref, failure, overlaps, (spacing, lead) = _reference_zz(m, levels)
    # rounding decides the outcome at the threshold, where an eigenstate's two
    # largest weights tie, and where levels nearly coincide: eigenvectors are
    # determined only to ~eps |H| / spacing, so below 1e-6 GHz a weight is not
    # defined to 1e-9 in either calculation
    assume(min(abs(o - 0.5) for o in overlaps) > 1e-9)
    assume(lead > 1e-9 and spacing > 1e-6)
    _assert_matches_reference(m, levels, ref, failure)


@pytest.mark.parametrize("device", [ASYMMETRIC_DEVICE, SYMMETRIC_DEVICE],
                         ids=["asymmetric", "symmetric"])
def test_full_solve_fallback_matches_reference(monkeypatch, device):
    """With no margin above the labels' bare-energy ranks the partial solve
    misses labels more often, so the full-solve fallback also answers valid
    points; every outcome still matches the dense reference."""
    monkeypatch.setattr(numdiag, "_WINDOW_MARGIN", 0)
    full_solves = []
    lowest = numdiag._lowest

    def counted(block, count):
        if count == len(block):
            full_solves.append(1)
        return lowest(block, count)

    monkeypatch.setattr(numdiag, "_lowest", counted)
    builder = device_flux_builder(device, resonant=False)
    levels = (5, 5, 5)
    fallback_answers = 0
    for wc in np.linspace(3.0, 8.0, 101):
        try:
            m = builder(float(wc))
        except FluxDomainError:
            continue
        before = len(full_solves)
        try:
            zz_numeric(m, levels)
            fallback_answers += len(full_solves) > before
        except LabelingError:
            pass
        ref, failure, _, _ = _reference_zz(m, levels)
        _assert_matches_reference(m, levels, ref, failure)
    assert fallback_answers > 0


# ζ on the detuned asymmetric device at 8 levels per mode, where the blocks
# (256 states) are large enough for OpenBLAS to split its kernels over threads
THREAD_PROBE = """
import numpy as np
from couplerkit import presets, zz_numeric
builder = presets.device_flux_builder(presets.ASYMMETRIC_DEVICE, resonant=False)
for wc in np.linspace(4.8, 6.1, 8).tolist():
    print(zz_numeric(builder(wc), (8, 8, 8)).hex())
"""


def test_zz_numeric_bits_do_not_depend_on_the_blas_thread_count():
    import scipy

    libs = os.path.dirname(scipy.__file__) + ".libs"
    if not glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        pytest.skip(f"scipy bundles no OpenBLAS in {libs}, so the thread count is not pinned")
    src = str(Path(numdiag.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                              capture_output=True, text=True, check=True, timeout=300)
        outputs.append(proc.stdout.split())
    assert len(outputs[0]) == 8
    assert outputs[0] == outputs[1]
