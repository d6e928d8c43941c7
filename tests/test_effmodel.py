import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from couplerkit import (
    FluxDomainError,
    LabelingError,
    LabelingWarning,
    NoRootError,
    ResonanceError,
    SystemModel,
    dressed_frequencies,
    ej_of_flux,
    find_zero_g,
    find_zero_zz,
    g_net,
    zz_perturbative,
)
from couplerkit.effmodel import ROOT_TOLERANCE, _refine_brackets
from couplerkit.presets import (
    ASYMMETRIC_DEVICE,
    SYMMETRIC_DEVICE,
    FLOATING_COUPLER_BAND_ASYMMETRIC,
    FLOATING_COUPLER_BAND_SYMMETRIC,
    FLOATING_DESIGN_RATES_ASYMMETRIC,
    FLOATING_DESIGN_RATES_SYMMETRIC,
    device_flux_builder,
    frequency_sweep_builder,
)

ETA = dict(eta1=0.23, eta2=0.233, etac=0.19)


def design_model(rates, omegac=4.0, omega1=4.58, omega2=4.64):
    return SystemModel(
        omega1=omega1, omega2=omega2, omegac=omegac,
        g1c=rates["g1c"], g2c=rates["g2c"], g12=rates["g12"], **ETA,
    )


def bisect_oracle(f, a, b, tol=1e-9):
    """Plain bisection, independent of the library's Brent-based finder."""
    fa = f(a)
    assert np.sign(fa) != np.sign(f(b))
    while b - a > tol:
        mid = 0.5 * (a + b)
        if np.sign(f(mid)) == np.sign(fa):
            a, fa = mid, f(mid)
        else:
            b = mid
    return 0.5 * (a + b)


class TestGNet:
    def test_decoupled_coupler_gives_direct_coupling(self):
        m = design_model({"g1c": 0.0, "g2c": 0.0, "g12": -0.0058})
        eff = g_net(m)
        assert eff.g == pytest.approx(m.g12)
        assert eff.g_eff == 0.0

    def test_identity_g_equals_g12_minus_geff(self):
        m = design_model(FLOATING_DESIGN_RATES_SYMMETRIC)
        eff = g_net(m)
        assert eff.g == pytest.approx(m.g12 - eff.g_eff, abs=0)

    def test_detunings_reported(self):
        m = design_model(FLOATING_DESIGN_RATES_SYMMETRIC, omegac=3.5)
        eff = g_net(m)
        assert eff.delta1 == pytest.approx(3.5 - 4.58)
        assert eff.sigma2 == pytest.approx(3.5 + 4.64)

    def test_resonance_floor(self):
        m = design_model(FLOATING_DESIGN_RATES_SYMMETRIC, omegac=4.58 + 1e-4)
        with pytest.raises(ResonanceError, match="Delta_1"):
            g_net(m)

    def test_qubit_swap_leaves_g_unchanged(self):
        m = design_model(FLOATING_DESIGN_RATES_ASYMMETRIC, omegac=5.5)
        assert g_net(m.swapped_qubits()).g == pytest.approx(g_net(m).g, rel=1e-14)


class TestFindZeroG:
    def test_symmetric_design_root(self):
        # frozen from the bisection oracle: zero crossing of the symmetric
        # design rates inside the low coupler band
        builder = frequency_sweep_builder(design_model(FLOATING_DESIGN_RATES_SYMMETRIC))
        oracle = bisect_oracle(
            lambda wc: g_net(builder(wc)).g, *FLOATING_COUPLER_BAND_SYMMETRIC
        )
        assert oracle == pytest.approx(3.5288, abs=2e-3)
        root = find_zero_g(builder, FLOATING_COUPLER_BAND_SYMMETRIC)
        assert abs(root - oracle) < 1e-3

    def test_asymmetric_design_root(self):
        builder = frequency_sweep_builder(design_model(FLOATING_DESIGN_RATES_ASYMMETRIC))
        oracle = bisect_oracle(
            lambda wc: g_net(builder(wc)).g, *FLOATING_COUPLER_BAND_ASYMMETRIC
        )
        assert oracle == pytest.approx(5.3014, abs=2e-3)
        root = find_zero_g(builder, FLOATING_COUPLER_BAND_ASYMMETRIC)
        assert abs(root - oracle) < 1e-3

    def test_no_sign_change_above_qubits_for_symmetric(self):
        builder = frequency_sweep_builder(design_model(FLOATING_DESIGN_RATES_SYMMETRIC))
        with pytest.raises(NoRootError) as err:
            find_zero_g(builder, (4.8, 6.5))
        assert np.isfinite(err.value.f_lo) and np.isfinite(err.value.f_hi)
        assert np.sign(err.value.f_lo) == np.sign(err.value.f_hi)

    def test_pole_is_not_reported_as_root(self):
        # band contains the genuine root and the Delta_1 = 0 pole at 4.58
        builder = frequency_sweep_builder(design_model(FLOATING_DESIGN_RATES_SYMMETRIC))
        root = find_zero_g(builder, (2.8, 4.6))
        assert root == pytest.approx(3.5288, abs=2e-3)

    def test_multiple_roots_warn_and_return_lowest(self):
        # asymmetric rates have one zero between the qubits and one above
        builder = frequency_sweep_builder(design_model(FLOATING_DESIGN_RATES_ASYMMETRIC))
        with pytest.warns(UserWarning, match="crosses zero 2 times") as seen:
            root = find_zero_g(builder, (4.585, 6.14))
        assert root < 4.64
        assert [w.filename for w in seen] == [__file__]


class TestDressedFrequencies:
    def test_uncoupled_dressing_is_identity(self):
        m = design_model({"g1c": 0.0, "g2c": 0.0, "g12": 0.0})
        d = dressed_frequencies(m)
        assert d.omega01_1 == pytest.approx(m.omega1)
        assert d.omega01_2 == pytest.approx(m.omega2)
        assert d.omega02_1 == pytest.approx(2 * m.omega1)

    def test_dispersive_guard(self):
        m = design_model(FLOATING_DESIGN_RATES_SYMMETRIC, omegac=4.40)
        with pytest.warns(UserWarning, match="dispersive"):
            dressed_frequencies(m)
        m2 = design_model(FLOATING_DESIGN_RATES_SYMMETRIC, omegac=4.46)
        with pytest.raises(ResonanceError):
            dressed_frequencies(m2)

    def test_array_blanks_refused_points_and_warns_once(self):
        # 4.40 GHz only warns (for both qubits as a float), 4.46 GHz is refused
        m = design_model(FLOATING_DESIGN_RATES_SYMMETRIC, omegac=np.array([4.40, 4.46, 5.8]))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            d = dressed_frequencies(m)
        assert [str(w.message) for w in seen] == [
            "|g_1c/Delta_1| = 0.472 exceeds the dispersive guideline 0.3"
        ]
        assert seen[0].filename == __file__
        for name in ("omega01_1", "omega01_2", "omega02_1", "omega02_2"):
            assert np.isnan(getattr(d, name)).tolist() == [False, True, False], name

    @staticmethod
    def two_mode_oracle(w, eta, wc, etac, g, n=9):
        """Exact 2-mode diagonalization, labeling by dominant bare state."""
        a = np.diag(np.sqrt(np.arange(1, n)), k=1)
        i = np.eye(n)
        aq, ac = np.kron(a, i), np.kron(i, a)
        h = (
            w * aq.T @ aq - 0.5 * eta * (aq.T @ aq.T @ aq @ aq)
            + wc * ac.T @ ac - 0.5 * etac * (ac.T @ ac.T @ ac @ ac)
            + g * (aq @ ac.T + aq.T @ ac - aq @ ac - aq.T @ ac.T)
        )
        evals, evecs = np.linalg.eigh(h)
        weights = np.abs(evecs) ** 2

        def energy(nq, nc):
            return evals[int(np.argmax(weights[nq * n + nc, :]))]

        return energy(1, 0) - energy(0, 0), energy(2, 0) - energy(0, 0)

    def test_matches_two_mode_diagonalization_to_fourth_order(self):
        # halving g must shrink the residual ~16x if the error is O(g^4/D^3)
        w, eta, wc, etac = 4.6, 0.21, 5.7, 0.19
        residuals = []
        for g in (0.08, 0.04):
            m = SystemModel(
                omega1=w, omega2=4.0, omegac=wc, eta1=eta, eta2=0.2,
                etac=etac, g1c=g, g2c=0.0, g12=0.0,
            )
            d = dressed_frequencies(m)
            exact01, exact02 = self.two_mode_oracle(w, eta, wc, etac, g)
            r01 = abs(d.omega01_1 - exact01)
            r02 = abs((d.omega02_1 - eta) - exact02)
            residuals.append((r01, r02))
        for k in (0, 1):
            ratio = residuals[0][k] / residuals[1][k]
            assert 9.0 < ratio < 30.0, (k, residuals)

    def test_second_order_shift_sign(self):
        # coupler above the qubit pushes the qubit down
        m = design_model(FLOATING_DESIGN_RATES_SYMMETRIC, omegac=5.8)
        d = dressed_frequencies(m)
        assert d.omega01_1 < m.omega1


class TestZZPerturbative:
    def test_uncoupled_gives_zero(self):
        m = design_model({"g1c": 0.0, "g2c": 0.0, "g12": 0.0})
        zz = zz_perturbative(m)
        assert zz.zeta2 == 0.0 and zz.zeta34 == 0.0 and zz.zeta_total == 0.0

    def test_second_order_fixture(self):
        # direct evaluation with Delta_12 = +182 MHz, eta = (219, 215) MHz,
        # g12 = -9.4 MHz: zeta2 = 5.2214 MHz
        m = SystemModel(
            omega1=3.812, omega2=3.63, omegac=6.0, eta1=0.219, eta2=0.215,
            etac=0.18, g1c=0.0, g2c=0.0, g12=-9.4e-3,
        )
        zz = zz_perturbative(m)
        assert zz.zeta2 * 1e3 == pytest.approx(5.2214, abs=2e-3)
        assert zz.delta12 == pytest.approx(0.182)

    def test_total_is_sum_of_parts(self):
        b = device_flux_builder(ASYMMETRIC_DEVICE, resonant=False)
        zz = zz_perturbative(b(5.2))
        assert zz.zeta_total == zz.zeta2 + zz.zeta34

    def test_zeta2_is_flux_independent(self):
        builder = device_flux_builder(ASYMMETRIC_DEVICE, resonant=False)
        values = [zz_perturbative(builder(wc)).zeta2 for wc in np.linspace(4.5, 6.5, 9)]
        assert np.ptp(values) == 0.0

    def test_straddle_resonance_error_names_denominator(self):
        m = SystemModel(
            omega1=3.849, omega2=3.63, omegac=6.0, eta1=0.219, eta2=0.215,
            etac=0.18, g1c=-0.1, g2c=0.1, g12=-9.4e-3,
        )  # Delta_12 = eta_1
        with pytest.raises(ResonanceError, match="Delta_12 - eta_1"):
            zz_perturbative(m)


class TestFindZeroZZ:
    def test_uncoupled_returns_empty(self):
        builder = frequency_sweep_builder(
            design_model({"g1c": 0.0, "g2c": 0.0, "g12": 0.0})
        )
        assert find_zero_zz(builder, (5.0, 6.5)) == []

    def test_asymmetric_device_has_two_roots_both_backends(self):
        builder = device_flux_builder(ASYMMETRIC_DEVICE, resonant=False)
        pert = find_zero_zz(builder, (4.4, 6.5), backend="perturbative")
        num = find_zero_zz(builder, (4.4, 6.5), backend="numeric")
        assert len(pert) == 2
        assert len(num) == 2
        # frozen from the diagonalization backend
        assert num[0] == pytest.approx(5.0177, abs=5e-3)
        assert num[1] == pytest.approx(5.3772, abs=5e-3)

    def test_bad_backend(self):
        builder = device_flux_builder(ASYMMETRIC_DEVICE, resonant=False)
        with pytest.raises(ValueError, match="backend"):
            find_zero_zz(builder, (4.4, 6.5), backend="exact")

    def test_grounded_asymmetric_example_has_no_zz_zero_in_band(self):
        # The bundled grounded asymmetric example (C24 = 1, C34 = 10 fF)
        # actually satisfies the symmetric pad rule, and its ZZ curve stays
        # single-signed over the 4.38-5.71 GHz coupler band: no two-zero
        # structure materializes (the only sign change sits on the
        # Delta_2 = 0 pole, which the finder rejects).  Asserting the
        # measured truth here; see README, Known deviations.
        import couplerkit as ck
        from couplerkit.presets import grounded_coupler_design

        net = grounded_coupler_design(False)
        e = ck.energies_exact(net)
        q1 = ck.TransmonParams(
            e.ec1,
            ck.SquidParams.from_sum_asymmetry(ck.ej_for_frequency(e.ec1, 4.18), 0.2),
            ck.TransmonRole.QUBIT_1,
        )
        q2 = ck.TransmonParams(
            e.ec2,
            ck.SquidParams.from_sum_asymmetry(ck.ej_for_frequency(e.ec2, 4.54), 0.2),
            ck.TransmonRole.QUBIT_2,
        )
        c = ck.TransmonParams(
            e.ecc,
            ck.SquidParams.from_sum_asymmetry(ck.ej_for_frequency(e.ecc, 5.71), 0.0),
            ck.TransmonRole.COUPLER,
        )

        def builder(wc):
            phi = ck.flux_for_ej(c.squid, ck.ej_for_frequency(e.ecc, wc))
            return ck.system_model(e, q1, q2, c, phi_ec=phi)

        assert find_zero_zz(builder, (4.38, 5.71)) == []


class TestUnlabeledPoints:
    """The numeric finder skips points it cannot label, like poles."""

    @pytest.mark.parametrize("device, skipped, roots", [
        (ASYMMETRIC_DEVICE, 62, 0),
        (SYMMETRIC_DEVICE, 36, 2),
    ])
    def test_numeric_find_skips_and_counts(self, device, skipped, roots):
        from couplerkit.numdiag import zz_numeric

        builder = device_flux_builder(device, resonant=False)
        with pytest.warns(
            LabelingWarning,
            match=rf"^{skipped} of 200 prescan points in \[2.5, 4\] could not be labeled",
        ) as seen:
            found = find_zero_zz(builder, (2.5, 4.0), backend="numeric")
        assert [w.filename for w in seen] == [__file__]
        assert len(found) == roots
        assert all(abs(zz_numeric(builder(r), (5, 5, 5))) < 1e-9 for r in found)

    def test_labeled_band_does_not_warn(self):
        builder = device_flux_builder(ASYMMETRIC_DEVICE, resonant=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", LabelingWarning)
            assert len(find_zero_zz(builder, (4.4, 6.5), backend="numeric")) == 2

    def test_bracket_that_cannot_be_labeled_is_dropped(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        ys = np.array([-1.0, 1.0, -1.0, -1.0])

        def f(x):
            if 0.0 < x < 1.0:
                raise LabelingError("bare state (1, 0, 0) is ambiguous")
            return float(np.interp(x, xs, ys))

        assert _refine_brackets(f, xs, ys) == [pytest.approx(1.5, abs=ROOT_TOLERANCE)]


def recording(builder, floats):
    """``builder`` that appends each float argument to ``floats``."""

    def build(x):
        if np.ndim(x) == 0:
            floats.append(x)
        return builder(x)

    return build


def off_grid(floats, band):
    """No float lies on the 200-point prescan grid of ``band``: the prescan
    values answer the bracket ends."""
    return not set(np.linspace(*band, 200).tolist()).intersection(floats)


class TestFindEvaluations:
    """Each find evaluates the prescan as one array call and then refines each
    bracket with floats, evaluating no point twice and no prescan point again."""

    @pytest.mark.parametrize("device, evaluations, roots", [
        (SYMMETRIC_DEVICE, 156, []),  # the points above 6.041 GHz are unreachable
        (ASYMMETRIC_DEVICE, 206, ["0x1.4122643d78f63p+2", "0x1.5823695b0d368p+2"]),
    ])
    def test_numeric_find_counts(self, monkeypatch, device, evaluations, roots):
        from couplerkit import numdiag

        calls, seen = [], []  # points per call, coupler frequency of each solved point
        zz_numeric = numdiag.zz_numeric

        def counting(m, levels):
            omegac = np.atleast_1d(m.omegac)
            calls.append(omegac.size)
            seen.extend(omegac[np.isfinite(omegac)].tolist())  # a NaN point is not solved
            return zz_numeric(m, levels)

        monkeypatch.setattr(numdiag, "zz_numeric", counting)
        floats = []
        builder = recording(device_flux_builder(device, resonant=False), floats)
        found = find_zero_zz(builder, (4.4, 6.5), backend="numeric")
        assert [r.hex() for r in found] == roots
        assert calls == [200] + [1] * (len(calls) - 1)  # one prescan call, then floats
        assert len(seen) == evaluations
        assert len(set(seen)) == len(seen)
        assert off_grid(floats, (4.4, 6.5))

    @pytest.mark.parametrize("device, float_calls, roots", [
        (SYMMETRIC_DEVICE, 0, []),
        # the bracket ends come from the prescan, so only Brent's steps are floats
        (ASYMMETRIC_DEVICE, 7, ["0x1.1ffca25c8f5c7p+2", "0x1.46ca813af7fc0p+2"]),
    ])
    def test_perturbative_find_counts(self, device, float_calls, roots):
        calls = []
        builder = device_flux_builder(device, resonant=False)

        def counting(x):
            calls.append(np.size(x))
            return builder(x)

        floats = []
        assert [r.hex() for r in find_zero_zz(recording(counting, floats), (4.4, 6.5))] == roots
        assert calls == [200] + [1] * float_calls
        assert off_grid(floats, (4.4, 6.5))

    @pytest.mark.parametrize("device, band, float_calls, root", [
        (SYMMETRIC_DEVICE, (2.5, 3.8), 3, "0x1.83bfc0299a83cp+1"),
        (ASYMMETRIC_DEVICE, (4.4, 6.5), 2, "0x1.5914d77c5f91dp+2"),
    ])
    def test_find_zero_g_counts(self, device, band, float_calls, root):
        calls = []
        builder = device_flux_builder(device, resonant=False)

        def counting(x):
            calls.append(np.size(x))
            return builder(x)

        floats = []
        assert find_zero_g(recording(counting, floats), band).hex() == root
        assert calls == [200] + [1] * float_calls
        assert len(set(floats)) == len(floats)
        assert off_grid(floats, band)


FINDERS = [
    (find_zero_g, {}),
    (find_zero_zz, {"backend": "perturbative"}),
    (find_zero_zz, {"backend": "numeric"}),
]


class TestPrescanPoints:
    @pytest.mark.parametrize("points", [0, 1])
    @pytest.mark.parametrize("find, backend", FINDERS)
    def test_fewer_than_two_points_rejected(self, find, backend, points):
        builder = device_flux_builder(ASYMMETRIC_DEVICE, resonant=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^prescan_points must be at least 2, got {points}$"):
                find(builder, (4.4, 6.4), prescan_points=points, **backend)

    @pytest.mark.parametrize("band", [(6.4, 4.4), (4.4, 4.4)])
    @pytest.mark.parametrize("find, backend", FINDERS)
    def test_band_must_be_increasing(self, find, backend, band):
        builder = device_flux_builder(ASYMMETRIC_DEVICE, resonant=False)
        with pytest.raises(ValueError, match=rf"^band must satisfy lo < hi, got \({band[0]}, {band[1]}\)$"):
            find(builder, band, **backend)


class TestMaskedPrescan:
    def test_all_poles_warn(self):
        # resonant qubits put every point on the Delta_12 floor
        builder = device_flux_builder(ASYMMETRIC_DEVICE, resonant=True)
        with pytest.warns(UserWarning, match=r"every prescan point in \[4.4, 6.5\] hit") as seen:
            assert find_zero_zz(builder, (4.4, 6.5)) == []
        assert [w.filename for w in seen] == [__file__]

    def test_all_poles_warn_before_no_root(self):
        builder = frequency_sweep_builder(design_model(FLOATING_DESIGN_RATES_SYMMETRIC))
        with pytest.warns(UserWarning, match="resonance pole or fell outside the flux domain") as seen:
            with pytest.raises(NoRootError):
                find_zero_g(builder, (4.5795, 4.5805))
        assert [w.filename for w in seen] == [__file__]

    @pytest.mark.parametrize("band, causes", [
        ((4.2, 6.0), "could not be labeled"),
        ((6.1, 7.0), "fell outside the flux domain"),
        ((5.9, 7.0), "fell outside the flux domain or could not be labeled"),
    ])
    def test_numeric_warning_names_only_causes_seen(self, band, causes):
        # the numeric backend has no resonance floor, and at resonant qubits
        # 4,4,4 levels label no point of the symmetric device; its coupler
        # reaches at most 6.041 GHz
        builder = device_flux_builder(SYMMETRIC_DEVICE, resonant=True)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            found = find_zero_zz(builder, band, backend="numeric", levels=(4, 4, 4),
                                 prescan_points=40)
        assert found == []
        lo, hi = (f"{x:.6g}" for x in band)
        assert str(seen[0].message) == f"every prescan point in [{lo}, {hi}] {causes}"
        assert all(w.filename == __file__ for w in seen)
        assert all("resonance pole" not in str(w.message) for w in seen)

    def test_some_poles_do_not_warn(self):
        builder = frequency_sweep_builder(design_model(FLOATING_DESIGN_RATES_SYMMETRIC))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_zero_g(builder, (2.8, 4.6)) == pytest.approx(3.5288, abs=2e-3)


def per_interval_refine(f, xs, ys):
    """The bracket scan as a Python loop over every prescan interval: the
    reference the array pass of ``_refine_brackets`` must reproduce.  Brent
    takes each bracket's ends from the prescan and evaluates no point twice."""
    values = {}

    def once(x):
        if x not in values:
            values[x] = f(x)
        return values[x]

    roots = []
    for i in range(len(xs) - 1):
        ya, yb = ys[i], ys[i + 1]
        if not (np.isfinite(ya) and np.isfinite(yb)):
            continue
        if ya == 0.0:
            prev = ys[i - 1] if i > 0 else yb
            if (np.isfinite(prev) and prev != 0.0) or yb != 0.0:
                roots.append(float(xs[i]))
            continue
        if yb == 0.0 or np.sign(ya) == np.sign(yb):
            continue
        values[xs[i]], values[xs[i + 1]] = ya, yb
        try:
            root = brentq(once, xs[i], xs[i + 1], xtol=ROOT_TOLERANCE)
            value = once(root)
        except (ResonanceError, FluxDomainError, LabelingError):
            continue
        if abs(value) <= min(abs(ya), abs(yb)):
            roots.append(float(root))
    if (
        len(xs) > 1
        and np.isfinite(ys[-1])
        and ys[-1] == 0.0
        and np.isfinite(ys[-2])
        and ys[-2] != 0.0
    ):
        roots.append(float(xs[-1]))
    return roots


def recorded_curve(xs, ys, kinds):
    """A function through the prescan points and the list of its arguments.

    Between points i and i + 1 it is linear (``kinds[i] == "line"``), has a
    pole where it changes sign (``"pole"``), raises ResonanceError
    (``"raises"``) or raises LabelingError (``"unlabeled"``).
    """
    calls = []
    at_grid = dict(zip(xs.tolist(), ys.tolist()))

    def f(x):
        calls.append(float(x).hex())
        if x in at_grid:
            return at_grid[x]
        i = int(np.searchsorted(xs, x)) - 1
        ya, yb = ys[i], ys[i + 1]
        t = (x - xs[i]) / (xs[i + 1] - xs[i])
        if kinds[i] == "line":
            return ya + (yb - ya) * t
        if kinds[i] == "unlabeled":
            raise LabelingError("bare state (1, 0, 1) is ambiguous")
        if kinds[i] == "raises" or t == 0.5:
            raise ResonanceError("Delta", 0.0, 1e-3)
        return ya * 0.5 / (0.5 - t)  # ya at the left end, -ya at the right

    return f, calls


PRESCAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-200, -1e-200]),
    st.floats(-10.0, 10.0),
)


@st.composite
def prescans(draw):
    """Prescan values built from runs (NaN runs, zero runs, ...) and the
    kind of curve inside each interval."""
    runs = draw(st.lists(
        st.tuples(PRESCAN_VALUES, st.integers(1, 3)), min_size=1, max_size=8
    ))
    ys = [v for v, n in runs for _ in range(n)]
    kinds = draw(st.lists(
        st.sampled_from(["line", "pole", "raises", "unlabeled"]),
        min_size=len(ys), max_size=len(ys),
    ))
    return ys, kinds


@settings(max_examples=400, deadline=None)
@given(prescans())
@example(([0.0], ["line"]))
@example(([-0.0, 1.0], ["line"] * 2))
@example(([1.0, -0.0], ["line"] * 2))
@example(([1e-200, -1e-200], ["line"] * 2))
@example(([1e-200, -1e-200], ["pole"] * 2))
@example(([0.0, 0.0, 0.0], ["line"] * 3))
@example(([math.nan, 0.0, 1.0], ["line"] * 3))
@example(([2.0, -1.0, 0.0], ["pole", "line", "line"]))
@example(([math.nan, math.nan, 0.0], ["line"] * 3))
def test_refine_brackets_matches_per_interval_scan(scan):
    ys, kinds = np.array(scan[0]), scan[1]
    xs = 4.0 + 0.25 * np.arange(len(ys))
    want_f, want_calls = recorded_curve(xs, ys, kinds)
    got_f, got_calls = recorded_curve(xs, ys, kinds)
    want = per_interval_refine(want_f, xs, ys)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no numpy warning
        got = _refine_brackets(got_f, xs, ys)
    assert [r.hex() for r in got] == [r.hex() for r in want]
    assert got_calls == want_calls
    assert not set(got_calls) & {x.hex() for x in xs.tolist()}
