import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from couplerkit import FluxDomainError, SquidParams, ej_of_flux, flux_for_ej, \
    phase_from_flux_ratio, phi0_of_flux

ASYM = SquidParams(ej_large=12.0, ej_small=8.0)

squids = st.builds(
    lambda total, d: SquidParams.from_sum_asymmetry(total, d),
    st.floats(1.0, 60.0),
    st.floats(0.0, 0.95),
)
phases = st.floats(-50.0, 50.0)


class TestConstruction:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            SquidParams(ej_large=5.0, ej_small=9.0)
        with pytest.raises(ValueError):
            SquidParams(ej_large=5.0, ej_small=0.0)

    def test_sum_asymmetry_round_trip(self):
        p = SquidParams.from_sum_asymmetry(20.0, 0.2)
        assert p.ej_sum == pytest.approx(20.0)
        assert p.asymmetry == pytest.approx(0.2)
        assert p.ej_large == pytest.approx(12.0)
        assert p.ej_small == pytest.approx(8.0)

    def test_asymmetry_range(self):
        with pytest.raises(ValueError):
            SquidParams.from_sum_asymmetry(20.0, 1.0)
        with pytest.raises(ValueError):
            SquidParams.from_sum_asymmetry(20.0, -0.1)


class TestEjOfFlux:
    def test_zero_flux_is_sum(self):
        assert ej_of_flux(ASYM, 0.0) == pytest.approx(20.0)

    def test_symmetric_squid_vanishes_at_pi(self):
        sym = SquidParams(10.0, 10.0)
        assert ej_of_flux(sym, math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_period_value(self):
        # sqrt(144 + 64) = sqrt(208)
        assert ej_of_flux(ASYM, math.pi / 2) == pytest.approx(
            math.sqrt(208.0), rel=1e-12
        )

    def test_flux_ratio_conversion(self):
        assert phase_from_flux_ratio(0.5) == pytest.approx(math.pi)


class TestPhi0:
    def test_zero_at_zero_flux(self):
        assert phi0_of_flux(ASYM, 0.0) == 0.0

    def test_symmetric_squid_always_zero(self):
        sym = SquidParams(7.0, 7.0)
        for phi in np.linspace(-6, 6, 25):
            assert phi0_of_flux(sym, phi) == 0.0

    def test_quarter_period_value(self):
        # atan(-0.2 * tan(pi/4)) = atan(-0.2)
        assert phi0_of_flux(ASYM, math.pi / 2) == pytest.approx(
            math.atan(-0.2), rel=1e-12
        )

    def test_continuous_inside_principal_interval(self):
        # a branch jump would show as a ~pi/2 step; smooth slope stays small
        phis = np.linspace(-math.pi + 1e-6, math.pi - 1e-6, 4001)
        vals = np.array([phi0_of_flux(ASYM, p) for p in phis])
        assert np.max(np.abs(np.diff(vals))) < 0.01

    def test_continuous_through_pi(self):
        phis = np.linspace(math.pi - 0.2, math.pi + 0.2, 801)
        vals = np.array([phi0_of_flux(ASYM, p) for p in phis])
        assert np.max(np.abs(np.diff(vals))) < 1e-2


class TestFluxForEj:
    def test_round_trip(self):
        for phi in (0.0, 0.7, 2.2, math.pi):
            ej = ej_of_flux(ASYM, phi)
            assert flux_for_ej(ASYM, ej) == pytest.approx(phi, abs=1e-9)

    def test_out_of_range(self):
        with pytest.raises(FluxDomainError):
            flux_for_ej(ASYM, 25.0)
        with pytest.raises(FluxDomainError):
            flux_for_ej(ASYM, 1.0)


@settings(max_examples=200, deadline=None)
@given(p=squids, phi=phases)
def test_periodicity_and_evenness(p, phi):
    two_pi = 2.0 * math.pi
    assert ej_of_flux(p, phi) == pytest.approx(
        ej_of_flux(p, phi + two_pi), abs=1e-9
    )
    assert ej_of_flux(p, phi) == pytest.approx(ej_of_flux(p, -phi), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(p=squids, phi=phases)
def test_ej_bounds(p, phi):
    ej = ej_of_flux(p, phi)
    lo, hi = p.ej_large - p.ej_small, p.ej_sum
    assert lo - 1e-9 <= ej <= hi + 1e-9


def test_ej_bounds_bulk():
    # dense random check of the SQUID energy bounds
    rng = np.random.default_rng(7)
    phi = rng.uniform(-30, 30, size=10**6)
    ejl, ejs = 13.0, 6.5
    ej = np.sqrt(ejs**2 + ejl**2 + 2 * ejs * ejl * np.cos(phi))
    assert np.all(ej >= ejl - ejs - 1e-9)
    assert np.all(ej <= ejl + ejs + 1e-9)
    for p in phi[:50]:
        assert ej_of_flux(SquidParams(ejl, ejs), p) == pytest.approx(
            math.sqrt(ejs**2 + ejl**2 + 2 * ejs * ejl * math.cos(p)), rel=1e-12
        )
