import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from couplerkit import (
    FluxDomainError,
    ModeEnergies,
    SquidParams,
    SystemModel,
    TransmonParams,
    TransmonRole,
    anharmonicity_from_energies,
    coupling_rates,
    ej_for_frequency,
    ej_of_flux,
    frequency_from_energies,
    system_model,
    tune_coupler,
)
from couplerkit.presets import ASYMMETRIC_DEVICE, SYMMETRIC_DEVICE, device_flux_builder


def charge_basis_f01(e_c: float, e_j: float, ncut: int = 40) -> float:
    """Independent oracle: 01 transition from exact charge-basis diagonalization."""
    n = np.arange(-ncut, ncut + 1)
    h = np.diag(4.0 * e_c * n**2) - 0.5 * e_j * (
        np.eye(2 * ncut + 1, k=1) + np.eye(2 * ncut + 1, k=-1)
    )
    evals = np.linalg.eigvalsh(h)
    return evals[1] - evals[0]


def make_transmon(e_c, e_j_sum, role=TransmonRole.QUBIT_1, d=0.0):
    return TransmonParams(
        e_c=e_c, squid=SquidParams.from_sum_asymmetry(e_j_sum, d), role=role
    )


class TestFrequency:
    def test_direct_evaluation_fixture(self):
        # sqrt(8*18*0.192) - 0.192*(1 + sqrt(2*0.192/18)/4)
        f = frequency_from_energies(0.192, 18.0)
        assert f == pytest.approx(5.0594, abs=5e-4)

    def test_against_charge_basis_oracle(self):
        for e_c, e_j in ((0.192, 18.0), (0.184, 11.2), (0.175, 27.6), (0.2, 10.0)):
            approx = frequency_from_energies(e_c, e_j)
            exact = charge_basis_f01(e_c, e_j)
            assert abs(approx - exact) / exact < 0.01

    def test_monotone_in_ej(self):
        freqs = [frequency_from_energies(0.19, ej) for ej in np.linspace(5, 40, 30)]
        assert all(b > a for a, b in zip(freqs, freqs[1:]))

    def test_small_ec_limit(self):
        # omega -> sqrt(8 EJ EC) -> 0 as EC -> 0
        f = frequency_from_energies(1e-8, 18.0)
        assert f == pytest.approx(math.sqrt(8 * 18.0 * 1e-8), rel=1e-3)

    def test_zero_ej_rejected(self):
        with pytest.raises(FluxDomainError):
            frequency_from_energies(0.2, 0.0)

    def test_flux_dependence_through_squid(self):
        p = make_transmon(0.18, 25.0, d=0.3)
        assert frequency_from_energies(p.e_c, ej_of_flux(p.squid, 0.0)) > (
            frequency_from_energies(p.e_c, ej_of_flux(p.squid, math.pi / 2))
        )

    def test_ej_for_frequency_round_trip(self):
        for target in (3.5, 4.58, 6.526):
            ej = ej_for_frequency(0.18, target)
            assert frequency_from_energies(0.18, ej) == pytest.approx(
                target, abs=1e-10
            )

    def test_fixture_device_max_frequency(self):
        # a fitted (EC, EJ_sum) pair reproducing a 6.526 GHz coupler sweet spot
        e_c = 0.17666
        ej = ej_for_frequency(e_c, 6.526)
        p = make_transmon(e_c, ej, role=TransmonRole.COUPLER)
        assert frequency_from_energies(p.e_c, ej_of_flux(p.squid, 0.0)) == pytest.approx(
            6.526, abs=1e-9
        )


def newton_ej_for_frequency(e_c, omega):
    """Newton's method on frequency_from_energies: an independent oracle for
    the closed form."""
    e_j = (omega + e_c) ** 2 / (8.0 * e_c)
    for _ in range(100):
        f = frequency_from_energies(e_c, e_j) - omega
        step = f / math.sqrt(2.0 * e_c / e_j)  # d omega / d EJ without the xi term
        e_j -= step
        if abs(step) < 1e-14 * e_j:
            break
    return e_j


CHARGING = st.floats(0.05, 0.5)
FREQUENCY = st.floats(0.5, 12.0)


class TestEjForFrequency:
    @settings(max_examples=300, deadline=None)
    @given(e_c=CHARGING, omega=FREQUENCY)
    def test_matches_newton_and_round_trips(self, e_c, omega):
        ej = ej_for_frequency(e_c, omega)
        assert abs(ej - newton_ej_for_frequency(e_c, omega)) <= 4e-15 * ej
        assert abs(frequency_from_energies(e_c, ej) - omega) <= 4e-15 * omega
        assert float(ej_for_frequency(e_c, np.array([omega]))[0]).hex() == ej.hex()

    @pytest.mark.parametrize("e_c", [0.0, -0.2, math.nan])
    @pytest.mark.parametrize("omega", [5.0, np.array([4.0, 5.0])])
    def test_non_positive_charging_energy(self, e_c, omega):
        with pytest.raises(ValueError, match="e_c must be positive"):
            ej_for_frequency(e_c, omega)

    @pytest.mark.parametrize("omega, shown", [
        (0.0, "0.0"), (-1.0, "-1.0"), (math.nan, "nan"), (np.array([4.0, -1.0, 0.0]), "-1.0"),
    ])
    def test_non_positive_frequency(self, omega, shown):
        with pytest.raises(ValueError, match=f"^omega must be positive, got {shown}$"):
            ej_for_frequency(0.2, omega)

    def test_nan_entry_of_an_array_is_nan(self):
        ej = ej_for_frequency(0.2, np.array([4.0, math.nan]))
        assert ej[0] == ej_for_frequency(0.2, 4.0) and math.isnan(ej[1])


class TestTransmonParams:
    def test_low_ratio_warns(self):
        with pytest.warns(UserWarning, match="EJ/EC"):
            make_transmon(1.0, 10.0)

    def test_positive_ec_required(self):
        with pytest.raises(ValueError):
            TransmonParams(
                e_c=0.0,
                squid=SquidParams(10.0, 8.0),
                role=TransmonRole.QUBIT_1,
            )


def three_transmons():
    q1 = make_transmon(0.184, ej_for_frequency(0.184, 4.58), TransmonRole.QUBIT_1)
    q2 = make_transmon(0.184, ej_for_frequency(0.184, 4.64), TransmonRole.QUBIT_2)
    c = make_transmon(0.175, ej_for_frequency(0.175, 4.0), TransmonRole.COUPLER)
    return q1, q2, c


class TestCouplingRates:
    def test_zero_energy_zero_rate(self):
        e = ModeEnergies(ec1=0.184, ec2=0.184, ecc=0.175, e12=0.0, e1c=0.0,
                         e2c=-0.013)
        g1c, g2c, g12 = coupling_rates(e, *three_transmons())
        assert g1c == 0.0
        assert g12 == 0.0
        assert g2c < 0

    def test_signs_inherited_from_energies(self):
        e = ModeEnergies(ec1=0.184, ec2=0.184, ecc=0.175, e12=-0.002,
                         e1c=-0.013, e2c=0.013)
        g1c, g2c, g12 = coupling_rates(e, *three_transmons())
        assert g1c < 0 and g2c > 0 and g12 < 0

    def test_quarter_power_scaling_in_coupler_ej(self):
        e = ModeEnergies(ec1=0.184, ec2=0.184, ecc=0.175, e12=-0.002,
                         e1c=-0.013, e2c=-0.013)
        q1, q2, c = three_transmons()
        c2 = TransmonParams(
            e_c=c.e_c,
            squid=SquidParams.from_sum_asymmetry(2.0 * c.squid.ej_sum, 0.0),
            role=TransmonRole.COUPLER,
        )
        g_a = coupling_rates(e, q1, q2, c)
        g_b = coupling_rates(e, q1, q2, c2)

        def xi(t):  # at zero flux the SQUID energy is its sum
            return math.sqrt(2.0 * t.e_c / t.squid.ej_sum)

        for k, q in ((0, q1), (1, q2)):
            ratio = 2.0**0.25 * (1.0 - (xi(q) + xi(c2)) / 8.0) / (1.0 - (xi(q) + xi(c)) / 8.0)
            assert g_b[k] / g_a[k] == pytest.approx(ratio, rel=1e-12)
        assert g_b[2] == pytest.approx(g_a[2], rel=1e-12)  # g12 untouched


class TestSystemModel:
    def test_assembly_fields(self):
        e = ModeEnergies(ec1=0.184, ec2=0.184, ecc=0.175, e12=-0.0012,
                         e1c=-0.0132, e2c=-0.0132)
        m = system_model(e, *three_transmons())
        assert m.omega1 == pytest.approx(4.58, abs=1e-9)
        assert m.omega2 == pytest.approx(4.64, abs=1e-9)
        assert m.omegac == pytest.approx(4.0, abs=1e-9)
        assert m.eta1 == pytest.approx(
            anharmonicity_from_energies(0.184, ej_for_frequency(0.184, 4.58))
        )
        assert m.g1c < 0 and m.g2c < 0 and m.g12 < 0

    def test_swapped_qubits(self):
        e = ModeEnergies(ec1=0.184, ec2=0.184, ecc=0.175, e12=-0.0012,
                         e1c=-0.0132, e2c=0.0132)
        m = system_model(e, *three_transmons())
        s = m.swapped_qubits()
        assert (s.omega1, s.omega2) == (m.omega2, m.omega1)
        assert (s.g1c, s.g2c) == (m.g2c, m.g1c)
        assert s.omegac == m.omegac and s.g12 == m.g12

    MODEL = dict(omega1=4.58, omega2=4.64, omegac=4.0, eta1=0.23, eta2=0.233,
                 etac=0.19, g1c=-0.085, g2c=0.098, g12=-5.8e-3)

    @pytest.mark.parametrize("name", ["g1c", "g2c", "g12"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_float_rate_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            SystemModel(**{**self.MODEL, name: value})

    def test_float_fields_are_checked_in_order(self):
        with pytest.raises(ValueError, match="^etac must be positive, got 0.0$"):
            SystemModel(**{**self.MODEL, "etac": 0.0, "g1c": math.inf})
        with pytest.raises(ValueError, match="^g2c must be finite, got inf$"):
            SystemModel(**{**self.MODEL, "g2c": math.inf, "g12": math.nan})

    def test_array_infinite_rate_names_the_first_such_point(self):
        # point 1 is NaN, so its infinite g2c is not looked at; point 2's g12
        # comes before point 3's g1c and the non-positive omega1 of point 4
        g1c = np.array([-0.085, -0.085, -0.085, math.inf, -0.085])
        g2c = np.array([0.098, math.inf, 0.098, 0.098, 0.098])
        g12 = np.array([-5.8e-3, math.nan, -math.inf, -5.8e-3, -5.8e-3])
        omega1 = np.array([4.58, 4.58, 4.58, 4.58, 0.0])
        points = {**self.MODEL, "omega1": omega1, "g1c": g1c, "g2c": g2c, "g12": g12}
        with pytest.raises(ValueError, match="^g12 must be finite, got -inf$"):
            SystemModel(**points)
        with pytest.raises(ValueError, match="^g1c must be finite, got inf$"):
            SystemModel(**{**points, "g12": g12[[0, 1, 0, 0, 0]]})
        m = SystemModel(**{**points, "g1c": g1c[[0, 1, 2, 0, 4]], "g12": g12[[0, 1, 0, 0, 0]],
                           "omega1": omega1[:4].repeat([1, 1, 1, 2])})
        assert np.isnan(m.g2c[1]) and np.isnan(m.omega1[1])
        assert np.isfinite(m.g2c[[0, 2, 3, 4]]).all()

    def test_each_squid_energy_evaluated_once(self, monkeypatch):
        from couplerkit import transmon

        calls = []

        def counting(p, phi_e):
            calls.append(phi_e)
            return ej_of_flux(p, phi_e)

        monkeypatch.setattr(transmon, "ej_of_flux", counting)
        e = ModeEnergies(ec1=0.184, ec2=0.184, ecc=0.175, e12=-0.0012,
                         e1c=-0.0132, e2c=0.0132)
        system_model(e, *three_transmons(), 0.1, 0.2, 0.3)
        assert len(calls) == 3

    def test_matches_rate_formula_bit_for_bit(self):
        # the rate formula written out, the quarter power as two square roots
        def rate(e_jk, eca, eja, ecb, ejb):
            g = e_jk / math.sqrt(2.0) * math.sqrt(math.sqrt((eja / eca) * (ejb / ecb)))
            xa = math.sqrt(2.0 * eca / eja)
            xb = math.sqrt(2.0 * ecb / ejb)
            return g * (1.0 - (xa + xb) / 8.0)

        e = ModeEnergies(ec1=0.184, ec2=0.19, ecc=0.175, e12=-0.0012,
                         e1c=-0.0132, e2c=0.0141)
        q1 = make_transmon(0.184, 19.0, TransmonRole.QUBIT_1, d=0.3)
        q2 = make_transmon(0.19, 18.0, TransmonRole.QUBIT_2, d=0.1)
        c = make_transmon(0.175, 40.0, TransmonRole.COUPLER, d=0.2)
        for phi1, phi2, phic in zip(np.linspace(0.0, 3.0, 13),
                                    np.linspace(0.5, -2.0, 13),
                                    np.linspace(-1.0, 3.1, 13)):
            ej1 = ej_of_flux(q1.squid, phi1)
            ej2 = ej_of_flux(q2.squid, phi2)
            ejc = ej_of_flux(c.squid, phic)
            want = (
                frequency_from_energies(q1.e_c, ej1),
                frequency_from_energies(q2.e_c, ej2),
                frequency_from_energies(c.e_c, ejc),
                anharmonicity_from_energies(q1.e_c, ej1),
                anharmonicity_from_energies(q2.e_c, ej2),
                anharmonicity_from_energies(c.e_c, ejc),
                rate(e.e1c, q1.e_c, ej1, c.e_c, ejc),
                rate(e.e2c, q2.e_c, ej2, c.e_c, ejc),
                rate(e.e12, q1.e_c, ej1, q2.e_c, ej2),
            )
            m = system_model(e, q1, q2, c, phi1, phi2, phic)
            got = (m.omega1, m.omega2, m.omegac, m.eta1, m.eta2, m.etac,
                   m.g1c, m.g2c, m.g12)
            assert [x.hex() for x in got] == [float(x).hex() for x in want]
            assert coupling_rates(e, q1, q2, c, phi1, phi2, phic) == got[6:]

    # a symmetric SQUID this close to half a flux quantum leaves so small an EJ
    # that the transmon formula gives a negative frequency
    NEAR_HALF_FLUX = 2.0 * math.pi * 0.4999
    ENERGIES = ModeEnergies(ec1=0.184, ec2=0.184, ecc=0.175, e12=-0.0012,
                            e1c=-0.0132, e2c=0.0132)

    def test_negative_coupler_frequency_is_outside_the_flux_domain(self):
        with pytest.raises(FluxDomainError, match="^coupler frequency must be positive"):
            system_model(self.ENERGIES, *three_transmons(), phi_ec=self.NEAR_HALF_FLUX)
        m = system_model(self.ENERGIES, *three_transmons(),
                         phi_ec=np.array([0.0, self.NEAR_HALF_FLUX]))
        assert m.omegac[0] == system_model(self.ENERGIES, *three_transmons()).omegac
        assert np.isnan([getattr(m, f.name)[1] for f in fields(m)]).all()

    @pytest.mark.parametrize("array", [False, True])
    def test_negative_qubit_frequency_is_an_input_error(self, array):
        phi = np.array([0.0, self.NEAR_HALF_FLUX]) if array else self.NEAR_HALF_FLUX
        with pytest.raises(ValueError, match="^omega1 must be positive"):
            system_model(self.ENERGIES, *three_transmons(), phi_e1=phi)


class TestNegativeChargingEnergy:
    """A negative e_c is a ValueError on both paths: ``math.sqrt`` raises it on
    a float, and an array raises it once an entry gets that far."""

    BASE = SystemModel(
        omega1=4.58, omega2=4.64, omegac=6.0, eta1=0.23, eta2=0.233,
        etac=0.19, g1c=-0.085, g2c=0.098, g12=-5.8e-3,
    )
    CALLS = {
        "frequency": frequency_from_energies,
        "anharmonicity": anharmonicity_from_energies,
        "tune_coupler": lambda e_c, ej: tune_coupler(TestNegativeChargingEnergy.BASE, e_c, 28.0, ej),
    }

    @pytest.mark.parametrize("call", CALLS)
    def test_float_and_array_raise_alike(self, call):
        f = self.CALLS[call]
        with pytest.raises(ValueError, match="^math domain error$"):
            f(-0.2, 18.0)
        with pytest.raises(ValueError, match="^math domain error$"):
            f(-0.2, np.array([0.0, 18.0]))

    @pytest.mark.parametrize("call", CALLS)
    def test_no_positive_energy_is_outside_the_flux_domain(self, call):
        f = self.CALLS[call]
        with pytest.raises(FluxDomainError, match="^Josephson energy must be positive, got 0.0$"):
            f(-0.2, 0.0)
        value = f(-0.2, np.array([0.0, -1.0]))
        values = [getattr(value, n) for n in FIELD_NAMES] if call == "tune_coupler" else [value]
        assert np.isnan(values).all()


class TestDomainHelperCalls:
    """Each mode's Josephson energy goes through ``transmon._checked_ej`` once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from couplerkit import transmon

        seen = []
        checked_ej = transmon._checked_ej

        def counting(e_c, e_j):
            seen.append(e_c)
            return checked_ej(e_c, e_j)

        monkeypatch.setattr(transmon, "_checked_ej", counting)
        return seen

    def test_array_system_model(self, calls):
        e = ModeEnergies(ec1=0.184, ec2=0.184, ecc=0.175, e12=-0.0012,
                         e1c=-0.0132, e2c=0.0132)
        m = system_model(e, *three_transmons(), phi_ec=np.linspace(0.0, 0.4, 5))
        assert m.omegac.shape == (5,)
        assert calls == [0.184, 0.184, 0.175]

    def test_array_tune_coupler(self, calls):
        m = tune_coupler(TestNegativeChargingEnergy.BASE, 0.175, 28.0, np.linspace(5.0, 28.0, 5))
        assert m.omegac.shape == (5,)
        assert calls == [0.175]


FIELD_NAMES = [f.name for f in fields(SystemModel)]
FIELD_VALUES = st.one_of(
    st.floats(0.01, 10.0),
    st.sampled_from([math.nan, 0.0, -0.0, -1.5, math.inf, -math.inf]),
)


@st.composite
def field_inputs(draw):
    """Nine SystemModel fields, each a Python float or int, an np.float64, a
    0-d array or a 1-d array (float or int) of a shared, broadcastable or
    mismatched length; at least one field is an array."""
    length = draw(st.integers(0, 4))
    values = []
    for _ in FIELD_NAMES:
        kind = draw(st.sampled_from(["float", "int", "float64", "0-d", "1-d", "1-d int"]))
        if kind == "int":
            values.append(draw(st.integers(-1, 5)))
        elif kind.startswith("1-d"):
            n = draw(st.sampled_from([length, length, length, 1, length + 1]))
            column = draw(st.lists(FIELD_VALUES, min_size=n, max_size=n))
            if kind == "1-d int":
                column = [int(v) if math.isfinite(v) else 2 for v in column]
            values.append(np.array(column, dtype=float if kind == "1-d" else int))
        else:
            value = draw(FIELD_VALUES)
            values.append({"float": float, "float64": np.float64, "0-d": np.array}[kind](value))
    if not any(type(v) is np.ndarray for v in values):
        values[2] = np.array(values[2], dtype=float)
    return values


def broadcast_model_fields(values):
    """The normalization of an array SystemModel, written out point by point:
    ``np.broadcast_arrays`` of the fields, NaN at every point with a NaN
    field, and a ValueError naming the first non-positive field of the first
    such point, or the first infinite coupling rate.  Raises numpy's
    ValueError when the shapes do not broadcast."""
    table = np.array(np.broadcast_arrays(*values), dtype=float)
    table[:, np.isnan(table).any(axis=0)] = np.nan
    columns = table.reshape(len(values), -1)
    for point in range(columns.shape[1]):
        for field in range(9):
            value = columns[field, point]
            if field < 6 and value <= 0:
                raise ValueError(f"{FIELD_NAMES[field]} must be positive, got {value}")
            if field >= 6 and np.isinf(value):
                raise ValueError(f"{FIELD_NAMES[field]} must be finite, got {value}")
    return list(table)


@settings(max_examples=400, deadline=None)
@given(field_inputs())
# a non-positive 0-d field used to fail unpacking its (point, field) pair
@example([1.0, 1.0, np.array(1.0), 1.0, 1.0, 0, 1.0, 1.0, 1.0])
@example([np.array([4.0, math.nan, 4.0]), 4.6, np.array([6.0, 6.0, -1.0]), *[0.2] * 6])
@example([np.ones(2), *[1.0] * 7, np.ones(3)])
def test_array_model_matches_broadcast_normalization(values):
    try:
        np.broadcast_shapes(*map(np.shape, values))
    except ValueError:
        with pytest.raises(ValueError):
            SystemModel(*values)
        return
    try:
        want = broadcast_model_fields(values)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            SystemModel(*values)
        assert str(err.value) == str(exc)
        return
    m = SystemModel(*values)
    for name, column in zip(FIELD_NAMES, want):
        got = getattr(m, name)
        assert type(got) is type(column), name
        assert np.shape(got) == np.shape(column), name
        assert np.asarray(got).tobytes() == np.asarray(column).tobytes(), name


class TestTuneCoupler:
    BASE = SystemModel(
        omega1=4.58, omega2=4.64, omegac=6.0, eta1=0.23, eta2=0.233,
        etac=0.19, g1c=-0.085, g2c=0.098, g12=-5.8e-3,
    )

    def test_untuned_keeps_rates(self):
        m = tune_coupler(self.BASE, 0.175, 28.0, 28.0)
        assert (m.g1c, m.g2c, m.g12) == (self.BASE.g1c, self.BASE.g2c, self.BASE.g12)
        assert m.omegac == frequency_from_energies(0.175, 28.0)
        assert m.etac == anharmonicity_from_energies(0.175, 28.0)

    @pytest.mark.parametrize("ej", [2.0, 9.5, 27.0])
    def test_rates_scale_by_quarter_power(self, ej):
        m = tune_coupler(self.BASE, 0.175, 28.0, ej)
        scale = (ej / 28.0) ** 0.25
        assert m.g1c == pytest.approx(self.BASE.g1c * scale, rel=1e-15)
        assert m.g2c == pytest.approx(self.BASE.g2c * scale, rel=1e-15)
        assert (m.omega1, m.omega2, m.eta1, m.eta2, m.g12) == (
            self.BASE.omega1, self.BASE.omega2, self.BASE.eta1, self.BASE.eta2,
            self.BASE.g12,
        )
        assert m.omegac == frequency_from_energies(0.175, ej)

    def test_half_flux_quantum_of_asymmetric_squid(self):
        # EJ falls from 12 + 8 to 12 - 8 GHz at phi = pi: rates scale by 5^(-1/4)
        squid = SquidParams(ej_large=12.0, ej_small=8.0)
        m = tune_coupler(self.BASE, 0.175, ej_of_flux(squid, 0.0), ej_of_flux(squid, math.pi))
        assert m.g1c == pytest.approx(self.BASE.g1c * 5.0**-0.25, rel=1e-12)
        assert m.g2c == pytest.approx(self.BASE.g2c * 5.0**-0.25, rel=1e-12)

    def test_vanishing_ej_rejected(self):
        with pytest.raises(FluxDomainError):
            tune_coupler(self.BASE, 0.175, 28.0, 0.0)

    def test_negative_coupler_frequency_rejected(self):
        assert frequency_from_energies(0.175, 0.05) < 0
        with pytest.raises(FluxDomainError, match="^coupler frequency must be positive"):
            tune_coupler(self.BASE, 0.175, 28.0, 0.05)
        m = tune_coupler(self.BASE, 0.175, 28.0, np.array([9.5, 0.05]))
        assert m.omegac[0] == frequency_from_energies(0.175, 9.5)
        assert np.isnan([getattr(m, f.name)[1] for f in fields(m)]).all()

    @pytest.mark.parametrize("ej_max", [0.0, -28.0])
    @pytest.mark.parametrize("ej", [9.5, np.array([2.0, 9.5])])
    def test_non_positive_ej_max_rejected(self, ej_max, ej):
        with pytest.raises(ValueError, match=f"^ej_max must be positive, got {ej_max}$"):
            tune_coupler(self.BASE, 0.175, ej_max, ej)

    @pytest.mark.parametrize("device", [SYMMETRIC_DEVICE, ASYMMETRIC_DEVICE])
    @pytest.mark.parametrize("resonant", [True, False])
    def test_device_flux_builder_is_tune_coupler(self, device, resonant):
        build = device_flux_builder(device, resonant)
        zero_flux = build(device.omegac_max)
        assert zero_flux.g1c * zero_flux.g2c == pytest.approx(device.g1c_g2c, rel=1e-12)
        ej_max = device.coupler_squid.ej_sum
        for wc in np.linspace(device.omegac_max - 3.0, device.omegac_max, 7):
            ej = ej_for_frequency(device.coupler_ec, wc)
            assert build(wc) == tune_coupler(zero_flux, device.coupler_ec, ej_max, ej)
