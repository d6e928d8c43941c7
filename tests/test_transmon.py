import math

import numpy as np
import pytest

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
    zpf_from_energies,
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


class TestZpf:
    def test_product_is_half(self):
        for e_c, e_j in ((0.2, 10.0), (0.15, 30.0), (0.3, 6.1)):
            n_zpf, phi_zpf = zpf_from_energies(e_c, e_j)
            assert n_zpf * phi_zpf == pytest.approx(0.5, rel=1e-12)

    def test_ratio_50(self):
        n_zpf, _ = zpf_from_energies(1.0, 50.0)
        assert n_zpf == pytest.approx((50.0 / 8.0) ** 0.25 / math.sqrt(2), rel=1e-12)
        assert n_zpf == pytest.approx(1.1180, abs=1e-4)

    def test_ratio_8(self):
        n_zpf, phi_zpf = zpf_from_energies(1.0, 8.0)
        assert n_zpf == pytest.approx(1.0 / math.sqrt(2), rel=1e-12)
        assert phi_zpf == pytest.approx(1.0 / math.sqrt(2), rel=1e-12)

    def test_through_params(self):
        p = make_transmon(0.2, 12.0)
        n_zpf, phi_zpf = zpf_from_energies(p.e_c, ej_of_flux(p.squid, 0.0))
        assert n_zpf * phi_zpf == pytest.approx(0.5, rel=1e-12)


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
        # the rate formula written out in its original operation order
        def rate(e_jk, eca, eja, ecb, ejb):
            g = e_jk / math.sqrt(2.0) * ((eja / eca) * (ejb / ecb)) ** 0.25
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

    def test_vanishing_ej_rejected(self):
        with pytest.raises(FluxDomainError):
            tune_coupler(self.BASE, 0.175, 28.0, 0.0)

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
