import math
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest

from couplerkit import fitkit, presets
from couplerkit import (
    CouplerFluxModel,
    GFluxDataset,
    NetlistError,
    UnderdeterminedFitError,
    ej_for_frequency,
    ej_of_flux,
    fit_g_vs_flux,
    frequency_from_energies,
    g_net,
    model_g_mhz,
    synth_g_dataset,
)

# a characterized-device-like parameter set: coupler sweet spot at 6.526 GHz,
# junction-symmetric SQUID, negative product (opposite-sign couplings)
EC_C = 0.17666
TRUE = CouplerFluxModel(
    g12_mhz=-9.4,
    g1c_g2c_mhz2=-(131.6**2),
    coupler_ec_ghz=EC_C,
    coupler_ej_sum_ghz=ej_for_frequency(EC_C, 6.526),
    coupler_asymmetry=0.0,
)
W1, W2 = 3.449, 3.449
PHI = np.linspace(0.0, 0.42 * 2 * math.pi, 25)


def true_dataset(noise=0.0, seed=0, with_signs=True, rows=len(PHI), mixed=False):
    """Synthetic data from TRUE over PHI's range; ``mixed`` drops the sign of
    every third row."""
    phi = np.linspace(0.0, 0.42 * 2 * math.pi, rows)
    data = synth_g_dataset(TRUE, phi, W1, W2, noise_sigma_mhz=noise, seed=seed,
                           with_signs=with_signs)
    if mixed:
        sign = data.sign.copy()
        sign[::3] = 0.0
        data = replace(data, sign=sign)
    return data


def with_half_flux_row(data, w=W1):
    """``data`` with one more signed row at Phi/Phi0 = 0.5, where a
    junction-symmetric coupler SQUID has no Josephson energy."""
    return GFluxDataset(
        phi=np.append(data.phi, math.pi), g_mhz=np.append(data.g_mhz, data.g_mhz[-1]),
        sign=np.append(data.sign, -1.0), omega1_ghz=np.append(data.omega1_ghz, w),
        omega2_ghz=np.append(data.omega2_ghz, w),
    )


def count_model_calls(monkeypatch) -> list[int]:
    """A one-item list that counts the fit's calls of ``model_g_mhz``."""
    calls = [0]
    model = fitkit.model_g_mhz

    def counted(*args):
        calls[0] += 1
        return model(*args)

    monkeypatch.setattr(fitkit, "model_g_mhz", counted)
    return calls


class TestDataset:
    def test_requires_six_rows(self):
        with pytest.raises(ValueError, match="6 rows"):
            GFluxDataset(
                phi=np.arange(5.0), g_mhz=np.ones(5), sign=np.zeros(5),
                omega1_ghz=np.full(5, 4.0), omega2_ghz=np.full(5, 4.0),
            )

    def test_distinct_flux_required(self):
        phi = np.array([0.0, 0.1, 0.1, 0.3, 0.4, 0.5])
        with pytest.raises(ValueError, match="distinct"):
            GFluxDataset(
                phi=phi, g_mhz=np.ones(6), sign=np.zeros(6),
                omega1_ghz=np.full(6, 4.0), omega2_ghz=np.full(6, 4.0),
            )

    def test_nonnegative_magnitudes(self):
        with pytest.raises(ValueError, match="non-negative"):
            GFluxDataset(
                phi=np.arange(6.0), g_mhz=np.array([1, 1, -1, 1, 1, 1.0]),
                sign=np.zeros(6), omega1_ghz=np.full(6, 4.0),
                omega2_ghz=np.full(6, 4.0),
            )

    @pytest.mark.parametrize("name", ["omega1_ghz", "omega2_ghz"])
    @pytest.mark.parametrize("value", [-3.4, 0.0])
    def test_qubit_frequencies_must_be_positive(self, name, value):
        omegas = {"omega1_ghz": np.full(6, 3.4), "omega2_ghz": np.full(6, 3.4)}
        omegas[name][2] = value
        with pytest.raises(ValueError, match=f"^{name} values must be positive$"):
            GFluxDataset(phi=np.arange(6.0), g_mhz=np.ones(6), sign=np.zeros(6), **omegas)

    @pytest.mark.parametrize("name, value, message", [
        ("phi", np.arange(6.0).reshape(2, 3), "^phi must be 1-d of common length$"),
        ("g_mhz", np.array([1.0, 1.0, np.nan, 1.0, 1.0, 1.0]), "^g_mhz values must be finite$"),
    ])
    def test_columns_must_be_1d_and_finite(self, name, value, message):
        columns = {"phi": np.arange(6.0), "g_mhz": np.ones(6), "sign": np.zeros(6),
                   "omega1_ghz": np.full(6, 3.4), "omega2_ghz": np.full(6, 3.4)}
        with pytest.raises(ValueError, match=message):
            GFluxDataset(**{**columns, name: value})

    def test_csv_round_trip(self):
        data = true_dataset()
        again = GFluxDataset.from_csv(data.to_csv())
        assert np.allclose(again.phi, data.phi)
        assert np.allclose(again.g_mhz, data.g_mhz)
        assert np.array_equal(again.sign, data.sign)

    def test_csv_header_checked(self):
        with pytest.raises(NetlistError, match="header"):
            GFluxDataset.from_csv("a,b,c\n1,2,3\n")

    def test_csv_empty_text_rejected(self):
        with pytest.raises(NetlistError, match="^empty dataset CSV$"):
            GFluxDataset.from_csv("")

    def test_csv_blank_lines_skipped(self):
        text = true_dataset().to_csv()
        lines = text.splitlines()
        padded = "\n".join([lines[0], "", *lines[1:4], " , ,", *lines[4:], ""]) + "\n"
        assert GFluxDataset.from_csv(padded).to_csv() == GFluxDataset.from_csv(text).to_csv()

    def test_csv_empty_sign_means_magnitude_only(self):
        text = (
            "phi_over_phi0,g_mhz,sign,omega1_ghz,omega2_ghz\n"
            + "\n".join(f"0.0{i},5.0,,3.4,3.4" for i in range(6))
        )
        data = GFluxDataset.from_csv(text)
        assert np.all(data.sign == 0.0)


class TestSynthDataset:
    def test_zero_noise_is_model_exact(self):
        data = true_dataset()
        g = model_g_mhz(TRUE, data.phi, W1, W2)
        assert np.allclose(data.g_mhz, np.abs(g), atol=1e-12)
        assert np.array_equal(data.sign, np.sign(g))

    def test_fixed_seed_reproducible_bytes(self):
        a = synth_g_dataset(TRUE, PHI, W1, W2, noise_sigma_mhz=0.3, seed=11)
        b = synth_g_dataset(TRUE, PHI, W1, W2, noise_sigma_mhz=0.3, seed=11)
        assert a.to_csv() == b.to_csv()
        c = synth_g_dataset(TRUE, PHI, W1, W2, noise_sigma_mhz=0.3, seed=12)
        assert a.to_csv() != c.to_csv()


class TestFit:
    def test_noiseless_round_trip(self):
        data = true_dataset()
        init = CouplerFluxModel(
            g12_mhz=-6.0, g1c_g2c_mhz2=-(110.0**2),
            coupler_ec_ghz=TRUE.coupler_ec_ghz,
            coupler_ej_sum_ghz=TRUE.coupler_ej_sum_ghz,
            coupler_asymmetry=0.0,
        )
        result = fit_g_vs_flux(data, init)
        assert result.g12_mhz == pytest.approx(TRUE.g12_mhz, rel=1e-4)
        assert result.g1c_g2c_mhz2 == pytest.approx(TRUE.g1c_g2c_mhz2, rel=1e-4)
        assert result.rms_residual_mhz < 1e-5
        assert result.converged

    def test_magnitude_only_round_trip(self):
        data = true_dataset(with_signs=False)
        init = CouplerFluxModel(
            g12_mhz=-6.0, g1c_g2c_mhz2=-(110.0**2),
            coupler_ec_ghz=TRUE.coupler_ec_ghz,
            coupler_ej_sum_ghz=TRUE.coupler_ej_sum_ghz,
            coupler_asymmetry=0.0,
        )
        result = fit_g_vs_flux(data, init)
        assert result.g12_mhz == pytest.approx(TRUE.g12_mhz, rel=1e-3)
        assert result.g1c_g2c_mhz2 == pytest.approx(TRUE.g1c_g2c_mhz2, rel=1e-3)

    def test_single_free_parameter_exact_rest(self):
        data = true_dataset()
        result = fit_g_vs_flux(data, TRUE, free=("g12_mhz",))
        assert result.rms_residual_mhz == pytest.approx(0.0, abs=1e-7)
        assert result.g12_mhz == pytest.approx(TRUE.g12_mhz, abs=1e-6)

    def test_row_order_invariance(self):
        data = true_dataset(noise=0.2, seed=3)
        perm = np.random.default_rng(0).permutation(len(data))
        shuffled = GFluxDataset(
            phi=data.phi[perm], g_mhz=data.g_mhz[perm], sign=data.sign[perm],
            omega1_ghz=data.omega1_ghz[perm], omega2_ghz=data.omega2_ghz[perm],
        )
        init = CouplerFluxModel(
            g12_mhz=-6.0, g1c_g2c_mhz2=-(110.0**2),
            coupler_ec_ghz=TRUE.coupler_ec_ghz,
            coupler_ej_sum_ghz=TRUE.coupler_ej_sum_ghz,
            coupler_asymmetry=0.0,
        )
        a = fit_g_vs_flux(data, init)
        b = fit_g_vs_flux(shuffled, init)
        assert a.g12_mhz == pytest.approx(b.g12_mhz, rel=1e-6)
        assert a.g1c_g2c_mhz2 == pytest.approx(b.g1c_g2c_mhz2, rel=1e-6)

    def test_underdetermined_raises(self):
        # 6 rows is the dataset minimum; ask for more free params than rows
        # by shrinking the free set check: 6 rows, 7 would be impossible, so
        # instead drop to the row minimum and free every parameter plus one
        data = true_dataset()
        small = GFluxDataset(
            phi=data.phi[:6], g_mhz=data.g_mhz[:6], sign=data.sign[:6],
            omega1_ghz=data.omega1_ghz[:6], omega2_ghz=data.omega2_ghz[:6],
        )
        fit_g_vs_flux(small, TRUE, free=("g12_mhz",))  # fine
        with pytest.raises(ValueError, match="unknown fit parameter"):
            fit_g_vs_flux(small, TRUE, free=("g12_mhz", "bogus"))

    @pytest.mark.parametrize("free", [
        ("g12_mhz", "g12_mhz"),
        ("g12_mhz", "g1c_g2c_mhz2", "g12_mhz"),
    ])
    def test_duplicate_free_parameter_rejected(self, free):
        with pytest.raises(ValueError, match=r"^free lists 'g12_mhz' more than once$"):
            fit_g_vs_flux(true_dataset(), TRUE, free=free)

    def test_no_free_parameter_rejected(self):
        with pytest.raises(ValueError, match="^at least one parameter must be free$"):
            fit_g_vs_flux(true_dataset(), TRUE, free=())

    def test_non_finite_initial_guess_rejected(self):
        init = replace(TRUE, coupler_ec_ghz=math.nan)
        with pytest.raises(ValueError, match="^initial guess coupler_ec_ghz is not finite$"):
            fit_g_vs_flux(true_dataset(), init)

    def test_model_not_finite_on_a_row_is_not_converged(self):
        # a junction-symmetric coupler SQUID has no Josephson energy at half a
        # flux quantum, so with the coupler held no trial point gives a finite
        # model: the fit returns its initial guess after one evaluation
        data = with_half_flux_row(true_dataset(rows=12))
        with pytest.warns(UserWarning, match=(
            r"^the model is not finite at the initial guess on row 12 "
            r"\(Phi/Phi0 = 0\.5\), and no free parameter moves the coupler: "
            r"returning the initial guess$"
        )) as seen:
            result = fit_g_vs_flux(data, INIT)
        assert len(seen) == 1 and seen[0].filename == __file__
        assert result.params == INIT
        assert result.rms_residual_mhz == fitkit.INFEASIBLE_RESIDUAL_MHZ
        assert (result.converged, result.n_evaluations, result.covariance) == (False, 1, {})

    def test_asymmetric_device_rows_on_the_wall_return_at_once(self, monkeypatch):
        # 11 signed rows of the asymmetric reference device and one row at
        # Phi/Phi0 = 0.5: one model evaluation, where 120 evaluations once
        # searched the wall
        device = presets.ASYMMETRIC_DEVICE
        true = CouplerFluxModel(
            g12_mhz=device.g12 * 1e3, g1c_g2c_mhz2=device.g1c_g2c * 1e6,
            coupler_ec_ghz=device.coupler_ec,
            coupler_ej_sum_ghz=device.coupler_squid.ej_sum,
        )
        w = device.resonance
        data = with_half_flux_row(
            synth_g_dataset(true, np.linspace(0.0, 0.3 * 2 * math.pi, 11), w, w), w)
        calls = count_model_calls(monkeypatch)
        with pytest.warns(UserWarning, match=r"on row 11 \(Phi/Phi0 = 0\.5\)"):
            result = fit_g_vs_flux(data, true)
        assert (result.params, result.converged, result.n_evaluations) == (true, False, 1)
        assert calls == [1]

    def test_free_coupler_parameter_searches_off_the_wall(self):
        # a free asymmetry moves E_J(phi) off zero, so the search runs and
        # nothing is warned
        data = with_half_flux_row(true_dataset(rows=12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit_g_vs_flux(data, INIT, free=FREE_2 + ("coupler_asymmetry",))
        assert result.n_evaluations > 1
        assert result.rms_residual_mhz < fitkit.INFEASIBLE_RESIDUAL_MHZ

    def test_underdetermined_error_rows_vs_params(self):
        with pytest.raises(UnderdeterminedFitError):
            # bypass the dataset minimum via direct construction is blocked,
            # so check through the row/parameter comparison: 6 rows vs 5 free
            # parameters is fine, but a 4-parameter fit on a 3-row slice is
            # impossible to even construct; emulate by monkeypatching length
            data = true_dataset()
            tiny = object.__new__(GFluxDataset)
            for name in ("phi", "g_mhz", "sign", "omega1_ghz", "omega2_ghz"):
                object.__setattr__(tiny, name, getattr(data, name)[:3])
            fit_g_vs_flux(
                tiny, TRUE,
                free=("g12_mhz", "g1c_g2c_mhz2", "coupler_ej_sum_ghz",
                      "coupler_asymmetry"),
            )

    @pytest.mark.parametrize("with_signs", [True, False])
    def test_free_asymmetry_from_symmetric_start(self, with_signs):
        # the simplex's first steps from asymmetry 0 leave the SQUID's domain;
        # those trial points count as infeasible instead of ending the fit
        data = true_dataset(with_signs=with_signs)
        init = CouplerFluxModel(
            g12_mhz=-6.0, g1c_g2c_mhz2=-(110.0**2),
            coupler_ec_ghz=TRUE.coupler_ec_ghz,
            coupler_ej_sum_ghz=TRUE.coupler_ej_sum_ghz,
            coupler_asymmetry=0.0,
        )
        result = fit_g_vs_flux(
            data, init, free=("g12_mhz", "g1c_g2c_mhz2", "coupler_asymmetry")
        )
        assert result.rms_residual_mhz < 1e-9
        assert result.g12_mhz == pytest.approx(TRUE.g12_mhz, rel=1e-9)
        assert result.g1c_g2c_mhz2 == pytest.approx(TRUE.g1c_g2c_mhz2, rel=1e-9)
        assert 0.0 <= result.params.coupler_asymmetry < 1e-6

    def test_deterministic_repeat(self):
        data = true_dataset(noise=0.15, seed=21)
        init = CouplerFluxModel(
            g12_mhz=-6.0, g1c_g2c_mhz2=-(110.0**2),
            coupler_ec_ghz=TRUE.coupler_ec_ghz,
            coupler_ej_sum_ghz=TRUE.coupler_ej_sum_ghz,
            coupler_asymmetry=0.0,
        )
        a = fit_g_vs_flux(data, init)
        b = fit_g_vs_flux(data, init)
        assert a.g12_mhz == b.g12_mhz
        assert a.g1c_g2c_mhz2 == b.g1c_g2c_mhz2
        assert a.rms_residual_mhz == b.rms_residual_mhz

    def test_covariance_reported_for_noisy_fit(self):
        data = true_dataset(noise=0.2, seed=9)
        init = CouplerFluxModel(
            g12_mhz=-6.0, g1c_g2c_mhz2=-(110.0**2),
            coupler_ec_ghz=TRUE.coupler_ec_ghz,
            coupler_ej_sum_ghz=TRUE.coupler_ej_sum_ghz,
            coupler_asymmetry=0.0,
        )
        result = fit_g_vs_flux(data, init)
        assert set(result.covariance) == {"g12_mhz", "g1c_g2c_mhz2"}
        assert all(v > 0 for v in result.covariance.values())

    def test_product_sqrt_report(self):
        data = true_dataset()
        result = fit_g_vs_flux(data, TRUE, free=("g1c_g2c_mhz2",))
        assert result.product_sqrt_mhz == pytest.approx(131.6, rel=1e-4)


INIT = replace(TRUE, g12_mhz=-6.0, g1c_g2c_mhz2=-(110.0**2))
FREE_2 = ("g12_mhz", "g1c_g2c_mhz2")


@pytest.mark.parametrize("free", [
    FREE_2,
    FREE_2 + ("coupler_asymmetry",),
    FREE_2 + ("coupler_ej_sum_ghz",),
])
@pytest.mark.parametrize("with_signs", [True, False])
def test_model_evaluations_beyond_the_count(monkeypatch, free, with_signs):
    # beyond the counted evaluations a fit may evaluate the model only for
    # LM's finite-difference Jacobian (one here), the Jacobian LM returns and
    # one final residual, never once per simplex iteration
    data = true_dataset(noise=0.1, seed=4, with_signs=with_signs)
    calls = count_model_calls(monkeypatch)
    result = fit_g_vs_flux(data, INIT, free=free)
    assert result.n_evaluations <= calls[0] <= result.n_evaluations + len(free) + 4


# (noise, seed, with_signs, free, init) and the fit's float.hex values: params
# (all five fields), rms_residual_mhz, n_evaluations, converged, covariance
PINNED_FITS = [
    ((0.0, 0, True, FREE_2, INIT),
     ["-0x1.2cccccccccccep+3", "-0x1.0e9a3d70a3d71p+14", "0x1.69ccb7d41743fp-3",
      "0x1.fd515f8ad86f3p+4", "0x0.0p+0"],
     "0x1.1f141a4506278p-49", 162, True,
     {"g12_mhz": "0x1.08550645a5816p-102", "g1c_g2c_mhz2": "0x1.686a79cfa851bp-85"}),
    ((0.2, 9, False, FREE_2, INIT),
     ["-0x1.2cf02ce3c1f56p+3", "-0x1.0f314cc5ab581p+14", "0x1.69ccb7d41743fp-3",
      "0x1.fd515f8ad86f3p+4", "0x0.0p+0"],
     "0x1.b20f405b1f090p-3", 180, True,
     {"g12_mhz": "0x1.2e257151090dfp-9", "g1c_g2c_mhz2": "0x1.9bf9b1195bce9p+8"}),
    ((0.0, 0, True, FREE_2 + ("coupler_asymmetry",), INIT),
     ["-0x1.2cccccccccd4cp+3", "-0x1.0e9a3d70a3dedp+14", "0x1.69ccb7d41743fp-3",
      "0x1.fd515f8ad86f3p+4", "0x1.d7e6d865674bap-27"],
     "0x1.307b8934f20c6p-42", 703, True,
     {"g12_mhz": "0x1.658da7358a505p-88", "g1c_g2c_mhz2": "0x1.bbfe16968a0c2p-71",
      "coupler_asymmetry": "0x1.27e13ba4563f0p-89"}),
    ((0.1, 4, True, FREE_2 + ("coupler_ej_sum_ghz",),
      replace(INIT, coupler_ej_sum_ghz=0.99 * TRUE.coupler_ej_sum_ghz)),
     ["-0x1.2c09d7b9183e9p+3", "-0x1.0dc52e82300bap+14", "0x1.69ccb7d41743fp-3",
      "0x1.fd473ba238606p+4", "0x0.0p+0"],
     "0x1.a63dcdf2e302fp-4", 417, True,
     {"g12_mhz": "0x1.c06625e790a86p-11", "g1c_g2c_mhz2": "0x1.a3a9f679870a3p+10",
      "coupler_ej_sum_ghz": "0x1.09b265c81c917p-18"}),
    # mixed signs and 200 rows, through a trailing dict of true_dataset
    # options; then a fit that frees E_C
    ((0.1, 4, True, FREE_2, INIT, {"mixed": True}),
     ["-0x1.2cb5e289d08fcp+3", "-0x1.0e8ac94c41f47p+14", "0x1.69ccb7d41743fp-3",
      "0x1.fd515f8ad86f3p+4", "0x0.0p+0"],
     "0x1.b4da060c513c3p-4", 170, True,
     {"g12_mhz": "0x1.320bbd8a71275p-11", "g1c_g2c_mhz2": "0x1.a14ade0869d0ep+6"}),
    ((0.1, 5, True, FREE_2, INIT, {"rows": 200}),
     ["-0x1.2cff9685b2979p+3", "-0x1.0e9b13b46c78cp+14", "0x1.69ccb7d41743fp-3",
      "0x1.fd515f8ad86f3p+4", "0x0.0p+0"],
     "0x1.89377acd96149p-4", 184, True,
     {"g12_mhz": "0x1.8772be1141bd0p-15", "g1c_g2c_mhz2": "0x1.ee65cac734fdfp-5"}),
    ((0.0, 0, True, FREE_2 + ("coupler_ec_ghz",), replace(INIT, coupler_ec_ghz=1.02 * EC_C)),
     ["-0x1.2ccccccccccc5p+3", "-0x1.0e9a3d70a3d6bp+14", "0x1.69ccb7d417440p-3",
      "0x1.fd515f8ad86f3p+4", "0x0.0p+0"],
     "0x1.59a8aa4497f08p-42", 452, True,
     {"g12_mhz": "0x1.2c61c7a1ea1bdp-87", "g1c_g2c_mhz2": "0x1.19fcb4d296025p-66",
      "coupler_ec_ghz": "0x1.c1caffa164120p-110"}),
]


@pytest.mark.parametrize("case, params, rms, n_evaluations, converged, covariance",
                         PINNED_FITS)
def test_fit_results_pinned(case, params, rms, n_evaluations, converged, covariance):
    # bookkeeping around the simplex and LM passes must not move a bit of
    # what the fit returns
    noise, seed, with_signs, free, init, *options = case
    data = true_dataset(noise, seed, with_signs, **(options[0] if options else {}))
    result = fit_g_vs_flux(data, init, free=free)
    assert [float(v).hex() for v in astuple(result.params)] == params
    assert result.rms_residual_mhz.hex() == rms
    assert (result.n_evaluations, result.converged) == (n_evaluations, converged)
    assert {k: v.hex() for k, v in result.covariance.items()} == covariance


def test_model_input_contract():
    # a float or list flux and float qubit frequencies give the bits of the
    # equivalent 1-d float arrays; a frequency array of another shape is a
    # ValueError
    phi = PHI[:6]
    want = model_g_mhz(TRUE, phi, np.full(6, W1), np.full(6, W2))
    assert model_g_mhz(TRUE, phi.tolist(), W1, W2).tobytes() == want.tobytes()
    assert model_g_mhz(TRUE, phi, W1, np.full(6, W2)).tobytes() == want.tobytes()
    for i in range(6):
        assert model_g_mhz(TRUE, float(phi[i]), W1, W2).tobytes() == want[i:i + 1].tobytes()
        assert model_g_mhz(TRUE, phi[i], W1, W2).tobytes() == want[i:i + 1].tobytes()
    w_int = np.full(6, 3)
    assert (model_g_mhz(TRUE, phi, w_int, w_int).tobytes()
            == model_g_mhz(TRUE, phi, np.full(6, 3.0), np.full(6, 3.0)).tobytes())
    grid = model_g_mhz(TRUE, phi.reshape(2, 3), W1, W2)
    assert grid.shape == (2, 3) and grid.tobytes() == want.tobytes()
    # a row where the coupler SQUID has no Josephson energy is NaN on its own
    half = model_g_mhz(TRUE, np.append(phi, math.pi), W1, W2)
    assert half[:6].tobytes() == want.tobytes() and np.isnan(half[6])
    for w1, w2 in ((np.full(5, W1), W2), (np.full(6, W1), np.full(7, W2)),
                   (np.full((6, 2), W1), np.full(6, W2))):
        with pytest.raises(ValueError):
            model_g_mhz(TRUE, phi, w1, w2)


@pytest.mark.parametrize("device", [presets.SYMMETRIC_DEVICE, presets.ASYMMETRIC_DEVICE],
                         ids=lambda d: d.name)
def test_fit_model_is_the_device_route_g(device):
    # the fit's g(phi) is g_net of the device builder's flux-tuned model at
    # the coupler frequency of each flux: one suppression law, one pole sum
    squid = device.coupler_squid
    params = CouplerFluxModel(
        g12_mhz=device.g12 * 1e3, g1c_g2c_mhz2=device.g1c_g2c * 1e6,
        coupler_ec_ghz=device.coupler_ec, coupler_ej_sum_ghz=squid.ej_sum,
    )
    phi = np.linspace(0.0, 0.4 * 2 * math.pi, 41)
    wc = frequency_from_energies(device.coupler_ec, ej_of_flux(squid, phi))
    route = 1e3 * g_net(presets.device_flux_builder(device, True)(wc)).g
    w = device.resonance
    fit = model_g_mhz(params, phi, w, w)
    assert np.isfinite(route).all()
    assert np.abs(fit - route).max() <= 1e-12 * abs(params.g12_mhz)
