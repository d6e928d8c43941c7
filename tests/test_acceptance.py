"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1, 2 and 4 assert reference values that the implemented model cannot
reproduce (see README, "Known deviations" for the analysis); they are kept
as stated rather than loosened, so they fail honestly.
"""

import math
import time

import numpy as np
import pytest

import couplerkit as ck
from couplerkit import (
    CapNetwork,
    SquidParams,
    SystemModel,
    Topology,
    TransmonParams,
    TransmonRole,
)
from couplerkit.fitkit import CouplerFluxModel, fit_g_vs_flux, synth_g_dataset
from couplerkit.presets import (
    ASYMMETRIC_DEVICE,
    FLOATING_COUPLER_BAND_ASYMMETRIC,
    FLOATING_COUPLER_BAND_SYMMETRIC,
    FLOATING_DESIGN_RATES_ASYMMETRIC,
    FLOATING_DESIGN_RATES_SYMMETRIC,
    SYMMETRIC_DEVICE,
    device_flux_builder,
    floating_coupler_design,
    frequency_sweep_builder,
    grounded_coupler_design,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def design_model(rates, omegac, omega1=4.58, omega2=4.64):
    return SystemModel(
        omega1=omega1, omega2=omega2, omegac=omegac,
        eta1=0.23, eta2=0.233, etac=0.19,
        g1c=rates["g1c"], g2c=rates["g2c"], g12=rates["g12"],
    )


def test_criterion_1_closed_form_vs_exact_on_reference_sets():
    """Every nonzero energy from the closed forms within 2% of exact inversion."""
    t0 = time.monotonic()
    sets = [
        ("floating-sym", floating_coupler_design(True),
         ck.energies_closed_form_floating),
        ("floating-asym", floating_coupler_design(False),
         ck.energies_closed_form_floating),
        ("grounded-sym", grounded_coupler_design(True),
         ck.energies_closed_form_grounded),
        ("grounded-asym", grounded_coupler_design(False),
         ck.energies_closed_form_grounded),
    ]
    failures = []
    worst = 0.0
    for name, net, closed_form in sets:
        cf, ex = closed_form(net), ck.energies_exact(net)
        for field in ("ec1", "ec2", "ecc", "e12", "e1c", "e2c"):
            value_cf, value_ex = getattr(cf, field), getattr(ex, field)
            if value_cf == 0.0 and value_ex == 0.0:
                continue
            dev = abs(value_cf - value_ex) / abs(value_ex)
            worst = max(worst, dev)
            if dev >= 0.02:
                failures.append(f"{name}.{field}={dev:.1%}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 1.0
    report(1, ok, f"worst deviation {worst:.1%} "
                  f"(violations: {', '.join(failures) or 'none'}) "
                  f"in {elapsed:.2f} s")
    assert elapsed < 1.0
    assert not failures, (
        "closed forms are leading-order approximations; at the reference "
        f"capacitances they deviate up to {worst:.0%} from exact inversion "
        "(see README, Known deviations)"
    )


def test_criterion_2_reference_design_couplings():
    """(g12, g1c, g2c)/2pi within 10% of the reference design values."""
    t0 = time.monotonic()
    # convention: exact netlist energies, qubits parked at their band maxima,
    # coupler at its band top, xi correction on (the library default)
    cases = [
        ("symmetric", True, 4.0, (-5.8, -85.0, -85.0)),
        ("asymmetric", False, 6.14, (-12.0, -79.0, 98.0)),
    ]
    failures = []
    computed_all = {}
    for name, symmetric, wc, (t12, t1c, t2c) in cases:
        e = ck.energies_exact(floating_coupler_design(symmetric))
        q1 = TransmonParams(
            e.ec1, SquidParams.from_sum_asymmetry(
                ck.ej_for_frequency(e.ec1, 4.58), 0.0), TransmonRole.QUBIT_1)
        q2 = TransmonParams(
            e.ec2, SquidParams.from_sum_asymmetry(
                ck.ej_for_frequency(e.ec2, 4.64), 0.0), TransmonRole.QUBIT_2)
        c = TransmonParams(
            e.ecc, SquidParams.from_sum_asymmetry(
                ck.ej_for_frequency(e.ecc, wc), 0.0), TransmonRole.COUPLER)
        g1c, g2c, g12 = ck.coupling_rates(e, q1, q2, c)
        computed = {"g12": g12 * 1e3, "g1c": g1c * 1e3, "g2c": g2c * 1e3}
        computed_all[name] = computed
        for key, target in (("g12", t12), ("g1c", t1c), ("g2c", t2c)):
            value = computed[key]
            if np.sign(value) != np.sign(target):
                failures.append(f"{name}.{key} sign")
            elif abs(value - target) / abs(target) >= 0.10:
                failures.append(
                    f"{name}.{key}={value:.1f} vs {target} "
                    f"({abs(value - target) / abs(target):.0%})"
                )
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 1.0
    report(2, ok, f"computed {computed_all} MHz; "
                  f"violations: {', '.join(failures) or 'none'}; "
                  f"{elapsed:.2f} s")
    assert elapsed < 1.0
    assert not failures, (
        "two reference rate values are not reproducible from the reference "
        "capacitances (see README, Known deviations)"
    )


def bisect_oracle(f, a, b, tol=1e-9):
    fa = f(a)
    assert np.sign(fa) != np.sign(f(b))
    while b - a > tol:
        mid = 0.5 * (a + b)
        if np.sign(f(mid)) == np.sign(fa):
            a, fa = mid, f(mid)
        else:
            b = mid
    return 0.5 * (a + b)


def test_criterion_3_regime_reproduction():
    """g = 0 only below (symmetric) / above (asymmetric); roots vs oracle."""
    t0 = time.monotonic()
    sym_builder = frequency_sweep_builder(
        design_model(FLOATING_DESIGN_RATES_SYMMETRIC, 3.4))
    asym_builder = frequency_sweep_builder(
        design_model(FLOATING_DESIGN_RATES_ASYMMETRIC, 5.5))

    oracle_sym = bisect_oracle(
        lambda wc: ck.g_net(sym_builder(wc)).g, *FLOATING_COUPLER_BAND_SYMMETRIC)
    oracle_asym = bisect_oracle(
        lambda wc: ck.g_net(asym_builder(wc)).g, *FLOATING_COUPLER_BAND_ASYMMETRIC)

    root_sym = ck.find_zero_g(sym_builder, FLOATING_COUPLER_BAND_SYMMETRIC)
    root_asym = ck.find_zero_g(asym_builder, FLOATING_COUPLER_BAND_ASYMMETRIC)

    # wrong-side bands must report no sign change via the dedicated error
    with pytest.raises(ck.NoRootError):
        ck.find_zero_g(sym_builder, (4.8, 6.5))
    with pytest.raises(ck.NoRootError):
        ck.find_zero_g(asym_builder, (2.0, 4.0))

    elapsed = time.monotonic() - t0
    ok = (
        abs(oracle_sym - 3.5288) < 5e-3
        and abs(oracle_asym - 5.3014) < 5e-3
        and abs(root_sym - oracle_sym) < 1e-3
        and abs(root_asym - oracle_asym) < 1e-3
        and elapsed < 1.0
    )
    report(3, ok, f"roots {root_sym:.4f}/{root_asym:.4f} GHz vs oracle "
                  f"{oracle_sym:.4f}/{oracle_asym:.4f}; {elapsed:.2f} s")
    assert abs(oracle_sym - 3.5288) < 5e-3
    assert abs(oracle_asym - 5.3014) < 5e-3
    assert abs(root_sym - oracle_sym) < 1e-3
    assert abs(root_asym - oracle_asym) < 1e-3
    assert elapsed < 1.0


def test_criterion_4_measured_device_zero_points():
    """Characterized-device g = 0 points and dispersiveness ratios."""
    t0 = time.monotonic()
    failures = []

    root_sym = ck.find_zero_g(device_flux_builder(SYMMETRIC_DEVICE), (2.3, 3.8))
    if abs(root_sym - 2.97) > 0.1:
        failures.append(f"symmetric root {root_sym:.3f} vs 2.97 +- 0.1")

    root_asym = ck.find_zero_g(device_flux_builder(ASYMMETRIC_DEVICE), (3.8, 6.4))
    if abs(root_asym - 4.79) > 0.1:
        failures.append(f"asymmetric root {root_asym:.3f} vs 4.79 +- 0.1")

    disp_sym = math.sqrt(abs(SYMMETRIC_DEVICE.g1c_g2c)) / abs(
        root_sym - SYMMETRIC_DEVICE.resonance)
    disp_asym = math.sqrt(abs(ASYMMETRIC_DEVICE.g1c_g2c)) / abs(
        root_asym - ASYMMETRIC_DEVICE.resonance)
    if abs(disp_sym - 0.12) > 0.03:
        failures.append(f"symmetric g/Delta {disp_sym:.3f} vs 0.12 +- 0.03")
    if abs(disp_asym - 0.10) > 0.03:
        failures.append(f"asymmetric g/Delta {disp_asym:.3f} vs 0.10 +- 0.03")

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 1.0
    report(4, ok, f"roots {root_sym:.3f}/{root_asym:.3f} GHz, dispersiveness "
                  f"{disp_sym:.3f}/{disp_asym:.3f}; "
                  f"violations: {', '.join(failures) or 'none'}; {elapsed:.2f} s")
    assert elapsed < 1.0
    assert not failures, (
        "the asymmetric device's fitted parameters are not internally "
        "consistent with the effective model at the reference 4.79 GHz "
        "(see README, Known deviations)"
    )


def test_criterion_5_second_order_zz_fixture():
    """Direct evaluation of the leading ZZ term lands in the 5.0-5.8 MHz band."""
    t0 = time.monotonic()
    m = SystemModel(
        omega1=3.812, omega2=3.63, omegac=6.0, eta1=0.219, eta2=0.215,
        etac=0.18, g1c=0.0, g2c=0.0, g12=-9.4e-3,
    )
    zeta2_mhz = ck.zz_perturbative(m).zeta2 * 1e3
    elapsed = time.monotonic() - t0
    ok = 5.0 <= zeta2_mhz <= 5.8 and elapsed < 1.0
    report(5, ok, f"zeta2 = {zeta2_mhz:.4f} MHz (band 5.0-5.8); {elapsed:.2f} s")
    assert 5.0 <= zeta2_mhz <= 5.8
    # direct evaluation pins 5.2214 MHz; the reference 5.55 MHz sits in-band
    assert zeta2_mhz == pytest.approx(5.2214, abs=2e-3)
    assert elapsed < 1.0


def test_criterion_6_asymmetric_device_numeric_zz_curve():
    """Exactly two numeric zz zeros in the coupler band, first at 4.935 +- 0.1."""
    t0 = time.monotonic()
    builder = device_flux_builder(ASYMMETRIC_DEVICE, resonant=False)
    roots = ck.find_zero_zz(
        builder, (4.4, 6.5), backend="numeric", levels=(5, 5, 5),
        prescan_points=200,
    )
    elapsed = time.monotonic() - t0
    ok = len(roots) == 2 and abs(roots[0] - 4.935) <= 0.1 and elapsed < 30.0
    report(6, ok, f"numeric zz zeros {[f'{r:.4f}' for r in roots]} GHz; "
                  f"{elapsed:.1f} s")
    assert len(roots) == 2
    assert abs(roots[0] - 4.935) <= 0.1
    assert elapsed < 30.0


def random_dispersive_instance(rng):
    """Dispersive draw away from straddle resonances and cancellations."""
    while True:
        w1 = rng.uniform(3.8, 4.6)
        d12 = rng.choice([-1, 1]) * rng.uniform(0.05, 0.12)
        w2 = w1 - d12
        eta1, eta2 = rng.uniform(0.2, 0.3, 2)
        etac = rng.uniform(0.15, 0.25)
        if min(abs(d12 - eta1), abs(d12 + eta2)) < 0.12:
            continue
        g1c = rng.choice([-1, 1]) * rng.uniform(0.04, 0.08)
        g2c = rng.choice([-1, 1]) * rng.uniform(0.04, 0.08)
        g12 = rng.choice([-1, 1]) * rng.uniform(0.005, 0.012)
        gmax = max(abs(g1c), abs(g2c))
        wc = max(w1, w2) + max(gmax / 0.08, 0.8)  # |g/Delta| <= 0.08
        m = SystemModel(omega1=w1, omega2=w2, omegac=wc, eta1=eta1,
                        eta2=eta2, etac=etac, g1c=g1c, g2c=g2c, g12=g12)
        zz = ck.zz_perturbative(m)
        # a near-cancellation of zeta2 and zeta34 makes the relative
        # comparison meaningless, regenerate
        if abs(zz.zeta_total) < 0.4 * (abs(zz.zeta2) + abs(zz.zeta34)):
            continue
        return m, zz.zeta_total


def two_mode_oracle(w, eta, wc, etac, g, n=9):
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


def test_criterion_7_perturbation_vs_diagonalization():
    """50 dispersive instances within 20%; dressed frequencies scale as g^4."""
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        m, zeta_pert = random_dispersive_instance(rng)
        zeta_num = ck.zz_numeric(m, (5, 5, 5))
        rel = abs(zeta_pert - zeta_num) / abs(zeta_num)
        worst = max(worst, rel)
        assert rel < 0.20, (m, zeta_pert, zeta_num)

    # residual of the dressed 01/02 frequencies vs 2-mode exact results must
    # shrink ~16x when g is halved (O(g^4/Delta^3) error)
    ratios = []
    for w, eta, wc, etac in ((4.6, 0.21, 5.7, 0.19), (4.2, 0.25, 5.9, 0.22)):
        res = []
        for g in (0.08, 0.04):
            m = SystemModel(omega1=w, omega2=3.4, omegac=wc, eta1=eta,
                            eta2=0.2, etac=etac, g1c=g, g2c=0.0, g12=0.0)
            d = ck.dressed_frequencies(m)
            exact01, exact02 = two_mode_oracle(w, eta, wc, etac, g)
            res.append((abs(d.omega01_1 - exact01),
                        abs((d.omega02_1 - eta) - exact02)))
        for k in (0, 1):
            ratios.append(res[0][k] / res[1][k])
    elapsed = time.monotonic() - t0
    scaling_ok = all(9.0 < r < 30.0 for r in ratios)
    ok = worst < 0.20 and scaling_ok and elapsed < 120.0
    report(7, ok, f"worst zz deviation {worst:.1%} over 50 instances; "
                  f"residual ratios {[f'{r:.1f}' for r in ratios]} "
                  f"(expect ~16); {elapsed:.1f} s")
    assert scaling_ok
    assert elapsed < 120.0


def test_criterion_8_structural_property_sweep():
    """10^4 randomized cases: hermiticity, PD, sign rules, exchange, scaling."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2718)
    cases = 0

    def random_floating(couple_scale=1.0):
        cg, cgc = rng.uniform(80, 150), rng.uniform(60, 120)
        cq, cc = rng.uniform(30, 80), rng.uniform(30, 80)
        c = rng.uniform(0.1, 20.0, 4) * couple_scale
        return CapNetwork(Topology.FLOATING_FLOATING, (
            (0, 1, cg), (0, 2, cg), (0, 5, cg), (0, 6, cg),
            (0, 3, cgc), (0, 4, cgc),
            (1, 2, cq), (5, 6, cq), (3, 4, cc),
            (2, 3, c[0]), (2, 4, c[1]), (3, 5, c[2]), (4, 5, c[3]),
        ))

    def random_grounded():
        c1, c2 = rng.uniform(70, 130, 2)
        cgc, cc = rng.uniform(80, 150), rng.uniform(40, 70)
        c = rng.uniform(0.1, 15.0, 4)
        return CapNetwork(Topology.GROUNDED_FLOATING, (
            (0, 1, c1), (0, 4, c2), (0, 2, cgc), (0, 3, cgc), (2, 3, cc),
            (1, 2, c[0]), (1, 3, c[1]), (2, 4, c[2]), (3, 4, c[3]),
        ))

    # positive definiteness + exact matrix symmetry: 2000 cases
    for i in range(2000):
        net = random_floating() if i % 2 == 0 else random_grounded()
        C = ck.build_cap_matrix(net)
        assert np.array_equal(C, C.T)
        red = ck.reduce_free_modes(C, net.topology)
        assert np.linalg.eigvalsh(red).min() > 0
        cases += 1

    # closed-form sign rules: 2000 cases
    for i in range(2000):
        if i % 2 == 0:
            assert ck.energies_closed_form_floating(random_floating()).e12 < 0
        else:
            assert ck.energies_closed_form_grounded(random_grounded()).e12 > 0
        cases += 1

    # capacitance scaling law: 2000 cases
    for i in range(2000):
        net = random_floating() if i % 2 == 0 else random_grounded()
        lam = rng.uniform(0.25, 4.0)
        scaled = CapNetwork(
            net.topology, tuple((a, b, v * lam) for a, b, v in net.capacitors))
        e, es = ck.energies_exact(net), ck.energies_exact(scaled)
        for name in ("ec1", "ec2", "ecc", "e12", "e1c", "e2c"):
            assert getattr(es, name) == pytest.approx(
                getattr(e, name) / lam, rel=1e-9, abs=1e-15)
        cases += 1

    # hermiticity of the truncated hamiltonian: 2000 cases
    for _ in range(2000):
        m = SystemModel(
            omega1=rng.uniform(3.5, 5.0), omega2=rng.uniform(3.5, 5.0),
            omegac=rng.uniform(2.5, 7.0), eta1=rng.uniform(0.15, 0.3),
            eta2=rng.uniform(0.15, 0.3), etac=rng.uniform(0.15, 0.3),
            g1c=rng.uniform(-0.1, 0.1), g2c=rng.uniform(-0.1, 0.1),
            g12=rng.uniform(-0.02, 0.02))
        h = ck.build_hamiltonian(m, (3, 3, 3))
        assert np.array_equal(h.matrix, h.matrix.T)
        cases += 1

    # qubit-exchange symmetry: 1800 effective + 200 numeric cases
    for i in range(1800):
        w1, w2 = rng.uniform(3.8, 4.6, 2)
        wc = rng.uniform(5.2, 6.8)
        m = SystemModel(
            omega1=w1, omega2=w2, omegac=wc, eta1=rng.uniform(0.2, 0.3),
            eta2=rng.uniform(0.2, 0.3), etac=rng.uniform(0.15, 0.25),
            g1c=rng.uniform(-0.1, 0.1), g2c=rng.uniform(-0.1, 0.1),
            g12=rng.uniform(-0.02, 0.02))
        assert ck.g_net(m.swapped_qubits()).g == pytest.approx(
            ck.g_net(m).g, rel=1e-12, abs=1e-15)
        cases += 1
    for _ in range(200):
        w1 = rng.uniform(3.8, 4.3)
        m = SystemModel(
            omega1=w1, omega2=w1 + rng.uniform(0.3, 0.5),
            omegac=rng.uniform(5.8, 6.8), eta1=rng.uniform(0.2, 0.3),
            eta2=rng.uniform(0.2, 0.3), etac=rng.uniform(0.15, 0.25),
            g1c=rng.uniform(-0.08, 0.08), g2c=rng.uniform(-0.08, 0.08),
            g12=rng.uniform(-0.01, 0.01))
        a = ck.zz_numeric(m, (4, 4, 4))
        b = ck.zz_numeric(m.swapped_qubits(), (4, 4, 4))
        assert b == pytest.approx(a, rel=1e-8, abs=1e-12)
        cases += 1

    elapsed = time.monotonic() - t0
    ok = cases == 10000 and elapsed < 60.0
    report(8, ok, f"{cases} randomized cases, zero failures; {elapsed:.1f} s")
    assert cases == 10000
    assert elapsed < 60.0


def test_criterion_9_fit_round_trip():
    """Noiseless recovery within 1%; 3-sigma coverage on 100 noisy seeds."""
    t0 = time.monotonic()
    ec = ASYMMETRIC_DEVICE.coupler_ec
    true = CouplerFluxModel(
        g12_mhz=-9.4, g1c_g2c_mhz2=-(131.6**2), coupler_ec_ghz=ec,
        coupler_ej_sum_ghz=ck.ej_for_frequency(ec, 6.526),
        coupler_asymmetry=0.0,
    )
    phi = np.linspace(0.0, 0.42 * 2 * math.pi, 25)
    init = CouplerFluxModel(
        g12_mhz=-6.0, g1c_g2c_mhz2=-(110.0**2), coupler_ec_ghz=ec,
        coupler_ej_sum_ghz=true.coupler_ej_sum_ghz, coupler_asymmetry=0.0,
    )

    noiseless = fit_g_vs_flux(
        synth_g_dataset(true, phi, 3.449, 3.449), init)
    g12_err = abs(noiseless.g12_mhz - true.g12_mhz) / abs(true.g12_mhz)
    prod_err = abs(noiseless.g1c_g2c_mhz2 - true.g1c_g2c_mhz2) / abs(
        true.g1c_g2c_mhz2)

    hits = 0
    for seed in range(100):
        data = synth_g_dataset(true, phi, 3.449, 3.449,
                               noise_sigma_mhz=0.2, seed=seed)
        result = fit_g_vs_flux(data, init)
        sigma = math.sqrt(result.covariance.get("g12_mhz", float("nan")))
        if abs(result.g12_mhz - true.g12_mhz) < 3.0 * sigma:
            hits += 1

    elapsed = time.monotonic() - t0
    ok = g12_err < 0.01 and prod_err < 0.01 and hits >= 95 and elapsed < 60.0
    report(9, ok, f"noiseless errors {g12_err:.2e}/{prod_err:.2e}; "
                  f"3-sigma coverage {hits}/100; {elapsed:.1f} s")
    assert g12_err < 0.01
    assert prod_err < 0.01
    assert hits >= 95
    assert elapsed < 60.0
