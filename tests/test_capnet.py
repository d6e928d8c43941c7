import json

import numpy as np
import pytest

from couplerkit import (
    CapNetwork,
    Configuration,
    E2_OVER_H_GHZ_FF,
    ModeEnergies,
    NetlistError,
    SingularNetworkError,
    Topology,
    build_cap_matrix,
    classify_configuration,
    energies_closed_form_floating,
    energies_closed_form_grounded,
    energies_exact,
    load_netlist,
    netlist_to_dict,
    reduce_free_modes,
)
from couplerkit.errors import AssumptionViolationError
from couplerkit.presets import floating_coupler_design, grounded_coupler_design


def floating_net(c23=19.5, c24=2.0, c35=2.0, c45=19.5, cg=110.0, cq=46.0,
                 cgc=80.0, cc=61.0, extra=()):
    caps = [
        (0, 1, cg), (0, 2, cg), (0, 5, cg), (0, 6, cg),
        (0, 3, cgc), (0, 4, cgc),
        (1, 2, cq), (5, 6, cq), (3, 4, cc),
    ]
    for pair, v in (((2, 3), c23), ((2, 4), c24), ((3, 5), c35), ((4, 5), c45)):
        if v:
            caps.append((*pair, v))
    caps.extend(extra)
    return CapNetwork(Topology.FLOATING_FLOATING, tuple(caps))


def scaled_couplings(net: CapNetwork, scale: float) -> CapNetwork:
    """Shrink only the qubit-coupler coupling capacitors."""
    coupler_pads = {3, 4} if net.topology is Topology.FLOATING_FLOATING else {2, 3}
    caps = []
    for a, b, v in net.capacitors:
        is_coupling = (a in coupler_pads) != (b in coupler_pads) and a != 0
        caps.append((a, b, v * scale if is_coupling else v))
    return CapNetwork(net.topology, tuple(caps))


class TestNetworkValidation:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(NetlistError, match="duplicate"):
            CapNetwork(Topology.FLOATING_FLOATING, ((1, 2, 46.0), (2, 1, 3.0)))

    def test_self_capacitor_rejected(self):
        with pytest.raises(NetlistError, match="itself"):
            CapNetwork(Topology.FLOATING_FLOATING, ((3, 3, 5.0),))

    def test_nonpositive_value_rejected(self):
        with pytest.raises(NetlistError, match="non-positive"):
            CapNetwork(Topology.FLOATING_FLOATING, ((1, 2, 0.0),))
        with pytest.raises(NetlistError, match="non-positive"):
            CapNetwork(Topology.FLOATING_FLOATING, ((1, 2, -4.0),))

    def test_node_range_per_topology(self):
        with pytest.raises(NetlistError, match="outside"):
            CapNetwork(Topology.GROUNDED_FLOATING, ((0, 5, 10.0),))
        CapNetwork(Topology.GROUNDED_FLOATING, ((0, 4, 10.0),))  # ok

    def test_direct_qubit_qubit_flagged_not_rejected(self):
        net = floating_net(extra=((2, 5, 0.3),))
        assert net.has_direct_qubit_qubit
        assert not floating_net().has_direct_qubit_qubit
        energies_exact(net)  # exact path accepts it


class TestNetlistJson:
    def test_round_trip(self, tmp_path):
        net = floating_coupler_design(True)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(netlist_to_dict(net)))
        again = load_netlist(path)
        assert again == net

    def test_invalid_json(self):
        with pytest.raises(NetlistError, match="invalid JSON"):
            load_netlist("{not json")

    def test_missing_topology(self):
        with pytest.raises(NetlistError, match="topology"):
            load_netlist({"capacitors": [{"a": 1, "b": 2, "fF": 3.0}]})

    def test_non_string_topology(self):
        with pytest.raises(NetlistError, match="topology"):
            load_netlist({"topology": ["floating-floating"],
                          "capacitors": [{"a": 1, "b": 2, "fF": 3.0}]})

    def test_bad_capacitor_entry(self):
        with pytest.raises(NetlistError, match=r"capacitors\[0\]"):
            load_netlist({"topology": "floating-floating", "capacitors": [{"a": 1}]})

    @pytest.mark.parametrize("a, shown", [
        (2.9, "2.9"), (True, "True"), ("1", "'1'"), (float("inf"), "inf"),
    ])
    def test_node_ids_must_be_integers(self, a, shown):
        with pytest.raises(NetlistError, match=rf"^capacitors\[0\]\.a must be an integer, got {shown}$"):
            load_netlist({"topology": "floating-floating",
                          "capacitors": [{"a": a, "b": 2, "fF": 3.0}]})

    def test_integral_float_node_ids_are_accepted(self):
        net = floating_coupler_design(True)
        data = netlist_to_dict(net)
        for cap in data["capacitors"]:
            cap["a"], cap["b"] = float(cap["a"]), float(cap["b"])
        assert load_netlist(data) == net

    @pytest.mark.parametrize("value, shown", [("3.0", "'3.0'"), (True, "True")])
    def test_capacitance_must_be_a_number(self, value, shown):
        with pytest.raises(NetlistError, match=rf"^capacitors\[0\]\.fF must be a number, got {shown}$"):
            load_netlist({"topology": "floating-floating",
                          "capacitors": [{"a": 1, "b": 2, "fF": value}]})

    def test_capacitance_beyond_float_range(self):
        with pytest.raises(NetlistError, match=r"^capacitors\[0\] needs integer 'a', 'b' "
                                               r"and numeric 'fF': int too large"):
            load_netlist({"topology": "floating-floating",
                          "capacitors": [{"a": 1, "b": 2, "fF": 10**400}]})

    @pytest.mark.parametrize("value", [0.0, -1.0, 9e-7, 1.1e6, float("inf"), float("nan")])
    def test_capacitance_out_of_range(self, value):
        with pytest.raises(NetlistError, match=rf"^capacitors\[0\]\.fF = {value!r} is outside "
                                               r"\[1e-06, 1e\+06\] fF$"):
            load_netlist({"topology": "floating-floating",
                          "capacitors": [{"a": 1, "b": 2, "fF": value}]})

    def test_wrong_schema_version(self):
        with pytest.raises(NetlistError, match="schema"):
            load_netlist({"schema": 2, "topology": "floating-floating",
                          "capacitors": [{"a": 1, "b": 2, "fF": 3.0}]})


class TestBuildCapMatrix:
    def test_uncoupled_block_diagonal(self):
        net = floating_net(c23=0, c24=0, c35=0, c45=0, cg=110.0, cq=46.0,
                           cgc=80.0, cc=61.0)
        C = build_cap_matrix(net)
        assert C.shape == (6, 6)
        # qubit-coupler and qubit-qubit blocks vanish
        assert np.allclose(C[0:2, 2:6], 0.0)
        assert np.allclose(C[2:4, 4:6], 0.0)

    def test_matches_hand_evaluated_entries(self):
        # independent oracle: the pad-sum/difference entry formulas evaluated
        # by hand for the bundled symmetric design
        cg, cq, cgc, cc = 110.0, 46.0, 80.0, 61.0
        c23, c24, c35, c45 = 19.5, 2.0, 2.0, 19.5
        C = build_cap_matrix(floating_net(c23, c24, c35, c45, cg, cq, cgc, cc))
        c1p = cg + c23 + c24 + cg
        c1m = cg + c23 + c24 - cg
        ccp = c24 + cgc + c45 + (c23 + c35 + cgc)
        ccm = c24 + c45 - (c23 + c35)
        c2p = cg + (cg + c35 + c45)
        c2m = cg - (cg + c35 + c45)
        c1pp = c23 + c24
        c1pm = c23 - c24
        c1mp = -(c23 + c24)
        c1mm = c23 - c24
        c2pp = c35 + c45
        c2pm = c35 + c45
        c2mp = c35 - c45
        c2mm = c45 - c35
        expected = 0.25 * np.array([
            [c1p, c1m, -c1pp, c1pm, 0, 0],
            [c1m, c1p + 4 * cq, c1mp, c1mm, 0, 0],
            [-c1pp, c1mp, ccp, ccm, -c2pp, c2pm],
            [c1pm, c1mm, ccm, ccp + 4 * cc, c2mp, c2mm],
            [0, 0, -c2pp, c2mp, c2p, c2m],
            [0, 0, c2pm, c2mm, c2m, c2p + 4 * cq],
        ])
        assert np.allclose(C, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_exactly_symmetric(self, symmetric):
        for net in (floating_coupler_design(symmetric),
                    grounded_coupler_design(symmetric)):
            C = build_cap_matrix(net)
            assert np.array_equal(C, C.T)


class TestReduceFreeModes:
    def test_uncoupled_diagonal_entries(self):
        net = floating_net(c23=0, c24=0, c35=0, c45=0)
        red = reduce_free_modes(build_cap_matrix(net), net.topology)
        # qubit mode: (2 Cq + Cg)/2, coupler mode: (2 Cc + Cgc)/2
        assert red.shape == (3, 3)
        assert red[0, 0] == pytest.approx((2 * 46.0 + 110.0) / 2)
        assert red[1, 1] == pytest.approx((2 * 61.0 + 80.0) / 2)
        assert red[2, 2] == pytest.approx((2 * 46.0 + 110.0) / 2)
        off = red - np.diag(np.diag(red))
        assert np.allclose(off, 0.0)

    def test_positive_definite_bundled_designs(self):
        for sym in (True, False):
            net = floating_coupler_design(sym)
            red = reduce_free_modes(build_cap_matrix(net), net.topology)
            assert np.linalg.eigvalsh(red).min() > 0

    def test_isolated_pad_is_singular(self):
        # coupler pad 4 attached to nothing: free block loses rank
        net = CapNetwork(Topology.FLOATING_FLOATING, (
            (0, 1, 110.0), (0, 2, 110.0), (0, 5, 110.0), (0, 6, 110.0),
            (0, 3, 80.0), (1, 2, 46.0), (5, 6, 46.0), (2, 3, 19.5),
        ))
        with pytest.raises(SingularNetworkError):
            reduce_free_modes(build_cap_matrix(net), net.topology)

    def test_grounded_matches_direct_schur_oracle(self):
        # independent oracle: assemble the 4x4 matrix entry by entry from the
        # reduced-variable formulas and eliminate the single free mode with
        # explicit scalar arithmetic
        c1, c2, cgc, cc = 96.0, 97.0, 110.0, 52.0
        c12, c13, c24, c34 = 10.0, 1.0, 10.0, 11.0
        cs1, cs2 = c1 + c12 + c13, c2 + c34 + c24
        csp = c12 + c13 + c34 + c24 + 2 * cgc
        M = np.array([
            [cs1, -(c12 + c13) / 2, (c12 - c13) / 2, 0.0],
            [-(c12 + c13) / 2, csp / 4, (c34 - c24 + c13 - c12) / 4,
             -(c34 + c24) / 2],
            [(c12 - c13) / 2, (c34 - c24 + c13 - c12) / 4, (csp + 4 * cc) / 4,
             -(c34 - c24) / 2],
            [0.0, -(c34 + c24) / 2, -(c34 - c24) / 2, cs2],
        ])
        keep, free = [0, 2, 3], 1
        oracle = np.empty((3, 3))
        for i, a in enumerate(keep):
            for j, b in enumerate(keep):
                oracle[i, j] = M[a, b] - M[a, free] * M[free, b] / M[free, free]
        net = grounded_coupler_design(True)
        C = build_cap_matrix(net)
        assert np.allclose(C, M, rtol=0, atol=1e-12)
        red = reduce_free_modes(C, net.topology)
        assert np.allclose(red, oracle, rtol=1e-14, atol=1e-12)


class TestEnergiesExact:
    def test_zero_coupling_gives_zero_energies(self):
        net = floating_net(c23=0, c24=0, c35=0, c45=0)
        e = energies_exact(net)
        assert e.e12 == pytest.approx(0.0, abs=1e-15)
        assert e.e1c == pytest.approx(0.0, abs=1e-15)
        assert e.e2c == pytest.approx(0.0, abs=1e-15)
        assert e.ec1 == pytest.approx(E2_OVER_H_GHZ_FF / 202.0)
        assert e.ecc == pytest.approx(E2_OVER_H_GHZ_FF / 202.0)

    def test_symmetric_design_sign_pattern(self):
        e = energies_exact(floating_coupler_design(True))
        assert e.e12 < 0 and e.e1c < 0 and e.e2c < 0

    def test_asymmetric_design_opposite_qubit_coupler_signs(self):
        e = energies_exact(floating_coupler_design(False))
        assert e.e12 < 0
        assert e.e1c * e.e2c < 0

    def test_qubit_relabel_invariance_floating(self):
        net = floating_net(c23=19.5, c24=2.0, c35=7.0, c45=3.0)
        # full mirror 1<->6, 2<->5, 3<->4
        relabel = {0: 0, 1: 6, 2: 5, 3: 4, 4: 3, 5: 2, 6: 1}
        mirrored = CapNetwork(net.topology, tuple(
            (relabel[a], relabel[b], v) for a, b, v in net.capacitors
        ))
        e, em = energies_exact(net), energies_exact(mirrored)
        assert em.ec1 == pytest.approx(e.ec2, rel=1e-12)
        assert em.ec2 == pytest.approx(e.ec1, rel=1e-12)
        assert em.ecc == pytest.approx(e.ecc, rel=1e-12)
        assert em.e1c == pytest.approx(e.e2c, rel=1e-12)
        assert em.e2c == pytest.approx(e.e1c, rel=1e-12)
        assert em.e12 == pytest.approx(e.e12, rel=1e-12)

    def test_capacitance_scaling_law(self):
        net = floating_coupler_design(False)
        lam = 3.7
        scaled = CapNetwork(net.topology, tuple(
            (a, b, v * lam) for a, b, v in net.capacitors
        ))
        e, es = energies_exact(net), energies_exact(scaled)
        for name in ("ec1", "ec2", "ecc", "e12", "e1c", "e2c"):
            assert getattr(es, name) == pytest.approx(
                getattr(e, name) / lam, rel=1e-12
            )


class TestClosedFormFloating:
    def test_equal_nearest_next_nearest_kills_e1c(self):
        e = energies_closed_form_floating(floating_net(c23=5.0, c24=5.0))
        assert e.e1c == 0.0

    def test_symmetric_design_equal_couplings(self):
        e = energies_closed_form_floating(floating_coupler_design(True))
        assert e.e1c == pytest.approx(e.e2c, rel=1e-14)

    def test_matches_exact_in_small_coupling_regime_symmetric(self):
        # couplings scaled well inside the validity regime
        net = scaled_couplings(floating_coupler_design(True), 0.01)
        cf, ex = energies_closed_form_floating(net), energies_exact(net)
        for name in ("ec1", "ec2", "ecc", "e12", "e1c", "e2c"):
            assert getattr(cf, name) == pytest.approx(
                getattr(ex, name), rel=0.02
            ), name

    def test_matches_exact_in_small_coupling_regime_asymmetric(self):
        net = scaled_couplings(floating_coupler_design(False), 0.01)
        cf, ex = energies_closed_form_floating(net), energies_exact(net)
        for name in ("ec1", "ec2", "ecc", "e12", "e1c", "e2c"):
            assert getattr(cf, name) == pytest.approx(
                getattr(ex, name), rel=0.02
            ), name

    def test_unequal_ground_caps_rejected(self):
        net = floating_net()
        bad = CapNetwork(net.topology, tuple(
            (a, b, 115.0 if (a, b) == (0, 5) else v) for a, b, v in net.capacitors
        ))
        with pytest.raises(AssumptionViolationError, match="C01, C02, C05, C06"):
            energies_closed_form_floating(bad)

    def test_direct_qubit_qubit_rejected(self):
        with pytest.raises(AssumptionViolationError, match="direct qubit-qubit"):
            energies_closed_form_floating(floating_net(extra=((2, 5, 0.5),)))

    def test_outer_pad_coupling_rejected(self):
        with pytest.raises(AssumptionViolationError, match="C13"):
            energies_closed_form_floating(floating_net(extra=((1, 3, 1.0),)))

    def test_wrong_topology_rejected(self):
        with pytest.raises(AssumptionViolationError, match="topology"):
            energies_closed_form_floating(grounded_coupler_design(True))

    @pytest.mark.parametrize("changed, message", [
        ({(0, 4): 85.0}, "coupler pad ground capacitances C03, C04 must be equal"),
        ({(5, 6): 50.0}, "qubit shunt capacitances C12, C56 must be equal"),
        ({(1, 4): 1.0}, "coupling C14 must be absent"),
        ({(3, 6): 1.0}, "coupling C36 must be absent"),
    ])
    def test_assumption_messages(self, changed, message):
        net = floating_net()
        caps = {(a, b): v for a, b, v in net.capacitors} | changed
        bad = CapNetwork(net.topology, tuple((a, b, v) for (a, b), v in caps.items()))
        with pytest.raises(AssumptionViolationError, match=f"^closed-form assumptions violated: {message}$"):
            energies_closed_form_floating(bad)


@pytest.mark.parametrize("design, closed_form", [
    (floating_coupler_design, energies_closed_form_floating),
    (grounded_coupler_design, energies_closed_form_grounded),
])
@pytest.mark.parametrize("symmetric", [True, False])
def test_closed_form_is_exact_at_vanishing_coupling(design, closed_form, symmetric):
    # the closed forms are leading order in the coupling capacitors, so each
    # energy's relative error shrinks in proportion to their scale
    for scale in (1e-2, 1e-3, 1e-4):
        net = scaled_couplings(design(symmetric), scale)
        cf, ex = closed_form(net), energies_exact(net)
        for name in ("ec1", "ec2", "ecc", "e12", "e1c", "e2c"):
            assert getattr(cf, name) == pytest.approx(
                getattr(ex, name), rel=scale
            ), (scale, name)


class TestClosedFormGrounded:
    def test_balanced_bridge_kills_e1c(self):
        # C12*C34 = C13*C24 and C12 = C13 makes both e1c terms vanish
        net = CapNetwork(Topology.GROUNDED_FLOATING, (
            (0, 1, 96.0), (0, 4, 97.0), (0, 2, 110.0), (0, 3, 110.0),
            (2, 3, 52.0), (1, 2, 4.0), (1, 3, 4.0), (2, 4, 6.0), (3, 4, 6.0),
        ))
        e = energies_closed_form_grounded(net)
        assert e.e1c == 0.0

    def test_symmetric_set_sign_pattern(self):
        e = energies_closed_form_grounded(grounded_coupler_design(True))
        assert e.e12 > 0 and e.e1c < 0 and e.e2c > 0
        ex = energies_exact(grounded_coupler_design(True))
        assert ex.e12 > 0 and ex.e1c < 0 and ex.e2c > 0

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_matches_exact_in_small_coupling_regime(self, symmetric):
        net = scaled_couplings(grounded_coupler_design(symmetric), 0.01)
        cf, ex = energies_closed_form_grounded(net), energies_exact(net)
        for name in ("ec1", "ec2", "ecc", "e12", "e1c", "e2c"):
            assert getattr(cf, name) == pytest.approx(
                getattr(ex, name), rel=0.02
            ), name

    def test_unequal_coupler_ground_caps_rejected(self):
        net = CapNetwork(Topology.GROUNDED_FLOATING, (
            (0, 1, 96.0), (0, 4, 97.0), (0, 2, 110.0), (0, 3, 100.0),
            (2, 3, 52.0), (1, 2, 10.0), (3, 4, 11.0),
        ))
        with pytest.raises(AssumptionViolationError, match="C02, C03"):
            energies_closed_form_grounded(net)

    def test_direct_qubit_qubit_rejected(self):
        net = grounded_coupler_design(True)
        bad = CapNetwork(net.topology, net.capacitors + ((1, 4, 0.5),))
        with pytest.raises(AssumptionViolationError, match="^closed-form assumptions violated: "
                           "direct qubit-qubit capacitor must be absent$"):
            energies_closed_form_grounded(bad)


class TestClassification:
    def test_symmetric_design(self):
        assert classify_configuration(
            energies_exact(floating_coupler_design(True))
        ) is Configuration.SYMMETRIC

    def test_asymmetric_design(self):
        assert classify_configuration(
            energies_exact(floating_coupler_design(False))
        ) is Configuration.ASYMMETRIC

    def test_degenerate_when_e1c_vanishes(self):
        e = ModeEnergies(ec1=0.2, ec2=0.2, ecc=0.18, e12=-0.002, e1c=0.0,
                         e2c=-0.016)
        assert classify_configuration(e) is Configuration.DEGENERATE

    def test_tolerance_knob(self):
        e = ModeEnergies(ec1=0.2, ec2=0.2, ecc=0.18, e12=-0.002, e1c=1e-4,
                         e2c=1e-4)
        assert classify_configuration(e) is Configuration.DEGENERATE
        assert classify_configuration(
            e, degenerate_tol=1e-9
        ) is Configuration.SYMMETRIC
