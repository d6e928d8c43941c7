"""Array evaluation of the flux-to-model chain against point-by-point floats.

Every library builder, ``g_net``, ``zz_perturbative``,
``dressed_frequencies`` and ``zz_numeric`` take a float or a 1-d array.  On
an array, a point where the float call raises ResonanceError,
FluxDomainError or (``zz_numeric``) LabelingError is NaN in every field,
any other error is the error of the first failing point, and every other
point has the bits of the float call.
"""

import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import couplerkit as ck
from couplerkit import cli, effmodel, numdiag, presets
from couplerkit.capnet import netlist_to_dict
from couplerkit.errors import FluxDomainError, LabelingError, NoRootError, ResonanceError

MASKED = (ResonanceError, FluxDomainError)

DEVICES = [presets.SYMMETRIC_DEVICE, presets.ASYMMETRIC_DEVICE]


def _cli_flux_builder():
    dev = presets.ASYMMETRIC_DEVICE
    _, build = cli._model_block({
        "model": {"omega1": dev.omega1_max, "omega2": dev.omega2_max,
                  "omegac": dev.omegac_max, "eta1": dev.eta1, "eta2": dev.eta2,
                  "etac": 0.19, "g1c": -0.079, "g2c": 0.098, "g12": -0.012},
        "coupler_squid": {"ej_sum": dev.coupler_squid.ej_sum, "asymmetry": 0.0},
        "coupler_ec": dev.coupler_ec,
    })
    return build


def _cli_netlist_builder():
    net = presets.floating_coupler_design(False)
    e = ck.energies_exact(net)
    _, build = cli._netlist_model({
        "netlist": netlist_to_dict(net),
        "squids": {
            "qubit1": {"ej_sum": ck.ej_for_frequency(e.ec1, 4.58), "asymmetry": 0.1},
            "qubit2": {"ej_sum": ck.ej_for_frequency(e.ec2, 4.64), "asymmetry": 0.1},
            "coupler": {"ej_sum": ck.ej_for_frequency(e.ecc, 6.0)},
        },
        "flux": {"qubit1": 0.05, "qubit2": 0.1},
    })
    return build


FREQUENCY_BASE = ck.SystemModel(
    omega1=4.58, omega2=4.64, omegac=4.0, eta1=0.23, eta2=0.233, etac=0.19,
    g1c=-0.085, g2c=-0.085, g12=-0.0058,
)

# (builder, range of the swept variable, points worth drawing: poles, the
# flux-domain edge, a vanishing symmetric-SQUID energy and, just below it, a
# negative coupler frequency)
BUILDERS = {
    "frequency": (
        presets.frequency_sweep_builder(FREQUENCY_BASE), (-0.5, 7.0),
        # Delta_1 and Delta_2 poles and their floor edges, Delta_1 + Delta_2 + eta_c = 0
        [4.58, 4.64, 4.5805, 4.6395, 4.515, 0.0, 4.61],
    ),
    **{
        f"device-{dev.name}-{resonant}": (
            presets.device_flux_builder(dev, resonant), (2.0, dev.omegac_max + 0.3),
            [dev.omegac_max, dev.resonance, dev.omega1_max, dev.omega2_max],
        )
        for dev in DEVICES for resonant in (True, False)
    },
    "cli-flux": (_cli_flux_builder(), (-0.2, 1.2), [0.5, 0.25, 0.0, 0.4995, 0.4999]),
    "cli-netlist": (_cli_netlist_builder(), (-0.2, 1.2), [0.5, 0.25, 0.0, 0.4995, 0.4999]),
}


def points(name):
    _, (lo, hi), special = BUILDERS[name]
    point = st.one_of(st.floats(lo, hi), st.sampled_from(special))
    return st.lists(point, min_size=1, max_size=30).map(np.array)


def pointwise(fn, xs):
    """``fn`` at each float: a dict of fields, None where a masked error is
    raised, or the first other error."""
    out = []
    for x in xs:
        try:
            value = fn(float(x))
        except MASKED:
            out.append(None)
            continue
        except (ValueError, ArithmeticError) as exc:
            return exc
        out.append({f.name: getattr(value, f.name) for f in fields(value)})
    return out


def assert_matches_pointwise(fn, xs):
    want = pointwise(fn, xs)
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as err:
            fn(xs)
        assert str(err.value) == str(want)
        return
    got = fn(xs)
    for f in fields(got):
        column = np.broadcast_to(getattr(got, f.name), xs.shape)
        for i, point in enumerate(want):
            if point is None:
                assert math.isnan(column[i]), (f.name, xs[i])
            else:
                assert float(column[i]).hex() == float(point[f.name]).hex(), (f.name, xs[i])


def dressed(build):
    """``dressed_frequencies`` of the builder's model, without its dispersive
    guideline warnings."""
    def fn(x):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return effmodel.dressed_frequencies(build(x))

    return fn


@pytest.mark.parametrize("name", BUILDERS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_builder_array_matches_floats(name, data):
    build = BUILDERS[name][0]
    xs = data.draw(points(name))
    assert_matches_pointwise(build, xs)
    assert_matches_pointwise(lambda x: effmodel.g_net(build(x)), xs)
    assert_matches_pointwise(lambda x: effmodel.zz_perturbative(build(x)), xs)
    assert_matches_pointwise(dressed(build), xs)


@pytest.mark.parametrize("name", BUILDERS)
def test_builder_grid_matches_floats(name):
    # a last-bit difference shows at a few points in a thousand, too rarely
    # for the drawn points above; a dense grid catches it
    build, (lo, hi), _ = BUILDERS[name]
    stages = (build, lambda x: effmodel.g_net(build(x)),
              lambda x: effmodel.zz_perturbative(build(x)), dressed(build))
    for fn in stages:
        xs = np.array([x for x in np.linspace(lo, hi, 2001)
                       if not isinstance(pointwise(fn, [x]), Exception)])
        assert_matches_pointwise(fn, xs)


# points per device band: 5,200 models over the four device builders
ZZ_NUMERIC_GRIDS = {(5, 5, 5): 600, (4, 3, 5): 600, (7, 7, 7): 100}


@pytest.mark.parametrize("levels", ZZ_NUMERIC_GRIDS)
@pytest.mark.parametrize("dev", DEVICES, ids=lambda dev: dev.name)
@pytest.mark.parametrize("resonant", [True, False], ids=["resonant", "detuned"])
def test_zz_numeric_array_matches_floats(dev, resonant, levels):
    # the band reaches below the qubits, where states cannot be labeled (the
    # asymmetric device over (2.5, 4.0), say), and above the coupler's top
    # frequency, which no flux reaches
    build = presets.device_flux_builder(dev, resonant)
    xs = np.linspace(2.0, dev.omegac_max + 0.3, ZZ_NUMERIC_GRIDS[levels])
    got = numdiag.zz_numeric(build(xs), levels)
    assert got.shape == xs.shape
    outcomes = []
    for x, zeta in zip(xs.tolist(), got.tolist()):
        try:
            want = numdiag.zz_numeric(build(x), levels)
        except (FluxDomainError, LabelingError) as exc:
            assert math.isnan(zeta), (x, exc)
            outcomes.append(type(exc))
            continue
        assert type(want) is float
        assert zeta.hex() == want.hex(), x
        outcomes.append(float)
    assert {FluxDomainError, LabelingError} <= set(outcomes)


def test_zz_numeric_of_no_modeled_point():
    nan = np.full(3, np.nan)
    assert np.isnan(numdiag.zz_numeric(ck.SystemModel(*[nan] * 9))).all()
    empty = np.array([])
    assert numdiag.zz_numeric(ck.SystemModel(*[empty] * 9)).shape == (0,)


def scalar_scan_roots(f, band, points=effmodel.PRESCAN_POINTS):
    """The prescan as a loop of float calls, then the library's refinement."""
    xs = np.linspace(band[0], band[1], points)
    ys = np.empty_like(xs)
    for i, x in enumerate(xs):
        try:
            ys[i] = f(x)
        except MASKED:
            ys[i] = np.nan
    return effmodel._refine_brackets(f, xs, ys)


@pytest.mark.parametrize("name", BUILDERS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_find_roots_match_scalar_scan(name, data):
    build, (lo, hi), _ = BUILDERS[name]
    band = tuple(sorted(data.draw(
        st.lists(st.floats(lo, hi), min_size=2, max_size=2, unique=True)
    )))

    def g(x):
        return effmodel.g_net(build(x)).g

    def zz(x):
        return effmodel.zz_perturbative(build(x)).zeta_total

    for f, find in ((g, effmodel.find_zero_g), (zz, effmodel.find_zero_zz)):
        try:
            want = scalar_scan_roots(f, band)
        except (ValueError, ArithmeticError) as exc:
            with pytest.raises(type(exc)) as err:
                find(build, band)
            assert str(err.value) == str(exc)
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # root count, masked prescan
            warnings.simplefilter("error", RuntimeWarning)  # no numpy warning
            try:
                got = find(build, band)
            except NoRootError:
                got = []
        if find is effmodel.find_zero_g:  # the lowest root, or NoRootError
            got, want = ([got] if isinstance(got, float) else got), want[:1]
        assert [r.hex() for r in got] == [float(r).hex() for r in want]
