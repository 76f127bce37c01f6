import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, trapezoid

from maxlor.config import assemble_run, config_from_dict
from maxlor.deltanet import DeltaNet, net_from_spec, sample
from maxlor.fields import Grid
from maxlor.mollifier import make_mollifier

SCHEDULE = [0.2, 0.1, 0.05, 0.025]


def unit_net(kind="symmetric", **kw):
    return DeltaNet(profile=make_mollifier(kind), **kw)


def test_sample_has_exact_mass():
    g = Grid(-2.0, 2.0, 2001)
    net = unit_net(mass=1.0)
    vals = sample(net, 0.1, g)
    assert trapezoid(vals, dx=g.dx) == pytest.approx(1.0, abs=1e-12)
    vals3 = sample(unit_net(mass=-3.5), 0.1, g)
    assert trapezoid(vals3, dx=g.dx) == pytest.approx(-3.5, abs=1e-12)


def test_zero_mass_gives_zero_array():
    g = Grid(-2.0, 2.0, 2001)
    assert np.all(sample(unit_net(mass=0.0), 0.1, g) == 0.0)


def test_peak_scales_inversely_with_width():
    g = Grid(-2.0, 2.0, 8001)
    net = unit_net()
    for eps in (0.4, 0.2, 0.1):
        w = net.half_width(eps)
        peak = np.max(sample(net, eps, g))
        # peak = profile(0)/w, which sits within a factor 2 of q/w
        assert 0.5 / w <= peak <= 2.0 / w
        assert peak == pytest.approx(net.profile.eval(0.0) / w, rel=1e-3)


def test_sample_preconditions():
    net = unit_net()
    coarse = Grid(-2.0, 2.0, 41)  # dx = 0.1
    with pytest.raises(ValueError) as exc:
        sample(net, 0.1, coarse)
    assert "dx" in str(exc.value)
    tight = Grid(-0.05, 0.05, 101)
    with pytest.raises(ValueError, match="grid"):
        sample(net, 0.1, tight)


def test_width_rule_and_support():
    net = unit_net(center=0.5, width_scale=2.0, width_power=0.5)
    assert net.half_width(0.04) == pytest.approx(0.4, rel=1e-14)
    lo, hi = net.support(0.04)
    assert (lo, hi) == (pytest.approx(0.1), pytest.approx(0.9))
    one_sided = DeltaNet(profile=make_mollifier("left"))
    lo, hi = one_sided.support(0.1)
    assert (lo, hi) == (pytest.approx(-0.1), pytest.approx(0.0))


def test_the_bump_family_satisfies_the_three_axioms():
    # along the schedule the supports shrink to the center, every member has
    # unit mass, and the absolute masses stay bounded (by 1: no profile is negative)
    for kind in ("symmetric", "left", "right"):
        net = unit_net(kind, center=0.3)
        widths = []
        for eps in SCHEDULE:
            lo, hi = net.support(eps)
            rho = net.density(eps)
            mass, _ = quad(lambda x: float(rho(x)), lo, hi, limit=200)
            abs_mass, _ = quad(lambda x: abs(float(rho(x))), lo, hi, limit=200)
            assert lo <= 0.3 <= hi
            assert mass == pytest.approx(1.0, abs=1e-8)
            assert abs_mass <= 1.0 + 1e-8
            widths.append(hi - lo)
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] == pytest.approx(widths[0] * SCHEDULE[-1] / SCHEDULE[0], rel=1e-12)


def test_pairing_against_test_function_converges_to_point_value():
    # <rho_eps, psi> -> psi(center), with monotone error on the tail
    net = unit_net(center=0.3)
    psi = lambda x: np.cos(2.0 * x) * np.exp(-x)
    errs = []
    for eps in SCHEDULE:
        lo, hi = net.support(eps)
        rho = net.density(eps)
        val, _ = quad(lambda x: rho(x) * psi(x), lo, hi, epsabs=1e-13, limit=200)
        errs.append(abs(val - psi(0.3)))
    assert errs[-1] < errs[-2] < errs[-3]
    assert errs[-1] < 1e-4


def test_net_from_spec_defaults_and_round_trip():
    # the defaults are the ones the config writes
    net = assemble_run(config_from_dict({})).net
    assert net.profile.kind == "left"
    assert net.mass == 1.0 and net.center == 0.0
    d = {"profile": {"kind": "symmetric", "s_lo": -1.0, "s_hi": 1.0}, "center": 1.0,
         "mass": 2.0, "width_scale": 0.5, "width_power": 2.0}
    again = net_from_spec(d)
    assert again == unit_net(center=1.0, mass=2.0, width_scale=0.5, width_power=2.0)
    assert again.half_width(0.1) == pytest.approx(0.5 * 0.01)
    with pytest.raises(ValueError):
        DeltaNet(profile=make_mollifier("symmetric"), width_scale=-1.0)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.2, max_value=2.0), st.floats(min_value=0.5, max_value=2.0))
def test_width_rule_monotone(scale, power):
    net = unit_net(width_scale=scale, width_power=power)
    assert net.half_width(0.2) > net.half_width(0.1) > net.half_width(0.05) > 0.0
