import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, trapezoid

from maxlor.config import assemble_run, config_from_dict
from maxlor.deltanet import DeltaNet, net_from_spec, sample, verify_strict
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


def test_verify_strict_passes_for_bump_family():
    rep = verify_strict(unit_net(), SCHEDULE)
    assert rep.all_ok
    assert rep.support_shrinks and rep.unit_mass and rep.abs_bounded
    widths = [row.width for row in rep.rows]
    assert widths == sorted(widths, reverse=True)
    for row in rep.rows:
        assert row.mass == pytest.approx(1.0, abs=1e-8)
        assert row.abs_mass <= 1.0 + 1e-8


def test_verify_strict_without_scipy_says_how_to_get_it(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.integrate", None)
    with pytest.raises(ImportError, match="SciPy"):
        verify_strict(unit_net(), SCHEDULE)


def test_verify_strict_flags_wrong_mass():
    class Short:
        # a family integrating to 0.9: violates the unit-mass axiom only
        def __init__(self):
            self.inner = unit_net()

        def support(self, eps):
            return self.inner.support(eps)

        def density(self, eps):
            rho = self.inner.density(eps)
            return lambda x: 0.9 * rho(x)

    rep = verify_strict(Short(), SCHEDULE)
    assert not rep.unit_mass
    assert rep.support_shrinks and rep.abs_bounded
    assert not rep.all_ok


def test_verify_strict_flags_growing_absolute_mass():
    class Wiggle:
        # unit mass but a signed part growing like eps^(-1/2): the
        # absolute masses blow up and the third axiom fails
        def support(self, eps):
            return (-eps, eps)

        def density(self, eps):
            def rho(x):
                x = np.asarray(x, dtype=float)
                inside = np.abs(x) <= eps
                base = np.where(inside, 0.5 / eps, 0.0)
                wig = np.where(inside, np.sin(np.pi * x / eps) / (eps ** 0.5) / eps, 0.0)
                return base + wig

            return rho

    rep = verify_strict(Wiggle(), [0.1, 0.01, 0.001], abs_bound=10.0)
    assert rep.unit_mass
    assert not rep.abs_bounded
    assert not rep.all_ok


def test_schedule_validation():
    with pytest.raises(ValueError, match="decreasing"):
        verify_strict(unit_net(), [0.1, 0.1])
    with pytest.raises(ValueError, match="2"):
        verify_strict(unit_net(), [0.1])


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
