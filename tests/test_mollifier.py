import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from maxlor.mollifier import DEFAULT_SUPPORTS, RAW_BUMP_MASS, make_mollifier

# normalization constants computed once by adaptive quadrature of
# exp(-1/(1-y^2)) (integral over (-1,1) = 0.4439938161680793) and frozen
NORM_SYMMETRIC = 2.2522836210435817
NORM_LEFT = 4.504567242087163
L1_DERIV_SYMMETRIC = 1.6571376797382102
PEAK_SYMMETRIC = 0.8285688398691055


def test_raw_bump_mass_literal_is_the_quadrature_value():
    def raw_bump(y):
        if abs(y) >= 1.0:
            return 0.0
        return math.exp(-1.0 / (1.0 - y * y))

    mass, _ = quad(raw_bump, -1.0, 1.0, points=[0.0], epsabs=1e-14, epsrel=1e-12, limit=200)
    assert mass.hex() == RAW_BUMP_MASS.hex()


def test_default_supports():
    assert DEFAULT_SUPPORTS["symmetric"] == (-1.0, 1.0)
    assert DEFAULT_SUPPORTS["left"] == (-1.0, 0.0)
    assert DEFAULT_SUPPORTS["right"] == (0.0, 1.0)


def test_symmetric_normalization():
    m = make_mollifier("symmetric")
    assert m.norm_const == pytest.approx(NORM_SYMMETRIC, rel=1e-12)
    assert m.eval(0.0) == pytest.approx(PEAK_SYMMETRIC, rel=1e-12)
    mass, _ = quad(m.eval, -1.0, 1.0, epsabs=1e-13, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_left_normalization():
    m = make_mollifier("left")
    assert (m.s_lo, m.s_hi) == (-1.0, 0.0)
    assert m.norm_const == pytest.approx(NORM_LEFT, rel=1e-12)
    mass, _ = quad(m.eval, -1.0, 0.0, epsabs=1e-13, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-10)
    # the peak sits at the support midpoint
    assert m.eval(-0.5) == np.max(m.eval(np.linspace(-1.0, 0.0, 101)))


def test_vanishes_outside_support_exactly():
    m = make_mollifier("left")
    assert m.eval(0.0) == 0.0
    assert m.eval(1e-12) == 0.0
    assert m.eval(-1.0) == 0.0
    assert m.eval(5.0) == 0.0
    ys = np.array([-2.0, -1.0, 0.0, 0.5])
    assert np.all(m.eval(ys)[np.abs(ys + 0.5) >= 0.5] == 0.0)


def test_l1_norm_of_derivative():
    m = make_mollifier("symmetric")
    # closed form: the bump is unimodal, so the total variation is twice
    # the peak; cross-checked against the variation of phi sampled on a
    # fine grid with the peak 0 as a node, which sums every rise and fall
    # and so approaches int |phi'| whatever the shape
    assert m.l1_deriv == pytest.approx(2.0 * m.eval(0.0), rel=1e-12)
    sampled = np.sum(np.abs(np.diff(m.eval(np.linspace(-1.0, 1.0, 20001)))))
    assert m.l1_deriv == pytest.approx(sampled, rel=1e-9)
    assert m.l1_deriv == pytest.approx(L1_DERIV_SYMMETRIC, rel=1e-12)


def test_custom_support_remap():
    m = make_mollifier("symmetric", support=(-0.25, 0.75))
    assert (m.s_lo, m.s_hi) == (-0.25, 0.75)
    mass, _ = quad(m.eval, -0.25, 0.75, epsabs=1e-13, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert m.eval(-0.3) == 0.0 and m.eval(0.8) == 0.0


def test_kind_validation():
    with pytest.raises(ValueError, match="kind"):
        make_mollifier("gaussian")
    with pytest.raises(ValueError, match="support"):
        make_mollifier("symmetric", support=(1.0, -1.0))
    with pytest.raises(ValueError, match="left"):
        make_mollifier("left", support=(-1.0, 0.5))
    with pytest.raises(ValueError, match="right"):
        make_mollifier("right", support=(-0.5, 1.0))


def test_spec_dict_round_trip():
    m = make_mollifier("left", support=(-2.0, 0.0))
    d = m.spec_dict()
    m2 = make_mollifier(d["kind"], (d["s_lo"], d["s_hi"]))
    assert m2 == m


@given(st.floats(min_value=-3.0, max_value=0.0), st.floats(min_value=0.1, max_value=3.0))
def test_nonnegative_and_peaked_at_center(lo, width):
    m = make_mollifier("symmetric", support=(lo, lo + width))
    ys = np.linspace(lo - 0.5, lo + width + 0.5, 57)
    vals = m.eval(ys)
    center = lo + 0.5 * width
    assert np.all(vals >= 0.0)
    assert np.all(vals <= m.eval(center) + 1e-12)
    # even about the center
    d = 0.3 * width
    assert m.eval(center + d) == pytest.approx(m.eval(center - d), rel=1e-12)
