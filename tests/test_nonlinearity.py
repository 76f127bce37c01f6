import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxlor.nonlinearity import a, sqrt1p_sq


def test_reference_values():
    assert a(0.0) == 0.0
    assert a(1.0) == pytest.approx(0.7071067811865475, rel=1e-15)
    assert a(-1.0) == pytest.approx(-0.7071067811865475, rel=1e-15)
    assert sqrt1p_sq(0.0) == 1.0
    assert sqrt1p_sq(3.0) == pytest.approx(np.sqrt(10.0), rel=1e-15)


def test_extreme_momenta_stay_subluminal():
    ys = np.array([1e8, 1e154, 1e300, -1e300])
    vals = a(ys)
    assert np.all(np.isfinite(vals))
    # beyond |y| ~ 7e7 the gap 1 - |a| falls below machine epsilon, so the
    # representable statement is <= 1; strictness is testable below that
    assert np.all(np.abs(vals) <= 1.0)
    assert abs(a(6.0e7)) < 1.0
    # hypot avoids the overflow a naive sqrt(1+y^2) would hit
    assert np.isfinite(sqrt1p_sq(1e300))


@given(st.floats(min_value=-1e7, max_value=1e7, allow_nan=False))
def test_speed_bound_and_oddness(y):
    v = a(y)
    assert abs(v) < 1.0
    assert a(-y) == -v
    assert sqrt1p_sq(y) >= max(1.0, abs(y))


@given(st.floats(min_value=-100.0, max_value=100.0), st.floats(min_value=1e-6, max_value=10.0))
def test_strictly_increasing(y, dy):
    assert a(y + dy) > a(y)


def test_identity_between_maps():
    ys = np.linspace(-20, 20, 101)
    # a = y / sqrt(1+y^2) by construction
    assert np.allclose(a(ys) * sqrt1p_sq(ys), ys, rtol=1e-14, atol=0)


def test_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        a(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="non-finite"):
        sqrt1p_sq(np.inf)
