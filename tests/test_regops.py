import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sfft

from maxlor.fields import Grid
from maxlor.mollifier import make_mollifier
from maxlor.regops import make_operator, next_fast_len, operator_for_meta


def _direct(op, f, kernel):
    # reference: direct summation out[i] = sum_j kernel_j f[i - j], zero padded
    full = np.convolve(f, kernel)
    out = np.zeros_like(f)
    idx = np.arange(len(f)) - int(op.offsets[0])
    valid = (idx >= 0) & (idx < len(full))
    out[valid] = full[idx[valid]]
    return out


def _interior(err, grid, nu):
    # ignore the zero-padding fringe: one kernel width plus slack per side
    k = int(math.ceil(2.0 * nu / grid.dx)) + 2
    return err[k:-k]


def test_weights_sum_to_zero():
    g = Grid(-2.0, 2.0, 801)
    for kind in ("symmetric", "left", "right"):
        m = make_mollifier(kind)
        op = make_operator(m, 0.1, g)
        assert abs(op.weights.sum()) <= 1e-9 * op.op_norm
        # mollification weights are a partition of unity
        assert op.smooth_weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_stencil_size_bound():
    g = Grid(-2.0, 2.0, 801)
    for kind, nu in (("symmetric", 0.1), ("left", 0.07), ("right", 0.2)):
        m = make_mollifier(kind)
        op = make_operator(m, nu, g)
        width = m.s_hi - m.s_lo
        assert len(op.offsets) <= math.ceil(nu * width / g.dx) + 1


def test_rejects_unresolved_width():
    g = Grid(-2.0, 2.0, 101)  # dx = 0.04
    m = make_mollifier("symmetric")
    with pytest.raises(ValueError) as exc:
        make_operator(m, 0.1, g)
    assert "nu" in str(exc.value) and "dx" in str(exc.value)
    with pytest.raises(ValueError):
        make_operator(m, -0.5, g)


def test_derivative_of_sine_converges():
    g = Grid(-10.0, 10.0, 4001)
    f = np.sin(g.xs)
    ref = np.cos(g.xs)
    m = make_mollifier("symmetric")
    errs = []
    for nu in (0.2, 0.1, 0.05):
        op = make_operator(m, nu, g)
        errs.append(np.max(np.abs(_interior(op.apply(f) - ref, g, nu))))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.8
    assert errs[2] < errs[1] < errs[0]


def test_left_kernel_first_order():
    g = Grid(-10.0, 10.0, 4001)
    f = np.sin(g.xs)
    m = make_mollifier("left")
    errs = []
    for nu in (0.2, 0.1):
        op = make_operator(m, nu, g)
        errs.append(np.max(np.abs(_interior(op.apply(f) - np.cos(g.xs), g, nu))))
    assert np.log2(errs[0] / errs[1]) >= 0.8


def test_constants_annihilated_on_interior():
    g = Grid(-2.0, 2.0, 801)
    op = make_operator(make_mollifier("symmetric"), 0.1, g)
    out = op.apply(np.full(g.n, 3.7))
    assert np.max(np.abs(_interior(out, g, 0.1))) < 1e-13
    smoothed = op.mollify(np.full(g.n, 3.7))
    assert np.allclose(_interior(smoothed, g, 0.1), 3.7, rtol=0, atol=1e-12)


def test_left_kernel_reads_only_rightward():
    # data vanishing on [x0, inf) keeps an exactly zero derivative there:
    # the left-supported kernel only looks ahead
    g = Grid(-4.0, 1.0, 1001)
    m = make_mollifier("left")
    op = make_operator(m, 0.1, g)
    f = np.where(g.xs < -0.5, np.exp(-((g.xs + 1.5) ** 2) * 30.0), 0.0)
    out = op.apply(f)
    assert np.all(out[g.xs >= -0.5] == 0.0)
    # and the mirrored statement
    g2 = Grid(-1.0, 4.0, 1001)
    op2 = make_operator(make_mollifier("right"), 0.1, g2)
    f2 = np.where(g2.xs > 0.5, np.exp(-((g2.xs - 1.5) ** 2) * 30.0), 0.0)
    assert np.all(op2.apply(f2)[g2.xs <= 0.5] == 0.0)


def test_mollify_converges_to_identity():
    g = Grid(-10.0, 10.0, 4001)
    f = np.sin(g.xs)
    m = make_mollifier("symmetric")
    errs = []
    for nu in (0.2, 0.1):
        op = make_operator(m, nu, g)
        errs.append(np.max(np.abs(_interior(op.mollify(f) - f, g, nu))))
    # smoothing error is second order in the width for the even kernel
    assert np.log2(errs[0] / errs[1]) >= 1.8


def test_operator_norm_bounds_amplification():
    g = Grid(-2.0, 2.0, 1601)
    m = make_mollifier("symmetric")
    op = make_operator(m, 0.1, g)
    assert op.op_norm == pytest.approx(m.l1_norm_deriv() / 0.1, rel=1e-12)
    assert np.sum(np.abs(op.weights)) <= op.op_norm * (1.0 + 1e-9)
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = rng.standard_normal(g.n)
        assert np.max(np.abs(op.apply(f))) <= op.op_norm * np.max(np.abs(f)) * (1 + 1e-12)


def test_rebuild_from_meta():
    g = Grid(-2.0, 2.0, 801)
    m = make_mollifier("left", support=(-1.5, 0.0))
    op = make_operator(m, 0.12, g)
    meta = {"mollifier": m.spec_dict(), "nu": 0.12}
    op2 = operator_for_meta(meta, g)
    assert np.array_equal(op.weights, op2.weights)
    assert np.array_equal(op.offsets, op2.offsets)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.5), st.integers(min_value=200, max_value=900))
def test_weight_sum_property(nu, n):
    g = Grid(-2.0, 2.0, n + 1)
    if nu < 4 * g.dx:
        return
    op = make_operator(make_mollifier("symmetric"), nu, g)
    assert abs(op.weights.sum()) <= 1e-9 * op.op_norm


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-3.0, max_value=3.0))
def test_apply_is_linear(alpha, beta):
    g = Grid(-2.0, 2.0, 401)
    op = make_operator(make_mollifier("symmetric"), 0.1, g)
    f = np.sin(2.0 * g.xs)
    h = np.cos(3.0 * g.xs)
    lhs = op.apply(alpha * f + beta * h)
    rhs = alpha * op.apply(f) + beta * op.apply(h)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


# Worst measured FFT-vs-direct gap over 300 random cases spanning the ranges
# below (all three kernels, m from 5 to 1300): 2.7e-16 * sum|w| * max|f|.
# The bound sits more than 300x above that.
FFT_REL_TOL = 1e-13


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["left", "right", "symmetric"]),
    st.integers(min_value=200, max_value=40000),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
def test_fft_matches_direct_summation(kind, n, frac, seed, island):
    g = Grid(-2.0, 2.0, n)
    # cells per unit kernel width: 4 up to 650, capped at a quarter of the grid
    cells = 4 + round(frac * (min(650, n // 4) - 4))
    op = make_operator(make_mollifier(kind), cells * g.dx, g)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
    if island:
        lo, hi = sorted(rng.integers(0, n, 2))
        f[:lo] = 0.0
        f[hi:] = 0.0
    for kernel, fn in ((op.weights, op.apply), (op.smooth_weights, op.mollify)):
        gap = np.max(np.abs(fn(f) - _direct(op, f, kernel)))
        assert gap <= FFT_REL_TOL * np.sum(np.abs(kernel)) * np.max(np.abs(f))


@pytest.mark.parametrize("kind", ["left", "right"])
def test_exact_zeros_outside_dependency_cone(kind):
    g = Grid(-4.0, 4.0, 20001)
    op = make_operator(make_mollifier(kind), 0.25, g)
    assert len(op.offsets) > 500
    f = np.zeros(g.n)
    lo, hi = 9000, 11000
    f[lo:hi + 1] = np.exp(-((g.xs[lo:hi + 1]) ** 2) * 20.0) + 0.5
    cone = np.zeros(g.n, dtype=bool)
    cone[lo + op.offsets[0]:hi + op.offsets[-1] + 1] = True
    for kernel, fn in ((op.weights, op.apply), (op.smooth_weights, op.mollify)):
        out = fn(f)
        assert np.all(out[~cone] == 0.0)
        assert np.all(_direct(op, f, kernel)[~cone] == 0.0)
        assert np.any(out[cone] != 0.0)
        zero = fn(np.zeros(g.n))
        assert np.all(zero == 0.0)


def test_operators_from_same_meta_are_bit_identical():
    g = Grid(-4.0, 1.0, 8001)
    meta = {"mollifier": make_mollifier("left").spec_dict(), "nu": 0.1}
    op1 = operator_for_meta(meta, g)
    op2 = operator_for_meta(meta, g)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.n)
    assert np.array_equal(op1.apply(f), op2.apply(f))
    assert np.array_equal(op1.mollify(f), op2.mollify(f))


def test_next_fast_len_matches_scipy():
    mismatch = [t for t in range(1, 200_001)
                if next_fast_len(t) != sfft.next_fast_len(t, real=True)]
    assert mismatch == []


def _scipy_convolve(op, f, kernel):
    # the scipy.fft convolution the operator replaced, cut to the dependency
    # cone of supp f the same way
    n = len(f)
    size = sfft.next_fast_len(n + len(kernel) - 1, real=True)
    full = sfft.irfft(sfft.rfft(f, size) * sfft.rfft(kernel, size), size)
    out = np.zeros(n)
    nz = np.nonzero(f)[0]
    j_min = int(op.offsets[0])
    a = max(nz[0] + j_min, 0)
    b = min(nz[-1] + int(op.offsets[-1]), n - 1) + 1
    out[a:b] = full[a - j_min:b - j_min]
    return out


@pytest.mark.parametrize("n", [2001, 4001, 8001, 32001])
@pytest.mark.parametrize("kind", ["left", "symmetric"])
def test_numpy_fft_is_bitwise_the_scipy_convolution(kind, n):
    g = Grid(-2.0, 2.0, n)
    op = make_operator(make_mollifier(kind), 0.05, g)
    rng = np.random.default_rng(n)
    island = np.zeros(n)
    island[n // 3:n // 2] = rng.standard_normal(n // 2 - n // 3)
    for f in (rng.standard_normal(n), island):
        # each operator reuses its work buffers, so apply each twice
        for kernel, fn in ((op.weights, op.apply), (op.smooth_weights, op.mollify)) * 2:
            assert fn(f).tobytes() == _scipy_convolve(op, f, kernel).tobytes()
