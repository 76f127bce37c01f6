import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sfft

from maxlor.config import MAX_GRID_POINTS
from maxlor.fields import Grid
from maxlor.mollifier import make_mollifier
from maxlor.regops import MAX_STENCIL, SPECTRA_KEPT, make_operator, next_fast_len


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


def test_right_kernel_first_order():
    # acceptance 01's sin(x) setup for the kernel that reads leftward
    g = Grid(-10.0, 10.0, 4001)
    f = np.sin(g.xs)
    m = make_mollifier("right")
    errs = []
    for nu in (0.2, 0.1, 0.05):
        op = make_operator(m, nu, g)
        errs.append(np.max(np.abs(_interior(op.apply(f) - np.cos(g.xs), g, nu))))
    orders = np.log2(np.divide(errs[:-1], errs[1:]))
    assert min(orders) >= 0.8, orders


def test_constants_annihilated_on_interior():
    g = Grid(-2.0, 2.0, 801)
    op = make_operator(make_mollifier("symmetric"), 0.1, g)
    out = op.apply(np.full(g.n, 3.7))
    assert np.max(np.abs(_interior(out, g, 0.1))) < 1e-13


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


def test_operator_norm_bounds_amplification():
    g = Grid(-2.0, 2.0, 1601)
    m = make_mollifier("symmetric")
    op = make_operator(m, 0.1, g)
    assert op.op_norm == pytest.approx(m.l1_deriv / 0.1, rel=1e-12)
    assert np.sum(np.abs(op.weights)) <= op.op_norm * (1.0 + 1e-9)
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = rng.standard_normal(g.n)
        assert np.max(np.abs(op.apply(f))) <= op.op_norm * np.max(np.abs(f)) * (1 + 1e-12)


def _support(kind, anchor, width):
    # a support of the given width that the kind admits, placed by anchor in [0, 1]
    if kind == "left":
        return (-anchor - width, -anchor)
    if kind == "right":
        return (anchor, anchor + width)
    return (anchor - width, anchor)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["left", "right", "symmetric"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=4.0, max_value=400.0),
)
def test_stencil_holds_every_sampled_kernel_point(kind, anchor, width, cells):
    # the stencil is trimmed on the derivative weights alone; it must still
    # cover every offset j where the kernel sampled at j*dx is nonzero, which
    # is where the union with the point-sampled kernel used to reach
    g = Grid(-1.0, 1.0, 2001)
    m = make_mollifier(kind, support=_support(kind, anchor, width))
    nu = cells * g.dx
    op = make_operator(m, nu, g)
    js = np.arange(math.floor(nu * m.s_lo / g.dx) - 2, math.ceil(nu * m.s_hi / g.dx) + 3)
    sampled = js[m.eval(js * g.dx / nu) != 0.0]
    assert len(sampled) > 0
    assert op.offsets[0] <= sampled[0] and sampled[-1] <= op.offsets[-1]


def test_kernel_narrower_than_a_cell_is_refused():
    # the kernel holds the grid point 0 but no midpoint j +- 1/2, so every
    # derivative weight is zero
    g = Grid(-1.0, 1.0, 2001)
    m = make_mollifier("symmetric", support=(-0.05, 0.05))
    assert m.eval(0.0) > 0.0
    with pytest.raises(ValueError, match="empty stencil"):
        make_operator(m, 4 * g.dx, g)


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
    gap = np.max(np.abs(op.apply(f) - _direct(op, f, op.weights)))
    assert gap <= FFT_REL_TOL * np.sum(np.abs(op.weights)) * np.max(np.abs(f))


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
    out = op.apply(f)
    assert np.all(out[~cone] == 0.0)
    assert np.all(_direct(op, f, op.weights)[~cone] == 0.0)
    assert np.any(out[cone] != 0.0)
    assert np.all(op.apply(np.zeros(g.n)) == 0.0)


def test_operators_from_same_meta_are_bit_identical():
    g = Grid(-4.0, 1.0, 8001)
    op1 = make_operator(make_mollifier("left"), 0.1, g)
    op2 = make_operator(make_mollifier("left"), 0.1, g)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.n)
    assert np.array_equal(op1.apply(f), op2.apply(f))


def test_next_fast_len_matches_scipy():
    mismatch = [t for t in range(1, 200_001)
                if next_fast_len(t) != sfft.next_fast_len(t, real=True)]
    assert mismatch == []


def _loop_next_fast_len(target):
    # the search next_fast_len replaced: for each 5-smooth odd part below the
    # running best, the smallest power-of-two multiple that reaches target
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((target - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def test_next_fast_len_matches_scipy_and_the_loop_up_to_the_longest_transform():
    # above the exhaustive range, up to the longest window a valid config can
    # ask for; the 5-smooth lengths and their neighbours are where the answer
    # steps
    top = MAX_GRID_POINTS + MAX_STENCIL
    steps = [2**i * 3**j * 5**k for i in range(22) for j in range(14) for k in range(10)
             if 200_000 <= 2**i * 3**j * 5**k <= top + 1]
    rng = np.random.default_rng(11)
    targets = sorted({t for p in steps for t in (p - 1, p, p + 1)}
                     | set(rng.integers(200_001, top + 1, 2000).tolist()) | {top})
    mismatch = [t for t in targets
                if not next_fast_len(t) == _loop_next_fast_len(t) == sfft.next_fast_len(t, real=True)]
    assert mismatch == []


def _scipy_convolve(op, f):
    # the scipy.fft convolution of the window between the first and the last
    # nonzero of f, padded to the window's own fast length, cut to the
    # dependency cone of that window the same way
    n = len(f)
    nz = np.nonzero(f)[0]
    lo, hi = nz[0], nz[-1]
    size = sfft.next_fast_len(hi - lo + len(op.weights), real=True)
    full = sfft.irfft(sfft.rfft(f[lo:hi + 1], size) * sfft.rfft(op.weights, size), size)
    out = np.zeros(n)
    j_min = int(op.offsets[0])
    a = max(lo + j_min, 0)
    b = min(hi + int(op.offsets[-1]), n - 1) + 1
    out[a:b] = full[a - lo - j_min:b - lo - j_min]
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
        # each operator reuses its work buffers, so apply twice
        for _ in range(2):
            assert op.apply(f).tobytes() == _scipy_convolve(op, f).tobytes()


def _full_grid_fft(op, f):
    # the transform of the whole grid at the operator's longest length,
    # fft_len, cut to the dependency cone of the nonzero values of f
    n = len(f)
    full = np.fft.irfft(np.fft.rfft(f, op.fft_len) * np.fft.rfft(op.weights, op.fft_len),
                        op.fft_len)
    out = np.zeros(n)
    nz = np.nonzero(f)[0]
    j_min = int(op.offsets[0])
    a = max(nz[0] + j_min, 0)
    b = min(nz[-1] + int(op.offsets[-1]), n - 1) + 1
    out[a:b] = full[a - j_min:b - j_min]
    return out


def _supported(n, rng, shape):
    # a random field whose nonzero values have the given shape of support
    f = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
    lo, hi = sorted(int(i) for i in rng.integers(0, n, 2))
    if shape == "point":
        keep = slice(lo, lo + 1)
    elif shape == "first":
        keep = slice(0, hi + 1)
    elif shape == "last":
        keep = slice(lo, n)
    elif shape == "island":
        keep = slice(lo, hi + 1)
    else:  # the whole grid
        keep = slice(0, n)
    g = np.zeros(n)
    g[keep] = f[keep]
    g[keep.start] = g[keep.stop - 1] = 1.0  # nonzero window ends exactly there
    return g


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["left", "right", "symmetric"]),
    st.integers(min_value=200, max_value=20000),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["point", "first", "last", "island", "grid"]),
)
def test_window_transform_matches_the_full_grid_transform(kind, n, frac, seed, shape):
    g = Grid(-2.0, 2.0, n)
    cells = 4 + round(frac * (min(650, n // 4) - 4))
    op = make_operator(make_mollifier(kind), cells * g.dx, g)
    f = _supported(n, np.random.default_rng(seed), shape)
    out, oracle = op.apply(f), _full_grid_fft(op, f)
    if shape == "grid":
        assert out.tobytes() == oracle.tobytes()
    gap = np.max(np.abs(out - oracle))
    assert gap <= FFT_REL_TOL * np.sum(np.abs(op.weights)) * np.max(np.abs(f))


def test_apply_does_not_depend_on_the_operator_history():
    # a sweep member gives the same bytes whether its operator is fresh, as
    # in a pool worker, or has transformed other supports first
    g = Grid(-4.0, 1.0, 8001)
    used = make_operator(make_mollifier("left"), 0.05, g)
    rng = np.random.default_rng(11)
    fields = [_supported(g.n, rng, shape)
              for shape in ("grid", "island", "point", "first", "last", "island", "grid")]
    for f in fields:
        used.apply(f)
    for f in fields[::-1]:
        fresh = make_operator(make_mollifier("left"), 0.05, g)
        assert used.apply(f).tobytes() == fresh.apply(f).tobytes()


def test_spectrum_cache_stays_within_its_bound():
    g = Grid(-2.0, 2.0, 4001)
    op = make_operator(make_mollifier("symmetric"), 0.05, g)
    rng = np.random.default_rng(5)
    sizes = set()
    for width in rng.integers(1, g.n, 60):
        f = np.zeros(g.n)
        f[:width] = 1.0
        op.apply(f)
        sizes.add(next_fast_len(int(width) - 1 + len(op.weights)))
        assert len(op._spectra) <= SPECTRA_KEPT
    assert len(sizes) > SPECTRA_KEPT
