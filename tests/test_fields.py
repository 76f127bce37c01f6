import math

import numpy as np
import pytest

from maxlor.fields import (
    MARGIN_FRACTION,
    FieldState,
    Grid,
    ModelParams,
    SpacetimeSolution,
    margin_ratio,
    total_charge,
)


def test_grid_basics():
    g = Grid(-2.0, 2.0, 401)
    assert g.dx == pytest.approx(0.01, rel=1e-14)
    assert g.xs[0] == -2.0 and g.xs[-1] == 2.0
    assert len(g.xs) == 401
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 8)
    with pytest.raises(ValueError):
        Grid(1.0, -1.0, 100)


def test_grid_points_are_write_protected():
    g = Grid(0.0, 1.0, 32)
    with pytest.raises(ValueError):
        g.xs[0] = 99.0


def test_field_state_shape_check():
    z = np.zeros(16)
    FieldState(0.0, z, z, z)
    with pytest.raises(ValueError):
        FieldState(0.0, z, z, np.zeros(17))


def test_total_charge_of_hat():
    g = Grid(-1.0, 1.0, 2001)
    sigma = np.maximum(0.0, 1.0 - np.abs(g.xs))
    s = FieldState(0.0, np.zeros(g.n), np.zeros(g.n), sigma)
    # triangle of base 2 and height 1; trapezoid is exact on piecewise lines
    assert total_charge(g, s) == pytest.approx(1.0, rel=1e-12)


def test_model_params_validation():
    ModelParams(B0=1.0, T=0.5, eps=0.1)
    with pytest.raises(ValueError):
        ModelParams(B0=0.0, T=0.0, eps=0.1)
    with pytest.raises(ValueError):
        ModelParams(B0=0.0, T=1.0, eps=-0.1)


def test_margin_ratio_flags_edge_weight():
    g = Grid(-1.0, 1.0, 101)
    interior = np.zeros(g.n)
    interior[50] = 1.0
    clean = FieldState(0.0, interior, np.zeros(g.n), np.zeros(g.n))
    assert margin_ratio(g, clean) == 0.0

    leaky = np.zeros(g.n)
    leaky[50] = 1.0
    leaky[0] = 0.5
    dirty = FieldState(0.0, leaky, np.zeros(g.n), np.zeros(g.n))
    assert margin_ratio(g, dirty) == pytest.approx(0.5)


def _band_width(n):
    return max(1, int(round(MARGIN_FRACTION * (n - 1))))


def _mask_margin_ratio(grid, state):
    """The margin ratio as a boolean mask of the two edge bands: the oracle."""
    k = _band_width(grid.n)
    edge = np.zeros(grid.n, dtype=bool)
    edge[: k + 1] = True
    edge[-(k + 1):] = True
    tot = np.abs(state.E) + np.abs(state.u) + np.abs(state.sigma)
    interior_max = float(np.max(tot[~edge]))
    if interior_max == 0.0:
        return 0.0
    return float(np.max(tot[edge]) / interior_max)


def _same_bits(x, y):
    return math.isnan(x) and math.isnan(y) or np.float64(x).tobytes() == np.float64(y).tobytes()


@pytest.mark.parametrize("n", [16, 17, 1001])
def test_margin_ratio_equals_the_mask_formula(n):
    g = Grid(-1.0, 1.0, n)
    k = _band_width(n)
    rng = np.random.default_rng(n)
    states = [FieldState(0.0, *rng.standard_normal((3, n))) for _ in range(20)]
    for i in (k, k + 1, n - k - 2, n - k - 1):  # the last edge and first interior columns
        for scale in (0.0, 0.1):
            E, u, sigma = scale * rng.standard_normal((3, n))
            E[n // 2] += 1.0
            u[i] += 10.0
            states.append(FieldState(0.0, E, u, sigma))
    quiet = np.zeros((3, n))
    quiet[:, : k + 1] = rng.uniform(size=(3, k + 1))
    quiet[:, n - k - 1:] = rng.uniform(size=(3, k + 1))
    states.append(FieldState(0.0, *quiet))  # an all-zero interior
    for state in states:
        got, want = margin_ratio(g, state), _mask_margin_ratio(g, state)
        assert _same_bits(got, want), (got, want)
    assert margin_ratio(g, states[-1]) == 0.0


@pytest.mark.parametrize("n", [16, 17, 1001])
def test_margin_ratio_propagates_nan(n):
    g = Grid(-1.0, 1.0, n)
    k = _band_width(n)
    for i in (0, k, k + 1, n // 2, n - k - 2, n - k - 1, n - 1):
        sigma = np.ones(n)
        sigma[i] = np.nan
        state = FieldState(0.0, np.zeros(n), np.zeros(n), sigma)
        assert math.isnan(margin_ratio(g, state)), i
        assert math.isnan(_mask_margin_ratio(g, state)), i


def test_solution_requires_increasing_times():
    g = Grid(-1.0, 1.0, 32)
    z = np.zeros(g.n)
    mk = lambda t: FieldState(t, z.copy(), z.copy(), z.copy())
    SpacetimeSolution(g, [mk(0.0), mk(0.1)], {})
    with pytest.raises(ValueError):
        SpacetimeSolution(g, [mk(0.0), mk(0.0)], {})


def test_solution_status():
    g = Grid(-1.0, 1.0, 32)
    states = [
        FieldState(t, np.full(g.n, t), np.zeros(g.n), np.zeros(g.n))
        for t in (0.0, 0.5)
    ]
    sol = SpacetimeSolution(g, states, {})
    assert sol.status == "ok"
    sol2 = SpacetimeSolution(g, states, {"status": "guard"})
    assert sol2.status == "guard"
