import numpy as np
import pytest

from maxlor.fields import (
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


def test_solution_requires_increasing_times():
    g = Grid(-1.0, 1.0, 32)
    z = np.zeros(g.n)
    mk = lambda t: FieldState(t, z.copy(), z.copy(), z.copy())
    SpacetimeSolution(g, np.array([0.0, 0.1]), [mk(0.0), mk(0.1)], {})
    with pytest.raises(ValueError):
        SpacetimeSolution(g, np.array([0.0, 0.0]), [mk(0.0), mk(0.0)], {})


def test_solution_status():
    g = Grid(-1.0, 1.0, 32)
    states = [
        FieldState(t, np.full(g.n, t), np.zeros(g.n), np.zeros(g.n))
        for t in (0.0, 0.5)
    ]
    sol = SpacetimeSolution(g, np.array([0.0, 0.5]), states, {})
    assert sol.status == "ok"
    sol2 = SpacetimeSolution(g, np.array([0.0, 0.5]), states, {"status": "guard"})
    assert sol2.status == "guard"
