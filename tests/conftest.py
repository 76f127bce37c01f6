import numpy as np
import pytest

from maxlor import (
    FieldState,
    Grid,
    ModelParams,
    SolverConfig,
    assemble_run,
    config_from_dict,
    make_mollifier,
    make_operator,
)
from stored_route import stored_solve

# one line per acceptance criterion, emitted after the run so the verdicts
# are visible in the captured pytest log
_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_report():
    def record(num, name, ok, detail):
        line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        return ok

    return record


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def smooth_pieces(method="rk4", dt=0.0025, save_every=5):
    """The shared smooth benchmark: gaussian E and sigma, B0=1, nu=0.1."""
    grid = Grid(-6.0, 6.0, 1201)
    op = make_operator(make_mollifier("symmetric"), 0.1, grid)
    xs = grid.xs
    g = 0.1 * np.exp(-(xs**2))
    initial = FieldState(0.0, g.copy(), np.zeros_like(xs), g.copy())
    params = ModelParams(B0=1.0, T=0.5, eps=0.1)
    cfg = SolverConfig(dt=dt, method=method, save_every=save_every)
    return grid, op, params, initial, cfg


@pytest.fixture(scope="session")
def smooth_rk4():
    grid, op, params, initial, cfg = smooth_pieces("rk4")
    return stored_solve(initial, cfg, op, params), op


@pytest.fixture(scope="session")
def smooth_picard():
    grid, op, params, initial, cfg = smooth_pieces("picard")
    return stored_solve(initial, cfg, op, params), op


def release_config(side="left"):
    """Point-charge release config with the causal kernel on one side."""
    if side == "left":
        grid = {"x_min": -4.0, "x_max": 1.0, "n": 1001}
    else:
        grid = {"x_min": -1.0, "x_max": 4.0, "n": 1001}
    return config_from_dict({
        "grid": grid,
        "mollifier": {"kind": side},
        "scaling": {"kind": "constant", "c": 0.1},
        "eps": 0.1,
        "model": {"B0": 0.0, "T": 0.5, "q": 1.0},
        "delta_net": {"profile": {"kind": side}},
        "solver": {"save_every": 4},
    })


@pytest.fixture(scope="session")
def release_left():
    pieces = assemble_run(release_config("left"))
    return pieces, stored_solve(pieces.initial, pieces.solver, pieces.operator, pieces.params)


@pytest.fixture(scope="session")
def release_right():
    pieces = assemble_run(release_config("right"))
    return pieces, stored_solve(pieces.initial, pieces.solver, pieces.operator, pieces.params)
