import tracemalloc

import numpy as np
import pytest

from maxlor.config import assemble_run, config_from_dict
from maxlor.fields import FieldState, Grid, SpacetimeSolution
from maxlor.nonlinearity import a, sqrt1p_sq
from maxlor.solver import march_plan, rk4_step, solve
from maxlor.trajectories import WorldLines, _FieldSampler, default_path_steps, integrate_world_line

from stored_route import proper_time_world_line, reparametrization_gap, stored_solve, world_line


def momentum_solution(u_of_tx, x_min=-2.0, x_max=2.0, n=401, t_max=1.0, n_times=101,
                      times=None):
    grid = Grid(x_min, x_max, n)
    times = np.linspace(0.0, t_max, n_times) if times is None else np.asarray(times)
    z = np.zeros(grid.n)
    states = [
        FieldState(t, z.copy(), np.asarray(u_of_tx(t, grid.xs), float), z.copy())
        for t in times
    ]
    return SpacetimeSolution(grid=grid, states=states, meta={"status": "ok"})


def test_sampler_equals_the_blended_row_up_to_rounding():
    # the sampler reads the two saved rows at x, then blends the two numbers;
    # reading the time-blended row at x gives the same value up to rounding
    sol = momentum_solution(lambda t, x: np.sin(3 * x + 5 * t) + t * x ** 2, n=2001, n_times=23)
    rows = [s.u for s in sol.states]
    sample, stack, ts = _FieldSampler(sol.times, sol.grid.xs, rows), np.stack(rows), sol.times
    tol = 4 * np.finfo(float).eps * np.max(np.abs(stack))
    rng = np.random.default_rng(7)
    for t, x in zip(rng.uniform(-0.1, 1.1, 2000), rng.uniform(-2.0, 2.0, 2000)):
        i = int(np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2))
        lam = np.clip((t - ts[i]) / (ts[i + 1] - ts[i]), 0.0, 1.0)
        row = (1.0 - lam) * stack[i] + lam * stack[i + 1]
        assert abs(sample(t, x) - np.interp(x, sol.grid.xs, row)) <= tol, (t, x)


def test_zero_momentum_is_exactly_stationary():
    sol = momentum_solution(lambda t, x: np.zeros_like(x))
    traj = world_line(sol, 0.3)
    assert np.all(traj.positions == 0.3)
    assert np.all(traj.velocities == 0.0)
    assert traj.max_speed == 0.0
    assert not traj.exited


def test_constant_momentum_moves_linearly():
    c = 1.0
    sol = momentum_solution(lambda t, x: np.full_like(x, c))
    traj = world_line(sol, -0.5)
    v = a(c)
    assert v == 0.7071067811865475
    assert np.all(traj.velocities == v)
    assert traj.positions[-1] == pytest.approx(-0.5 + v * 1.0, rel=1e-12)
    assert np.allclose(traj.positions, -0.5 + v * traj.times, rtol=1e-12, atol=1e-14)


def test_speed_always_subluminal():
    # a steep, loud momentum field still cannot push the path past light speed
    sol = momentum_solution(lambda t, x: 1e6 * np.sin(8 * x + 5 * t))
    traj = world_line(sol, 0.0)
    assert traj.max_speed < 1.0
    steps = np.abs(np.diff(traj.positions))
    dr = np.diff(traj.times)
    assert np.all(steps <= dr * (1.0 + 1e-12))


def test_step_halving_is_fourth_order():
    # bilinear sampling is exact on fields linear in t and in x separately,
    # so the only error left is the integrator's own truncation
    def u(t, x):
        return 1.0 - 2.0 * t + x + 3.0 * t * x

    # the path step is the save spacing, so 51, 101 and 201 saved times give
    # 50, 100 and 200 steps through the same field
    end = {}
    for n_steps in (50, 100, 200):
        sol = momentum_solution(u, n=201, n_times=n_steps + 1)
        assert default_path_steps(sol.times) == n_steps
        end[n_steps] = world_line(sol, 0.1).positions[-1]
    err_c = abs(end[50] - end[200])
    err_f = abs(end[100] - end[200])
    assert err_f > 0.0
    assert err_c / err_f >= 8.0


def test_window_validation():
    sol = momentum_solution(lambda t, x: np.zeros_like(x))
    with pytest.raises(ValueError, match="start position"):
        world_line(sol, 5.0)


def test_one_saved_time_is_refused():
    sol = momentum_solution(lambda t, x: np.zeros_like(x), n_times=1)
    for route in (world_line, proper_time_world_line):
        with pytest.raises(ValueError, match="two saved times"):
            route(sol, 0.0)
    with pytest.raises(ValueError, match="two saved times"):
        default_path_steps(sol.times)


def test_world_line_copies_no_field():
    # the sampler reads the saved u rows in place: a world line through 40
    # saves of 20 001 points allocates less than one (n_saved, n) stack
    n_saved, n = 40, 20_001
    sol = momentum_solution(lambda t, x: 0.5 * np.sin(x + t), n=n, n_times=n_saved)
    stack_bytes = n_saved * n * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        world_line(sol, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes, (peak, stack_bytes)


class _CountingRows(list):
    """A row list that counts the slots written through item assignment."""

    writes = 0

    def __setitem__(self, key, value):
        self.writes += len(value) if isinstance(key, slice) else 1
        super().__setitem__(key, value)


def test_world_lines_drop_each_row_once():
    # dropping rows costs O(saves) in all: re-nulling every earlier slot at
    # each save would write about S^2 / 2 of them
    n_saved = 2_000
    grid = Grid(-1.0, 1.0, 16)
    times = np.linspace(0.0, 1.0, n_saved)
    lines = WorldLines(grid, times, [0.0])
    lines.rows = lines.u_at.rows = _CountingRows()
    z = np.zeros(grid.n)
    for t in times:
        lines(FieldState(t, z, z, z))
    assert lines.rows.writes <= n_saved, lines.rows.writes
    assert sum(row is not None for row in lines.rows) <= 4
    assert not np.any(lines.result()[0].positions)


def test_exit_truncates_path():
    sol = momentum_solution(lambda t, x: np.full_like(x, 1e9), x_min=-1.0, x_max=1.0)
    traj = world_line(sol, 0.9)
    assert traj.exited
    assert traj.times[-1] < sol.times[-1]
    assert traj.positions[-1] > 1.0


def test_multiple_starts_order_preserved():
    sol = momentum_solution(lambda t, x: np.full_like(x, 2.0))
    trajs = [world_line(sol, start) for start in (-0.5, 0.0, 0.5)]
    assert [t.start for t in trajs] == [-0.5, 0.0, 0.5]
    # ordered starts stay ordered under one velocity field
    finals = [t.positions[-1] for t in trajs]
    assert finals == sorted(finals)


def test_proper_time_route_agrees():
    def u(t, x):
        return 0.8 * np.exp(-x * x) * (1.0 + 0.5 * t)

    sol = momentum_solution(u, n=801, n_times=401)
    gap = reparametrization_gap(sol, 0.2)
    assert gap <= 1e-6


def test_proper_time_clock_never_slows():
    sol = momentum_solution(lambda t, x: np.full_like(x, 3.0))
    z0, z1 = proper_time_world_line(sol, 0.0)
    assert np.all(np.diff(z0) > 0)
    assert z0[-1] >= 1.0
    # dz1/dz0 = a(u): constant momentum gives a straight line in (z0, z1)
    slopes = np.diff(z1) / np.diff(z0)
    assert np.allclose(slopes, a(3.0), rtol=1e-12)


def test_proper_time_step_defaults_to_the_world_line_path_step():
    # a short last save interval, as a step count that is not a multiple of
    # save_every leaves: the largest spacing 0.3 allows 3 path steps over
    # the window, while 4 saved intervals would suggest a finer step
    sol = momentum_solution(lambda t, x: 0.8 * np.exp(-x * x) * (1.0 + t),
                            times=[0.0, 0.3, 0.6, 0.9, 1.0])
    assert default_path_steps(sol.times) == 3
    assert len(world_line(sol, 0.2).times) - 1 == 3
    z0, z1 = proper_time_world_line(sol, 0.2)
    # the proper-time march takes RK4 steps of ds = 1/3 from (0, 0.2)
    u_at = _FieldSampler(sol.times, sol.grid.xs, [s.u for s in sol.states])

    def rate(s, z, out=None):
        uu = u_at(z[0], z[1])
        return np.array([sqrt1p_sq(uu), uu])

    z = np.array([0.0, 0.2])
    for i in range(len(z0)):
        assert z0[i] == z[0] and z1[i] == z[1], i
        z = rk4_step(rate, 0.0, z, 1.0 / 3)


def test_reparametrization_gap_requires_contained_path():
    sol = momentum_solution(lambda t, x: np.full_like(x, 1e9), x_min=-1.0, x_max=1.0)
    with pytest.raises(ValueError, match="left the grid"):
        reparametrization_gap(sol, 0.9)


def test_world_line_on_solver_output(release_left):
    # released charge drifts into the half-plane it radiates into; the world
    # line must stay subluminal and inside the domain for the whole window
    _, sol = release_left
    traj = world_line(sol, -0.05)
    assert not traj.exited
    assert traj.max_speed < 1.0
    assert traj.times[-1] == pytest.approx(float(sol.times[-1]))


def _plain_world_line(sol, start):
    # the reference: a plain stepping loop over a stored solution, every
    # step taken at once with every saved row at hand
    u_at = _FieldSampler(sol.times, sol.grid.xs, [s.u for s in sol.states])

    def velocity(t, w, out=None):
        return a(u_at(t, w))

    n_steps = default_path_steps(sol.times)
    t_first, h = float(sol.times[0]), float(sol.times[-1] - sol.times[0]) / n_steps
    times, positions, velocities = [t_first], [float(start)], [velocity(t_first, start)]
    for i in range(n_steps):
        w = rk4_step(velocity, t_first + i * h, positions[-1], h)
        times.append(t_first + (i + 1) * h)
        positions.append(w)
        velocities.append(velocity(times[-1], w))
        if not (sol.grid.x_min <= w <= sol.grid.x_max):
            break
    return np.asarray(times), np.asarray(positions), np.asarray(velocities)


# (T, save_every, march steps): the last save interval short; path nodes on
# the save times; two saves and one path step.  dt is 0.005 throughout
LIVE_GRIDS = [(0.415, 4, 83), (0.4, 4, 80), (0.02, 8, 4)]


@pytest.mark.parametrize("T, save_every, n_march", LIVE_GRIDS,
                         ids=["short-last-save", "nodes-on-saves", "one-path-step"])
def test_the_live_fold_equals_the_stored_replay(T, save_every, n_march):
    # a momentum bump pushes the start at 0.85 off the right edge mid-run
    body = {"grid": {"x_min": -3.0, "x_max": 1.0, "n": 801}, "mollifier": {"kind": "left"},
            "scaling": {"kind": "constant", "c": 0.1}, "model": {"B0": 0.0, "T": T},
            "solver": {"dt": 0.005, "save_every": save_every},
            "initial": {"u": {"kind": "gaussian", "amplitude": 3.0, "width": 1.0}}}
    pieces = assemble_run(config_from_dict(body))
    _, times, saved = march_plan(0.0, T, pieces.solver.dt, save_every)
    assert len(times) - 1 == n_march
    starts = [-0.5, 0.0, 0.85]
    lines, held = WorldLines(pieces.grid, [times[i] for i in saved], starts), []

    def on_save(state):
        lines(state)
        held.append(sum(row is not None for row in lines.rows))

    solve(pieces.initial, pieces.solver, pieces.operator, pieces.params, on_save=on_save)
    stored = stored_solve(pieces.initial, pieces.solver, pieces.operator, pieces.params)
    assert max(held) <= 4, held
    live = lines.result()
    assert lines.n_steps == default_path_steps(stored.times)
    for traj, start in zip(live, starts):
        replayed = integrate_world_line(stored, start)
        for name in ("times", "positions", "velocities"):
            assert np.array_equal(getattr(traj, name), getattr(replayed, name)), name
        assert traj.exited == replayed.exited
        want = _plain_world_line(stored, start)
        assert all(np.array_equal(got, w)
                   for got, w in zip((traj.times, traj.positions, traj.velocities), want))
    if n_march > save_every:
        assert [t.exited for t in live] == [False, False, True]
