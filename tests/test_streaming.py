"""The march's ``on_save`` hook and the folds that reduce each saved state.

Every command reduces its states as the march saves them, so these tests
pin what makes that safe: the row-wise arithmetic of the folds equals the
stacked arithmetic bit for bit, the hook sees exactly the states the stored
route keeps, and a streamed run holds far less than its states.
"""

import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

from maxlor import analysis, output
from maxlor.analysis import TestFunction2D, limit_sweep
from maxlor.cli import main
from maxlor.config import assemble_run, config_from_dict
from maxlor.fields import FieldState, Grid
from maxlor.solver import march_plan, solve

from stored_route import stored_solve


@pytest.mark.parametrize("n", [16, 1001, 32001, 256001])
def test_row_trapezoid_equals_the_stacked_reduction_bit_for_bit(n):
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((3, n)) * np.array([[1.0], [1e-9], [1e9]])
    dx = 5.0 / (n - 1)
    stacked = np.trapezoid(rows, dx=dx, axis=1)
    assert [np.trapezoid(row, dx=dx) for row in rows] == list(stacked)


def test_psi_per_row_equals_the_broadcast_weights():
    psi = TestFunction2D(t0=0.3, x0=-0.2, r_t=0.15, r_x=0.4, amplitude=1.7)
    times = np.linspace(0.0, 0.5, 41)
    xs = np.linspace(-4.0, 1.0, 2001)
    stacked = psi.value(times[:, None], xs[None, :])
    for i, t in enumerate(times.tolist()):
        assert np.array_equal(psi.value(t, xs), stacked[i])


def test_the_hook_sees_the_stored_states_and_the_solution_keeps_none(release_left):
    pieces, stored = release_left
    seen = []
    streamed = solve(pieces.initial, pieces.solver, pieces.operator, pieces.params,
                     on_save=seen.append)
    assert streamed.states == [] and len(streamed.times) == 0
    assert streamed.meta == stored.meta
    assert [s.t for s in seen] == stored.times.tolist()
    for a, b in zip(seen, stored.states):
        assert all(np.array_equal(a.component(n), b.component(n)) for n in ("E", "u", "sigma"))


@pytest.mark.parametrize("T, dt, save_every", [(0.5, 0.006, 4), (0.3, 0.01, 7), (0.2, 0.03, 1)])
def test_march_plan_is_the_save_grid_the_march_uses(T, dt, save_every):
    body = {"grid": {"x_min": -4.0, "x_max": 1.0, "n": 401},
            "scaling": {"kind": "constant", "c": 0.2}, "eps": 0.1,
            "model": {"T": T}, "solver": {"dt": dt, "save_every": save_every}}
    pieces = assemble_run(config_from_dict(body))
    sol = stored_solve(pieces.initial, pieces.solver, pieces.operator, pieces.params)
    h, n_steps, saved_times = march_plan(0.0, T, dt, save_every)
    assert sol.meta["n_steps"] == n_steps and sol.meta["dt"] == h
    assert sol.times.tolist() == saved_times


# a point-charge release whose stored run would hold 85 states of 1001 cells
_RELEASE = {
    "grid": {"x_min": -4.0, "x_max": 1.0, "n": 1001}, "mollifier": {"kind": "left"},
    "scaling": {"kind": "constant", "c": 0.1}, "eps": 0.1, "eps_schedule": [0.2, 0.1],
    "model": {"B0": 0.0, "T": 0.5}, "solver": {"save_every": 1},
}


def _stored_bytes(cfg, eps, refine):
    # what a stored run of that member holds: every saved (E, u, sigma)
    pieces = assemble_run(cfg, eps=eps, refine=refine)
    n_saved = math.ceil(pieces.params.T / pieces.solver.dt - 1e-12) + 1
    return n_saved * 3 * pieces.grid.n * 8


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_solve_peaks_below_the_states_it_writes(tmp_path):
    cfg_path = tmp_path / "release.json"
    cfg_path.write_text(json.dumps(_RELEASE))
    stored = _stored_bytes(config_from_dict(_RELEASE), 0.1, False)
    out = tmp_path / "out"
    # the first writer of a process builds the kernel tables, and garbage of
    # earlier imports may still await collection: neither is the run's
    output._kernel_tables()
    gc.collect()
    peak = _peak_bytes(lambda: main(["solve", "--config", str(cfg_path), "--out", str(out)]))
    assert len(list(out.glob("state_*.csv"))) * 3 * 1001 * 8 == stored
    assert peak < stored / 2, (peak, stored)


def test_streamed_world_lines_peak_below_the_states_they_read(tmp_path):
    body = {**_RELEASE, "experiment": {"trajectory_starts": [-0.6, -0.3, -0.05]}}
    cfg_path = tmp_path / "release.json"
    cfg_path.write_text(json.dumps(body))
    stored = _stored_bytes(config_from_dict(body), 0.1, False)
    out = tmp_path / "out"
    peak = _peak_bytes(lambda: main(["trajectories", "--config", str(cfg_path),
                                     "--out", str(out)]))
    assert len(list(out.glob("trajectory_*.csv"))) == 3
    assert peak < stored / 2, (peak, stored)


def test_state_writer_holds_the_x_cells_and_one_block(tmp_path):
    # a writer keeps the x column as _CELL bytes per point and buffers and
    # temporaries for _BLOCK rows (about 0.55 kB a row): no object per point
    n = 256001
    grid = Grid(-4.0, 1.0, n)
    rng = np.random.default_rng(5)
    state = FieldState(0.5, rng.standard_normal(n), rng.standard_normal(n) * 1e-200, np.zeros(n))
    grid.xs  # the march has the grid points before any writer exists
    output._kernel_tables()  # built once per process
    peak = _peak_bytes(lambda: output.StateWriter(tmp_path, grid)(state))
    assert peak < n * output._CELL + 2048 * output._BLOCK, peak


def test_streamed_sweep_member_peaks_below_its_states():
    cfg = config_from_dict(_RELEASE)
    stored = _stored_bytes(cfg, 0.1, True)
    psi = TestFunction2D(t0=0.3, x0=0.3, r_t=0.1, r_x=0.1)
    peak = _peak_bytes(lambda: limit_sweep(cfg, [0.1], [("Q", psi), ("sigma", psi)]))
    assert peak < stored / 2, (peak, stored)


def test_stored_functions_replay_into_the_streamed_folds(release_left, tmp_path):
    # each stored-solution function, and each fold replayed over the stored
    # states, equals its fold fed by the march
    pieces, sol = release_left
    grid, op = pieces.grid, pieces.operator
    psi = TestFunction2D(t0=0.3, x0=-0.2, r_t=0.1, r_x=0.1)
    folds = {
        "pair": analysis.Pairing(grid, "Q", psi, op, 0.0, pieces.params.T),
        "support": analysis.SupportProbe(grid, 0.05),
        "compare": analysis.LinearGaps(grid, pieces.params.q),
        "summary": output.SolveSummary(grid),
        "writer": output.StateWriter(tmp_path / "streamed", grid),
    }
    meta = solve(pieces.initial, pieces.solver, op, pieces.params,
                 on_save=lambda s: [fold(s) for fold in folds.values()]).meta
    assert folds["pair"].result() == analysis.pair(sol, "Q", psi, op)
    assert folds["support"].result() == analysis.support_probe(sol, 0.05)
    assert folds["compare"].result() == sol.replay(analysis.LinearGaps(grid, 1.0)).result()
    assert folds["summary"].result(meta) == sol.replay(output.SolveSummary(grid)).result(sol.meta)
    assert folds["writer"].finish(meta, {}) == output.write_solution(tmp_path / "stored", sol, {})
    for name in folds["writer"].files + ["meta.json", "config.json"]:
        assert ((tmp_path / "streamed" / name).read_bytes()
                == (tmp_path / "stored" / name).read_bytes())
