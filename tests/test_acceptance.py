"""Release gate: every core guarantee of the package, each at its stated
tolerance, each reporting one pass/fail line through the acceptance fixture.

The numbered tests are intentionally self-contained and re-solve what they
measure (sharing only the session fixtures built from the same configs), so
a green run of this module alone certifies the build.
"""

import json
import os
import time

import numpy as np

from maxlor.analysis import (
    VERDICT_OBSTRUCTION,
    SupportProbe,
    TestFunction2D,
    limit_sweep,
    linearized_reference,
)
from maxlor.cli import EXIT_OK, main
from maxlor.config import assemble_run, config_from_dict
from maxlor.fields import FieldState, Grid, ModelParams, SpacetimeSolution, total_charge
from maxlor.mollifier import make_mollifier
from maxlor.nonlinearity import a
from maxlor.regops import make_operator
from maxlor.scaling import make_scaling, verify_growth_condition
from maxlor.solver import SolverConfig

from conftest import release_config
from oracles import linear_system_residuals
from stored_route import reparametrization_gap, stored_solve, transport_residual, world_line


def _solve_release(side, **solver_overrides):
    cfg = release_config(side)
    cfg.solver.update(solver_overrides)
    pieces = assemble_run(cfg)
    sol = stored_solve(pieces.initial, pieces.solver, pieces.operator, pieces.params)
    return pieces, sol


def test_01_derivative_convergence_orders(acceptance_report):
    t0 = time.perf_counter()
    grid = Grid(-10.0, 10.0, 4001)
    f = np.sin(grid.xs)
    exact = np.cos(grid.xs)
    errs = {}
    for kind in ("symmetric", "left"):
        moll = make_mollifier(kind)
        for nu in (0.2, 0.1, 0.05):
            op = make_operator(moll, nu, grid)
            fringe = int(np.ceil(2 * nu / grid.dx)) + 2
            sl = slice(fringe, grid.n - fringe)
            errs[kind, nu] = float(np.max(np.abs(op.apply(f)[sl] - exact[sl])))
    orders = {
        kind: [
            float(np.log2(errs[kind, 0.2] / errs[kind, 0.1])),
            float(np.log2(errs[kind, 0.1] / errs[kind, 0.05])),
        ]
        for kind in ("symmetric", "left")
    }
    elapsed = time.perf_counter() - t0
    ok = (min(orders["symmetric"]) >= 1.8 and min(orders["left"]) >= 0.8
          and elapsed < 1.0)
    acceptance_report(
        1, "derivative convergence orders", ok,
        f"symmetric {orders['symmetric'][1]:.2f} >= 1.8, "
        f"left {orders['left'][1]:.2f} >= 0.8, {elapsed:.2f}s < 1s",
    )
    assert ok, orders


def test_02_cross_method_agreement(acceptance_report):
    t0 = time.perf_counter()
    grid = Grid(-6.0, 6.0, 1201)
    op = make_operator(make_mollifier("symmetric"), 0.1, grid)
    g = 0.1 * np.exp(-grid.xs**2)
    initial = FieldState(0.0, g.copy(), np.zeros(grid.n), g.copy())
    params = ModelParams(B0=1.0, T=0.5, eps=0.1)
    rk = stored_solve(initial, SolverConfig(dt=0.0025, method="rk4", save_every=5), op, params)
    pic = stored_solve(initial, SolverConfig(dt=0.0025, method="picard", save_every=5), op,
                       params)
    elapsed = time.perf_counter() - t0
    worst = max(
        float(np.max(np.abs(s1.component(n) - s2.component(n))))
        for s1, s2 in zip(rk.states, pic.states)
        for n in ("E", "u", "sigma")
    )
    ok = worst <= 1e-5 and elapsed < 30.0
    acceptance_report(
        2, "independent solver routes agree", ok,
        f"max gap {worst:.3g} <= 1e-5, {elapsed:.1f}s < 30s",
    )
    assert ok, (worst, elapsed)


def test_03_charge_conservation(acceptance_report, smooth_rk4, release_left):
    worst = 0.0
    for sol in (smooth_rk4[0], release_left[1]):
        q0 = total_charge(sol.grid, sol.states[0])
        drift = max(abs(total_charge(sol.grid, s) - q0) for s in sol.states)
        worst = max(worst, drift / abs(q0))
    ok = worst <= 1e-6
    acceptance_report(
        3, "charge conservation", ok, f"relative drift {worst:.3g} <= 1e-6",
    )
    assert ok, worst


def test_04_transport_identity(acceptance_report, smooth_rk4):
    sol, op = smooth_rk4
    fine = transport_residual(sol, op)
    coarse = transport_residual(SpacetimeSolution(sol.grid, sol.states[::2], sol.meta), op)
    ratio = coarse.max_residual / fine.max_residual
    ok = fine.max_residual <= 1e-3 and ratio >= 3.5
    acceptance_report(
        4, "discrete transport identity", ok,
        f"residual {fine.max_residual:.3g} <= 1e-3, halving ratio {ratio:.2f} >= 3.5",
    )
    assert ok, (fine.max_residual, ratio)


def test_05_one_sided_confinement(acceptance_report):
    t0 = time.perf_counter()
    _, left = _solve_release("left")
    _, right = _solve_release("right")
    rep_l = left.replay(SupportProbe(left.grid, 0.05)).result()
    rep_r = right.replay(SupportProbe(right.grid, -0.05)).result()
    worst = max(
        max(rep_l.rel_right(n) for n in ("E", "u", "sigma")),
        max(rep_r.rel_left(n) for n in ("E", "u", "sigma")),
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    acceptance_report(
        5, "one-sided support confinement", ok,
        f"worst relative leak {worst:.3g} <= 1e-8 (both orientations), "
        f"{elapsed:.1f}s < 60s",
    )
    assert ok, (worst, elapsed)


def test_06_support_obstruction_sweep(acceptance_report):
    psi = TestFunction2D(t0=0.3, x0=0.3, r_t=0.1, r_x=0.1)
    res = limit_sweep(release_config("left"), [0.2, 0.1, 0.05], [("Q", psi)])
    label = next(iter(res.verdicts))
    pair_max = max(abs(v) for v in res.pairings[label])
    target = res.targets[label]
    ok = (
        not res.partial
        and pair_max <= 1e-8
        and target > 0.05
        and res.verdicts[label] == VERDICT_OBSTRUCTION
    )
    acceptance_report(
        6, "vacuum pairings obstruct the limit", ok,
        f"|pairing| <= {pair_max:.3g} (tol 1e-8) vs required {target:.3g} > 0.05; "
        f"verdict '{res.verdicts[label]}'",
    )
    assert ok, (res.verdicts, res.pairings, res.targets)


def test_07_linearized_reference(acceptance_report):
    q = 1.7
    ref = linearized_reference(q)
    spots_ok = (
        ref.E(0.5, 0.25) == q
        and ref.u(0.5, 0.25) == 0.25 * q
        and ref.E(0.0, 0.25) == 0.0
        and ref.u(0.0, 0.25) == 0.0
    )
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        psi = TestFunction2D(
            t0=float(rng.uniform(0.15, 0.85)),
            x0=float(rng.uniform(-0.5, 0.9)),
            r_t=float(rng.uniform(0.05, 0.15)),
            r_x=float(rng.uniform(0.05, 0.3)),
        )
        res = linear_system_residuals(q, psi)
        worst = max(worst, max(abs(v) for v in res.values()))
    ok = spots_ok and worst <= 1e-6
    acceptance_report(
        7, "linearized closed form solves its system", ok,
        f"spot values exact, worst weak residual {worst:.3g} <= 1e-6 over 20 "
        "seeded windows",
    )
    assert ok, (spots_ok, worst)


def test_08_world_lines(acceptance_report):
    # consistency of the two path integrators on real solver output needs a
    # save lattice fine enough that sampling is not the bottleneck
    _, sol = _solve_release("left", dt=0.001, save_every=1)
    gap = reparametrization_gap(sol, -0.05)
    speed = world_line(sol, -0.05).max_speed

    grid = Grid(-2.0, 2.0, 401)
    times = np.linspace(0.0, 1.0, 101)
    z = np.zeros(grid.n)
    still = SpacetimeSolution(
        grid=grid, states=[FieldState(t, z, z, z) for t in times], meta={"status": "ok"})
    moving = SpacetimeSolution(
        grid=grid, states=[FieldState(t, z, np.ones(grid.n), z) for t in times],
        meta={"status": "ok"})
    still_err = float(np.max(np.abs(world_line(still, 0.3).positions - 0.3)))
    traj = world_line(moving, -0.5)
    const_err = abs(traj.positions[-1] - (-0.5 + a(1.0) * 1.0))
    ok = (speed < 1.0 and still_err <= 1e-10 and const_err <= 1e-10
          and gap <= 1e-6)
    acceptance_report(
        8, "world lines stay subluminal and consistent", ok,
        f"max speed {speed:.6f} < 1, analytic errors {still_err:.1g}/"
        f"{const_err:.3g} <= 1e-10, reparametrization gap {gap:.3g} <= 1e-6",
    )
    assert ok, (speed, still_err, const_err, gap)


def test_09_scaling_admissibility(acceptance_report):
    eps_grid = list(np.logspace(-3, -12, 10))
    loglog = make_scaling("loglog", c=1.0)
    rep1 = verify_growth_condition(loglog, 1.0, eps_grid)
    rep2 = verify_growth_condition(loglog, 2.0, eps_grid)
    power = verify_growth_condition(make_scaling("powerlaw", c=1.0, exponent=1.0),
                                    1.0, eps_grid)
    ok = rep1.satisfied and rep2.satisfied and not power.satisfied
    acceptance_report(
        9, "admissible vs inadmissible width scalings", ok,
        f"loglog passes p=1,2 (k ~ {rep1.k_estimate:.3g}, {rep2.k_estimate:.3g}); "
        "powerlaw fails as required",
    )
    assert ok, (rep1, rep2, power)


def test_10_bitwise_determinism(acceptance_report, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"x_min": -4.0, "x_max": 1.0, "n": 1001},
        "mollifier": {"kind": "left"},
        "scaling": {"kind": "constant", "c": 0.1},
        "model": {"B0": 0.0, "T": 0.5, "q": 1.0},
        "solver": {"save_every": 4},
        "seed": 7,
    }))
    outs = [str(tmp_path / "r1"), str(tmp_path / "r2")]
    codes = [main(["solve", "--config", str(cfg), "--out", o]) for o in outs]
    names = sorted(os.listdir(outs[0]))
    diffs = [
        n for n in names
        if (tmp_path / "r1" / n).read_bytes() != (tmp_path / "r2" / n).read_bytes()
    ]
    ok = codes == [EXIT_OK, EXIT_OK] and sorted(os.listdir(outs[1])) == names and not diffs
    acceptance_report(
        10, "bitwise deterministic outputs", ok,
        f"{len(names)} files byte-identical across reruns" if ok
        else f"differing files: {diffs}",
    )
    assert ok, (codes, diffs)
