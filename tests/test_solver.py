import math
import warnings

import numpy as np
import pytest

import maxlor.solver as solver_mod
from maxlor.fields import FieldState, Grid, ModelParams, total_charge
from maxlor.mollifier import make_mollifier
from maxlor.nonlinearity import a, sqrt1p_sq
from maxlor.regops import make_operator
from maxlor.solver import (
    PICARD_TOL,
    STATUS_GUARD,
    STATUS_OK,
    STATUS_OVERFLOW,
    STATUS_PICARD_STALL,
    SolverConfig,
    a_priori_bound,
    rhs,
    solve_lines,
    solve_picard,
    step_bound,
)

import oracles
from conftest import smooth_pieces
from stored_route import stored_solve


def small_pieces(method="rk4", dt=0.005, T=0.1, save_every=2, B0=1.0, amp=0.1):
    grid = Grid(-3.0, 3.0, 601)
    op = make_operator(make_mollifier("symmetric"), 0.1, grid)
    g = amp * np.exp(-4.0 * grid.xs**2)
    initial = FieldState(0.0, g.copy(), np.zeros(grid.n), g.copy())
    params = ModelParams(B0=B0, T=T, eps=0.1)
    cfg = SolverConfig(dt=dt, method=method, save_every=save_every)
    return grid, op, params, initial, cfg


def test_rhs_matches_straight_line_evaluation():
    grid, op, params, initial, _ = small_pieces()
    E = np.sin(grid.xs)
    u = 0.3 * np.cos(2.0 * grid.xs)
    sigma = 0.2 * np.exp(-grid.xs**2)
    dE, du, dsigma = rhs(E, u, sigma, op, params.B0)
    # the three equations written out independently of the solver module
    assert np.allclose(dE, -op.apply(E) + sigma * (1.0 - a(u)), rtol=1e-14, atol=1e-14)
    assert np.allclose(
        du, -op.apply(sqrt1p_sq(u) - 1.0) + E + params.B0 * a(u), rtol=1e-14, atol=1e-14
    )
    assert np.allclose(dsigma, -op.apply(sigma * a(u)), rtol=1e-14, atol=1e-14)


def test_rhs_zero_state_is_fixed_point():
    grid, op, _, _, _ = small_pieces()
    z = np.zeros(grid.n)
    for B0 in (0.0, 5.0, -3.0):
        dE, du, dsigma = rhs(z, z, z, op, B0)
        assert np.all(dE == 0.0) and np.all(du == 0.0) and np.all(dsigma == 0.0)


def _momentum_rows(n):
    """Rows of u for the byte test of ``rhs``, keyed by what each covers."""
    rng = np.random.default_rng(4)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, 1e150, -1e150, 1.0, -1.0]
    mixed = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    mixed[np.linspace(0, n - 1, len(special)).astype(int)] = special
    mixed[200:260] = 0.0
    # rhs's root is exactly 1.0 at |u| <= 2**-27 and hypot runs only between
    # the first and the last u above it
    edge = 2.0**-27
    above = np.nextafter(edge, 1.0)
    thresholds = np.zeros(n)
    # 3 * 2**-27 is the first multiple whose root is not 1.0
    thresholds[100:107] = (edge, -edge, above, -above, np.nextafter(edge, 0.0), 2.0 * edge,
                           -3.0 * edge)
    tiny = rng.uniform(-edge, edge, n)
    subnormal_tails = tiny.copy()
    subnormal_tails[:150] = 5e-324 * rng.integers(-9, 10, 150)
    subnormal_tails[-150:] = 2.5e-310 * rng.standard_normal(150)
    subnormal_tails[300] = 0.3
    first, last = tiny.copy(), tiny.copy()
    first[0] = 0.25
    last[n - 1] = -0.7
    return {"mixed": mixed, "thresholds": thresholds, "all tiny": tiny,
            "subnormal tails": subnormal_tails, "lone first": first, "lone last": last}


def test_rhs_keeps_the_bytes_of_the_two_nonlinearity_calls():
    # rhs takes one hypot for a(u) and sqrt1p_sq(u), on the span where the
    # root is not exactly 1.0; its bytes must be those of calling both on the
    # whole row, on signed zeros, subnormals, huge momenta and the threshold
    grid, op, _, _, _ = small_pieces()
    rng = np.random.default_rng(5)
    E = rng.standard_normal(grid.n)
    sigma = rng.standard_normal(grid.n)
    for case, u in _momentum_rows(grid.n).items():
        for B0 in (0.0, 1.0, -2.5):
            got = rhs(E, u, sigma, op, B0)
            want = (-op.apply(E) + sigma * (1.0 - a(u)),
                    -op.apply(sqrt1p_sq(u) - 1.0) + E + B0 * a(u),
                    -op.apply(sigma * a(u)))
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), case


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rhs_refuses_non_finite_momentum(bad):
    grid, op, _, _, _ = small_pieces()
    z = np.zeros(grid.n)
    middle = z.copy()
    middle[300] = bad
    # in the tail, far past the last u above 2**-27, and at the row's end
    tail = np.full(grid.n, 1e-20)
    tail[:50] = 0.5
    tail[grid.n - 1] = bad
    lone = np.full(grid.n, -1e-20)
    lone[grid.n - 1] = bad
    for u in (middle, tail, lone):
        with pytest.raises(ValueError, match="non-finite"):
            rhs(z, u, z, op, 1.0)


def test_momentum_overflowing_in_a_stage_aborts_the_march():
    # the first RK4 stage pushes u past the float ceiling; the next rhs
    # refuses it and the march records the overflow at the first step
    grid, op, _, _, _ = small_pieces()
    z = np.zeros(grid.n)
    initial = FieldState(0.0, z.copy(), 1e308 * np.sin(grid.xs), z.copy())
    params = ModelParams(B0=0.0, T=0.05, eps=0.1)
    sol = stored_solve(initial, SolverConfig(dt=0.01, method="rk4"), op, params,
                       march=solve_lines)
    assert sol.status == STATUS_OVERFLOW
    assert sol.meta["abort"]["message"] == "overflow at t=0.01"
    assert len(sol.states) == 1


def test_zero_data_stays_exactly_zero():
    grid, op, _, _, _ = small_pieces()
    z = np.zeros(grid.n)
    initial = FieldState(0.0, z.copy(), z.copy(), z.copy())
    params = ModelParams(B0=5.0, T=1.0, eps=0.1)
    for method in ("rk4", "picard"):
        cfg = SolverConfig(dt=0.01, method=method, save_every=10)
        sol = stored_solve(initial, cfg, op, params)
        assert sol.status == STATUS_OK
        for s in sol.states:
            assert s.max_abs() == 0.0
    # one fixed-point sweep suffices on zero data
    psol = stored_solve(initial, SolverConfig(dt=0.01, method="picard"), op, params,
                        march=solve_picard)
    assert psol.meta["picard"]["max_chunk_iterations"] == 1


def test_rk4_fourth_order_in_dt():
    _, op, params, initial, _ = small_pieces(T=0.1)
    sols = {}
    for dt in (0.01, 0.005, 0.0025):
        cfg = SolverConfig(dt=dt, method="rk4", save_every=10**6)
        sols[dt] = stored_solve(initial, cfg, op, params).states[-1]
    ref = sols[0.0025]
    err_c = max(np.max(np.abs(sols[0.01].component(n) - ref.component(n))) for n in "Eu")
    err_f = max(np.max(np.abs(sols[0.005].component(n) - ref.component(n))) for n in "Eu")
    assert err_c / err_f >= 8.0


def test_cross_method_agreement_short_horizon(monkeypatch):
    monkeypatch.setattr(solver_mod, "PICARD_TOL", 1e-12)
    grid, op, params, initial, _ = small_pieces(T=0.1)
    lines = stored_solve(initial, SolverConfig(dt=0.0025, method="rk4", save_every=8), op, params)
    picard = stored_solve(
        initial, SolverConfig(dt=0.0025, method="picard", save_every=8), op, params)
    assert np.array_equal(lines.times, picard.times)
    worst = max(
        np.max(np.abs(sl.component(n) - sp.component(n)))
        for sl, sp in zip(lines.states, picard.states)
        for n in ("E", "u", "sigma")
    )
    assert worst <= 1e-5


def test_charge_conserved(smooth_rk4):
    sol, _ = smooth_rk4
    q0 = total_charge(sol.grid, sol.states[0])
    for s in sol.states:
        assert abs(total_charge(sol.grid, s) - q0) <= 1e-6 * abs(q0)


def test_transport_companion_matches(smooth_rk4):
    # Q = sigma - D E obeys the scalar regularized transport equation; march
    # that equation with the same integrator and compare at saved times
    sol, op = smooth_rk4
    dt = sol.meta["dt"]
    q = sol.states[0].sigma - op.apply(sol.states[0].E)
    worst = 0.0
    saved = {round(float(t) / dt): s for t, s in zip(sol.times, sol.states)}
    n_steps = round(float(sol.times[-1]) / dt)
    for i in range(n_steps + 1):
        if i in saved:
            s = saved[i]
            worst = max(worst, float(np.max(np.abs((s.sigma - op.apply(s.E)) - q))))
        if i < n_steps:
            k1 = -op.apply(q)
            k2 = -op.apply(q + 0.5 * dt * k1)
            k3 = -op.apply(q + 0.5 * dt * k2)
            k4 = -op.apply(q + dt * k3)
            q = q + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert worst <= 1e-5


def test_uniqueness_probe():
    grid, op, params, initial, cfg = small_pieces(T=0.2, save_every=5)
    base = stored_solve(initial, cfg, op, params)
    rng = np.random.default_rng(0)
    noisy = FieldState(
        0.0,
        initial.E + 1e-10 * rng.uniform(-1.0, 1.0, grid.n),
        initial.u + 1e-10 * rng.uniform(-1.0, 1.0, grid.n),
        initial.sigma + 1e-10 * rng.uniform(-1.0, 1.0, grid.n),
    )
    other = stored_solve(noisy, cfg, op, params)
    C = 3.0 * (op.op_norm + 1.0)
    for t, s1, s2 in zip(base.times, base.states, other.states):
        gap = max(
            np.max(np.abs(s1.component(n) - s2.component(n))) for n in ("E", "u", "sigma")
        )
        assert gap <= np.exp(C * float(t)) * 1e-10 * (1.0 + 1e-6)


def test_a_priori_bound_shape():
    assert a_priori_bound(0.0, ModelParams(B0=0.0, T=1.0, eps=0.1), 10.0) > 0.0
    base = a_priori_bound(1.0, ModelParams(B0=1.0, T=0.5, eps=0.1), 10.0)
    assert a_priori_bound(2.0, ModelParams(B0=1.0, T=0.5, eps=0.1), 10.0) > base
    assert a_priori_bound(1.0, ModelParams(B0=4.0, T=0.5, eps=0.1), 10.0) > base
    assert a_priori_bound(1.0, ModelParams(B0=1.0, T=0.9, eps=0.1), 10.0) > base
    # long horizons saturate the exponential factor instead of overflowing
    assert np.isfinite(a_priori_bound(1.0, ModelParams(B0=0.0, T=100.0, eps=0.1), 10.0))


def test_solution_stays_below_guard(release_left):
    pieces, sol = release_left
    bound = sol.meta["a_priori_bound"]
    assert sol.status == STATUS_OK
    assert max(s.max_abs() for s in sol.states) < bound


def test_step_bound_enforced():
    grid, op, params, initial, _ = small_pieces()
    bad = SolverConfig(dt=1.0, method="rk4")
    with pytest.raises(ValueError) as exc:
        stored_solve(initial, bad, op, params, march=solve_lines)
    assert "step bound" in str(exc.value)
    assert f"{step_bound(op.op_norm):.6g}"[:6] in str(exc.value)


def test_overflow_abort_preserves_partial_output():
    # constant data would be annihilated by the derivative, so give the huge
    # field a shape: the stencil then amplifies it past the float ceiling
    grid, op, _, _, _ = small_pieces()
    huge = 2e307 * np.sin(grid.xs)
    initial = FieldState(0.0, huge.copy(), huge.copy(), huge.copy())
    params = ModelParams(B0=0.0, T=0.5, eps=0.1)
    sol = stored_solve(initial, SolverConfig(dt=0.01, method="rk4"), op, params,
                       march=solve_lines)
    assert sol.status == STATUS_OVERFLOW
    assert "overflow at t=" in sol.meta["abort"]["message"]
    assert len(sol.states) >= 1
    assert np.all(np.isfinite(sol.states[0].E))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_new_state_aborts_as_overflow(bad):
    # every overflow above is a stage the nonlinearity refuses; a step that
    # returns a non-finite state is caught by the march's own check
    grid, op, params, initial, cfg = small_pieces(T=0.1, dt=0.005, save_every=2)
    h = params.T / 20

    def step(t, V, h_, meta):
        V = V.copy()
        if t == 4 * h:  # the fifth step
            V[1, 300] = bad
        return V

    saved = []
    meta = solver_mod._march(initial, cfg, op, params, "rk4", step,
                             lambda state: saved.append(state.t)).meta
    assert meta["status"] == STATUS_OVERFLOW
    assert meta["abort"] == {"reason": "overflow", "t": 5 * h, "message": "overflow at t=0.025"}
    assert saved == [0.0, 2 * h, 4 * h]


def test_the_march_refuses_an_initial_state_off_its_grid_or_not_finite():
    grid, op, params, initial, cfg = small_pieces()

    def no_save(state):
        raise AssertionError("a refused march saved a state")

    short = FieldState(0.0, *(np.zeros(grid.n - 1) for _ in range(3)))
    with pytest.raises(ValueError, match="^solver: initial state does not match operator grid$"):
        solve_lines(short, cfg, op, params, on_save=no_save)
    for name in ("E", "u", "sigma"):
        for bad in (np.inf, np.nan):
            fields = {k: initial.component(k).copy() for k in ("E", "u", "sigma")}
            fields[name][7] = bad
            with pytest.raises(ValueError, match=f"^solver: non-finite initial data in {name}$"):
                solve_picard(FieldState(0.0, **fields), cfg, op, params, on_save=no_save)


def test_picard_overflow_abort_warns_nothing():
    # the same field as above: Picard's step runs inside the march's overflow
    # policy too, so the overflow is an abort, never a RuntimeWarning
    grid, op, _, _, _ = small_pieces()
    huge = 2e307 * np.sin(grid.xs)
    initial = FieldState(0.0, huge.copy(), huge.copy(), huge.copy())
    params = ModelParams(B0=0.0, T=0.5, eps=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = stored_solve(initial, SolverConfig(dt=0.01, method="picard"), op, params,
                           march=solve_picard)
    assert sol.status == STATUS_OVERFLOW
    assert sol.meta["abort"]["reason"] == "overflow"
    picard = sol.meta["picard"]
    assert picard["iterations"] == 1  # the aborted step's one iteration counts
    # in the step maxima too; its one update is not finite, so none is recorded
    assert picard["max_chunk_iterations"] == 1
    assert picard["max_final_residual"] == 0.0
    assert np.all(np.isfinite(sol.states[0].E))


def test_guard_abort(monkeypatch):
    # the proof bound is loose enough that honest data cannot trip it on a
    # clean run, so shrink the bound artificially to exercise the guard path
    monkeypatch.setattr(solver_mod, "a_priori_bound", lambda *args: 1e-6)
    grid, op, params, initial, cfg = small_pieces(T=0.2)
    sol = stored_solve(initial, cfg, op, params, march=solve_lines)
    assert sol.status == STATUS_GUARD
    assert "a-priori bound" in sol.meta["abort"]["message"]
    assert len(sol.states) >= 1
    assert sol.times[-1] < params.T


def test_picard_guard_abort(monkeypatch):
    monkeypatch.setattr(solver_mod, "a_priori_bound", lambda *args: 1e-6)
    grid, op, params, initial, cfg = small_pieces(method="picard", T=0.2)
    sol = stored_solve(initial, cfg, op, params, march=solve_picard)
    assert sol.status == STATUS_GUARD
    assert "a-priori bound" in sol.meta["abort"]["message"]
    assert len(sol.states) >= 1
    assert sol.times[-1] < params.T


def test_picard_left_node_rhs_once_per_step(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return rhs(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "rhs", counted)
    grid, op, params, initial, cfg = small_pieces(method="picard", dt=0.005, T=0.1)
    sol = stored_solve(initial, cfg, op, params, march=solve_picard)
    assert sol.status == STATUS_OK
    picard = sol.meta["picard"]
    assert picard["subinterval_steps"] == 1
    # one call at the left node per step; the first iterate starts there,
    # so its right-node slope is a copy, and every later iterate takes one
    assert len(calls) == picard["iterations"]


def test_picard_stall_when_step_does_not_contract(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return rhs(*args, **kwargs)

    # at the explicit step bound the B0 a(u) term makes the trapezoid map
    # expand; half the field strength still contracts on the same step
    grid, op, params, initial, _ = small_pieces(B0=100.0)
    cfg = SolverConfig(dt=step_bound(op.op_norm), method="picard")
    monkeypatch.setattr(solver_mod, "rhs", counted)
    sol = stored_solve(initial, cfg, op, params, march=solve_picard)
    assert sol.status == STATUS_PICARD_STALL
    assert sol.meta["abort"]["reason"] == "no-contraction"
    assert "lower dt" in sol.meta["abort"]["message"]
    # the aborted step's iterations count, one rhs call each, and its
    # largest update joins the step maxima
    picard = sol.meta["picard"]
    assert picard["iterations"] == len(calls) == 7
    assert picard["max_chunk_iterations"] == 7
    # 9.6e-3, far above the step's bound PICARD_TOL * max(1, max|V|)
    assert PICARD_TOL < picard["max_final_residual"] < 1.0
    grid, op, params, initial, _ = small_pieces(B0=50.0)
    assert stored_solve(initial, cfg, op, params, march=solve_picard).status == STATUS_OK


def test_picard_stall_when_iterations_run_out(monkeypatch):
    monkeypatch.setattr(solver_mod, "PICARD_MAX_ITER", 2)
    grid, op, params, initial, _ = small_pieces()
    cfg = SolverConfig(dt=0.005, method="picard")
    sol = stored_solve(initial, cfg, op, params, march=solve_picard)
    assert sol.status == STATUS_PICARD_STALL
    assert sol.meta["abort"]["reason"] == "no-convergence"
    # the bound is relative to the state's scale, max(1, max|V|)
    assert sol.meta["abort"]["message"].startswith(
        "Picard did not reach tol=1e-08 x max(1, max|V|) = 1e-08 in 2 iterations")
    assert sol.meta["abort"]["t"] == 0.0
    assert len(sol.states) == 1


def _exact_decay_case(kind):
    # E0 with u = sigma = 0 decays by dE/dt = -D E exactly (tests/oracles.py):
    # exp(-T D) E0 is the exact solution of the semi-discrete system
    grid = Grid(-6.0, 6.0, 601)
    op = make_operator(make_mollifier(kind), 0.1, grid)
    D = oracles.dense_operator(op)
    T = 0.5
    E0 = 0.5 * np.exp(-grid.xs**2 / 0.5)
    z = np.zeros(grid.n)
    initial = FieldState(0.0, E0, z, z)
    params = ModelParams(B0=0.0, T=T, eps=0.1)
    return op, D, initial, params, oracles.exact_decay(D, E0, T)


@pytest.mark.parametrize("kind", ["left", "symmetric"])
def test_picard_default_tol_sits_below_the_trapezoid_error(kind):
    # the Cayley steps are the trapezoid rule's, so Picard's algebraic error,
    # its gap to the Cayley steps, is measured apart from the rule's own
    # error, the Cayley steps' gap to exp
    op, D, initial, params, exact = _exact_decay_case(kind)
    T = params.T
    n = math.ceil(T * op.op_norm / 0.2)
    trapezoid_errors = []
    for n_steps in (n, 2 * n):  # h ||D|| about 0.2, then 0.1
        h = T / n_steps
        cfg = SolverConfig(dt=h, method="picard", save_every=n_steps)
        sol = stored_solve(initial, cfg, op, params, march=solve_picard)
        assert sol.meta["n_steps"] == n_steps
        cayley = oracles.trapezoid_decay(D, initial.E, h, n_steps)
        trapezoid_errors.append(np.max(np.abs(cayley - exact)))
        # 4.9e-5 to 5.4e-4 of it at the default tol; at tol 1e-6 up to 4.2e-2
        assert np.max(np.abs(sol.states[-1].E - cayley)) <= 1e-2 * trapezoid_errors[-1]
    assert math.log2(trapezoid_errors[0] / trapezoid_errors[1]) >= 1.9


@pytest.mark.parametrize("kind", ["left", "symmetric"])
def test_rk4_is_fourth_order_on_the_exact_decay(kind):
    # the RK4 march against exp(-T D) E0 itself, from h ||D|| about 0.4
    op, _, initial, params, exact = _exact_decay_case(kind)
    T = params.T
    n = math.ceil(T * op.op_norm / 0.4)
    errors = []
    for n_steps in (n, 2 * n):
        cfg = SolverConfig(dt=T / n_steps, method="rk4", save_every=n_steps)
        sol = stored_solve(initial, cfg, op, params, march=solve_lines)
        assert sol.meta["n_steps"] == n_steps
        errors.append(np.max(np.abs(sol.states[-1].E - exact)))
    assert math.log2(errors[0] / errors[1]) >= 3.8, errors


@pytest.mark.parametrize("method", ["rk4", "picard"])
def test_save_grid_covers_endpoints(method):
    grid, op, params, initial, _ = small_pieces(T=0.1)
    cfg = SolverConfig(dt=0.003, method=method, save_every=7)
    sol = stored_solve(initial, cfg, op, params)
    assert sol.times[0] == 0.0
    assert sol.times[-1] == pytest.approx(0.1, abs=1e-12)
    assert sol.meta["n_steps"] == 34  # ceil(0.1/0.003)


@pytest.mark.parametrize("method", ["rk4", "picard"])
def test_identical_runs_are_bitwise_equal(method):
    grid, op, params, initial, cfg = small_pieces(method, T=0.1)
    s1 = stored_solve(initial, cfg, op, params)
    s2 = stored_solve(initial, cfg, op, params)
    for a_, b in zip(s1.states, s2.states):
        assert np.array_equal(a_.E, b.E)
        assert np.array_equal(a_.u, b.u)
        assert np.array_equal(a_.sigma, b.sigma)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, method="euler")
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, save_every=0)
