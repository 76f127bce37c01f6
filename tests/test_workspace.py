"""The march's workspace: written into caller buffers, the regularized
derivative, ``rhs`` and both integrators give the bytes of their expression
forms, in which every term is a fresh array, and a long-grid march faults
in no more than one new state's pages per step.  The work they skip keeps
the bytes too: the derivative's window ends.  A pairing, which integrates
only the columns its bump covers, gives the whole grid's row integral."""

import dataclasses
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import maxlor
from maxlor import assemble_run
from maxlor.analysis import Pairing, TestFunction2D
from maxlor.fields import FieldState, Grid, ModelParams
from maxlor.mollifier import make_mollifier
from maxlor.nonlinearity import a, sqrt1p_sq
from maxlor.regops import make_operator, next_fast_len
from maxlor.solver import (PICARD_MAX_ITER, PICARD_TOL, STATUS_OK, SolverConfig, march_plan, rhs,
                           solve_lines, solve_picard, step_bound)

from conftest import release_config, smooth_pieces
from stored_route import stored_solve


def _operators():
    grid = Grid(-1.0, 1.0, 201)
    return [make_operator(make_mollifier(kind), 0.1, grid)
            for kind in ("left", "right", "symmetric")]


def _fields(n):
    rng = np.random.default_rng(7)
    island = np.zeros(n)
    island[80:120] = rng.standard_normal(40)
    island[[79, 90, 120]] = -0.0  # signed zeros in and around the window
    ends = np.zeros(n)
    ends[[0, n - 1]] = (1.5, -2.0)  # a window touching both grid ends
    return {
        "dense": rng.standard_normal(n),
        "zero": np.zeros(n),
        "negative-zero": np.full(n, -0.0),
        "island": island,
        "ends": ends,
        "first-point": np.eye(1, n, 0)[0],
        "last-point": np.eye(1, n, n - 1)[0],
    }


@pytest.mark.parametrize("case", sorted(_fields(201)))
def test_apply_into_a_dirty_buffer_gives_the_fresh_bytes(case):
    for op in _operators():
        f = _fields(op.grid.n)[case]
        fresh = op.apply(f)
        dirty = np.full(op.grid.n, np.nan)
        got = op.apply(f, out=dirty)
        assert got is dirty
        assert got.tobytes() == fresh.tobytes()
        # the same buffer again, now holding the last answer
        assert op.apply(f, out=dirty).tobytes() == fresh.tobytes()
        if case in ("zero", "negative-zero"):
            assert fresh.tobytes() == np.zeros(op.grid.n).tobytes()


def _window_convolution(op, f):
    """``apply`` in expression form: the numpy.fft convolution of the window
    from the first to the last nonzero of f, cut to the window's cone."""
    n = len(f)
    out = np.zeros(n)
    nz = np.flatnonzero(f)
    if len(nz) == 0:
        return out
    lo, hi = int(nz[0]), int(nz[-1])
    size = next_fast_len(hi - lo + len(op.weights))
    full = np.fft.irfft(np.fft.rfft(f[lo:hi + 1], size) * np.fft.rfft(op.weights, size), size)
    j_min = int(op.offsets[0])
    a_ = max(lo + j_min, 0)
    b = max(min(hi + int(op.offsets[-1]), n - 1) + 1, a_)
    out[a_:b] = full[a_ - lo - j_min:b - lo - j_min]
    return out


def test_apply_window_ends_keep_the_expression_bytes():
    # the window's ends at the grid's ends, a lone nonzero anywhere, and
    # signed zeros just outside a window, which must not widen it
    n = 201
    rng = np.random.default_rng(8)
    cases = dict(_fields(n))
    for k in (0, 1, 100, n - 2, n - 1):
        cases[f"lone {k}"] = np.eye(1, n, k)[0] * rng.standard_normal()
    head, tail = np.zeros(n), np.zeros(n)
    head[:60] = rng.standard_normal(60)
    tail[140:] = rng.standard_normal(n - 140)
    cases["from 0"], cases["to n - 1"] = head, tail
    fenced = np.zeros(n)
    fenced[50:70] = rng.standard_normal(20)
    fenced[[0, 49, 70, n - 1]] = -0.0
    cases["fenced by -0.0"] = fenced
    for op in _operators():
        for case, f in cases.items():
            assert op.apply(f).tobytes() == _window_convolution(op, f).tobytes(), case


def test_pairing_rows_are_the_whole_grid_trapezoid():
    # a pairing integrates only its bump's columns and a zero column on each
    # side, which the trapezoid rule weighs as it does on the whole grid
    grid = Grid(-1.0, 1.0, 201)
    rng = np.random.default_rng(9)
    psis = (TestFunction2D(0.5, 0.2, 0.25, 0.3),
            TestFunction2D(0.5, -0.9, 0.25, 0.1, amplitude=-2.0),
            TestFunction2D(0.5, 0.9, 0.3, 0.1, amplitude=0.7),  # to the grid's end
            TestFunction2D(0.5, 0.005, 0.2, 0.004))  # between two grid points
    for psi in psis:
        pairing = Pairing(grid, "E", psi, None, 0.0, 1.0)
        # before, at the edge of, just inside, in and after the time support
        times = (0.0, psi.t_lo, np.nextafter(psi.t_lo, 1.0), psi.t0 - 0.01, psi.t0,
                 psi.t_hi, 1.0)
        for t in times:
            E = rng.standard_normal(grid.n)
            pairing(FieldState(t, E, E, E))
            row, values = pairing.rows[-1], psi.value(t, grid.xs)
            if values.any():
                want = np.trapezoid(E * values, dx=grid.dx)
                assert abs(row - want) <= 1e-14 * abs(want), (psi, t)
            else:
                assert row == 0.0, (psi, t)


def _reference_rhs(E, u, sigma, op, B0):
    """The expression form of ``rhs``: every term a fresh array."""
    au = a(u)
    return (-op.apply(E) + sigma * (1.0 - au),
            -op.apply(sqrt1p_sq(u) - 1.0) + E + B0 * au,
            -op.apply(sigma * au))


def test_rhs_into_dirty_buffers_gives_the_tuple_bytes():
    for op in _operators():
        n = op.grid.n
        fields = _fields(n)
        u = fields["dense"] * 3.0
        u[[5, 6]] = (1e150, -0.0)
        for E, sigma in ((fields["island"], fields["ends"]),
                         (fields["negative-zero"], fields["island"]),
                         (fields["zero"], fields["zero"])):
            for B0 in (0.0, -0.7):
                want = _reference_rhs(E, u, sigma, op, B0)
                tuple_form = rhs(E, u, sigma, op, B0)
                out = np.full((3, n), np.nan)
                work = np.full((2, n), np.nan)
                rhs(E, u, sigma, op, B0, out=out, work=work)
                for k in range(3):
                    assert tuple_form[k].tobytes() == want[k].tobytes()
                    assert out[k].tobytes() == want[k].tobytes()


def _reference_march(initial, cfg, op, params):
    """Saved states of ``cfg.method``'s march, in expression form."""
    h, n_steps, _ = march_plan(initial.t, params.T, cfg.dt, cfg.save_every)

    def f(V):
        return np.stack(_reference_rhs(V[0], V[1], V[2], op, params.B0))

    V = np.array([initial.E, initial.u, initial.sigma])
    states = [V]
    for i in range(1, n_steps + 1):
        if cfg.method == "rk4":
            k1 = f(V)
            k2 = f(V + 0.5 * h * k1)
            k3 = f(V + 0.5 * h * k2)
            k4 = f(V + h * k3)
            V = V + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            F0 = f(V)
            Vk = V
            bound = PICARD_TOL * max(1.0, np.max(np.abs(V)))
            for _ in range(PICARD_MAX_ITER):
                Vn = V + h * (f(Vk) + F0) / 2.0
                delta = np.max(np.abs(Vn - Vk))
                Vk = Vn
                if delta <= bound:
                    break
            V = Vk
        if i % cfg.save_every == 0 or i == n_steps:
            states.append(V)
    return states


def _smooth():
    _, op, params, initial, cfg = smooth_pieces()
    return initial, cfg, op, dataclasses.replace(params, T=0.1)


def _release():
    pieces = assemble_run(release_config("left"))
    return pieces.initial, pieces.solver, pieces.operator, pieces.params


@pytest.mark.parametrize("pieces", [_smooth, _release], ids=["smooth", "release"])
@pytest.mark.parametrize("method", ["rk4", "picard"])
def test_buffered_march_gives_the_expression_form_bytes(pieces, method):
    initial, cfg, op, params = pieces()
    cfg = dataclasses.replace(cfg, method=method)
    march = solve_lines if method == "rk4" else solve_picard
    sol = stored_solve(initial, cfg, op, params, march=march)
    assert sol.status == STATUS_OK
    want = _reference_march(initial, cfg, op, params)
    assert len(sol.states) == len(want)
    for state, V in zip(sol.states, want):
        for k, name in enumerate(("E", "u", "sigma")):
            assert state.component(name).tobytes() == V[k].tobytes()


def test_rk4_march_holds_under_20_doubles_per_grid_point():
    # With nothing kept, an RK4 march on a long grid holds its state and the
    # next one (6 rows of n), the three RK4 registers (9), rhs's
    # intermediates (2) and the windowed FFT's buffers: 17.6 doubles per
    # grid point.  Four slope registers and a stage state took 23.6.
    n = 200_001
    grid = Grid(-4.0, 1.0, n)
    op = make_operator(make_mollifier("left"), 0.0005, grid)
    sigma = np.exp(-((grid.xs + 0.5) / 0.05) ** 2)
    initial = FieldState(0.0, np.zeros(n), 0.1 * sigma, sigma)
    dt = step_bound(op.op_norm)
    tracemalloc.start()
    try:
        sol = solve_lines(initial, SolverConfig(dt=dt), op,
                          ModelParams(B0=0.1, T=3 * dt, eps=0.02), on_save=lambda state: None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.status == STATUS_OK and sol.meta["n_steps"] == 3
    assert peak / (8 * n) < 20.0, peak / (8 * n)


_FAULT_SCRIPT = textwrap.dedent("""
    import resource, sys
    import numpy as np
    from maxlor import (FieldState, Grid, ModelParams, SolverConfig, make_mollifier,
                        make_operator, solve)
    from maxlor.solver import step_bound

    grid = Grid(-4.0, 1.0, 32001)
    op = make_operator(make_mollifier("left"), 0.02, grid)
    sigma = np.exp(-((grid.xs + 0.5) / 0.05) ** 2)
    initial = FieldState(0.0, np.zeros(grid.n), np.zeros(grid.n), sigma)
    dt = step_bound(op.op_norm)

    def march(steps):
        cfg = SolverConfig(dt=dt, method=sys.argv[1], save_every=1000)
        return solve(initial, cfg, op, ModelParams(B0=0.1, T=steps * dt, eps=0.02),
                     on_save=[].append)

    march(4)  # the interpreter's and numpy's own first-use faults
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sol = march(40)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert sol.status == "ok" and sol.meta["n_steps"] == 40
    print(after - before)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the minor page faults of a Linux process")
@pytest.mark.parametrize("method", ["rk4", "picard"])
def test_long_grid_march_faults_in_at_most_one_state_per_step(method):
    # At n = 32001 a (3, n) state is 768 KB, 188 pages, and each step
    # allocates one fresh state for the saved states to hold.  The bound is
    # one fresh state's pages per step.  With the workspace a step faults
    # about 40 pages in.  A march whose stages built fresh (3, n)
    # temporaries faulted about 700 (RK4) and 90 to 380 (Picard, varying
    # with the process's environment) per step, as the allocator handed the
    # freed pages back to the kernel and took them again.
    src = os.path.dirname(os.path.dirname(maxlor.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT, method], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    faults = int(done.stdout.split()[-1])
    state_pages = 3 * 32001 * 8 / 4096
    assert faults <= 40 * state_pages, (faults, 40 * state_pages)
