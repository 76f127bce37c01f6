import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from maxlor import analysis
from maxlor.analysis import (
    OBSTRUCTION_PAIRING_TOL,
    SUPPORT_REL_TOL,
    VERDICT_CONVERGING,
    VERDICT_DIVERGING,
    VERDICT_INCONCLUSIVE,
    VERDICT_OBSTRUCTION,
    LinearGaps,
    Pairing,
    SupportProbe,
    TestFunction2D,
    blow_up_probe,
    diag_pairing_target,
    limit_sweep,
    linearized_reference,
)
from maxlor.cli import main
from maxlor.config import assemble_run, config_from_dict
from maxlor.deltanet import DeltaNet
from maxlor.fields import FieldState, Grid, SpacetimeSolution
from maxlor.mollifier import make_mollifier
from maxlor.nonlinearity import a
from maxlor.solver import solve

from conftest import release_config
from oracles import linear_system_residuals, psi_dt, psi_dx, sigma_pairing
from stored_route import stored_solve, transport_residual

# Integral of the peak-normalized bump e^{1 - 1/(1-s^2)} over [-1, 1],
# computed once with adaptive quadrature (abs error below 1e-13) and frozen.
BUMP_INTEGRAL = 1.2069003224378763


@pytest.fixture(scope="module")
def psi_unit():
    return TestFunction2D(t0=0.25, x0=0.5, r_t=0.2, r_x=0.3)


class TestTestFunction2D:
    def test_peak_and_compact_support(self, psi_unit):
        assert psi_unit.value(0.25, 0.5) == pytest.approx(1.0)
        assert psi_unit.value(0.25 + 0.2, 0.5) == 0.0
        assert psi_unit.value(0.25, 0.5 + 0.31) == 0.0
        assert psi_unit.value(-5.0, 40.0) == 0.0
        assert psi_unit.t_lo == pytest.approx(0.05)
        assert psi_unit.x_hi == pytest.approx(0.8)

    def test_derivatives_match_finite_differences(self, psi_unit):
        t, x, h = 0.3, 0.4, 1e-6
        dt_fd = (psi_unit.value(t + h, x) - psi_unit.value(t - h, x)) / (2 * h)
        dx_fd = (psi_unit.value(t, x + h) - psi_unit.value(t, x - h)) / (2 * h)
        assert psi_dt(psi_unit, t, x) == pytest.approx(dt_fd, rel=1e-6, abs=1e-8)
        assert psi_dx(psi_unit, t, x) == pytest.approx(dx_fd, rel=1e-6, abs=1e-8)

    def test_derivative_vanishes_outside(self, psi_unit):
        assert psi_dt(psi_unit, 2.0, 0.5) == 0.0
        assert psi_dx(psi_unit, 0.25, 2.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TestFunction2D(t0=0.0, x0=0.0, r_t=-1.0, r_x=1.0)
        with pytest.raises(ValueError):
            TestFunction2D(t0=0.0, x0=0.0, r_t=1.0, r_x=0.0)

    def test_diag_pairing_target_against_1d_quadrature(self):
        psi = TestFunction2D(t0=0.3, x0=0.3, r_t=0.2, r_x=0.2)
        want, _ = quad(lambda t: psi.value(t, t), 0.1, 0.5, epsabs=1e-12)
        assert diag_pairing_target(psi, slope=1.0) == pytest.approx(want, rel=1e-8)
        # the same window never meets the opposite diagonal x = -t
        assert diag_pairing_target(psi, slope=-1.0) == pytest.approx(0.0, abs=1e-12)
        # seeded windows: adaptive quad over the whole time support, split
        # where the line enters and leaves the spatial support
        rng = np.random.default_rng(7)
        for _ in range(50):
            psi = TestFunction2D(t0=rng.uniform(0.1, 1.0), x0=rng.uniform(-1.0, 1.0),
                                 r_t=rng.uniform(0.02, 0.4), r_x=rng.uniform(0.02, 0.4),
                                 amplitude=rng.uniform(0.5, 2.0))
            for slope in (1.0, -1.0):
                cuts = [c / slope for c in (psi.x_lo, psi.x_hi)
                        if psi.t_lo < c / slope < psi.t_hi]
                want, _ = quad(lambda t: psi.value(t, slope * t), psi.t_lo, psi.t_hi,
                               points=cuts or None, epsabs=1e-13, epsrel=1e-12, limit=200)
                assert diag_pairing_target(psi, slope) == pytest.approx(want, abs=1e-11)


def synthetic_solution(grid, times, fields, meta=None):
    states = [
        FieldState(t, np.asarray(E, float), np.asarray(u, float), np.asarray(s, float))
        for t, (E, u, s) in zip(times, fields)
    ]
    base = {"status": "ok", "q": 1.0}
    if meta:
        base.update(meta)
    return SpacetimeSolution(grid=grid, states=states, meta=base)


def pair(sol, field_name, psi, op=None):
    """The :class:`Pairing` fold over a stored solution's window and states."""
    return sol.replay(Pairing(sol.grid, field_name, psi, op, sol.times[0], sol.times[-1])).result()


def support_probe(sol, x0):
    return sol.replay(SupportProbe(sol.grid, x0)).result()


def thin(sol, step):
    """Every ``step``-th saved state of ``sol``, the first kept."""
    return SpacetimeSolution(sol.grid, sol.states[::step], sol.meta)


class TestPair:
    def test_rejects_window_outside_solution(self, smooth_rk4):
        sol, _ = smooth_rk4
        late = TestFunction2D(t0=5.0, x0=0.0, r_t=0.1, r_x=0.1)
        with pytest.raises(ValueError, match="window"):
            pair(sol, "sigma", late)

    def test_linear_in_field_amplitude(self, smooth_rk4):
        sol, op = smooth_rk4
        psi = TestFunction2D(t0=0.25, x0=0.0, r_t=0.2, r_x=0.5)
        base = pair(sol, "sigma", psi)
        doubled = synthetic_solution(
            sol.grid, sol.times,
            [(s.E, s.u, 2.0 * s.sigma) for s in sol.states], meta=sol.meta,
        )
        assert pair(doubled, "sigma", psi) == pytest.approx(2.0 * base, rel=1e-12)

    def test_linear_in_test_function_amplitude(self, smooth_rk4):
        sol, op = smooth_rk4
        psi = TestFunction2D(t0=0.25, x0=0.0, r_t=0.2, r_x=0.5)
        psi3 = TestFunction2D(t0=0.25, x0=0.0, r_t=0.2, r_x=0.5, amplitude=3.0)
        assert pair(sol, "E", psi3) == pytest.approx(3.0 * pair(sol, "E", psi), rel=1e-12)

    def test_q_field_is_sigma_minus_the_operator_on_e(self, smooth_rk4):
        sol, op = smooth_rk4
        psi = TestFunction2D(t0=0.25, x0=0.0, r_t=0.2, r_x=0.5)
        d_e = synthetic_solution(
            sol.grid, sol.times, [(s.E, s.u, op.apply(s.E)) for s in sol.states])
        want = pair(sol, "sigma", psi) - pair(d_e, "sigma", psi)
        assert pair(sol, "Q", psi, op) == pytest.approx(want, rel=1e-12)

    def test_travelling_mass_capture(self):
        # a unit point mass moving along x = t, paired against a test function
        # whose x-window contains the mass at every time in its t-window,
        # integrates to mass * (time integral of the profile): q * r_t * B
        grid = Grid(-1.0, 3.0, 2001)
        net = DeltaNet(make_mollifier("symmetric"), mass=1.0)
        rho = net.density(0.05)
        times = np.linspace(0.0, 1.0, 401)
        z = np.zeros(grid.n)
        fields = [(z, z, rho(grid.xs - t)) for t in times]
        sol = synthetic_solution(grid, times, fields)
        psi = TestFunction2D(t0=0.5, x0=0.5, r_t=0.3, r_x=1.0)
        got = pair(sol, "sigma", psi)
        oracle = diag_pairing_target(psi, slope=1.0)
        assert got == pytest.approx(oracle, rel=1e-2)
        # the capture window is wide, so the path integral sits close to the
        # pure time-profile mass r_t * (bump integral)
        assert oracle > 0.8 * 0.3 * BUMP_INTEGRAL


class TestSupportProbe:
    def test_confined_release_is_exactly_zero_on_vacuum_side(self, release_left):
        _, sol = release_left
        rep = support_probe(sol, 0.05)
        for name in ("E", "u", "sigma"):
            assert rep.sup_right[name] == 0.0
            assert rep.rel_right(name) <= SUPPORT_REL_TOL
            assert rep.global_max[name] > 0.0

    def test_mirrored_release(self, release_right):
        _, sol = release_right
        rep = support_probe(sol, -0.05)
        for name in ("E", "u", "sigma"):
            assert rep.sup_left[name] == 0.0
            assert rep.rel_left(name) <= SUPPORT_REL_TOL

    def test_two_sided_data_fails_the_probe(self, smooth_rk4):
        # negative control: symmetric data leaks on both sides of any cut
        sol, _ = smooth_rk4
        rep = support_probe(sol, 0.05)
        assert rep.rel_right("E") > 0.1
        assert rep.rel_left("E") > 0.1
        for side, rel in (("right", rep.rel_right), ("left", rep.rel_left)):
            assert rep.worst(side) == max(rel(name) for name in ("E", "u", "sigma"))

    @pytest.mark.parametrize("x0", [-1.0, -0.4, -0.4 + 0.004, 1.0],
                             ids=["left-end", "on-a-node", "between-nodes", "right-end"])
    def test_each_side_is_the_run_of_columns_its_mask_selects(self, x0):
        grid = Grid(-1.0, 1.0, 201)
        assert (x0 in grid.xs) == (x0 != -0.4 + 0.004)
        probe, columns = SupportProbe(grid, x0), np.arange(grid.n)
        assert np.array_equal(columns[probe.right], np.flatnonzero(grid.xs >= x0))
        assert np.array_equal(columns[probe.left], np.flatnonzero(grid.xs <= x0))

    @pytest.mark.parametrize("x0", [5.0, -10.0])
    def test_cut_with_an_empty_side_is_refused(self, release_left, x0):
        # with no grid point on one side its sup would read a vacuous 0
        _, sol = release_left
        with pytest.raises(ValueError, match="no grid points"):
            support_probe(sol, x0)


class TestTransportResidual:
    def test_small_on_compliant_run_and_shrinks_with_save_dt(self, smooth_rk4):
        sol, op = smooth_rk4
        fine = transport_residual(sol, op)
        coarse = transport_residual(thin(sol, 2), op)
        assert fine.max_residual <= 1e-3
        assert coarse.max_residual / fine.max_residual >= 3.5

    def test_rejects_saves_coarser_than_kernel(self, smooth_rk4):
        sol, op = smooth_rk4
        with pytest.raises(ValueError, match="save"):
            transport_residual(thin(sol, 4), op)

    def test_manufactured_violation_is_order_one(self, smooth_rk4):
        sol, op = smooth_rk4
        # damp sigma by e^{-t}: Q then fails the transport identity by O(1)
        fields = [
            (s.E, s.u, np.exp(-float(t)) * (s.sigma + 0.5)) for t, s in zip(sol.times, sol.states)
        ]
        bad = synthetic_solution(sol.grid, sol.times, fields, meta=sol.meta)
        rep = transport_residual(bad, op)
        assert rep.max_residual > 0.1

    def test_thin_solution_keeps_endpoints(self, smooth_rk4):
        # the halving above compares the same window: every other save of
        # this run keeps its first and last state
        sol, _ = smooth_rk4
        half = thin(sol, 2)
        assert half.times[0] == sol.times[0]
        assert half.times[-1] == sol.times[-1]
        assert len(half.times) < len(sol.times)


def zero_template():
    return config_from_dict({
        "grid": {"x_min": -4.0, "x_max": 1.0, "n": 501},
        "mollifier": {"kind": "left"},
        "scaling": {"kind": "constant", "c": 0.1},
        "model": {"B0": 0.0, "T": 0.3},
        "solver": {"dt": "auto", "method": "rk4", "save_every": 4},
        "initial": {
            "E": {"kind": "zero"}, "u": {"kind": "zero"}, "sigma": {"kind": "zero"},
        },
    })


@pytest.fixture
def serial_pool(monkeypatch):
    """A stand-in for the sweep's process pool that maps in this process, so
    no process is started; returns the sizes the pools were asked for."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    return sizes


class TestLimitSweep:
    def test_zero_data_converges_with_zero_pairings(self):
        psi = TestFunction2D(t0=0.15, x0=-0.5, r_t=0.1, r_x=0.3)
        res = limit_sweep(zero_template(), [0.2, 0.1, 0.05], [("Q", psi)])
        label = next(iter(res.verdicts))
        assert res.verdicts[label] == VERDICT_CONVERGING
        assert all(abs(v) <= OBSTRUCTION_PAIRING_TOL for v in res.pairings[label])
        assert not res.partial

    def test_aborted_member_marks_sweep_partial(self):
        cfg = zero_template()
        cfg.initial["E"] = {"kind": "gaussian", "amplitude": 2e307,
                            "center": -2.0, "width": 0.3}
        psi = TestFunction2D(t0=0.15, x0=-0.5, r_t=0.1, r_x=0.3)
        res = limit_sweep(cfg, [0.2, 0.1], [("Q", psi)])
        assert res.partial
        assert any(s != "ok" for s in res.statuses)
        assert all(v == VERDICT_INCONCLUSIVE for v in res.verdicts.values())

    def test_pool_is_never_larger_than_the_schedule(self, serial_pool, tmp_path):
        psi = TestFunction2D(t0=0.15, x0=-0.5, r_t=0.1, r_x=0.3)
        schedule = [0.2, 0.1, 0.05]
        pooled = limit_sweep(zero_template(), schedule, [("Q", psi)], workers=64)
        assert serial_pool == [3]
        assert pooled == limit_sweep(zero_template(), schedule, [("Q", psi)])
        # probe-blowup's four members go through the same runner and pool
        cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "blowup_family.json")
        runs = {}
        for workers in ("64", "1"):
            out = tmp_path / workers
            assert main(["probe-blowup", "--config", cfg, "--out", str(out),
                         "--workers", workers]) == 0
            runs[workers] = [(out / f).read_bytes()
                             for f in ("summary.json", "probe_blowup.csv")]
        assert serial_pool == [3, 4]
        assert runs["64"] == runs["1"]

    def test_raising_pooled_member_keeps_the_others(self, serial_pool, monkeypatch):
        def solve_or_raise(initial, cfg, op, params, on_save):
            if params.eps == 0.1:
                raise MemoryError("no room")
            return solve(initial, cfg, op, params, on_save=on_save)

        monkeypatch.setattr("maxlor.solver.solve", solve_or_raise)
        psi = TestFunction2D(t0=0.15, x0=-0.5, r_t=0.1, r_x=0.3)
        res = limit_sweep(zero_template(), [0.2, 0.1, 0.05], [("Q", psi)], workers=2)
        assert serial_pool == [2]
        assert res.statuses == ("ok", "error", "ok")
        assert res.errors == {0.1: "MemoryError: no room"}
        assert res.partial
        label = res.labels[0]
        assert res.pairings[label][1] is None
        assert res.pairings[label][0] is not None and res.pairings[label][2] is not None
        assert res.verdicts[label] == VERDICT_INCONCLUSIVE

    def test_vacuum_diagonal_observables_alone_are_probed(self, monkeypatch):
        # only Q on a light-cone diagonal in a vacuum half-plane can show the
        # obstruction; no other observable pays for a support probe
        probed = []
        real_probe = analysis.SupportProbe

        def counting_probe(grid, x0):
            probed.append(x0)
            return real_probe(grid, x0)

        monkeypatch.setattr("maxlor.analysis.SupportProbe", counting_probe)
        observables = [
            ("Q", TestFunction2D(t0=0.2, x0=0.2, r_t=0.1, r_x=0.1)),
            ("Q", TestFunction2D(t0=0.2, x0=-0.2, r_t=0.1, r_x=0.1)),
            ("sigma", TestFunction2D(t0=0.2, x0=0.2, r_t=0.1, r_x=0.1)),
            ("Q", TestFunction2D(t0=0.15, x0=-0.5, r_t=0.1, r_x=0.3)),
        ]
        res = limit_sweep(zero_template(), [0.2, 0.1], observables)
        assert probed == [0.5 * (0.2 - 0.1), 0.5 * (-0.2 + 0.1)] * 2
        assert [lab for lab, t in res.targets.items() if t is not None] == list(res.labels[:2])

    def test_schedule_must_decrease(self):
        psi = TestFunction2D(t0=0.15, x0=-0.5, r_t=0.1, r_x=0.3)
        with pytest.raises(ValueError):
            limit_sweep(zero_template(), [0.05, 0.1], [("Q", psi)])


# today's verdict rule, one case per branch.  The obstruction cases pair
# vanishing values whose increments grow, so each that fails one of its four
# conditions falls through to the increment rules and reads diverging; the
# obstruction case also sits on the inclusive bounds of leak and pairing.
_OBSTRUCTION = dict(vals=(0.0, 1e-8, -1e-8), target=0.1,
                    leaks=(0.0, SUPPORT_REL_TOL, 0.0), peaks=(0.5, 0.5, 0.5))


@pytest.mark.parametrize("case, verdict", [
    (dict(vals=(0.0, 0.0, 0.0)), VERDICT_CONVERGING),
    (dict(vals=(0.5,)), VERDICT_INCONCLUSIVE),
    (dict(vals=(1.0, 0.5, 0.3, 0.25)), VERDICT_CONVERGING),
    (dict(vals=(0.0, 1.0)), VERDICT_INCONCLUSIVE),
    (dict(vals=(0.0, 0.1, 0.3, 0.6)), VERDICT_DIVERGING),
    (dict(vals=(0.0, 0.1, 0.4, 0.6)), VERDICT_INCONCLUSIVE),
    (_OBSTRUCTION, VERDICT_OBSTRUCTION),
    ({**_OBSTRUCTION, "leaks": (0.0, 2e-8, 0.0)}, VERDICT_DIVERGING),
    ({**_OBSTRUCTION, "peaks": (1e-6, 1e-6, 1e-6)}, VERDICT_DIVERGING),
    ({**_OBSTRUCTION, "vals": (0.0, 1e-8, -2e-8)}, VERDICT_DIVERGING),
    ({**_OBSTRUCTION, "target": 1e-3}, VERDICT_DIVERGING),
], ids=["exact-zeros", "one-member", "settling-tail", "one-increment", "growing-tail",
        "mixed-tail", "obstruction", "leaking", "no-charge", "nonzero-pairing",
        "small-target"])
def test_classify_rule(case, verdict):
    vals = case["vals"]
    incs = tuple(abs(b - a_) for a_, b in zip(vals, vals[1:]))
    off_diagonal = (None,) * len(vals)
    got = analysis._classify(vals, incs, case.get("target"), case.get("leaks", off_diagonal),
                             case.get("peaks", off_diagonal))
    assert got == verdict


# The adaptive oracle for the closed-form integrals of the linearized system:
# scipy's quad on scalar integrands written with ``math`` (independent of the
# vectorized evaluators under test), split at the jump lines x = 0, x = t in
# x and at t = 0, x_lo, x_hi in t.  The outer (time) integrals are looser.
_QUAD_INNER = dict(epsabs=1e-12, epsrel=1e-10, limit=200)
_QUAD_OUTER = dict(epsabs=1e-11, epsrel=1e-9, limit=300)


def _bump(s, deriv=False):
    if abs(s) >= 1.0:
        return 0.0
    one = 1.0 - s * s
    b = math.exp(1.0 - 1.0 / one)
    return b * (-2.0 * s / one**2) if deriv else b


def _scalar_psi(psi, d_t=False, d_x=False):
    """``psi`` (or one partial derivative) as a scalar function of (t, x)."""
    t0, r_t, x0, r_x = psi.t0, psi.r_t, psi.x0, psi.r_x
    scale = psi.amplitude / (r_t if d_t else 1.0) / (r_x if d_x else 1.0)

    def f(t, x):
        return scale * _bump((t - t0) / r_t, d_t) * _bump((x - x0) / r_x, d_x)
    return f


def _piecewise_quad(f, lo, hi, breaks, quad_kw):
    """``quad`` of ``f`` over ``[lo, hi]``, split at the breaks inside it."""
    cuts = sorted({lo, hi} | {b for b in breaks if lo < b < hi})
    return sum(quad(f, a_, b, **quad_kw)[0] for a_, b in zip(cuts, cuts[1:]))


def adaptive_on_axis(q, psi):
    """``q int psi(t, 0) dt`` and the continuity residual ``-q int psi_t(t, 0) dt``."""
    if psi.x_lo > 0.0 or psi.x_hi < 0.0:
        return 0.0, 0.0
    value, d_t = _scalar_psi(psi), _scalar_psi(psi, d_t=True)
    sigma, _ = quad(lambda t: value(t, 0.0), psi.t_lo, psi.t_hi, **_QUAD_INNER)
    cont, _ = quad(lambda t: d_t(t, 0.0), psi.t_lo, psi.t_hi, **_QUAD_INNER)
    return q * sigma, -q * cont


def adaptive_residuals(q, psi):
    """``linear_system_residuals`` by nested scalar adaptive quadrature."""
    value = _scalar_psi(psi)
    d_t, d_x = _scalar_psi(psi, d_t=True), _scalar_psi(psi, d_x=True)

    def box(t, x):  # H(x) - H(x - t) off the jump lines, which quad never samples
        return float(x > 0.0) - float(x > t)

    def quad2(F):
        def inner(t):
            return _piecewise_quad(lambda x: F(t, x), psi.x_lo, psi.x_hi, (0.0, t),
                                   _QUAD_INNER)
        return _piecewise_quad(inner, psi.t_lo, psi.t_hi, (0.0, psi.x_lo, psi.x_hi),
                               _QUAD_OUTER)

    sigma, cont = adaptive_on_axis(q, psi)
    return {
        "faraday": -q * quad2(lambda t, x: box(t, x) * (d_t(t, x) + d_x(t, x))) - sigma,
        "force": (-q * quad2(lambda t, x: (t - x) * box(t, x) * d_t(t, x))
                  - q * quad2(lambda t, x: box(t, x) * value(t, x))),
        "continuity": cont,
    }


def random_windows(rng, count, x0=(-0.8, 1.2)):
    """Seeded test functions in t >= 0, some straddling x = 0 or x = t."""
    return [
        TestFunction2D(t0=rng.uniform(0.45, 1.0), x0=rng.uniform(*x0),
                       r_t=rng.uniform(0.02, 0.4), r_x=rng.uniform(0.02, 0.4),
                       amplitude=rng.uniform(0.5, 2.0))
        for _ in range(count)
    ]


class TestLinearizedReference:
    def test_spot_values(self):
        ref = linearized_reference(2.0)
        assert ref.E(0.5, 0.25) == pytest.approx(2.0)
        assert ref.u(0.5, 0.25) == pytest.approx(0.5)
        assert ref.E(0.5, 0.75) == 0.0
        assert ref.E(0.5, -0.25) == 0.0
        assert ref.u(0.0, 0.25) == 0.0
        assert ref.E(0.0, 0.25) == 0.0

    def test_jump_convention(self):
        ref = linearized_reference(1.0)
        assert ref.E(0.5, 0.0) == pytest.approx(0.5)
        assert ref.E(0.5, 0.5) == pytest.approx(0.5)

    def test_charge_pairing(self):
        psi = TestFunction2D(t0=0.3, x0=0.0, r_t=0.2, r_x=0.1)
        want, _ = quad(lambda t: psi.value(t, 0.0), 0.1, 0.5, epsabs=1e-12)
        assert sigma_pairing(3.0, psi) == pytest.approx(3.0 * want, rel=1e-9)
        off = TestFunction2D(t0=0.3, x0=1.0, r_t=0.2, r_x=0.1)
        assert sigma_pairing(3.0, off) == 0.0

    @pytest.mark.parametrize("q", [1.0, -2.0, 0.5])
    def test_weak_residuals_vanish(self, q):
        psi = TestFunction2D(t0=0.4, x0=0.2, r_t=0.3, r_x=0.35)
        res = linear_system_residuals(q, psi)
        for name, val in res.items():
            assert abs(val) <= 1e-8, (name, val)

    def test_gauss_route_matches_adaptive_quadrature(self):
        # the fixed-order rule must reproduce the adaptive oracle on windows
        # that do and do not straddle the jump lines
        fixed = [
            TestFunction2D(t0=0.4, x0=0.2, r_t=0.3, r_x=0.35),
            TestFunction2D(t0=0.6, x0=-0.3, r_t=0.15, r_x=0.2),
            TestFunction2D(t0=0.2, x0=0.9, r_t=0.1, r_x=0.25),
        ]
        for psi in fixed + random_windows(np.random.default_rng(11), 50):
            fast = linear_system_residuals(1.3, psi)
            slow = adaptive_residuals(1.3, psi)
            assert fast.keys() == slow.keys()
            for name in fast:
                assert fast[name] == pytest.approx(slow[name], abs=1e-8), (name, psi)

    def test_charge_pairing_and_continuity_match_adaptive_quadrature(self):
        rng = np.random.default_rng(12)
        windows = random_windows(rng, 60, x0=(-0.2, 0.2))
        assert sum(psi.x_lo <= 0.0 <= psi.x_hi for psi in windows) >= 50
        for psi in windows:
            q = rng.uniform(-2.0, 2.0)
            want_sigma, want_cont = adaptive_on_axis(q, psi)
            assert sigma_pairing(q, psi) == pytest.approx(want_sigma, abs=1e-11)
            assert linear_system_residuals(q, psi)["continuity"] == pytest.approx(
                want_cont, abs=1e-11)

    def test_closed_form_integrals_load_no_scipy(self):
        probe = (
            "import sys\n"
            "from maxlor.analysis import TestFunction2D, diag_pairing_target\n"
            "from oracles import linear_system_residuals, sigma_pairing\n"
            "psi = TestFunction2D(t0=0.4, x0=0.2, r_t=0.3, r_x=0.35)\n"
            "linear_system_residuals(1.0, psi)\n"
            "sigma_pairing(1.0, psi)\n"
            "diag_pairing_target(psi)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        here = os.path.dirname(__file__)
        path = [os.path.join(here, "..", "src"), here, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_weak_residuals_vanish_for_random_bumps(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            t0 = rng.uniform(0.2, 0.8)
            x0 = rng.uniform(-0.4, 0.8)
            r_t = rng.uniform(0.05, 0.2)
            r_x = rng.uniform(0.05, 0.3)
            psi = TestFunction2D(t0=t0, x0=x0, r_t=r_t, r_x=r_x)
            res = linear_system_residuals(1.0, psi)
            for name, val in res.items():
                assert abs(val) <= 1e-6, (name, val, psi)


class TestCompareLinearized:
    def test_exact_fields_give_zero_distance(self):
        ref = linearized_reference(1.5)
        grid = Grid(-2.0, 2.0, 801)
        times = np.linspace(0.0, 1.0, 21)
        z = np.zeros(grid.n)
        fields = [(ref.E(t, grid.xs), ref.u(t, grid.xs), z) for t in times]
        sol = synthetic_solution(grid, times, fields, meta={"q": 1.5})
        rep = sol.replay(LinearGaps(grid, 1.5)).result()
        assert rep.max_l1_E == 0.0
        assert rep.max_l1_u == 0.0

    def test_distance_scales_with_offset(self):
        ref = linearized_reference(1.0)
        grid = Grid(-2.0, 2.0, 801)
        times = np.linspace(0.0, 1.0, 11)
        z = np.zeros(grid.n)
        fields = [(ref.E(t, grid.xs) + 0.25, ref.u(t, grid.xs), z) for t in times]
        sol = synthetic_solution(grid, times, fields, meta={"q": 1.0})
        rep = sol.replay(LinearGaps(grid, 1.0)).result()
        # constant offset 0.25 over a length-4 window
        assert rep.max_l1_E == pytest.approx(1.0, rel=1e-6)
        assert rep.max_l1_u == 0.0

    @staticmethod
    def _point_charge_run(q):
        cfg = config_from_dict({
            "grid": {"x_min": -2.0, "x_max": 2.0, "n": 801},
            "mollifier": {"kind": "symmetric"},
            "scaling": {"kind": "constant", "c": 0.1},
            "model": {"B0": 0.0, "T": 0.25},
            "solver": {"save_every": 8},
            "delta_net": {"profile": {"kind": "symmetric"}, "mass": q},
            "initial": {"E": {"kind": "zero"}, "u": {"kind": "zero"},
                        "sigma": {"kind": "delta-net"}},
        })
        pieces = assemble_run(cfg)
        sol = stored_solve(pieces.initial, pieces.solver, pieces.operator, pieces.params)
        assert sol.status == "ok"
        return sol.replay(LinearGaps(sol.grid, q)).result()

    def test_zero_charge_matches_reference_exactly(self):
        rep = self._point_charge_run(0.0)
        assert rep.max_l1_E == 0.0
        assert rep.max_l1_u == 0.0

    def test_charge_scaling_study(self, capsys):
        # For small charges the residual mismatch is the kernel smearing,
        # which is linear in q, so err(q)/q should be nearly flat between
        # q and q/10.  That slope is printed for the record only; the one
        # hard claim is the negative control: a large charge activates the
        # nonlinearity and the per-charge error visibly departs.
        small = self._point_charge_run(1e-3)
        smaller = self._point_charge_run(1e-4)
        large = self._point_charge_run(30.0)

        per_q = {1e-3: small.max_l1_E / 1e-3,
                 1e-4: smaller.max_l1_E / 1e-4,
                 30.0: large.max_l1_E / 30.0}
        slope = (per_q[1e-3] - per_q[1e-4]) / (1e-3 - 1e-4)
        with capsys.disabled():
            print(f"\n[charge scaling] err/q at 1e-3: {per_q[1e-3]:.6g}, "
                  f"at 1e-4: {per_q[1e-4]:.6g}, two-point slope {slope:.3g}; "
                  f"err/q at 30: {per_q[30.0]:.6g}")
        assert 0.0 < smaller.max_l1_E < small.max_l1_E
        assert per_q[30.0] > 1.5 * per_q[1e-3]


class TestBlowupProbe:
    def _sol_with_peak(self, eps, peak):
        grid = Grid(-1.0, 1.0, 201)
        times = np.array([0.0, 0.1])
        u = np.full(grid.n, 1e9)  # a(u) rounds to 1 here
        sigma = np.zeros(grid.n)
        sigma[np.abs(grid.xs) <= 0.2] = peak
        fields = [(np.zeros(grid.n), u, sigma)] * 2
        return synthetic_solution(grid, times, fields)

    @staticmethod
    def _peaks(sols, eps_values):
        # each member's fold over its saved states, as the family runner hangs it
        def pieces(sol, eps):
            return SimpleNamespace(grid=sol.grid, params=SimpleNamespace(eps=eps))
        return tuple(sol.replay(analysis._Peak(pieces(sol, eps), 0.25, 0.0)).result()
                     for sol, eps in zip(sols, eps_values))

    def test_reciprocal_peaks_give_unit_exponent(self):
        eps_values = (0.2, 0.1, 0.05, 0.025)
        peaks = self._peaks([self._sol_with_peak(e, 1.0 / e) for e in eps_values], eps_values)
        assert a(1e9) == 1.0
        assert analysis._peak_exponent(eps_values, peaks) == pytest.approx(1.0, abs=1e-6)
        assert peaks[0] < peaks[-1]

    def test_zero_momentum_gives_zero_exponent(self):
        def flat(eps):
            grid = Grid(-1.0, 1.0, 201)
            z = np.zeros(grid.n)
            sigma = np.full(grid.n, 1.0 / eps)
            return synthetic_solution(grid, [0.0, 0.1], [(z, z, sigma)] * 2)

        eps_values = (0.2, 0.1, 0.05)
        peaks = self._peaks([flat(e) for e in eps_values], eps_values)
        assert peaks == (0.0, 0.0, 0.0)
        assert analysis._peak_exponent(eps_values, peaks) == 0.0

    def test_the_window_is_the_run_of_columns_its_mask_selects(self):
        grid = Grid(-1.0, 1.0, 201)
        columns = np.arange(grid.n)
        for window, center in ((0.25, 0.0), (0.1, -1.0), (0.1, 1.0), (0.02, 0.005), (0.01, 0.3)):
            cols = analysis._window_mask(grid, window, center, 0.1)
            want = np.flatnonzero(np.abs(grid.xs - center) <= window)
            assert np.array_equal(columns[cols], want), (window, center)

    def test_a_window_without_a_grid_point_is_refused(self):
        with pytest.raises(ValueError) as info:
            analysis._window_mask(Grid(-1.0, 1.0, 201), 0.004, 0.005, 0.1)
        assert str(info.value) == ("blow-up probe: window 0.004 around center 0.005 holds no "
                                   "grid point at eps=0.1 (dx=0.01); widen blowup_window")

    def test_needs_at_least_two_runs(self):
        with pytest.raises(ValueError, match="at least 2 members"):
            blow_up_probe(release_config("left"), [0.1], window=0.25, center=0.0)

    def test_probe_runs_the_family_and_fits_its_peaks(self):
        # the report holds each refined member's peak fold and the fit over them
        cfg = release_config("left")
        rep = blow_up_probe(cfg, [0.2, 0.1], window=0.25, center=0.0)
        assert rep.statuses == ("ok", "ok") and not rep.errors
        want = []
        for eps in (0.2, 0.1):
            pieces = assemble_run(cfg, eps=eps, refine=True)
            sol = stored_solve(pieces.initial, pieces.solver, pieces.operator, pieces.params)
            want.append(sol.replay(analysis._Peak(pieces, 0.25, 0.0)).result())
        assert rep.peaks == tuple(want)
        assert rep.exponent == analysis._peak_exponent(rep.eps_schedule, rep.peaks)

    def test_release_run_has_nontrivial_interaction_term(self, release_left):
        # physical sanity: the probed source sigma*a(u) is alive near the
        # release point of a real run
        _, sol = release_left
        peak = max(
            float(np.max(np.abs(s.sigma * a(s.u)))) for s in sol.states[1:]
        )
        assert peak > 0.0
