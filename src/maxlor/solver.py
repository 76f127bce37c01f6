"""Time integration of the regularized field system.

The evolved system for ``V = (E, u, sigma)`` on the grid is

    dE/dt     = -D E + sigma (1 - a(u))
    du/dt     = -D (sqrt(1+u^2) - 1) + E + B0 a(u)
    dsigma/dt = -D (sigma a(u))

with ``D`` the regularized derivative.  The constant 1 is subtracted inside
the second convolution so its argument vanishes where u does; zero padding
would otherwise see an artificial jump at the grid ends.

Two integrators are provided: a method-of-lines RK4 march and the implicit
trapezoid rule, whose step equation is solved by Picard (fixed-point)
iteration on the integral form.  They discretize time differently, so their
agreement on matching grids is a meaningful consistency check rather than a
tautology.

Both marches check every new state against a growth guard derived from the
a-priori estimate for the continuum system: a non-finite state, or one
wandering past a multiple of that bound, indicates a numerical problem and
aborts the run, preserving the states saved so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    FieldState,
    Grid,
    ModelParams,
    SpacetimeSolution,
    solution_margin_ratio,
    CONTAMINATION_TOL,
)
from .nonlinearity import a, sqrt1p_sq
from .regops import RegDerivOperator

__all__ = [
    "SolverConfig",
    "rhs",
    "solve",
    "solve_lines",
    "solve_picard",
    "a_priori_bound",
    "step_bound",
    "STATUS_OK",
    "STATUS_OVERFLOW",
    "STATUS_GUARD",
    "STATUS_PICARD_STALL",
]

STATUS_OK = "ok"
STATUS_OVERFLOW = "overflow"
STATUS_GUARD = "guard"
STATUS_PICARD_STALL = "picard-stall"

# consecutive growing Picard updates before declaring non-contraction
_STALL_PATIENCE = 5


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    method: str = "rk4"
    save_every: int = 1
    picard_tol: float = 1e-10
    picard_max_iter: int = 200
    guard_factor: float = 10.0

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"solver: dt must be positive, got {self.dt}")
        if self.method not in ("rk4", "picard"):
            raise ValueError(f"solver: unknown method {self.method!r}")
        if self.save_every < 1:
            raise ValueError("solver: save_every must be >= 1")
        if not self.picard_tol > 0.0:
            raise ValueError("solver: picard_tol must be positive")
        if self.picard_max_iter < 1:
            raise ValueError("solver: picard_max_iter must be >= 1")
        if self.guard_factor < 1.0:
            raise ValueError("solver: guard_factor must be >= 1")


def step_bound(op_norm: float) -> float:
    """Largest admissible dt for the explicit march: 0.5 / ||D||."""
    return 0.5 / op_norm


def a_priori_bound(initial_norm: float, params: ModelParams, op_norm: float) -> float:
    """Growth estimate for sup-norms over the horizon.

    Mirrors the Gronwall estimate for the continuum system with the
    realized operator norm in place of the kernel constant:

        (||V0|| + T (||D|| + |B0|)) * exp(3 T (||D|| + 1)).

    Deliberately loose; its role is to catch numerical blow-up, not to be
    sharp.
    """
    T = params.T
    growth = math.exp(min(3.0 * T * (op_norm + 1.0), 700.0))
    return (initial_norm + T * (op_norm + abs(params.B0))) * growth


def rhs(E, u, sigma, op: RegDerivOperator, B0: float):
    """Right-hand side of the evolved system for one state."""
    au = a(u)
    dE = -op.apply(E) + sigma * (1.0 - au)
    du = -op.apply(sqrt1p_sq(u) - 1.0) + E + B0 * au
    dsigma = -op.apply(sigma * au)
    return dE, du, dsigma


def cumulative_trapezoid(F: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid integral ``h (F[0] + F[1]) / 2`` of a two-node stack over one step.

    The arithmetic of ``scipy.integrate.cumulative_trapezoid(F, dx=h,
    axis=0)[0]``, so Picard results are unchanged; a module function so that
    ``bench/tracer.py`` can time the Picard quadrature by name.
    """
    return h * (F[1] + F[0]) / 2.0


def _base_meta(cfg: SolverConfig, op: RegDerivOperator, params: ModelParams, dt_eff: float,
               bound: float, method: str) -> dict:
    return {
        "solver": method,
        "dt": dt_eff,
        "n_steps": int(round(params.T / dt_eff)),
        "save_every": cfg.save_every,
        "eps": params.eps,
        "nu": op.nu,
        "mollifier": op.mollifier.spec_dict(),
        "B0": params.B0,
        "T": params.T,
        "q": params.q,
        "op_norm": op.op_norm,
        "a_priori_bound": bound,
        "guard_factor": cfg.guard_factor,
        "status": STATUS_OK,
    }


def _check_setup(initial: FieldState, cfg: SolverConfig, op: RegDerivOperator,
                 params: ModelParams):
    if len(initial.E) != op.grid.n:
        raise ValueError("solver: initial state does not match operator grid")
    for name in ("E", "u", "sigma"):
        if not np.all(np.isfinite(initial.component(name))):
            raise ValueError(f"solver: non-finite initial data in {name}")
    _check_step(cfg.dt, op.op_norm)


def _check_step(dt: float, op_norm: float):
    """Reject a dt above the explicit march's stable step bound."""
    limit = step_bound(op_norm)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(
            f"solver: dt={dt:.6g} exceeds the stable step bound 0.5/||D|| = {limit:.6g}; "
            "lower dt or use 'auto'"
        )


def _finalize(grid: Grid, times: list, states: list, meta: dict, backward: bool) -> SpacetimeSolution:
    if backward:
        times = times[::-1]
        states = states[::-1]
    sol = SpacetimeSolution(grid=grid, times=np.asarray(times), states=states, meta=meta)
    ratio = solution_margin_ratio(sol)
    meta["margin_ratio"] = ratio
    meta["boundary_contaminated"] = bool(ratio > CONTAMINATION_TOL)
    return sol


def _abort(meta: dict, status: str, reason: str, t: float, message: str) -> None:
    meta["status"] = status
    meta["abort"] = {"reason": reason, "t": t, "message": message}


def _guard_tripped(meta: dict, t: float, V) -> bool:
    """Record an overflow or growth-guard abort for the new state ``V`` at ``t``.

    Returns True when the march must stop.
    """
    if not all(np.all(np.isfinite(x)) for x in V):
        _abort(meta, STATUS_OVERFLOW, "overflow", t, f"overflow at t={t:.6g}")
        return True
    peak = max(np.max(np.abs(x)) for x in V)
    factor, bound = meta["guard_factor"], meta["a_priori_bound"]
    if peak > factor * bound:
        _abort(meta, STATUS_GUARD, "guard", t, (
            f"growth guard tripped at t={t:.6g}: max|V|={peak:.6g} exceeds "
            f"{factor:g} x a-priori bound {bound:.6g}"
        ))
        return True
    return False


def solve_lines(initial: FieldState, cfg: SolverConfig, op: RegDerivOperator,
                params: ModelParams, backward: bool = False) -> SpacetimeSolution:
    """Classical RK4 march of the semi-discrete system.

    Covers ``[t0, t0+T]``, or ``[t0-T, t0]`` when ``backward`` is set (the
    model is time-reversible, so backward runs are just a negated step).
    Saved states land every ``save_every`` steps plus the final time.
    """
    _check_setup(initial, cfg, op, params)
    n_steps = max(1, int(math.ceil(params.T / cfg.dt - 1e-12)))
    dt_eff = params.T / n_steps
    h = -dt_eff if backward else dt_eff
    bound = a_priori_bound(initial.max_abs(), params, op.op_norm)
    meta = _base_meta(cfg, op, params, dt_eff, bound, "rk4")
    B0 = params.B0

    t0 = initial.t
    E, u, sig = initial.E.copy(), initial.u.copy(), initial.sigma.copy()
    times = [t0]
    states = [FieldState(t0, E.copy(), u.copy(), sig.copy())]
    for i in range(1, n_steps + 1):
        t = t0 + i * h
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                k1 = rhs(E, u, sig, op, B0)
                k2 = rhs(E + 0.5 * h * k1[0], u + 0.5 * h * k1[1], sig + 0.5 * h * k1[2], op, B0)
                k3 = rhs(E + 0.5 * h * k2[0], u + 0.5 * h * k2[1], sig + 0.5 * h * k2[2], op, B0)
                k4 = rhs(E + h * k3[0], u + h * k3[1], sig + h * k3[2], op, B0)
        except ValueError:
            _abort(meta, STATUS_OVERFLOW, "overflow", t, f"overflow at t={t:.6g}")
            break
        # overflow is caught by the guard check below, not by warnings
        with np.errstate(over="ignore", invalid="ignore"):
            E = E + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            u = u + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            sig = sig + (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        if _guard_tripped(meta, t, (E, u, sig)):
            break
        if i % cfg.save_every == 0 or i == n_steps:
            times.append(t)
            states.append(FieldState(t, E.copy(), u.copy(), sig.copy()))
    return _finalize(op.grid, times, states, meta, backward)


def solve_picard(initial: FieldState, cfg: SolverConfig, op: RegDerivOperator,
                 params: ModelParams, backward: bool = False) -> SpacetimeSolution:
    """Implicit trapezoid rule, each step solved by fixed-point iteration.

    A step from ``V`` solves ``Vn = V + h/2 (F(V) + F(Vn))``, with ``F`` the
    right-hand side, by Picard iteration started at ``Vn = V``; ``F(V)`` is
    evaluated once per step.  The map contracts for small enough ``h``.
    Non-contraction (updates growing several times in a row) and missing
    convergence within ``picard_max_iter`` iterations abort the run, as do
    the overflow and growth-guard checks.  Time range and save grid are as
    for ``solve_lines``.
    """
    _check_setup(initial, cfg, op, params)
    n_steps = max(1, int(math.ceil(params.T / cfg.dt - 1e-12)))
    dt_eff = params.T / n_steps
    h = -dt_eff if backward else dt_eff
    bound = a_priori_bound(initial.max_abs(), params, op.op_norm)
    meta = _base_meta(cfg, op, params, dt_eff, bound, "picard")
    B0 = params.B0

    t0 = initial.t
    V = np.stack([initial.E, initial.u, initial.sigma]).astype(float)
    times = [t0]
    states = [FieldState(t0, V[0].copy(), V[1].copy(), V[2].copy())]
    F = np.empty((2,) + V.shape)  # F at the left and right node of the step
    total_iters = 0
    max_step_iters = 0
    max_residual = 0.0
    for i in range(1, n_steps + 1):
        t_left = t0 + (i - 1) * h
        F[0] = rhs(V[0], V[1], V[2], op, B0)
        Vk = V
        prev_delta = math.inf
        grow = 0
        for it in range(1, cfg.picard_max_iter + 1):
            F[1] = rhs(Vk[0], Vk[1], Vk[2], op, B0)
            Vn = V + cumulative_trapezoid(F, h)
            delta = float(np.max(np.abs(Vn - Vk)))
            Vk = Vn
            if not math.isfinite(delta):
                _abort(meta, STATUS_OVERFLOW, "overflow", t_left,
                       f"overflow in the Picard step starting at t={t_left:.6g}")
                break
            if delta < cfg.picard_tol:
                break
            grow = grow + 1 if delta > prev_delta else 0
            prev_delta = delta
            if grow >= _STALL_PATIENCE:
                _abort(meta, STATUS_PICARD_STALL, "no-contraction", t_left, (
                    f"Picard updates grew {_STALL_PATIENCE} times in a row on the step "
                    f"starting at t={t_left:.6g} (dt={dt_eff:.6g}); lower dt"
                ))
                break
        if meta["status"] != STATUS_OK:
            break
        total_iters += it
        max_step_iters = max(max_step_iters, it)
        max_residual = max(max_residual, delta)
        if delta >= cfg.picard_tol:
            _abort(meta, STATUS_PICARD_STALL, "no-convergence", t_left, (
                f"Picard did not reach tol={cfg.picard_tol:g} in "
                f"{cfg.picard_max_iter} iterations (last update {delta:.3g})"
            ))
            break
        V = Vk
        t = t0 + i * h
        if _guard_tripped(meta, t, V):
            break
        if i % cfg.save_every == 0 or i == n_steps:
            times.append(t)
            states.append(FieldState(t, V[0].copy(), V[1].copy(), V[2].copy()))
    meta["picard"] = {
        "iterations": total_iters,
        "max_chunk_iterations": max_step_iters,
        "max_final_residual": max_residual,
        "subinterval_steps": 1,
    }
    return _finalize(op.grid, times, states, meta, backward)


def solve(initial: FieldState, cfg: SolverConfig, op: RegDerivOperator,
          params: ModelParams, backward: bool = False) -> SpacetimeSolution:
    """Dispatch on ``cfg.method``."""
    if cfg.method == "picard":
        return solve_picard(initial, cfg, op, params, backward=backward)
    return solve_lines(initial, cfg, op, params, backward=backward)
