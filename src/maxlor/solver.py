"""Time integration of the regularized field system.

The evolved system for ``V = (E, u, sigma)`` on the grid is

    dE/dt     = -D E + sigma (1 - a(u))
    du/dt     = -D (sqrt(1+u^2) - 1) + E + B0 a(u)
    dsigma/dt = -D (sigma a(u))

with ``D`` the regularized derivative.  The constant 1 is subtracted inside
the second convolution so its argument vanishes where u does; zero padding
would otherwise see an artificial jump at the grid ends.

Two integrators are provided, as two step rules of one march (``_march``):
classical RK4 (``rk4_step``, the method of lines) and the implicit
trapezoid rule, whose step equation is solved by Picard (fixed-point)
iteration to an update of at most ``PICARD_TOL`` = 1e-8 times max(1,
max|V|) of the step's start state, at one ``rhs`` call per iterate: a
step's left-node slope is the one its predecessor last evaluated, at an
iterate within that step's tolerance of the new state.  Picard's
algebraic error stays at least 100 times below the trapezoid rule's own
error on the exact linear reference in ``tests/test_solver.py``.  The two
rules discretize time differently, so their agreement on matching grids
is a meaningful consistency check rather than a tautology; they agree to
the trapezoid rule's error, which is large on delta-like data at ``dt:
"auto"``.

The march owns everything else: setup checks, the forward time grid, one
overflow policy, and one hook, ``on_save``, that gets each saved state as
it is saved.  The hook is required: a caller reduces the states there (a
fold), and the solution the march returns keeps its metadata and no
states; a caller that wants the states passes ``states.append``.  Each
integrator also owns a workspace, allocated once per march, into which
its stages, ``rhs`` and the regularized derivative write; a step hands
out one fresh state, since the saved states hold views of it.
Floating-point overflow never warns; a stage the nonlinearity refuses as
non-finite, a non-finite new state, or one wandering past a multiple of
the a-priori bound for the continuum system aborts the run, keeping what
the states saved so far gave the hook.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .fields import (
    FIELD_NAMES,
    FieldState,
    ModelParams,
    SpacetimeSolution,
    margin_ratio,
    CONTAMINATION_TOL,
)
# ``a`` is imported for ``bench/tracer.py``, which times the nonlinearity
# under the names the solver holds
from .nonlinearity import a, sqrt1p_sq  # noqa: F401
from .regops import RegDerivOperator

__all__ = [
    "SolverConfig",
    "METHODS",
    "rhs",
    "solve",
    "solve_lines",
    "solve_picard",
    "rk4_step",
    "march_plan",
    "step_count",
    "MAX_STEPS",
    "PICARD_TOL",
    "PICARD_MAX_ITER",
    "GUARD_FACTOR",
    "a_priori_bound",
    "step_bound",
    "STATUS_OK",
    "STATUS_OVERFLOW",
    "STATUS_GUARD",
    "STATUS_PICARD_STALL",
]

METHODS = ("rk4", "picard")

STATUS_OK = "ok"
STATUS_OVERFLOW = "overflow"
STATUS_GUARD = "guard"
STATUS_PICARD_STALL = "picard-stall"

# the numerical policy of every march, not a run's input: a Picard step
# stops at an update of at most PICARD_TOL * max(1, max|V|), V its start
# state, and aborts after PICARD_MAX_ITER iterations; any march aborts when
# max|V| exceeds GUARD_FACTOR times the a-priori bound
PICARD_TOL = 1e-8
PICARD_MAX_ITER = 200
GUARD_FACTOR = 10.0

# |u| at or below which sqrt(1 + u^2) rounds to exactly 1.0 (see ``rhs``)
_ROOT_IS_ONE = 2.0**-27

# consecutive growing Picard updates before declaring non-contraction
_STALL_PATIENCE = 5

# the most steps a march may take: every sample config and benchmark
# workload takes at most 200, and a count beyond this is a config mistake
MAX_STEPS = 100_000


@dataclass(frozen=True)
class SolverConfig:
    """What a run chooses of its march: the step, the integrator and the
    save stride; the tolerances and caps are the module's constants."""

    dt: float
    method: str = "rk4"
    save_every: int = 1

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"solver: dt must be positive, got {self.dt}")
        if self.method not in METHODS:
            raise ValueError(f"solver: unknown method {self.method!r}")
        if self.save_every < 1:
            raise ValueError("solver: save_every must be >= 1")


def step_bound(op_norm: float) -> float:
    """Largest admissible dt for the explicit march: 0.5 / ||D||."""
    return 0.5 / op_norm


def a_priori_bound(initial_norm: float, params: ModelParams, op_norm: float) -> float:
    """Growth estimate for sup-norms over the horizon.

    Mirrors the Gronwall estimate for the continuum system with the
    realized operator norm in place of the kernel constant:

        (||V0|| + T (||D|| + |B0|)) * exp(3 T (||D|| + 1)).

    Deliberately loose; its role is to catch numerical blow-up, not to be
    sharp.  It is at most the largest double, so that the run's JSON can
    hold it; no finite state exceeds ``GUARD_FACTOR`` times that.
    """
    T = params.T
    growth = math.exp(min(3.0 * T * (op_norm + 1.0), 700.0))
    return min((initial_norm + T * (op_norm + abs(params.B0))) * growth, sys.float_info.max)


def rhs(E, u, sigma, op: RegDerivOperator, B0: float, out=None, work=None):
    """Right-hand side ``(dE, du, dsigma)`` of the evolved system for one state.

    The three derivatives are the rows of ``out``, a ``(3, n)`` array, and
    the intermediates use the two rows of ``work``; either is allocated
    when not given, so a march passing both allocates only a row of flags
    here.  One ``hypot`` serves both nonlinear terms: ``a(u)`` is ``u /
    root`` with ``root = sqrt1p_sq(u)``, the bytes of ``nonlinearity.a``.
    ``-D f + g`` is computed as ``g - D f``, the same IEEE operation.

    ``sqrt1p_sq`` runs only on the span from the first to the last ``u``
    that is not ``|u| <= 2**-27``, and ``root`` is 1.0 outside it: there
    ``sqrt(1 + u^2)`` lies within ``2**-55`` of 1, below half an ulp, so
    ``hypot`` gives exactly 1.0, ``u / root`` is ``u`` and ``root - 1``
    is 0.0.  A nan or inf is not ``<= 2**-27``, so it lies in the span,
    where ``sqrt1p_sq`` refuses it as before.
    """
    n = len(u)
    out = np.empty((3, n)) if out is None else out
    work = np.empty((2, n)) if work is None else work
    dE, du, dsigma = out
    root = work[0]
    # one flag byte per point, 1 where the root is exactly 1.0
    flags = np.less_equal(np.abs(u, out=work[1]), _ROOT_IS_ONE).tobytes()
    lo = flags.find(0)
    lo, hi = (0, 0) if lo < 0 else (lo, flags.rfind(0) + 1)
    root[:lo] = 1.0
    sqrt1p_sq(u[lo:hi], out=root[lo:hi])
    root[hi:] = 1.0
    au = np.divide(u, root, out=work[1])
    # dsigma holds each product term until its own turn
    np.subtract(1.0, au, out=dsigma)
    dsigma *= sigma
    np.subtract(dsigma, op.apply(E, out=dE), out=dE)
    root -= 1.0
    np.subtract(E, op.apply(root, out=du), out=du)
    du += np.multiply(B0, au, out=dsigma)
    op.apply(np.multiply(sigma, au, out=root), out=dsigma)
    np.negative(dsigma, out=dsigma)
    return dE, du, dsigma


def cumulative_trapezoid(F: np.ndarray, h: float, out=None) -> np.ndarray:
    """Trapezoid integral ``h (F[0] + F[1]) / 2`` of a two-node stack over
    one step, written into ``out`` when given.

    No march calls it: ``solve_picard`` builds each step's constant part
    once instead.  It stays only because ``bench/tracer.py`` wraps it by
    name, until the tracer stops wrapping it (ROADMAP item 1).
    """
    out = np.add(F[1], F[0], out=out)
    out *= h
    out /= 2.0
    return out


def _check_step(dt: float, op_norm: float):
    """Reject a dt above the explicit march's stable step bound."""
    limit = step_bound(op_norm)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(
            f"solver: dt={dt:.6g} exceeds the stable step bound 0.5/||D|| = {limit:.6g}; "
            "lower dt or use 'auto'"
        )


def _abort(meta: dict, status: str, reason: str, t: float, message: str) -> None:
    meta["status"] = status
    meta["abort"] = {"reason": reason, "t": t, "message": message}


def _guard_tripped(meta: dict, t: float, V: np.ndarray) -> bool:
    """Record an overflow or growth-guard abort for the new state ``V`` at ``t``.

    Returns True when the march must stop.  ``V``'s largest and smallest
    values give both answers without a temporary: either is non-finite when
    any value is, and ``max|V|`` is the larger of the largest and minus the
    smallest.
    """
    top, bottom = float(np.max(V)), float(np.min(V))
    if not (math.isfinite(top) and math.isfinite(bottom)):
        _abort(meta, STATUS_OVERFLOW, "overflow", t, f"overflow at t={t:.6g}")
        return True
    peak = max(top, -bottom)
    factor, bound = meta["guard_factor"], meta["a_priori_bound"]
    if peak > factor * bound:
        _abort(meta, STATUS_GUARD, "guard", t, (
            f"growth guard tripped at t={t:.6g}: max|V|={peak:.6g} exceeds "
            f"{factor:g} x a-priori bound {bound:.6g}"
        ))
        return True
    return False


def rk4_step(f, t, y, h, stages=None):
    """One classical RK4 step of ``dy/dt = f(t, y, out)`` from ``y`` at ``t``.

    ``y`` is a number or an array; the stages are combined element for
    element, so a field state and a world-line position take the same rule.
    ``f`` returns the slope, written into ``out`` when that is an array.
    ``stages`` is None, so every stage is a fresh value, or a ``(3,) +
    y.shape`` array whose rows are three registers: the running slope sum
    (which takes ``k1`` first), the latest slope and the stage state; then
    the step allocates only the state it returns.  Either way the
    arithmetic is that of

        y + (h/6) (((k1 + 2 k2) + 2 k3) + k4),  k2 = f(t + h/2, y + (h/2) k1), ...
    """
    # the registers are never rebound: a number y gets no numpy scalar as out=
    total_out, k_out, stage_out = (None,) * 3 if stages is None else stages
    total = f(t, y, total_out)  # k1 opens the slope sum
    k = f(t + 0.5 * h, np.add(y, np.multiply(0.5 * h, total, out=stage_out), out=stage_out),
          k_out)
    for c in (0.5 * h, h):
        # k (k2, then k3) gives the next stage state before 2 k joins the sum
        y_next = np.add(y, np.multiply(c, k, out=stage_out), out=stage_out)
        total = np.add(total, np.multiply(2.0, k, out=k_out), out=total_out)
        k = f(t + c, y_next, k_out)
    total = np.add(total, k, out=total_out)
    return y + np.multiply(h / 6.0, total, out=total_out)


def step_count(T: float, dt: float) -> int:
    """The ``ceil(T/dt)`` steps, at least one, of a march over ``T``; a count
    that is not finite or exceeds ``MAX_STEPS`` is refused."""
    steps = T / dt - 1e-12
    if not steps <= MAX_STEPS:
        raise ValueError(f"solver: T={T:g} at dt={dt:.6g} needs {steps:.3g} steps, more than "
                         f"the {MAX_STEPS} a march may take; raise dt or lower T")
    return max(1, math.ceil(steps))


def march_plan(t0: float, T: float, dt: float, save_every: int):
    """``(h, n_steps, saved_times)`` of a march over ``T`` from ``t0``: ``ceil(T/dt)``
    equal steps ``h`` (``step_count``), and the times ``t0 + i * h``
    (``_march``'s expression) after the saved steps ``i``: 0, every
    ``save_every``-th, the last."""
    n_steps = step_count(T, dt)
    h = T / n_steps
    saved = list(range(0, n_steps, save_every)) + [n_steps]
    return h, n_steps, [t0 + i * h for i in saved]


def _march(initial: FieldState, cfg: SolverConfig, op: RegDerivOperator,
           params: ModelParams, method: str, step, on_save) -> SpacetimeSolution:
    """The time loop both integrators share; ``step`` is the integrator.

    ``step(t, V, h, meta)`` advances the ``(3, n)`` state ``V = (E, u,
    sigma)`` from ``t`` by ``h`` and returns the new state, or records an
    abort in ``meta`` and returns None.  The march covers ``[t0, t0+T]`` on
    the grid of ``march_plan``, and passes each saved :class:`FieldState`
    to ``on_save`` (see above); it folds their margin ratio into ``meta``
    itself, and returns a solution holding ``meta`` and no states.
    Overflow shows as non-finite values, never as warnings: a stage the
    nonlinearity refuses and a non-finite or over-grown new state abort the
    run, after the states saved so far went to the hook.
    """
    if len(initial.E) != op.grid.n:
        raise ValueError("solver: initial state does not match operator grid")
    for name in FIELD_NAMES:
        if not np.all(np.isfinite(initial.component(name))):
            raise ValueError(f"solver: non-finite initial data in {name}")
    _check_step(cfg.dt, op.op_norm)
    h, n_steps, saved_times = march_plan(initial.t, params.T, cfg.dt, cfg.save_every)
    meta = {
        "solver": method,
        "dt": h,
        "n_steps": n_steps,
        "save_every": cfg.save_every,
        "eps": params.eps,
        "nu": op.nu,
        "mollifier": op.mollifier.spec_dict(),
        "B0": params.B0,
        "T": params.T,
        "q": params.q,
        "op_norm": op.op_norm,
        "a_priori_bound": a_priori_bound(initial.max_abs(), params, op.op_norm),
        "guard_factor": GUARD_FACTOR,
        "status": STATUS_OK,
    }
    ratios = []

    def save(t, V):
        state = FieldState(t, *V)
        ratios.append(margin_ratio(op.grid, state))
        on_save(state)

    V = np.array([initial.E, initial.u, initial.sigma], dtype=float)
    pending = iter(saved_times)  # this loop's t at each saved step, byte for byte
    with np.errstate(over="ignore", invalid="ignore"):
        save(next(pending), V)
        due = next(pending)
        for i in range(1, n_steps + 1):
            t = initial.t + i * h
            try:
                V = step(initial.t + (i - 1) * h, V, h, meta)
            except ValueError:
                _abort(meta, STATUS_OVERFLOW, "overflow", t, f"overflow at t={t:.6g}")
                break
            if V is None or _guard_tripped(meta, t, V):
                break
            if t == due:
                save(t, V)
                due = next(pending, None)

    meta["margin_ratio"] = max(ratios)
    meta["boundary_contaminated"] = bool(meta["margin_ratio"] > CONTAMINATION_TOL)
    return SpacetimeSolution(op.grid, [], meta)


def solve_lines(initial: FieldState, cfg: SolverConfig, op: RegDerivOperator,
                params: ModelParams, on_save) -> SpacetimeSolution:
    """Classical RK4 march of the semi-discrete system (see ``_march``).

    The three RK4 registers (slope sum, latest slope, stage state) and
    ``rhs``'s intermediates live in one workspace for the whole march, 11
    rows of ``n``; each step allocates only its new state.
    """
    B0 = params.B0
    n = op.grid.n
    stages = np.empty((3, 3, n))  # the slope sum, the latest slope, the stage state
    work = np.empty((2, n))

    def field(t, V, out):
        rhs(V[0], V[1], V[2], op, B0, out=out, work=work)
        return out

    return _march(initial, cfg, op, params, "rk4",
                  lambda t, V, h, meta: rk4_step(field, t, V, h, stages), on_save)


def solve_picard(initial: FieldState, cfg: SolverConfig, op: RegDerivOperator,
                 params: ModelParams, on_save) -> SpacetimeSolution:
    """Implicit trapezoid rule, each step solved by fixed-point iteration.

    A step from ``V`` solves ``Vn = V + h/2 (F(V) + F(Vn))``, with ``F`` the
    right-hand side, by Picard iteration started at ``V_0 = V``: the step
    builds its constant part ``V + (h/2) F(V)`` once, and each iterate
    ``V_{k+1}`` is that plus ``(h/2) F(V_k)``, at one ``rhs`` call, since
    the first iterate's ``F(V_0)`` is ``F(V)`` itself.  The iteration stops
    at an update of at most ``PICARD_TOL * max(1, max|V|)``, the state's own
    scale, and the step takes its last iterate ``V_K``.

    ``F(V)`` is carried from step to step: a step that stopped at ``K >= 2``
    last evaluated ``F(V_{K-1})``, at an iterate within its tolerance of
    ``V_K``, and the next step takes that slope as its ``F(V)``.  Only the
    march's first step, and a step after one that stopped at its first
    iterate (whose one slope is its own start's), evaluate ``F(V)`` afresh;
    no slope outlives its march.  The map contracts for small enough ``h``.
    Non-contraction (updates growing several times in a row) and missing
    convergence within ``PICARD_MAX_ITER`` iterations abort the run, as do
    the checks of ``_march``, which also sets the time range and save grid.
    The slope, the constant part, two alternating iterates (the older one
    takes the update) and ``rhs``'s intermediates live in one workspace for
    the whole march, 14 rows of ``n``; each step allocates only the copy of
    its last iterate.

    ``meta["picard"]`` holds the iterations summed over the steps, the most
    in one step, and the largest final update.  A step that aborts counts
    with its iterations and its largest finite update, so that the value
    stays a finite JSON number.
    """
    B0 = params.B0
    n = op.grid.n
    slope = np.empty((3, n))  # F(V), then F at each iterate
    const = np.empty((3, n))  # the step's constant part V + (h/2) F(V)
    iterates = np.empty((2, 3, n))
    work = np.empty((2, n))
    stats = {"iterations": 0, "max_chunk_iterations": 0, "max_final_residual": 0.0,
             "subinterval_steps": 1}
    carried = False  # whether ``slope`` holds the next step's F(V)

    def step(t, V, h, meta):
        nonlocal carried
        if not carried:
            rhs(V[0], V[1], V[2], op, B0, out=slope, work=work)
        half = 0.5 * h
        np.add(V, np.multiply(half, slope, out=const), out=const)
        # relative: any fixed absolute tolerance is below one ulp of a large enough state
        bound = PICARD_TOL * max(1.0, float(np.max(V)), -float(np.min(V)))
        Vk = V
        prev_delta = math.inf
        grow = 0
        largest = 0.0  # the step's largest finite update
        for it in range(1, PICARD_MAX_ITER + 1):
            stats["iterations"] += 1  # before any abort, so an aborted step counts too
            if it > 1:
                rhs(Vk[0], Vk[1], Vk[2], op, B0, out=slope, work=work)
            Vn = iterates[it % 2]
            np.add(const, np.multiply(half, slope, out=Vn), out=Vn)
            # the update overwrites V_k (on the first iterate, the unused buffer)
            update = np.subtract(Vn, Vk, out=iterates[(it + 1) % 2])
            # max|update| from its extremes, nan or inf when any value is
            delta = max(float(np.max(update)), -float(np.min(update)))
            Vk = Vn
            if not math.isfinite(delta):
                _abort(meta, STATUS_OVERFLOW, "overflow", t,
                       f"overflow in the Picard step starting at t={t:.6g}")
                break
            largest = max(largest, delta)
            if delta <= bound:
                break
            grow = grow + 1 if delta > prev_delta else 0
            prev_delta = delta
            if grow >= _STALL_PATIENCE:
                _abort(meta, STATUS_PICARD_STALL, "no-contraction", t, (
                    f"Picard updates grew {_STALL_PATIENCE} times in a row on the step "
                    f"starting at t={t:.6g} (dt={h:.6g}); lower dt"
                ))
                break
        else:
            _abort(meta, STATUS_PICARD_STALL, "no-convergence", t, (
                f"Picard did not reach tol={PICARD_TOL:g} x max(1, max|V|) = {bound:.3g} "
                f"in {PICARD_MAX_ITER} iterations (last update {delta:.3g})"
            ))
        aborted = meta["status"] != STATUS_OK
        stats["max_chunk_iterations"] = max(stats["max_chunk_iterations"], it)
        # an aborted step's largest finite update, so that meta.json stays strict JSON
        stats["max_final_residual"] = max(stats["max_final_residual"],
                                          largest if aborted else delta)
        # a first-iterate stop leaves F(V) in ``slope``, not F near the new state
        carried = it > 1 and not aborted
        if aborted:
            return None
        return Vk.copy()

    sol = _march(initial, cfg, op, params, "picard", step, on_save)
    sol.meta["picard"] = stats
    return sol


def solve(initial: FieldState, cfg: SolverConfig, op: RegDerivOperator,
          params: ModelParams, on_save) -> SpacetimeSolution:
    """Dispatch on ``cfg.method``; ``on_save`` as in ``_march``."""
    march = solve_picard if cfg.method == "picard" else solve_lines
    return march(initial, cfg, op, params, on_save=on_save)
