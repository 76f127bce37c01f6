"""The stored route: a run that keeps every saved state, and the oracles
that read a whole stored run at once.

The library reads a run only through folds on the solver's ``on_save``
hook.  The tests also need the states themselves: to replay them into a
fold and compare with the streamed result, and for two oracles that look
at neighbouring saves together, the discrete transport residual of ``Q``
(acceptance 4) and the proper-time world line (acceptance 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from maxlor.fields import SpacetimeSolution, _interior
from maxlor.nonlinearity import sqrt1p_sq
from maxlor.solver import rk4_step, solve
from maxlor.trajectories import WorldLines, _FieldSampler, _span, default_path_steps


def stored_solve(initial, cfg, op, params, march=solve) -> SpacetimeSolution:
    """Run ``march`` (``solve``, ``solve_lines`` or ``solve_picard``) with
    ``on_save=states.append`` and return the solution holding those states."""
    states = []
    meta = march(initial, cfg, op, params, on_save=states.append).meta
    return SpacetimeSolution(op.grid, states, meta)


@dataclass(frozen=True)
class TransportReport:
    max_residual: float
    save_dt: float
    nu: float
    n_times_used: int


def transport_residual(sol: SpacetimeSolution, op) -> TransportReport:
    """Residual of ``dQ/dt + D Q = 0`` from saved states.

    Uses a centered difference in time on ``Q = sigma - D E``; needs the
    saved spacing to resolve the kernel (``save_dt <= nu/4``) and at least
    three uniformly spaced saves.  The outermost 5% of columns, the margin
    band of ``fields.margin_ratio``, are excluded since padding pollutes them
    for non-compact data.
    """
    times = sol.times
    if len(times) < 3:
        raise ValueError("transport residual: need at least 3 saved states")
    dts = np.diff(times)
    save_dt = float(dts[0])
    if save_dt > op.nu / 4.0 + 1e-12:
        raise ValueError(
            f"transport residual: save spacing {save_dt:.6g} too coarse for "
            f"nu={op.nu:.6g}; need save_dt <= nu/4 = {op.nu / 4.0:.6g}"
        )
    Q = [s.sigma - op.apply(s.E) for s in sol.states]
    cols = _interior(sol.grid.n)
    worst = 0.0
    used = 0
    for i in range(1, len(times) - 1):
        if not (math.isclose(dts[i - 1], save_dt, rel_tol=1e-9)
                and math.isclose(dts[i], save_dt, rel_tol=1e-9)):
            continue
        r = (Q[i + 1] - Q[i - 1]) / (2.0 * save_dt) + op.apply(Q[i])
        worst = max(worst, float(np.max(np.abs(r[cols]))))
        used += 1
    if used == 0:
        raise ValueError("transport residual: no uniformly spaced interior times")
    return TransportReport(max_residual=worst, save_dt=save_dt, nu=op.nu, n_times_used=used)


def proper_time_world_line(sol: SpacetimeSolution, start: float):
    """Integrate the proper-time form ``dz0/ds = sqrt(1 + u^2)``, ``dz1/ds =
    u`` over the solved window.

    Returns ``(z0, z1)`` arrays: coordinate times reached and positions.
    The time component advances at rate ``sqrt(1 + u^2) >= 1``, so a step
    budget based on the window length always suffices.  The step ``ds`` is
    the path step of the coordinate-time world line, the window over
    ``default_path_steps``.
    """
    span = _span(sol.times)
    u_at = _FieldSampler(sol.times, sol.grid.xs, [s.u for s in sol.states])
    ds = span / default_path_steps(sol.times)

    def rate(s, z, out=None):  # the proper-time system is autonomous
        uu = u_at(z[0], z[1])
        return np.array([sqrt1p_sq(uu), uu])

    t_last = float(sol.times[-1])
    z = np.array([float(sol.times[0]), float(start)])
    path = [z]
    for _ in range(int(np.ceil(span / ds)) + 2):
        if z[0] >= t_last:
            break
        z = rk4_step(rate, 0.0, z, ds)
        path.append(z)
    z0, z1 = np.array(path).T
    return z0, z1


def world_line(sol: SpacetimeSolution, start: float):
    """The :class:`WorldLines` path from ``start`` through a stored solution."""
    return sol.replay(WorldLines(sol.grid, sol.times, [start])).result()[0]


def reparametrization_gap(sol: SpacetimeSolution, start: float) -> float:
    """Max distance between the coordinate-time world line and the
    proper-time one resampled onto its times."""
    traj = world_line(sol, start)
    if traj.exited:
        raise ValueError("reparametrization gap: path left the grid; widen the domain")
    z0, z1 = proper_time_world_line(sol, start)
    resampled = np.interp(traj.times, z0, z1)
    return float(np.max(np.abs(resampled - traj.positions)))
