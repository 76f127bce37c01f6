"""Charge world lines through a solved field.

A world line follows ``dw/dt = a(u(t, w))`` where ``a`` is the velocity
map; since ``|a| < 1`` the path is always subluminal regardless of how
large the momentum field gets.  The field is read off the saved states by
bilinear interpolation (linear in time between saves, linear in space on
the grid).

The proper-time variant integrates ``dz0/ds = sqrt(1 + u^2)``,
``dz1/ds = u`` instead and resamples onto coordinate time, which gives an
independent consistency check on the same path.  Both take their steps
with the solver's ``rk4_step``, the rule that also marches the fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import SpacetimeSolution
from .nonlinearity import a, sqrt1p_sq
from .solver import rk4_step

__all__ = [
    "Trajectory",
    "default_path_steps",
    "integrate_world_line",
    "integrate_world_lines",
    "proper_time_world_line",
    "reparametrization_gap",
]


@dataclass(frozen=True)
class Trajectory:
    start: float
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    exited: bool

    @property
    def max_speed(self) -> float:
        return float(np.max(np.abs(self.velocities))) if len(self.velocities) else 0.0


class _FieldSampler:
    """Bilinear sampler for one saved field component."""

    def __init__(self, sol: SpacetimeSolution, name: str = "u"):
        self.times = sol.times
        self.xs = sol.grid.xs
        self.stack = sol.field_stack(name)

    def __call__(self, t: float, x: float) -> float:
        ts = self.times
        if t <= ts[0]:
            return float(np.interp(x, self.xs, self.stack[0]))
        if t >= ts[-1]:
            return float(np.interp(x, self.xs, self.stack[-1]))
        i = int(np.searchsorted(ts, t, side="right")) - 1
        i = min(i, len(ts) - 2)
        lam = (t - ts[i]) / (ts[i + 1] - ts[i])
        # each saved row is read at x first, so a sample costs O(log n)
        before, after = (np.interp(x, self.xs, self.stack[j]) for j in (i, i + 1))
        return float((1.0 - lam) * before + lam * after)


def _window(sol: SpacetimeSolution, t_start, t_end):
    lo, hi = float(sol.times[0]), float(sol.times[-1])
    t_start = lo if t_start is None else float(t_start)
    t_end = hi if t_end is None else float(t_end)
    tiny = 1e-12
    if t_start < lo - tiny or t_end > hi + tiny or t_start >= t_end:
        raise ValueError(
            f"world line: time window [{t_start:g}, {t_end:g}] must sit inside "
            f"the solved window [{lo:g}, {hi:g}]"
        )
    return t_start, t_end


# relative slack of the path-step check, so a step equal to the saved
# spacing up to rounding passes
_STEP_SLACK = 1e-9


def _largest_save_spacing(times) -> float:
    return float(np.max(np.diff(times))) if len(times) > 1 else 0.0


def _check_path_step(times, span: float, n_steps: int) -> None:
    """Raise unless every saved spacing of ``times`` is as fine as the path
    step ``span/n_steps``.

    ``validate`` runs the same check on the save grid ``solver.march_plan``
    gives, before anything is solved.
    """
    save_dt = _largest_save_spacing(times)
    dr = span / n_steps
    if save_dt > dr * (1.0 + _STEP_SLACK):
        raise ValueError(
            f"world line: largest saved spacing {save_dt:.6g} exceeds the path step "
            f"{dr:.6g}; save more often or take fewer steps"
        )


def default_path_steps(times, span: float) -> int:
    """The largest step count over ``span`` whose path step passes
    ``_check_path_step`` on the saved ``times``: the default of both world
    lines."""
    return max(1, int(span / _largest_save_spacing(times) * (1.0 + _STEP_SLACK)))


def integrate_world_line(sol: SpacetimeSolution, start: float,
                         t_start: float | None = None, t_end: float | None = None,
                         n_steps: int | None = None) -> Trajectory:
    """RK4 integration of ``dw/dt = a(u(t, w))`` from ``w(t_start) = start``.

    Stops early (with ``exited=True``) if the path leaves the grid, so the
    returned arrays may cover less than the requested window.  The saved
    field must be at least as fine in time as the path step, otherwise the
    interpolated samples would be coarser than the integrator pretends.
    The default ``n_steps`` is the largest count that check passes.
    """
    t_start, t_end = _window(sol, t_start, t_end)
    if n_steps is None:
        n_steps = default_path_steps(sol.times, t_end - t_start)
    if n_steps < 1:
        raise ValueError("world line: n_steps must be positive")
    _check_path_step(sol.times, t_end - t_start, n_steps)
    u_at = _FieldSampler(sol, "u")
    x_min, x_max = sol.grid.x_min, sol.grid.x_max
    if not (x_min <= start <= x_max):
        raise ValueError("world line: start position outside the grid")

    def velocity(t, w, out=None):
        return a(u_at(t, w))

    h = (t_end - t_start) / n_steps
    times = [t_start]
    positions = [float(start)]
    velocities = [velocity(t_start, start)]
    w = float(start)
    exited = False
    for i in range(n_steps):
        w = rk4_step(velocity, t_start + i * h, w, h)
        t_next = t_start + (i + 1) * h
        times.append(t_next)
        positions.append(w)
        velocities.append(velocity(t_next, w))
        if not (x_min <= w <= x_max):
            exited = True
            break
    return Trajectory(
        start=float(start),
        times=np.asarray(times),
        positions=np.asarray(positions),
        velocities=np.asarray(velocities),
        exited=exited,
    )


def integrate_world_lines(sol: SpacetimeSolution, starts,
                          t_start: float | None = None, t_end: float | None = None,
                          n_steps: int | None = None) -> list:
    return [
        integrate_world_line(sol, s, t_start=t_start, t_end=t_end, n_steps=n_steps)
        for s in starts
    ]


def proper_time_world_line(sol: SpacetimeSolution, start: float,
                           t_start: float | None = None, t_end: float | None = None,
                           ds: float | None = None):
    """Integrate the proper-time form and resample onto coordinate time.

    Returns ``(z0, z1)`` arrays: coordinate times reached and positions.
    The time component advances at rate ``sqrt(1 + u^2) >= 1``, so a step
    budget based on the window length always suffices.  The default ``ds``
    is the window over ``default_path_steps``, the path step the
    coordinate-time world line takes by default.
    """
    t_start, t_end = _window(sol, t_start, t_end)
    u_at = _FieldSampler(sol, "u")
    if ds is None:
        ds = (t_end - t_start) / default_path_steps(sol.times, t_end - t_start)

    def rate(s, z, out=None):  # the proper-time system is autonomous
        uu = u_at(z[0], z[1])
        return np.array([sqrt1p_sq(uu), uu])

    z = np.array([t_start, float(start)])
    path = [z]
    for _ in range(int(np.ceil((t_end - t_start) / ds)) + 2):
        if z[0] >= t_end:
            break
        z = rk4_step(rate, 0.0, z, ds)
        path.append(z)
    z0, z1 = np.array(path).T
    return z0, z1


def reparametrization_gap(sol: SpacetimeSolution, start: float,
                          t_start: float | None = None, t_end: float | None = None,
                          n_steps: int | None = None) -> float:
    """Max distance between the two parametrizations of the same world line."""
    traj = integrate_world_line(sol, start, t_start=t_start, t_end=t_end, n_steps=n_steps)
    if traj.exited:
        raise ValueError("reparametrization gap: path left the grid; widen the domain")
    z0, z1 = proper_time_world_line(sol, start, t_start=t_start, t_end=traj.times[-1])
    resampled = np.interp(traj.times, z0, z1)
    return float(np.max(np.abs(resampled - traj.positions)))
