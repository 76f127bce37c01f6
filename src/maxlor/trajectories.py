"""Charge world lines through a solved field.

A world line follows ``dw/dt = a(u(t, w))`` where ``a`` is the velocity
map; since ``|a| < 1`` the path is always subluminal regardless of how
large the momentum field gets.  The field is read off the saved states by
bilinear interpolation (linear in time between saves, linear in space on
the grid) in place; every world line covers the whole solved window.

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
    """Bilinear sampler of the saved momentum ``u``, read in place."""

    def __init__(self, sol: SpacetimeSolution):
        self.times = sol.times
        self.xs = sol.grid.xs
        self.rows = [s.u for s in sol.states]

    def __call__(self, t: float, x: float) -> float:
        ts = self.times
        if t <= ts[0]:
            return float(np.interp(x, self.xs, self.rows[0]))
        if t >= ts[-1]:
            return float(np.interp(x, self.xs, self.rows[-1]))
        i = int(np.searchsorted(ts, t, side="right")) - 1
        i = min(i, len(ts) - 2)
        lam = (t - ts[i]) / (ts[i + 1] - ts[i])
        # each saved row is read at x first, so a sample costs O(log n)
        before, after = (np.interp(x, self.xs, self.rows[j]) for j in (i, i + 1))
        return float((1.0 - lam) * before + lam * after)


def _span(times) -> float:
    """The length of the solved window, which every world line covers."""
    if len(times) < 2:
        raise ValueError(f"world line: needs at least two saved times, got {len(times)}")
    return float(times[-1] - times[0])


# relative slack of the path-step check, so a step equal to the saved
# spacing up to rounding passes
_STEP_SLACK = 1e-9


def _check_path_step(times, n_steps: int) -> None:
    """Raise unless every saved spacing of ``times`` is as fine as the path
    step, the solved window over ``n_steps``."""
    dr = _span(times) / n_steps
    save_dt = float(np.max(np.diff(times)))
    if save_dt > dr * (1.0 + _STEP_SLACK):
        raise ValueError(
            f"world line: largest saved spacing {save_dt:.6g} exceeds the path step "
            f"{dr:.6g}; save more often or take fewer steps"
        )


def default_path_steps(times) -> int:
    """The largest step count whose path step passes ``_check_path_step`` on
    the saved ``times``: the default of both world lines."""
    span = _span(times)
    return max(1, int(span / float(np.max(np.diff(times))) * (1.0 + _STEP_SLACK)))


def integrate_world_line(sol: SpacetimeSolution, start: float,
                         n_steps: int | None = None) -> Trajectory:
    """RK4 integration of ``dw/dt = a(u(t, w))`` over the solved window,
    from ``w = start`` at the first saved time.

    Stops early (with ``exited=True``) if the path leaves the grid, so the
    returned arrays may cover less than the window.  The saved field must
    be at least as fine in time as the path step, otherwise the
    interpolated samples would be coarser than the integrator pretends.
    The default ``n_steps`` is the largest count that check passes.
    """
    if n_steps is None:
        n_steps = default_path_steps(sol.times)
    if n_steps < 1:
        raise ValueError("world line: n_steps must be positive")
    _check_path_step(sol.times, n_steps)
    u_at = _FieldSampler(sol)
    x_min, x_max = sol.grid.x_min, sol.grid.x_max
    if not (x_min <= start <= x_max):
        raise ValueError("world line: start position outside the grid")

    def velocity(t, w, out=None):
        return a(u_at(t, w))

    t_first = float(sol.times[0])
    h = _span(sol.times) / n_steps
    times = [t_first]
    positions = [float(start)]
    velocities = [velocity(t_first, start)]
    w = float(start)
    exited = False
    for i in range(n_steps):
        w = rk4_step(velocity, t_first + i * h, w, h)
        t_next = t_first + (i + 1) * h
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


def proper_time_world_line(sol: SpacetimeSolution, start: float, ds: float | None = None):
    """Integrate the proper-time form over the solved window and resample
    onto coordinate time.

    Returns ``(z0, z1)`` arrays: coordinate times reached and positions.
    The time component advances at rate ``sqrt(1 + u^2) >= 1``, so a step
    budget based on the window length always suffices.  The default ``ds``
    is the window over ``default_path_steps``, the path step the
    coordinate-time world line takes by default.
    """
    span = _span(sol.times)
    u_at = _FieldSampler(sol)
    if ds is None:
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


def reparametrization_gap(sol: SpacetimeSolution, start: float,
                          n_steps: int | None = None) -> float:
    """Max distance between the two parametrizations of the same world line."""
    traj = integrate_world_line(sol, start, n_steps=n_steps)
    if traj.exited:
        raise ValueError("reparametrization gap: path left the grid; widen the domain")
    z0, z1 = proper_time_world_line(sol, start)
    resampled = np.interp(traj.times, z0, z1)
    return float(np.max(np.abs(resampled - traj.positions)))
