"""Charge world lines through a solved field.

A world line follows ``dw/dt = a(u(t, w))`` where ``a`` is the velocity
map; since ``|a| < 1`` the path is always subluminal regardless of how
large the momentum field gets.  The field is read off the saved states by
bilinear interpolation (linear in time between saves, linear in space on
the grid) in place by :class:`WorldLines`, a fold on the march's
``on_save`` hook; every world line covers the whole solved window.

The proper-time variant integrates ``dz0/ds = sqrt(1 + u^2)``,
``dz1/ds = u`` instead and resamples onto coordinate time, which gives an
independent consistency check on the same path.  Both take their steps
with the solver's ``rk4_step``, the rule that also marches the fields,
and both step by the one path step ``default_path_steps`` gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import SpacetimeSolution
from .nonlinearity import a, sqrt1p_sq
from .solver import rk4_step

__all__ = [
    "Trajectory",
    "WorldLines",
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
    """Bilinear sampler of the momentum rows ``u`` saved at ``times``, read in place."""

    def __init__(self, times, xs, rows):
        self.times, self.xs, self.rows = times, xs, rows

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


# relative slack of the path step, so a step equal to the largest saved
# spacing up to rounding still counts as that spacing
_STEP_SLACK = 1e-9


def default_path_steps(times) -> int:
    """The step count of every world line over the saved ``times``: the
    most steps whose path step, the solved window over the count, is no
    finer than the largest saved spacing."""
    span = _span(times)
    return max(1, int(span / float(np.max(np.diff(times))) * (1.0 + _STEP_SLACK)))


class WorldLines:
    """RK4 world lines ``dw/dt = a(u(t, w))`` from ``starts`` over the solved
    window, as a fold over the states of a run saved at ``times``.  A line
    takes ``default_path_steps(times)`` path steps and stops, ``exited``,
    once it leaves the grid.  A step to ``t + h`` runs once a state after
    ``t + h`` is saved, the last ones in :meth:`result`; rows no step reads
    again are dropped, so the fold holds about four of them.
    """

    def __init__(self, grid, times, starts):
        self.x_min, self.x_max = grid.x_min, grid.x_max
        if not all(self.x_min <= w <= self.x_max for w in starts):
            raise ValueError("world line: start position outside the grid")
        self.times, self.rows = np.asarray(times, dtype=float), []
        self.u_at = _FieldSampler(self.times, grid.xs, self.rows)
        self.n_steps = default_path_steps(times)
        self.t_first, self.h = float(self.times[0]), _span(times) / self.n_steps
        self.positions, self.taken = [[float(w)] for w in starts], 0

    def _velocity(self, t, w, out=None):
        return a(self.u_at(t, w))

    def __call__(self, state) -> None:
        self.rows.append(state.u)
        if len(self.rows) == 1:  # the first node's velocity reads row 0 alone
            self.velocities = [[self._velocity(self.t_first, w[0])] for w in self.positions]
        self._advance(self.times[len(self.rows) - 1])
        # drop the rows before the one at or below the next step's start
        t = self.t_first + self.taken * self.h
        drop = min(int(np.searchsorted(self.times, t, side="right")) - 1, len(self.times) - 2)
        self.rows[:drop] = [None] * drop

    def _advance(self, t_saved: float) -> None:
        h = self.h
        while self.taken < self.n_steps:
            t, t_next = self.t_first + self.taken * h, self.t_first + (self.taken + 1) * h
            if not t_saved > max(t + h, t_next):  # rk4's last stage, then the node
                return
            for w, v in zip(self.positions, self.velocities):
                if self.x_min <= w[-1] <= self.x_max:  # it stops at its first node off the grid
                    w.append(rk4_step(self._velocity, t, w[-1], h))
                    v.append(self._velocity(t_next, w[-1]))
            self.taken += 1

    def result(self) -> list[Trajectory]:
        """One :class:`Trajectory` per start; needs every state saved."""
        self._advance(np.inf)
        return [Trajectory(start=w[0], times=self.t_first + np.arange(len(w)) * self.h,
                           positions=np.asarray(w), velocities=np.asarray(v),
                           exited=not (self.x_min <= w[-1] <= self.x_max))
                for w, v in zip(self.positions, self.velocities)]


def integrate_world_line(sol: SpacetimeSolution, start: float) -> Trajectory:
    """The :class:`WorldLines` path from ``w = start`` through the stored
    solution ``sol``."""
    return sol.replay(WorldLines(sol.grid, sol.times, [start])).result()[0]


def proper_time_world_line(sol: SpacetimeSolution, start: float):
    """Integrate the proper-time form over the solved window and resample
    onto coordinate time.

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


def reparametrization_gap(sol: SpacetimeSolution, start: float) -> float:
    """Max distance between the two parametrizations of the same world line."""
    traj = integrate_world_line(sol, start)
    if traj.exited:
        raise ValueError("reparametrization gap: path left the grid; widen the domain")
    z0, z1 = proper_time_world_line(sol, start)
    resampled = np.interp(traj.times, z0, z1)
    return float(np.max(np.abs(resampled - traj.positions)))
