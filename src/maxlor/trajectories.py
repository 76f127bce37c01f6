"""Charge world lines through a solved field.

A world line follows ``dw/dt = a(u(t, w))`` where ``a`` is the velocity
map; since ``|a| < 1`` the path is always subluminal regardless of how
large the momentum field gets.  The field is read off the saved states by
bilinear interpolation (linear in time between saves, linear in space on
the grid) in place by :class:`WorldLines`, a fold on the march's
``on_save`` hook; every world line covers the whole solved window.  The
lines take their steps with the solver's ``rk4_step``, the rule that also
marches the fields, by the one path step ``default_path_steps`` gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import SpacetimeSolution
from .nonlinearity import a
from .solver import rk4_step

__all__ = [
    "Trajectory",
    "WorldLines",
    "default_path_steps",
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
        self.positions, self.taken, self.live = [[float(w)] for w in starts], 0, 0

    def _velocity(self, t, w, out=None):
        return a(self.u_at(t, w))

    def __call__(self, state) -> None:
        self.rows.append(state.u)
        if len(self.rows) == 1:  # the first node's velocity reads row 0 alone
            self.velocities = [[self._velocity(self.t_first, w[0])] for w in self.positions]
        self._advance(self.times[len(self.rows) - 1])
        # drop the rows before the one at or below the next step's start;
        # rows before ``live`` are gone already, so each row is dropped once
        t = self.t_first + self.taken * self.h
        drop = min(int(np.searchsorted(self.times, t, side="right")) - 1, len(self.times) - 2)
        self.rows[self.live:drop] = [None] * (drop - self.live)
        self.live = drop

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
    """:class:`WorldLines` from ``start`` over a stored solution; kept only
    because ``bench/tracer.py`` wraps it, until the tracer wraps the fold."""
    return sol.replay(WorldLines(sol.grid, sol.times, [start])).result()[0]

