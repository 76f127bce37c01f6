"""Grids, field states, and assembled space-time solutions.

A state carries the triple ``(E, u, sigma)`` on a uniform grid: electric
field, momentum, and charge density.  A solution holds a run's metadata
and the saved states a caller kept, in time order (the solver keeps none);
its times are read off the states.  :meth:`SpacetimeSolution.replay`
feeds them to a fold, one at a time, as the solver's ``on_save`` hook
does during a run.

Fields are treated as compactly supported well inside the grid; the margin
check quantifies how badly a run violates that convention.  Runs whose
outermost grid values are not negligible are flagged boundary-contaminated,
since zero padding then feeds artificial jumps into the convolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "FieldState",
    "SpacetimeSolution",
    "ModelParams",
    "total_charge",
    "margin_ratio",
    "MARGIN_FRACTION",
    "CONTAMINATION_TOL",
]

MARGIN_FRACTION = 0.05
CONTAMINATION_TOL = 1e-8

FIELD_NAMES = ("E", "u", "sigma")


@dataclass(eq=False)
class Grid:
    """Uniform grid with n points on [x_min, x_max]; immutable by convention."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 16:
            raise ValueError(f"grid: need at least 16 points, got n={self.n}")
        if not self.x_min < self.x_max:
            raise ValueError(f"grid: empty interval [{self.x_min}, {self.x_max}]")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @cached_property
    def xs(self) -> np.ndarray:
        xs = np.linspace(self.x_min, self.x_max, self.n)
        xs.setflags(write=False)
        return xs

    def spec_dict(self) -> dict:
        return {"x_min": self.x_min, "x_max": self.x_max, "n": self.n}


@dataclass
class FieldState:
    t: float
    E: np.ndarray
    u: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        if not (len(self.E) == len(self.u) == len(self.sigma)):
            raise ValueError("field state: component length mismatch")

    def max_abs(self) -> float:
        return float(
            max(np.max(np.abs(self.E)), np.max(np.abs(self.u)), np.max(np.abs(self.sigma)))
        )

    def component(self, name: str) -> np.ndarray:
        if name not in FIELD_NAMES:
            raise KeyError(f"unknown field component {name!r}")
        return getattr(self, name)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: induction constant, horizon, net parameter, charge."""

    B0: float
    T: float
    eps: float
    q: float = 1.0

    def __post_init__(self):
        if not self.T > 0.0:
            raise ValueError(f"params: horizon T must be positive, got {self.T}")
        if not self.eps > 0.0:
            raise ValueError(f"params: eps must be positive, got {self.eps}")


@dataclass
class SpacetimeSolution:
    grid: Grid
    states: list[FieldState]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.states) >= 2 and not np.all(np.diff(self.times) > 0):
            raise ValueError("solution: times must be strictly increasing")

    @property
    def times(self) -> np.ndarray:
        """The saved times, read off the states."""
        return np.array([s.t for s in self.states], dtype=float)

    def replay(self, fold):
        """Feed each saved state to ``fold`` in time order; returns ``fold``."""
        for state in self.states:
            fold(state)
        return fold

    @property
    def status(self) -> str:
        return self.meta.get("status", "ok")


def total_charge(grid: Grid, state: FieldState) -> float:
    """Trapezoidal integral of sigma over the grid."""
    return float(np.trapezoid(state.sigma, dx=grid.dx))


def _interior(n: int) -> slice:
    """The columns inside the outermost ``MARGIN_FRACTION`` band at each end."""
    k = max(1, int(round(MARGIN_FRACTION * (n - 1))))
    return slice(k + 1, n - k - 1)


def margin_ratio(grid: Grid, state: FieldState) -> float:
    """Outermost-5% magnitude relative to the interior maximum.

    The magnitude is ``|E| + |u| + |sigma|`` pointwise.  A zero state gives
    ratio 0.  Ratios above ``CONTAMINATION_TOL`` mean the compact-support
    margin convention is violated.
    """
    inside = _interior(grid.n)
    tot = np.abs(state.E) + np.abs(state.u) + np.abs(state.sigma)
    interior_max = float(np.max(tot[inside]))
    if interior_max == 0.0:
        return 0.0
    edge_max = np.maximum(np.max(tot[:inside.start]), np.max(tot[inside.stop:]))
    return float(edge_max / interior_max)
