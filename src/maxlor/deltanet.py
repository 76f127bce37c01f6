"""Families of bump approximations to a point charge.

A net assigns to each ``eps`` a density concentrated near a center, with
support half-width ``w(eps) = width_scale * eps**width_power`` (default
``w = eps``).  A family is called strict when three axioms hold along a
schedule ``eps -> 0``: the supports shrink to the center, every member has
unit mass, and the absolute masses stay uniformly bounded.  Only strict
families are meaningful initial data for the limit experiments;
``verify_strict`` probes all three axioms by quadrature and is also able
to reject deliberately broken families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Grid
from .mollifier import Mollifier, make_mollifier
from .regops import MIN_CELLS_PER_WIDTH

__all__ = ["DeltaNet", "NetCheckRow", "StrictNetReport", "sample", "verify_strict"]


@dataclass(frozen=True)
class DeltaNet:
    """Bump family ``mass * profile((x - center)/w)/w`` with ``w = w(eps)``."""

    profile: Mollifier
    center: float = 0.0
    mass: float = 1.0
    width_scale: float = 1.0
    width_power: float = 1.0

    def __post_init__(self):
        if not self.width_scale > 0.0 or not self.width_power > 0.0:
            raise ValueError("delta net: width rule must be positive and shrinking")

    def half_width(self, eps: float) -> float:
        return self.width_scale * eps**self.width_power

    def support(self, eps: float) -> tuple[float, float]:
        w = self.half_width(eps)
        return (self.center + w * self.profile.s_lo, self.center + w * self.profile.s_hi)

    def density(self, eps: float):
        """Unit-mass member density as a vectorized callable."""
        w = self.half_width(eps)

        def rho(x):
            return self.profile.eval((np.asarray(x, dtype=float) - self.center) / w) / w

        return rho

    def spec_dict(self) -> dict:
        return {
            "profile": self.profile.spec_dict(),
            "center": self.center,
            "mass": self.mass,
            "width_scale": self.width_scale,
            "width_power": self.width_power,
        }


def net_from_spec(d: dict) -> DeltaNet:
    prof = d.get("profile", {"kind": "symmetric"})
    support = None
    if "s_lo" in prof or "s_hi" in prof:
        support = (prof["s_lo"], prof["s_hi"])
    return DeltaNet(
        profile=make_mollifier(prof["kind"], support),
        center=float(d.get("center", 0.0)),
        mass=float(d.get("mass", 1.0)),
        width_scale=float(d.get("width_scale", 1.0)),
        width_power=float(d.get("width_power", 1.0)),
    )


def sample(net: DeltaNet, eps: float, grid: Grid) -> np.ndarray:
    """Sample ``mass * rho_eps`` on the grid with exact trapezoid mass.

    The raw samples are rescaled so the trapezoid rule integrates exactly to
    ``net.mass``; charge conservation checks downstream then start from an
    exact reference value instead of a quadrature approximation.
    """
    w = net.half_width(eps)
    dx = grid.dx
    if w < MIN_CELLS_PER_WIDTH * dx:
        raise ValueError(
            f"delta_net: width {w:.6g} at eps={eps:g} is below "
            f"{MIN_CELLS_PER_WIDTH}*dx = {MIN_CELLS_PER_WIDTH * dx:.6g}; refine the grid"
        )
    lo, hi = net.support(eps)
    if lo < grid.x_min or hi > grid.x_max:
        raise ValueError(
            f"delta_net: support [{lo:.6g}, {hi:.6g}] at eps={eps:g} sticks out of "
            f"the grid [{grid.x_min:g}, {grid.x_max:g}]"
        )
    values = net.mass * net.density(eps)(grid.xs)
    if net.mass == 0.0:
        return np.zeros(grid.n)
    discrete_mass = np.trapezoid(values, dx=dx)
    return values * (net.mass / discrete_mass)


@dataclass(frozen=True)
class NetCheckRow:
    eps: float
    width: float
    mass: float
    abs_mass: float


@dataclass(frozen=True)
class StrictNetReport:
    rows: tuple[NetCheckRow, ...]
    support_shrinks: bool
    unit_mass: bool
    abs_bounded: bool
    abs_bound: float

    @property
    def all_ok(self) -> bool:
        return self.support_shrinks and self.unit_mass and self.abs_bounded


def verify_strict(net, eps_schedule, abs_bound: float = 10.0, mass_tol: float = 1e-8) -> StrictNetReport:
    """Check the three strict-family axioms along a decreasing schedule.

    Works on anything exposing ``support(eps)`` and ``density(eps)``, so
    deliberately broken families can be probed as easily as proper nets.
    Masses are computed by adaptive quadrature over each member's support.
    """
    from scipy.integrate import quad

    eps_schedule = [float(e) for e in eps_schedule]
    if len(eps_schedule) < 2:
        raise ValueError("delta net: schedule needs at least 2 entries")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("delta net: eps schedule must be strictly decreasing")
    rows = []
    for eps in eps_schedule:
        lo, hi = net.support(eps)
        rho = net.density(eps)
        mass, _ = quad(lambda x: float(rho(x)), lo, hi, limit=200)
        amass, _ = quad(lambda x: abs(float(rho(x))), lo, hi, limit=200)
        rows.append(NetCheckRow(eps=eps, width=hi - lo, mass=mass, abs_mass=amass))
    widths = [r.width for r in rows]
    support_shrinks = all(b <= a for a, b in zip(widths, widths[1:])) and widths[-1] < widths[0]
    unit_mass = all(abs(r.mass - 1.0) <= mass_tol for r in rows)
    abs_bounded = all(r.abs_mass <= abs_bound for r in rows)
    return StrictNetReport(
        rows=tuple(rows),
        support_shrinks=support_shrinks,
        unit_mass=unit_mass,
        abs_bounded=abs_bounded,
        abs_bound=abs_bound,
    )
