"""Families of bump approximations to a point charge.

A net assigns to each ``eps`` a density concentrated near a center, with
support half-width ``w(eps) = width_scale * eps**width_power`` (default
``w = eps``).  A family is called strict when three axioms hold along a
schedule ``eps -> 0``: the supports shrink to the center, every member has
unit mass, and the absolute masses stay uniformly bounded.  Only strict
families are meaningful initial data for the limit experiments.  A
:class:`DeltaNet` is strict by construction (its profile is a unit-mass
bump and its width shrinks with ``eps``); the tests check the three axioms
by adaptive quadrature.  :func:`sample` puts one member on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Grid
from .mollifier import Mollifier, make_mollifier

__all__ = ["DeltaNet", "sample"]


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


def net_from_spec(d: dict) -> DeltaNet:
    """The net of a ``delta_net`` config section; every key is required (the
    config writes the defaults) except the profile's ``s_lo`` and ``s_hi``."""
    prof = d["profile"]
    support = None
    if "s_lo" in prof or "s_hi" in prof:
        support = (prof["s_lo"], prof["s_hi"])
    return DeltaNet(
        profile=make_mollifier(prof["kind"], support),
        center=float(d["center"]),
        mass=float(d["mass"]),
        width_scale=float(d["width_scale"]),
        width_power=float(d["width_power"]),
    )


def sample(net: DeltaNet, eps: float, grid: Grid) -> np.ndarray:
    """Sample ``mass * rho_eps`` on the grid with exact trapezoid mass.

    The raw samples are rescaled so the trapezoid rule integrates exactly to
    ``net.mass``; charge conservation checks downstream then start from an
    exact reference value instead of a quadrature approximation.  The grid
    must resolve the profile's ``Mollifier.width`` at w."""
    w, length = net.half_width(eps), net.profile.s_hi - net.profile.s_lo
    if not grid.resolves(net.profile.width(w)):
        times = "" if length >= 1.0 else f" times the support length {length:.6g}"
        raise ValueError(f"delta_net: width {w:.6g}{times} at eps={eps:g} is below "
                         f"{grid.resolution}; refine the grid")
    lo, hi = net.support(eps)
    if lo < grid.x_min or hi > grid.x_max:
        raise ValueError(
            f"delta_net: support [{lo:.6g}, {hi:.6g}] at eps={eps:g} sticks out of "
            f"the grid [{grid.x_min:g}, {grid.x_max:g}]"
        )
    if net.mass == 0.0:
        return np.zeros(grid.n)
    # overflow shows as a non-finite mass or sample, refused below, not as a warning
    with np.errstate(all="ignore"):
        values = net.mass * net.density(eps)(grid.xs)
        discrete_mass = grid.integrate(values)
        out = values * (net.mass / discrete_mass)
    if not (np.isfinite(discrete_mass) and np.isfinite(out).all()):
        raise ValueError(f"delta_net: mass {net.mass:g} at eps={eps:g} gives samples "
                         "beyond the double range")
    return out
