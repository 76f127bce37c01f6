"""Width schedules nu = h(eps) and the associated growth condition.

A schedule maps the net parameter ``eps`` to the kernel width used by the
regularized derivative.  The admissibility question for a schedule is
whether ``exp(h(eps)^-p)`` stays polynomially bounded in ``1/eps`` for
every moderateness order ``p``; on a finite grid this is probed through

    r(eps) = h(eps)^-p / ln(1/eps),

which must stay bounded as eps decreases.  The double-logarithmic schedule
passes for every ``p``; any power law fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ScalingFunction", "GrowthReport", "make_scaling", "h_eval", "verify_growth_condition",
           "LOGLOG_EPS_MAX", "SCALING_KINDS"]

# the double log is only a usable denominator for eps below exp(-e)
LOGLOG_EPS_MAX = math.exp(-math.e)

SCALING_KINDS = ("loglog", "powerlaw", "constant")


@dataclass(frozen=True)
class ScalingFunction:
    kind: str
    c: float
    exponent: float = 1.0

    def spec_dict(self) -> dict:
        d = {"kind": self.kind, "c": self.c}
        if self.kind == "powerlaw":
            d["exponent"] = self.exponent
        return d


def make_scaling(kind: str, c: float, exponent: float = 1.0) -> ScalingFunction:
    if kind not in SCALING_KINDS:
        raise ValueError(f"scaling: unknown kind {kind!r}")
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"scaling: c must be positive, got {c}")
    if kind == "powerlaw" and not (0.0 < exponent <= 1.0):
        raise ValueError(f"scaling: powerlaw exponent must lie in (0, 1], got {exponent}")
    return ScalingFunction(kind=kind, c=float(c), exponent=float(exponent))


def h_eval(s: ScalingFunction, eps: float) -> float:
    """Evaluate the schedule at eps; rejects inadmissible arguments and a
    width that underflows to 0 or overflows."""
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"scaling: eps must be positive, got {eps}")
    if s.kind == "constant":
        nu = s.c
    elif s.kind == "powerlaw":
        nu = s.c * eps**s.exponent
    elif eps >= LOGLOG_EPS_MAX:
        raise ValueError(
            f"scaling: loglog schedule needs eps < exp(-e) = {LOGLOG_EPS_MAX:.6g}, "
            f"got eps={eps:g}"
        )
    else:
        nu = s.c / math.log(math.log(1.0 / eps))
    if not 0.0 < nu < math.inf:
        raise ValueError(f"scaling: width h(eps) = {nu:g} at eps={eps:g} is not a positive "
                         "finite number")
    return nu


@dataclass(frozen=True)
class GrowthReport:
    p: float
    eps_grid: tuple[float, ...]
    r_values: tuple[float, ...]
    k_estimate: float
    satisfied: bool
    h_values: tuple[float, ...] = field(default=())


def verify_growth_condition(s: ScalingFunction, p: float, eps_grid) -> GrowthReport:
    """Probe the moderateness ratio r(eps) on a decreasing eps grid.

    The schedule passes (``satisfied``) when the tail of r is non-increasing,
    i.e. the finite-grid surrogate of ``r(eps)`` staying bounded as
    ``eps -> 0``.  ``k_estimate`` is the largest observed ratio: it bounds
    the polynomial order k for which ``exp(h^-p) <= eps^-k`` held on the grid.
    """
    if p < 1.0:
        raise ValueError(f"scaling: growth order p must be >= 1, got {p}")
    eps = [float(e) for e in eps_grid]
    if len(eps) < 4:
        raise ValueError("scaling: growth check needs at least 4 grid points")
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ValueError("scaling: eps grid must be strictly decreasing")
    hs = [h_eval(s, e) for e in eps]
    try:
        rs = [h ** (-p) / math.log(1.0 / e) for h, e in zip(hs, eps)]
    except (OverflowError, ZeroDivisionError):
        # h^-p beyond the double range, or ln(1/eps) = 0 at eps = 1
        raise ValueError(f"scaling: growth ratio h^-{p:g} / ln(1/eps) is not finite "
                         "on this eps grid") from None
    diffs = np.diff(rs)
    tail = diffs[-3:] if len(diffs) >= 3 else diffs
    slack = 1e-12 * max(abs(r) for r in rs)
    satisfied = bool(np.all(tail <= slack))
    return GrowthReport(
        p=float(p),
        eps_grid=tuple(eps),
        r_values=tuple(rs),
        k_estimate=float(max(rs)),
        satisfied=satisfied,
        h_values=tuple(hs),
    )
