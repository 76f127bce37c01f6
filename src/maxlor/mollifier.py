"""Compactly supported bump mollifiers.

All kernels are affine remaps of the classical bump ``exp(-1/(1-y^2))`` onto
a bounded support interval, normalized to unit mass.  Three kinds are
distinguished by where the support is allowed to sit:

* ``symmetric``: any interval, canonical choice ``[-1, 1]``;
* ``left``: support contained in ``(-inf, 0]``, canonical ``[-1, 0]``;
* ``right``: support contained in ``[0, inf)``, canonical ``[0, 1]``.

One-sided kernels are the mechanism behind one-sided propagation: a
regularized derivative built from a ``left`` kernel reads field values only
to the right of each point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Mollifier", "make_mollifier", "DEFAULT_SUPPORTS"]

DEFAULT_SUPPORTS = {
    "symmetric": (-1.0, 1.0),
    "left": (-1.0, 0.0),
    "right": (0.0, 1.0),
}

# mass of the raw profile exp(-1/(1-y^2)) over (-1, 1), as adaptive
# quadrature returns it (scipy.integrate.quad, breakpoint 0, epsabs=1e-14,
# epsrel=1e-12, limit=200); tests/test_mollifier.py recomputes it bit for bit
RAW_BUMP_MASS = 0.44399381616807937


@dataclass(frozen=True)
class Mollifier:
    """Normalized bump on ``[s_lo, s_hi]`` with cached derived constants."""

    kind: str
    s_lo: float
    s_hi: float
    norm_const: float
    l1_deriv: float           # total variation int |phi'| dx, twice the peak

    def _mapped(self, x):
        # affine map of [s_lo, s_hi] onto [-1, 1]
        return (2.0 * np.asarray(x, dtype=float) - (self.s_lo + self.s_hi)) / (
            self.s_hi - self.s_lo
        )

    def eval(self, x):
        """Kernel value phi(x); exactly zero outside the support."""
        y = self._mapped(x)
        out = np.zeros_like(y)
        inside = np.abs(y) < 1.0
        yi = y[inside]
        out[inside] = self.norm_const * np.exp(-1.0 / (1.0 - yi * yi))
        if np.ndim(x) == 0:
            return float(out)
        return out

    def width(self, scale: float) -> float:
        """The narrower of ``scale`` and the support at that scale."""
        return scale * min(1.0, self.s_hi - self.s_lo)

    def spec_dict(self) -> dict:
        return {"kind": self.kind, "s_lo": self.s_lo, "s_hi": self.s_hi}


def make_mollifier(kind: str, support: tuple[float, float] | None = None) -> Mollifier:
    """Build a unit-mass bump kernel of the given kind.

    The normalization constant rescales ``RAW_BUMP_MASS``, the mass of the
    raw profile on ``(-1, 1)``, to the width of the support.  Construction fails
    for degenerate supports or supports violating the one-sidedness of the
    requested kind.
    """
    if kind not in DEFAULT_SUPPORTS:
        raise ValueError(f"mollifier: unknown kind {kind!r}")
    if support is None:
        support = DEFAULT_SUPPORTS[kind]
    s_lo, s_hi = float(support[0]), float(support[1])
    if not (math.isfinite(s_lo) and math.isfinite(s_hi)) or s_lo >= s_hi:
        raise ValueError(f"mollifier: invalid support [{s_lo}, {s_hi}]")
    if kind == "left" and s_hi > 0.0:
        raise ValueError(f"mollifier: left kernel requires support in (-inf, 0], got s_hi={s_hi}")
    if kind == "right" and s_lo < 0.0:
        raise ValueError(f"mollifier: right kernel requires support in [0, inf), got s_lo={s_lo}")

    # mass of the remapped raw profile; substitution y -> x gives width/2 factor
    norm_const = 1.0 / (0.5 * (s_hi - s_lo) * RAW_BUMP_MASS)
    # |phi'| integrates to twice the peak value for a single-hump profile
    l1_deriv = 2.0 * norm_const * math.exp(-1.0)
    return Mollifier(kind=kind, s_lo=s_lo, s_hi=s_hi, norm_const=norm_const, l1_deriv=l1_deriv)
