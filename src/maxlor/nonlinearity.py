"""Relativistic velocity nonlinearity.

The momentum-to-velocity map ``a(y) = y / sqrt(1 + y^2)`` appears in every
evolution equation of the model.  Both functions here accept scalars or
numpy arrays and are safe for very large arguments (``|y|`` up to about
1e150) by routing the square root through ``hypot``.  ``sqrt1p_sq`` can
write into a caller's array, so a march computes it without allocating.
"""

from __future__ import annotations

import numpy as np

__all__ = ["a", "sqrt1p_sq"]


def _check_finite(y):
    if not np.all(np.isfinite(y)):
        raise ValueError("nonlinearity: non-finite input")


def sqrt1p_sq(y, out=None):
    """sqrt(1 + y^2) without overflow in the intermediate square, written
    into ``out`` when given."""
    _check_finite(y)
    return np.hypot(1.0, y, out=out)


def a(y):
    """Velocity map y / sqrt(1 + y^2); odd, strictly increasing, |a| < 1."""
    _check_finite(y)
    return y / np.hypot(1.0, y)
