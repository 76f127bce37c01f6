"""Two oracles, numpy only: the linearized system's residuals, and an exact
linear reference for the time rules.

The library carries the closed form of the linearized system with
point-charge data (``analysis.linearized_reference``) because ``compare-lin``
measures solver runs against it.  That the closed form solves its system is
a property of the formulas, not of a run, so the check lives here: the
distributional residuals against a test function, with the test function's
partial derivatives and the charge's pairing rule.

Every integral is the library's 64-node Gauss-Legendre rule on each
smooth piece, split at the jump lines ``x = 0`` and ``x = t``.  Nothing
here needs SciPy, so acceptance 7 runs on a plain install;
``tests/test_analysis.py`` checks this rule against SciPy's adaptive
``quad``.

The time reference is the E row with sigma and u zero at the start:
sigma then stays zero, so ``dE/dt = -D E`` exactly, whatever u does.  With
``D`` the operator's matrix, ``exp(-T D) E0`` is the semi-discrete solution
and the Cayley map ``(I + hD/2)^-1 (I - hD/2)`` one trapezoid step.
"""

from __future__ import annotations

import math

import numpy as np

from maxlor.analysis import TestFunction2D, _gl_rule, linearized_reference


def _bump_slope(s):
    # b'(s) = b(s) * (-2 s / (1 - s^2)^2), zero off (-1, 1)
    s = np.asarray(s)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    one = 1.0 - si * si
    out[inside] = np.exp(1.0 - 1.0 / one)
    out[inside] *= -2.0 * si / one**2
    return out


def _scaled(psi: TestFunction2D, t, x):
    return ((np.asarray(t, dtype=float) - psi.t0) / psi.r_t,
            (np.asarray(x, dtype=float) - psi.x0) / psi.r_x)


def psi_dt(psi: TestFunction2D, t, x):
    """``d psi / dt`` at broadcast ``(t, x)``; floats give a float."""
    st, sx = _scaled(psi, t, x)
    out = psi.amplitude * _bump_slope(st) / psi.r_t * psi._b(sx)
    return float(out) if out.ndim == 0 else out


def psi_dx(psi: TestFunction2D, t, x):
    """``d psi / dx`` at broadcast ``(t, x)``; floats give a float."""
    st, sx = _scaled(psi, t, x)
    out = psi.amplitude * psi._b(st) * _bump_slope(sx) / psi.r_x
    return float(out) if out.ndim == 0 else out


def _gl_map(lo, hi):
    # the rule's nodes and weights on [lo, hi], for arrays of intervals
    nodes, weights = _gl_rule()
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid[..., None] + half[..., None] * nodes, half[..., None] * weights


def _gauss(f, lo, hi, breaks=()):
    """``int f(t) dt`` over ``[lo, hi]``, split at the breaks inside it.

    ``f`` takes a vector of nodes; it must be smooth on each piece.
    """
    cuts = sorted({lo, hi} | {b for b in breaks if lo < b < hi})
    total = 0.0
    for a_, b in zip(cuts, cuts[1:]):
        tn, tw = _gl_map(a_, b)
        total += float(np.sum(f(tn) * tw))
    return total


def _gauss_inner(F, t, xlo, xhi):
    """``int F(t, x) dx`` over ``[xlo, xhi]`` for a whole vector of times.

    Splits at the jump lines ``x = 0`` and ``x = t``; degenerate pieces
    collapse to zero length and contribute nothing.
    """
    t = np.asarray(t, dtype=float)
    zero = np.clip(0.0, xlo, xhi)
    cuts = np.sort(
        np.stack([
            np.full_like(t, xlo),
            np.full_like(t, zero),
            np.clip(t, xlo, xhi),
            np.full_like(t, xhi),
        ]),
        axis=0,
    )
    total = np.zeros_like(t)
    for p in range(3):
        xn, wn = _gl_map(cuts[p], cuts[p + 1])
        total += np.sum(F(t[..., None], xn) * wn, axis=-1)
    return total


def sigma_pairing(q: float, psi: TestFunction2D) -> float:
    """``<q delta(x), psi> = q int psi(t, 0) dt``."""
    if psi.x_lo > 0.0 or psi.x_hi < 0.0:
        return 0.0
    return float(q) * _gauss(lambda t: psi.value(t, 0.0), psi.t_lo, psi.t_hi)


def linear_system_residuals(q: float, psi: TestFunction2D) -> dict:
    """Distributional residuals of the linearized system against one psi.

    All integrals act on the closed forms; no solver output is involved.
    Returns the three residuals keyed ``faraday`` (dE/dt + dE/dx = sigma),
    ``force`` (du/dt = E), and ``continuity`` (dsigma/dt = 0).
    """
    ref = linearized_reference(q)
    xlo, xhi = psi.x_lo, psi.x_hi
    tlo, thi = psi.t_lo, psi.t_hi
    tbreaks = (0.0, xlo, xhi)

    def integral(F):
        return _gauss(lambda tn: _gauss_inner(F, tn, xlo, xhi), tlo, thi, tbreaks)

    lhs1 = -integral(lambda t, x: ref.E(t, x) * (psi_dt(psi, t, x) + psi_dx(psi, t, x)))
    lhs2 = -integral(lambda t, x: ref.u(t, x) * psi_dt(psi, t, x))
    rhs2 = integral(lambda t, x: ref.E(t, x) * psi.value(t, x))
    rhs1 = sigma_pairing(q, psi)
    if psi.x_lo > 0.0 or psi.x_hi < 0.0:
        res3 = 0.0
    else:
        res3 = -q * _gauss(lambda t: psi_dt(psi, t, 0.0), tlo, thi)
    return {"faraday": lhs1 - rhs1, "force": lhs2 - rhs2, "continuity": res3}


def dense_operator(op) -> np.ndarray:
    """The matrix of ``op.apply``: column j is the operator on the j-th unit vector."""
    n = op.grid.n
    D = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        D[:, j] = op.apply(e)
        e[j] = 0.0
    return D


def exact_decay(D: np.ndarray, E0: np.ndarray, T: float) -> np.ndarray:
    """``exp(-T D) E0``: the degree-20 Taylor polynomial of ``exp(A / 2^s)``,
    ``A = -T D`` and ``s`` the least with ``||A||_1 / 2^s <= 1/2``, squared
    ``s`` times.  The truncation error is about 0.5^21 / 21!, far below
    round-off."""
    A = -T * D
    norm = float(np.max(np.sum(np.abs(A), axis=0)))
    s = max(0, math.ceil(math.log2(norm / 0.5)))
    A /= 2.0**s
    eye = np.eye(len(D))
    P = eye
    for k in range(20, 0, -1):  # Horner: I + A/1 (I + A/2 (... (I + A/20)))
        P = eye + (A @ P) / k
    for _ in range(s):
        P = P @ P
    return P @ E0


def trapezoid_decay(D: np.ndarray, E0: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """``n_steps`` exact trapezoid steps of ``dE/dt = -D E`` from ``E0``."""
    eye = np.eye(len(D))
    cayley = np.linalg.solve(eye + 0.5 * h * D, eye - 0.5 * h * D)
    E = E0
    for _ in range(n_steps):
        E = cayley @ E
    return E
