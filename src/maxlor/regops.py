"""Regularized spatial derivative: convolution with a scaled kernel derivative.

The operator ``D f = phi'_nu * f`` with ``phi'_nu(x) = phi'(x/nu) / nu^2``
replaces the spatial derivative everywhere in the model.  On a grid it is a
short stencil with zero padding outside the grid, applied as one real-FFT
convolution (``numpy.fft``) against the stencil's spectrum.

Only the window ``f[lo:hi+1]`` between the first and the last nonzero
value of f is transformed, padded to ``next_fast_len(hi - lo + m)`` for a
stencil of m weights: a delta-like field covers a small part of the grid,
and the one-sided kernel keeps the vacuum side exactly zero.  The window's
ends are the first and last 1 in the bytes of ``f != 0``, which
``bytes.find`` and ``bytes.rfind`` locate without a reversed-stride scan,
and ``next_fast_len`` bisects a table of 5-smooth lengths.  A field
spanning the grid takes the longest transform, ``fft_len``.  The stencil's
spectrum depends on the transform length, so each operator keeps the
spectra of its last two lengths.  Each operator also owns two work
buffers of the longest length, a spectrum and a padded real array, whose
leading slices every application reuses as the ``out=`` of ``rfft`` and
``irfft``, so an application allocates no padded array; given an ``out``
array, it allocates no output either.

Stencil weights are the exact per-cell integrals of ``phi'_nu``; by the
fundamental theorem of calculus these are differences of ``phi_nu`` sampled
at the midpoints between grid offsets:

    w_j = phi_nu((j + 1/2) dx) - phi_nu((j - 1/2) dx).

The weight sum then telescopes to zero exactly, so constants are
annihilated and charge sums are conserved to rounding.  Point-sampling
``phi'_nu`` instead would alias the kernel derivative and stall the
convergence of the operator in nu once ``nu/dx`` is modest.

Orientation: ``apply(op, f)(x) = sum_j w_j f(x - y_j)``, so a kernel
supported on ``[-nu, 0]`` reads f only on ``[x, x + nu]``.  One-sided
support confinement in the solver relies on this exactly.  The FFT spreads
rounding noise over its whole padded length, so the output is written only
on the dependency cone ``[lo + j_min, hi + j_max]`` of the window and is
exactly zero elsewhere, as a direct sum is.  The output depends on f alone,
not on which fields the operator transformed before.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.fft import irfft, rfft

from .fields import Grid
from .mollifier import Mollifier

__all__ = ["RegDerivOperator", "make_operator", "next_fast_len"]

MIN_CELLS_PER_WIDTH = 4
# stencil weights an operator may hold: a wider kernel is a config mistake
MAX_STENCIL = 1_000_000
# kernel spectra an operator keeps, one per transform length, least
# recently used dropped first
SPECTRA_KEPT = 2


@cache
def _smooth_lengths(top: int) -> tuple:
    """Every 5-smooth integer up to ``top``, ascending."""
    smooth = []
    p5 = 1
    while p5 <= top:
        p35 = p5
        while p35 <= top:
            p = p35
            while p <= top:
                smooth.append(p)
                p *= 2
            p35 *= 3
        p5 *= 5
    return tuple(sorted(smooth))


def next_fast_len(target: int) -> int:
    """Smallest 5-smooth integer ``>= target``, a length real FFTs are fast
    on; equal to ``scipy.fft.next_fast_len(target, real=True)``.

    A bisection into the table of 5-smooth lengths up to the first power of
    two at or above ``target``, itself 5-smooth; a table is built once per
    power of two, and holds 582 lengths at 2**21.
    """
    table = _smooth_lengths(1 << (target - 1).bit_length())
    return table[bisect_left(table, target)]


@dataclass(eq=False)
class RegDerivOperator:
    mollifier: Mollifier
    nu: float
    grid: Grid
    offsets: np.ndarray       # integer grid offsets j with nonzero weight
    weights: np.ndarray       # derivative-kernel weights, sum exactly ~0
    op_norm: float            # cached bound ||phi'||_L1 / nu

    def __post_init__(self):
        # padded length that holds the linear convolution of a field
        # spanning the grid without wrap: the longest transform of apply
        self.fft_len = next_fast_len(self.grid.n + len(self.offsets) - 1)
        self._spectra = {}  # transform length -> stencil spectrum
        # work buffers whose leading slices every application overwrites
        self._spec = np.empty(self.fft_len // 2 + 1, dtype=complex)
        self._full = np.empty(self.fft_len)

    def _spectrum(self, size: int) -> np.ndarray:
        """Spectrum of the stencil padded to ``size``, from the bounded cache."""
        spectra = self._spectra
        spectrum = spectra.pop(size, None)
        if spectrum is None:
            spectrum = rfft(self.weights, size)
            if len(spectra) >= SPECTRA_KEPT:
                del spectra[next(iter(spectra))]
        spectra[size] = spectrum  # reinserted: most recently used last
        return spectrum

    def apply(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Regularized derivative of f with zero padding outside the grid,
        written into ``out`` (a fresh array when None) and returned."""
        f = np.asarray(f, dtype=float)
        n = self.grid.n
        if f.shape != (n,):
            raise ValueError(
                f"regops: field length {f.shape} does not match grid n={n}"
            )
        if out is None:
            out = np.empty(n)
        # one flag byte per point; argmax on a reversed view would crawl
        flags = np.not_equal(f, 0.0).tobytes()
        lo = flags.find(1)
        if lo < 0:
            out[:] = 0.0
            return out
        hi = flags.rfind(1)
        # the window's linear convolution has hi - lo + m terms
        size = next_fast_len(hi - lo + len(self.weights))
        spec = rfft(f[lo:hi + 1], size, out=self._spec[:size // 2 + 1])
        spec *= self._spectrum(size)
        full = irfft(spec, size, out=self._full[:size])
        # full[k] = sum_j w_j f[lo + k + j_min - j], so out[i] = full[i - lo - j_min]
        # on the cone [a, b), and out is exactly zero outside it
        j_min = int(self.offsets[0])
        a = max(lo + j_min, 0)
        b = max(min(hi + int(self.offsets[-1]), n - 1) + 1, a)
        out[:a] = 0.0
        out[a:b] = full[a - lo - j_min:b - lo - j_min]
        out[b:] = 0.0
        return out


def make_operator(m: Mollifier, nu: float, grid: Grid) -> RegDerivOperator:
    """Precompute the stencil for kernel width nu on the given grid.

    Fails when the kernel is not resolved by at least four grid cells; an
    under-resolved kernel silently degrades every downstream experiment, so
    this is checked here rather than at use sites.  A kernel spanning more
    than ``MAX_STENCIL`` cells (an infinite width among them) fails too.
    """
    dx = grid.dx
    if not nu > 0.0:
        raise ValueError(f"regops: kernel width nu must be positive, got {nu}")
    if nu < MIN_CELLS_PER_WIDTH * dx:
        raise ValueError(
            f"regops: grid spacing dx={dx:.6g} cannot resolve kernel width nu={nu:.6g}; "
            f"need nu >= {MIN_CELLS_PER_WIDTH}*dx = {MIN_CELLS_PER_WIDTH * dx:.6g}, refine the grid"
        )
    # the stencil's offset range, checked before anything is sized by it
    lo, hi = nu * m.s_lo / dx - 0.5, nu * m.s_hi / dx + 0.5
    if not hi - lo <= MAX_STENCIL:
        raise ValueError(
            f"regops: kernel width nu={nu:.6g} spans more than {MAX_STENCIL} cells of "
            f"dx={dx:.6g}; lower the width"
        )
    j_min, j_max = int(np.floor(lo)), int(np.ceil(hi))
    js = np.arange(j_min, j_max + 1)
    edges_hi = m.eval((js + 0.5) * dx / nu) / nu
    edges_lo = m.eval((js - 0.5) * dx / nu) / nu
    deriv_w = edges_hi - edges_lo
    nz = np.nonzero(deriv_w)[0]
    if len(nz) == 0:
        raise ValueError("regops: kernel sampled to an empty stencil")
    js, deriv_w = js[nz[0]:nz[-1] + 1], deriv_w[nz[0]:nz[-1] + 1]
    # project to an exact zero sum
    deriv_w = deriv_w - deriv_w.sum() / len(deriv_w)
    deriv_w = deriv_w - deriv_w.sum() / len(deriv_w)
    return RegDerivOperator(
        mollifier=m,
        nu=float(nu),
        grid=grid,
        offsets=js,
        weights=deriv_w,
        op_norm=m.l1_deriv / nu,
    )

