"""Deterministic on-disk layout for runs.

A run directory holds one CSV per saved time (columns ``x, E, u, sigma``),
a ``meta.json`` sidecar describing grid, parameters, kernel, scaling and
solver, a verbatim ``config.json`` copy, and a ``summary.json`` with the
headline numbers.  JSON keys are sorted, and every float in a CSV is
written with 17 significant digits from the one ``%.17g`` spec, so
identical config and seed reproduce byte-identical files; nothing time- or
host-dependent is ever written.

State files and the headline numbers are folds over saved states
(:class:`StateWriter`, :class:`SolveSummary`): ``solve`` writes each state
as the march saves it, and a stored solution feeds them with
``sol.replay``.  A state file reads back bit for bit with
``numpy.loadtxt(path, delimiter=",", skiprows=1)``.
A state file is written by a numpy kernel instead of one ``%`` per value,
a block of rows at a time.  It scales each double by a power of ten held
as a double-double (Dekker's two-product, so no FMA is needed), which
makes the 17 digits ``%.17g`` rounds to come out exact, and lays them out
by the ``%g`` rules into byte cells whose unused bytes are zero and are
dropped on write.  Zeros take the kernel too; values outside
[1e-280, 1e280] (subnormals, nan, inf) and products within 1e-6 of a
rounding tie go through :func:`fmt` instead.  The bytes are
:func:`write_table`'s for the same rows: that writer and :func:`fmt` are
the reference the tests compare the kernel against, and ``csv`` stays for
the tables that may need quoting.

The run id is the first 12 hex digits of the SHA-256 of the canonical
config serialization, so directories are self-describing and reruns are
trivially linkable to their inputs.  The digest comes from the
interpreter's built-in SHA-256 module (``hashlib`` only where that is
missing), so writing a run never loads OpenSSL.
"""

from __future__ import annotations

import csv
import functools
import json
import os

import numpy as np

from .fields import FieldState, Grid, SpacetimeSolution, total_charge

# the interpreter's built-in SHA-256 gives hashlib's digest without loading
# OpenSSL, as CPython's random.py does: _sha2 from 3.12, _sha256 before it
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

__all__ = [
    "canonical_config_bytes",
    "run_id",
    "fmt",
    "write_json",
    "write_table",
    "StateWriter",
    "SolveSummary",
]


# the one float format of every CSV; the state-file kernel writes its bytes
_FLOAT = "%.17g"
_STATE_HEADER = b"x,E,u,sigma\r\n"


def fmt(v) -> str:
    """17-significant-digit decimal form; round-trips any float."""
    return _FLOAT % float(v)


def canonical_config_bytes(cfg_dict: dict) -> bytes:
    return json.dumps(cfg_dict, sort_keys=True, separators=(",", ":")).encode("utf-8")


def run_id(cfg_dict: dict) -> str:
    return _sha256(canonical_config_bytes(cfg_dict)).hexdigest()[:12]


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_table(path, header, rows) -> None:
    """CSV with RFC-4180 quoting; floats rendered via :func:`fmt`, None as ''."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(v) if isinstance(v, (int, float, np.floating)) else v
                        for v in row])


# -- the state-file kernel ------------------------------------------------
# A value is laid out in a sparse cell of _SPARSE bytes, a column of a
# position-major (_SPARSE, n) array, so every numpy call below runs over n.
# Bytes a value does not use are zero and are dropped when the rows are
# written:
#   0      "-" when the sign bit is set
#   1-5    "0.000": "0." and -E - 1 zeros in fixed notation with E in -4..-1
#   6-38   d0 . d1 . ... . d16: the 17 digits with a point slot after each
#          but the last; trailing zeros of a fraction are blank
#   39-43  "e", the exponent's sign and its three digits (the hundreds
#          only when |E| >= 100)
_SIGN, _PREFIX, _DIGITS, _SUFFIX, _SPARSE = 0, 1, 6, 39, 44
_CELL = 24  # the widest %.17g of a double: -1.2345678901234567e-308
# doubles in this range scale by 10**k, k = 16 - E, without leaving the
# normal range at any step of the product; the rest go through fmt
_KERNEL_RANGE = (1e-280, 1e280)
_K_MIN, _K_MAX = -266, 298
# the scaled product is exact to about 1e-14; one this close to a half
# goes through fmt, so no rounding decision rests on the error
_TIE_MARGIN = 1e-6
# rows formatted at once: the block's buffers and temporaries are what a
# state file costs in memory beyond the x cells
_BLOCK = 384
# the decimal exponents the E-indexed tables cover: every E of the kernel
# range, and E = 0 of the values formatted as 1.0
_E_MIN, _E_MAX = -300, 300
# a small integer type keeps the (17, n) broadcasts below cheap
_PLACES = np.arange(18, dtype=np.uint8)[:, None]
_NO_POINT = 255


def _split(a):
    """Veltkamp's split of a double into two halves of 26 significant bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10(k: int):
    """10**k as a double-double ``(hi, lo)``; int true division rounds
    correctly, so ``hi`` is the nearest double and ``lo`` the nearest to the
    rest."""
    p, q = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = p / q
    num, den = hi.as_integer_ratio()
    return hi, (p * den - num * q) / (q * den)


def _exponent_layout(e: int):
    """What of a cell depends on E alone: the prefix and suffix bytes, the
    count of integer digits and the place of the point slot."""
    if 0 <= e <= 16:
        return b"", b"", e + 1, e
    if -4 <= e <= -1:
        return b"0." + b"0" * (-e - 1), b"", 1, _NO_POINT
    text = f"e{e:+03d}".encode()
    return b"", text[:2] + text[2:].rjust(3, b"\0"), 1, 0


@functools.cache
def _kernel_tables() -> dict:
    """10**k for k in [_K_MIN, _K_MAX] as double-doubles with the high part
    pre-split, the digits of 0..9999 as 4-byte words and the E-indexed
    layouts; built on first use, not at import."""
    hi, lo = np.array([_pow10(k) for k in range(_K_MIN, _K_MAX + 1)]).T
    places = np.array([1000, 100, 10, 1], np.uint16)
    digits = (np.arange(10000, dtype=np.uint16)[:, None] // places % 10 + 48).astype(np.uint8)
    prefix, suffix, integer, point = zip(*map(_exponent_layout, range(_E_MIN, _E_MAX + 1)))

    def rows(texts):  # position-major: (5, number of exponents)
        joined = b"".join(t.ljust(5, b"\0") for t in texts)
        return np.frombuffer(joined, np.uint8).reshape(-1, 5).T.copy()

    return {
        "pow_split": _split(hi),
        "pow_lo": lo,
        "four_digits": digits.view(np.uint32).ravel(),
        "prefix": rows(prefix),
        "suffix": rows(suffix),
        "integer_digits": np.array(integer, np.uint8),
        "point": np.array(point, np.uint8),
    }


def _scaled(a, e, tables):
    """``a * 10**(16 - e)`` as ``p + r``: ``p`` the rounded double product,
    ``r`` the rest (Dekker's two-product plus ``a`` times the low part)."""
    i = 16 - e - _K_MIN
    bh, bl = tables["pow_split"][0][i], tables["pow_split"][1][i]
    p = a * (bh + bl)
    ah, al = _split(a)
    r = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, r + a * tables["pow_lo"][i]


class _CellFormatter:
    """Writes the ``%.17g`` bytes of up to ``size`` doubles into sparse cells;
    its digit buffers are allocated once."""

    def __init__(self, size: int):
        self.digits = np.empty((17, size), np.uint8)
        self.groups = np.empty((4, size), np.int64)

    def __call__(self, v, cells) -> None:
        """Fill ``cells``, a ``(_SPARSE, len(v))`` uint8 array, from ``v``."""
        tables = _kernel_tables()
        a = np.abs(v)
        zero = a == 0
        fast = (a >= _KERNEL_RANGE[0]) & (a <= _KERNEL_RANGE[1])
        # a zero is formatted as 1.0 with its first digit turned to "0"
        a = np.where(fast, a, 1.0)
        # E from log10, corrected from the unrounded product, then from the
        # rounded digits: 1e-14 needs both
        e = np.floor(np.log10(a)).astype(np.int64)
        p, r = _scaled(a, e, tables)
        up = (p > 1e17) | ((p == 1e17) & (r >= 0))
        down = (p < 1e16) | ((p == 1e16) & (r < 0))
        fix = np.flatnonzero(up | down)
        if len(fix):
            e[fix] += up[fix].astype(np.int64) - down[fix]
            p[fix], r[fix] = _scaled(a[fix], e[fix], tables)
        rounded = np.rint(r)
        slow = ~(fast | zero) | (0.5 - np.abs(r - rounded) < _TIE_MARGIN)
        # p >= 1e16 > 2**53 is an integer, so the digits are p + round(r)
        d = p.astype(np.int64) + rounded.astype(np.int64)
        carry = d == 10 ** 17
        d[carry] = 10 ** 16
        e += carry
        # the first digit, then four groups of four, each group one 4-byte
        # word of a table, its bytes moved to the digit rows
        first = d // 10 ** 16
        rest = d - first * 10 ** 16
        groups = self.groups[:, :len(v)]
        np.floor_divide(rest, 10 ** 8, out=groups[0])
        np.subtract(rest, groups[0] * 10 ** 8, out=groups[2])
        quads = groups[::2] // 10 ** 4
        np.subtract(groups[::2], quads * 10 ** 4, out=groups[1::2])
        groups[::2] = quads
        digits = self.digits[:, :len(v)]
        digits[0] = first + 48 - zero
        words = tables["four_digits"][groups].view(np.uint8).reshape(4, len(v), 4)
        digits[1:].reshape(4, 4, len(v))[...] = words.transpose(0, 2, 1)
        # the digits up to the last nonzero one are shown, and the integer
        # digits of fixed notation; the point only if a digit follows it
        i = e - _E_MIN
        shown = np.maximum(((digits != 48) * _PLACES[1:]).max(axis=0),
                           tables["integer_digits"][i])
        point = tables["point"][i]
        point[point >= shown - 1] = _NO_POINT
        cells[_SIGN] = np.signbit(v) * np.uint8(45)
        np.take(tables["prefix"], i, axis=1, out=cells[_PREFIX:_DIGITS])
        np.multiply(digits, _PLACES[:17] < shown, out=cells[_DIGITS:_SUFFIX:2])
        np.multiply(_PLACES[:16] == point, np.uint8(46), out=cells[_DIGITS + 1:_SUFFIX:2])
        np.take(tables["suffix"], i, axis=1, out=cells[_SUFFIX:])
        for i in np.flatnonzero(slow).tolist():
            text = fmt(v[i]).encode("ascii")
            cells[:, i] = 0
            cells[:len(text), i] = np.frombuffer(text, np.uint8)


def _state_name(i: int) -> str:
    return f"state_{i:05d}.csv"


class StateWriter:
    """A fold that writes each saved state as the next state file of
    ``out_dir``; ``finish`` writes ``meta.json`` and ``config.json``.

    It holds buffers for ``_BLOCK`` rows, allocated once, and the ``x``
    column, the same in every state, formatted once into ``_CELL`` bytes
    per grid point."""

    def __init__(self, out_dir, grid: Grid):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir, self.grid, self.times, self.files = out_dir, grid, [], []
        self.format = _CellFormatter(3 * _BLOCK)
        self.values = np.empty(3 * _BLOCK)
        self.cells = np.empty((_SPARSE, 3 * _BLOCK), np.uint8)
        # a row: x, a comma, then E, u and sigma cells each followed by one
        # separator byte (",", ",", "\r"), then "\n"
        self.rows = np.empty((_BLOCK, _CELL + 1 + 3 * (_SPARSE + 1) + 1), np.uint8)
        self.rows[:, _CELL] = ord(",")
        self._value_cells()[:, :, _SPARSE] = np.frombuffer(b",,\r", np.uint8)
        self.rows[:, -1] = ord("\n")
        self.xcells = np.empty((grid.n, _CELL), np.uint8)
        for lo in range(0, grid.n, _BLOCK):
            xs = grid.xs[lo:lo + _BLOCK]
            cells = self.cells[:, :len(xs)]
            self.format(xs, cells)
            # left-align each cell's bytes: stable, so their order stays
            order = np.argsort(cells.T == 0, axis=1, kind="stable")
            self.xcells[lo:lo + _BLOCK] = np.take_along_axis(cells.T, order, axis=1)[:, :_CELL]

    def _value_cells(self, b: int = _BLOCK):
        """The E, u and sigma cells of the first ``b`` rows, ``(b, 3, _SPARSE + 1)``."""
        return self.rows[:b, _CELL + 1:-1].reshape(b, 3, _SPARSE + 1)

    def __call__(self, state: FieldState) -> None:
        name = _state_name(len(self.files))
        with open(os.path.join(self.out_dir, name), "wb") as fh:
            fh.write(_STATE_HEADER)
            for lo in range(0, self.grid.n, _BLOCK):
                b = min(_BLOCK, self.grid.n - lo)
                values = self.values[:3 * b].reshape(3, b)
                for row, column in zip(values, (state.E, state.u, state.sigma)):
                    row[:] = column[lo:lo + b]
                cells = self.cells[:, :3 * b]
                self.format(values.ravel(), cells)
                rows = self.rows[:b]
                rows[:, :_CELL] = self.xcells[lo:lo + b]
                self._value_cells(b)[:, :, :_SPARSE] = cells.reshape(_SPARSE, 3, b).T
                fh.write(rows.tobytes().translate(None, b"\0"))
        self.times.append(float(state.t))
        self.files.append(name)

    def finish(self, run_meta: dict, cfg_dict: dict) -> dict:
        """Write the sidecars; returns the ``meta.json`` written."""
        meta = {**run_meta, "grid": self.grid.spec_dict(), "times": self.times,
                "files": self.files, "run_id": run_id(cfg_dict)}
        write_json(os.path.join(self.out_dir, "meta.json"), meta)
        write_json(os.path.join(self.out_dir, "config.json"), cfg_dict)
        return meta


def write_solution(out_dir, sol: SpacetimeSolution, cfg_dict: dict) -> dict:
    """:class:`StateWriter` over a stored solution, returning ``meta.json``;
    kept only because ``bench/tracer.py`` wraps it, until the tracer wraps the fold."""
    return sol.replay(StateWriter(out_dir, sol.grid)).finish(sol.meta, cfg_dict)


class SolveSummary:
    """The headline numbers of a run as a fold: each saved state's charge,
    peak amplitude and time; ``result`` adds the run's record."""

    def __init__(self, grid: Grid):
        self.grid, self.rows = grid, []

    def __call__(self, state: FieldState) -> None:
        self.rows.append((total_charge(self.grid, state), state.max_abs(), float(state.t)))

    def result(self, meta: dict) -> dict:
        charges, peaks, times = zip(*self.rows)
        q0 = charges[0]
        return {
            "status": meta.get("status", "ok"),
            "a_priori_bound": meta.get("a_priori_bound"),
            "op_norm": meta.get("op_norm"),
            "nu": meta.get("nu"),
            "eps": meta.get("eps"),
            "charge_initial": q0,
            "charge_final": charges[-1],
            "charge_max_drift": max(abs(c - q0) for c in charges),
            "peak_amplitude": max(peaks),
            "margin_ratio": meta.get("margin_ratio"),
            "boundary_contaminated": meta.get("boundary_contaminated"),
            "n_saved": len(charges),
            "t_final": times[-1],
        }

