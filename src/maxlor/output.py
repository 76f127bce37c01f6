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
The ``x`` column of a state file is formatted by :func:`fmt` once per
writer; E, u and sigma are written by a numpy kernel instead of one ``%``
per value, a block of rows at a time.  It scales each double by a power of
ten held as a double-double (Dekker's two-product, so no FMA is needed),
which makes the 17 digits ``%.17g`` rounds to come out exact, and lays
them out by the ``%g`` rules into cells of 8-byte words, each part of a
cell one word of a table, whose unused bytes are zero and are dropped on
write.  Only the rows from the first to the last one with a nonzero bit in
E, u or sigma take the kernel; the rows outside, all ``+0.0`` (the vacuum
side of a one-sided kernel stays exactly zero), are the x cell and
``,0,0,0``.  Zeros between them take the kernel too; values outside
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
    "run_status",
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
# A value is laid out in a cell of _SPARSE bytes, six 8-byte words, the last
# axis of a value-major array: a cell is a slice of the row it is written
# in, and each part of it is one word of a table, stored or combined whole.
# Bytes a value does not use are zero and are dropped when the rows are
# written:
#   0      left zero: the separator before the value
#   1      "-" when the sign bit is set
#   2-6    "0.000": "0." and -E - 1 zeros in fixed notation with E in -4..-1
#   7      d0, the first digit
#   8-39   d1 ... d16, each after a point slot: the point follows the last
#          integer digit when a digit follows it; trailing zeros of a
#          fraction are blank
#   40-44  "e", the exponent's sign and its three digits (the hundreds
#          only when |E| >= 100)
#   45-47  left zero: the end of a row after its last value
_SPARSE = 48
_LEAD, _SUFFIX = 0, 5  # words of a cell
_FIRST = 7  # the byte of d0
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
_BLOCK = 512
# the decimal exponents the E-indexed tables cover: every E of the kernel
# range, and E = 0 of the values formatted as 1.0
_E_MIN, _E_MAX = -300, 300
# the point slot of a layout with no point: after d16, so never shown
_NO_POINT = 16
# a row of a state file: the x cell, then the E, u and sigma cells
_ROW = _CELL + 3 * _SPARSE
# the rest of a row whose E, u and sigma all have all-zero bits, one word
_ZERO_WORD = np.frombuffer(b",0,0,0\r\n", np.uint64)[0]
# x values formatted at once when a writer starts: only a chunk's strings
# are alive at a time, not one per grid point
_X_CHUNK = 256


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
    pre-split, the words of a cell's parts and the E-indexed layouts; built
    on first use, not at import."""
    hi, lo = np.array([_pow10(k) for k in range(_K_MIN, _K_MAX + 1)]).T
    prefix, suffix, integer, point = zip(*map(_exponent_layout, range(_E_MIN, _E_MAX + 1)))
    # word 0 of a cell: index 2 (E - _E_MIN) + the sign bit
    lead = np.zeros((len(prefix), 2, 8), np.uint8)
    lead[:, 1, 1] = ord("-")
    lead[:, :, 2:7] = np.frombuffer(b"".join(t.ljust(5, b"\0") for t in prefix),
                                    np.uint8).reshape(-1, 1, 5)
    last = np.zeros((len(suffix), 8), np.uint8)
    last[:, :5] = np.frombuffer(b"".join(t.ljust(5, b"\0") for t in suffix),
                                np.uint8).reshape(-1, 5)
    # the digits of 0..9999, digit j in byte 2 j + 1 of a word, each after
    # a point (a mask keeps the one shown), and the trailing zeros of each
    numbers = np.arange(10000, dtype=np.uint16)
    four_digits = np.full((10000, 8), ord("."), np.uint8)
    trailing_zeros = np.zeros(10000, np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        four_digits[:, 2 * j + 1] = numbers // place % 10 + 48
        trailing_zeros += numbers % (10000 // place) == 0
    # what of the digit words a value shows, from the integer digits and
    # the point slot its exponent gives (a class) and its s significant
    # digits: row 18 c + s; the point only if a digit follows it
    classes = sorted(set(zip(integer, point)))
    masks = np.zeros((len(classes), 18, 32), np.uint8)
    for c, (whole, point_slot) in enumerate(classes):
        for s in range(1, 18):
            shown = max(s, whole)
            masks[c, s, 1:2 * shown - 1:2] = 255
            if point_slot < shown - 1:
                masks[c, s, 2 * point_slot] = 255
    return {
        "pow_hi": hi,
        "pow_split": _split(hi),
        "pow_lo": lo,
        "lead": lead.view(np.uint64).ravel(),
        "suffix": last.view(np.uint64).ravel(),
        "four_digits": four_digits.view(np.uint64).ravel(),
        "trailing_zeros": trailing_zeros,
        "masks": masks.view(np.uint64).reshape(-1, 4),
        # per exponent, the mask row of 17 significant digits
        "mask_row": np.array([18 * classes.index(c) + 17 for c in zip(integer, point)],
                             np.int64),
    }


def _scaled(a, e, tables):
    """``a * 10**(16 - e)`` as ``p + r``: ``p`` the rounded double product,
    ``r`` the rest (Dekker's two-product plus ``a`` times the low part)."""
    i = 16 - _K_MIN - e
    (bh, bl), lo = tables["pow_split"], tables["pow_lo"]
    p = tables["pow_hi"].take(i)
    p *= a
    ah, al = _split(a)
    # ((ah bh - p) + ah bl + al bh) + al bl + a lo, in place and in that
    # order, each product written over a factor it was the last to need
    bh = bh.take(i)
    r = ah * bh
    r -= p
    bl = bl.take(i)
    r += np.multiply(ah, bl, out=ah)
    r += np.multiply(al, bh, out=bh)
    r += np.multiply(al, bl, out=bl)
    del ah, al, bh
    r += np.multiply(a, lo.take(i), out=bl)
    return p, r


def _format_cells(v, cells) -> None:
    """Write the ``%.17g`` bytes of the doubles ``v``, a 1-D array, into
    ``cells``, a uint64 array of shape ``shape + (_SPARSE // 8,)`` that
    holds ``prod(shape)`` cells in the order of ``v``.  Each array goes as
    soon as it is dead: the peak is what a block of rows costs."""
    tables = _kernel_tables()
    shape = cells.shape[:-1]
    a = np.abs(v)
    zero = a == 0
    # a value out of the kernel's range goes through fmt; a zero is
    # formatted as 1.0 with its first digit turned to "0"
    out_of_range = ~((a >= _KERNEL_RANGE[0]) & (a <= _KERNEL_RANGE[1]))
    a[out_of_range] = 1.0
    slow = out_of_range ^ zero
    del out_of_range
    # E from log10, corrected from the unrounded product, then from the
    # rounded digits: 1e-14 needs both
    e = np.floor(np.log10(a)).astype(np.int64)
    p, r = _scaled(a, e, tables)
    up = (p > 1e17) | ((p == 1e17) & (r >= 0))
    down = (p < 1e16) | ((p == 1e16) & (r < 0))
    fix = (up | down).nonzero()[0]
    if len(fix):
        e[fix] += up[fix].astype(np.int64) - down[fix]
        p[fix], r[fix] = _scaled(a[fix], e[fix], tables)
    del a, up, down
    # p >= 1e16 > 2**53 is an integer, so the digits are p + round(r); a
    # rest within _TIE_MARGIN of a half goes through fmt
    rounded = np.rint(r)
    r -= rounded
    slow |= 0.5 - np.abs(r, out=r) < _TIE_MARGIN
    d = p.astype(np.int64)
    d += rounded.astype(np.int64)
    del p, r, rounded
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    # the words that depend on E alone, then the first digit
    e -= _E_MIN
    cells[..., _LEAD] = tables["lead"].take(2 * e + np.signbit(v)).reshape(shape)
    cells[..., _SUFFIX] = tables["suffix"].take(e).reshape(shape)
    index = tables["mask_row"].take(e)
    del e
    first, rest = np.divmod(d, 10 ** 16)
    del d
    first += 48
    first -= zero
    text = cells.view(np.uint8)
    text[..., _FIRST] = first.reshape(shape)
    del first
    # four groups of four digits, each group one word
    groups = np.empty((len(v), 4), np.int64)
    np.divmod(rest, 10 ** 8, out=(groups[:, 0], groups[:, 2]))
    del rest
    np.divmod(groups[:, ::2], 10 ** 4, out=(groups[:, ::2], groups[:, 1::2]))
    # the digits up to the last nonzero one are significant
    places = tables["trailing_zeros"].take(groups)
    zeros = places[:, 3].copy()
    for k in (2, 1, 0):  # through a zero group to the one before it
        more = (zeros == 12 - 4 * k).nonzero()[0]
        if not len(more):
            break
        zeros[more] += places[more, k]
    del places
    index -= zeros
    digits = tables["four_digits"].take(groups)
    masks = tables["masks"].take(index, axis=0, out=groups.view(np.uint64),
                                 mode="clip")  # the groups are dead
    np.bitwise_and(digits.reshape(shape + (4,)), masks.reshape(shape + (4,)),
                   out=cells[..., 1:_SUFFIX])
    del digits, groups, masks
    for k in slow.nonzero()[0].tolist():
        cell = text[np.unravel_index(k, shape)]
        line = fmt(v[k]).encode("ascii")
        cell[1:_SPARSE - 3] = 0
        cell[1:1 + len(line)] = np.frombuffer(line, np.uint8)


def _write_rows(fh, rows) -> None:
    """Write the bytes of ``rows`` but their zeros."""
    fh.write(rows.tobytes().translate(None, b"\0"))


def _state_name(i: int) -> str:
    return f"state_{i:05d}.csv"


class StateWriter:
    """A fold that writes each saved state as the next state file of
    ``out_dir``; ``finish`` writes ``meta.json`` and ``config.json``.

    It holds buffers for ``_BLOCK`` rows, allocated once, and the ``x``
    column, the same in every state, formatted once into ``_CELL`` bytes
    per grid point.  Rows before the first and after the last row with a
    nonzero bit are written from the ``x`` cells alone."""

    def __init__(self, out_dir, grid: Grid):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir, self.grid, self.times, self.files = out_dir, grid, [], []
        self.values = np.empty((min(_BLOCK, grid.n), 3))
        self.rows = np.empty((len(self.values), _ROW // 8), np.uint64)
        self.xcells = np.empty((grid.n, _CELL // 8), np.uint64)
        # each x cell is fmt's text, zero-padded
        xtext = self.xcells.view(f"S{_CELL}")[:, 0]
        for lo in range(0, grid.n, _X_CHUNK):
            xtext[lo:lo + _X_CHUNK] = [fmt(x) for x in grid.xs[lo:lo + _X_CHUNK].tolist()]

    def _span(self, state: FieldState):
        """The first row with a nonzero bit in E, u or sigma, and one past
        the last; ``(0, 0)`` for an all-zero state.  Blocks are scanned from
        either end, so no n-sized temporary is made."""
        n, columns = self.grid.n, (state.E, state.u, state.sigma)

        def nonzero_rows(lo, hi):
            bits = [c[lo:hi].view(np.uint64) for c in columns]
            return np.flatnonzero(bits[0] | bits[1] | bits[2])

        for lo in range(0, n, _BLOCK):
            rows = nonzero_rows(lo, lo + _BLOCK)
            if len(rows):
                first = lo + int(rows[0])
                break
        else:
            return 0, 0
        hi = n
        while True:  # ends at the latest in the block of row `first`
            lo = max(hi - _BLOCK, first)
            rows = nonzero_rows(lo, hi)
            if len(rows):
                return first, lo + int(rows[-1]) + 1
            hi = lo

    def _write_zero_rows(self, fh, lo: int, hi: int) -> None:
        """Rows ``lo`` to ``hi - 1``, all zero: each its x cell and ",0,0,0"."""
        for start in range(lo, hi, _BLOCK):
            b = min(_BLOCK, hi - start)
            rows = self.rows.reshape(-1)[:b * (_CELL // 8 + 1)].reshape(b, -1)
            rows[:, :-1] = self.xcells[start:start + b]
            rows[:, -1] = _ZERO_WORD
            _write_rows(fh, rows)

    def __call__(self, state: FieldState) -> None:
        name = _state_name(len(self.files))
        first, last = self._span(state)
        with open(os.path.join(self.out_dir, name), "wb") as fh:
            fh.write(_STATE_HEADER)
            self._write_zero_rows(fh, 0, first)
            for lo in range(first, last, _BLOCK):
                b = min(_BLOCK, last - lo)
                values = self.values[:b]
                for k, column in enumerate((state.E, state.u, state.sigma)):
                    values[:, k] = column[lo:lo + b]
                rows = self.rows[:b]
                rows[:, :_CELL // 8] = self.xcells[lo:lo + b]
                _format_cells(values.ravel(), rows[:, _CELL // 8:].reshape(b, 3, _SPARSE // 8))
                text = rows.view(np.uint8)
                text[:, _CELL::_SPARSE] = ord(",")
                text[:, -3:-1] = np.frombuffer(b"\r\n", np.uint8)
                _write_rows(fh, rows)
            self._write_zero_rows(fh, last, self.grid.n)
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


def run_status(meta: dict) -> dict:
    """The status block of a one-solve summary, read off the run's ``meta``; a
    Picard march adds ``picard_iterations``, its fixed-point iterations summed
    over the steps, an aborted step's included."""
    status = {"status": meta.get("status", "ok"), "a_priori_bound": meta.get("a_priori_bound"),
              "boundary_contaminated": meta.get("boundary_contaminated")}
    if "picard" in meta:
        status["picard_iterations"] = meta["picard"]["iterations"]
    return status


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
            **run_status(meta),
            "op_norm": meta.get("op_norm"),
            "nu": meta.get("nu"),
            "eps": meta.get("eps"),
            "charge_initial": q0,
            "charge_final": charges[-1],
            "charge_max_drift": max(abs(c - q0) for c in charges),
            "peak_amplitude": max(peaks),
            "margin_ratio": meta.get("margin_ratio"),
            "n_saved": len(charges),
            "t_final": times[-1],
        }

