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
as the march saves it, and the stored-run functions replay ``sol.states``.
One row template ``x,E,u,sigma\r\n`` is mapped over the columns, with the
``x`` column formatted once per run; the bytes are :func:`write_table`'s
for the same rows, which keeps ``csv`` for tables that may need quoting.

The run id is the first 12 hex digits of the SHA-256 of the canonical
config serialization, so directories are self-describing and reruns are
trivially linkable to their inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

from .fields import Collector, FieldState, Grid, SpacetimeSolution, total_charge

__all__ = [
    "canonical_config_bytes",
    "run_id",
    "fmt",
    "write_json",
    "write_table",
    "StateWriter",
    "write_solution",
    "read_solution",
    "SolveSummary",
    "solve_summary",
]


# the one float format of every CSV: fmt and the state-row template share it
_FLOAT = "%.17g"
_STATE_HEADER = "x,E,u,sigma\r\n"
_STATE_ROW = f"%s,{_FLOAT},{_FLOAT},{_FLOAT}\r\n"


def fmt(v) -> str:
    """17-significant-digit decimal form; round-trips any float."""
    return _FLOAT % float(v)


def canonical_config_bytes(cfg_dict: dict) -> bytes:
    return json.dumps(cfg_dict, sort_keys=True, separators=(",", ":")).encode("utf-8")


def run_id(cfg_dict: dict) -> str:
    return hashlib.sha256(canonical_config_bytes(cfg_dict)).hexdigest()[:12]


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


def _state_name(i: int) -> str:
    return f"state_{i:05d}.csv"


class StateWriter:
    """A fold that writes each saved state as the next state file of
    ``out_dir``; ``finish`` writes ``meta.json`` and ``config.json``."""

    def __init__(self, out_dir, grid: Grid):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir, self.grid, self.times, self.files = out_dir, grid, [], []
        self.xcol = [_FLOAT % x for x in grid.xs.tolist()]

    def __call__(self, state: FieldState) -> None:
        name = _state_name(len(self.files))
        with open(os.path.join(self.out_dir, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(_STATE_HEADER)
            # rows are streamed: one joined string per state costs peak memory
            fh.writelines(map(_STATE_ROW.__mod__, zip(
                self.xcol, state.E.tolist(), state.u.tolist(), state.sigma.tolist())))
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
    """Write one run directory; returns the sidecar actually written."""
    return sol.replay(StateWriter(out_dir, sol.grid)).finish(sol.meta, cfg_dict)


def read_solution(out_dir) -> SpacetimeSolution:
    with open(os.path.join(out_dir, "meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    g = meta["grid"]
    grid = Grid(x_min=g["x_min"], x_max=g["x_max"], n=g["n"])
    states = Collector()
    for t, name in zip(meta["times"], meta["files"]):
        data = np.loadtxt(os.path.join(out_dir, name), delimiter=",", skiprows=1)
        states(FieldState(t=t, E=data[:, 1], u=data[:, 2], sigma=data[:, 3]))
    inner_meta = {k: v for k, v in meta.items() if k not in ("grid", "times", "files")}
    return states.solution(grid, inner_meta)


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


def solve_summary(sol: SpacetimeSolution) -> dict:
    """Headline numbers for a finished run."""
    return sol.replay(SolveSummary(sol.grid)).result(sol.meta)
