"""Deterministic on-disk layout for runs.

A run directory holds one CSV per saved time (columns ``x, E, u, sigma``),
a ``meta.json`` sidecar describing grid, parameters, kernel, scaling and
solver, a verbatim ``config.json`` copy, and a ``summary.json`` with the
headline numbers.  JSON keys are sorted, and every float in a CSV is
written with 17 significant digits from the one ``%.17g`` spec, so
identical config and seed reproduce byte-identical files; nothing time- or
host-dependent is ever written.

State files have their own writer: one row template ``x,E,u,sigma\r\n``
is mapped over the columns as Python floats, and the ``x`` column, the
same in every state of a run, is formatted once per run.  The files are
byte-identical to what :func:`write_table` gives for the same rows;
``write_table`` keeps the ``csv`` module for the mixed tables whose text
cells may need quoting.

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

from .fields import FieldState, Grid, SpacetimeSolution, total_charge

__all__ = [
    "canonical_config_bytes",
    "run_id",
    "fmt",
    "write_json",
    "write_table",
    "write_solution",
    "read_solution",
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


def write_solution(out_dir, sol: SpacetimeSolution, cfg_dict: dict) -> dict:
    """Write one run directory; returns the sidecar actually written."""
    os.makedirs(out_dir, exist_ok=True)
    xcol = [_FLOAT % x for x in sol.grid.xs.tolist()]
    files = []
    for i, state in enumerate(sol.states):
        name = _state_name(i)
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(_STATE_HEADER)
            # rows are streamed: one joined string per state costs peak memory
            fh.writelines(map(_STATE_ROW.__mod__, zip(
                xcol, state.E.tolist(), state.u.tolist(), state.sigma.tolist())))
        files.append(name)
    meta = dict(sol.meta)
    meta["grid"] = sol.grid.spec_dict()
    meta["times"] = [float(t) for t in sol.times]
    meta["files"] = files
    meta["run_id"] = run_id(cfg_dict)
    write_json(os.path.join(out_dir, "meta.json"), meta)
    write_json(os.path.join(out_dir, "config.json"), cfg_dict)
    return meta


def read_solution(out_dir) -> SpacetimeSolution:
    with open(os.path.join(out_dir, "meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    g = meta["grid"]
    grid = Grid(x_min=g["x_min"], x_max=g["x_max"], n=g["n"])
    states = []
    for t, name in zip(meta["times"], meta["files"]):
        data = np.loadtxt(os.path.join(out_dir, name), delimiter=",", skiprows=1)
        states.append(FieldState(t=t, E=data[:, 1], u=data[:, 2], sigma=data[:, 3]))
    inner_meta = {k: v for k, v in meta.items() if k not in ("grid", "times", "files")}
    return SpacetimeSolution(
        grid=grid, times=np.asarray(meta["times"], dtype=float),
        states=states, meta=inner_meta,
    )


def solve_summary(sol: SpacetimeSolution) -> dict:
    """Headline numbers for a finished run."""
    charges = [total_charge(sol.grid, s) for s in sol.states]
    q0 = charges[0]
    drift = max(abs(c - q0) for c in charges)
    peak = max(s.max_abs() for s in sol.states)
    return {
        "status": sol.status,
        "a_priori_bound": sol.meta.get("a_priori_bound"),
        "op_norm": sol.meta.get("op_norm"),
        "nu": sol.meta.get("nu"),
        "eps": sol.meta.get("eps"),
        "charge_initial": q0,
        "charge_final": charges[-1],
        "charge_max_drift": drift,
        "peak_amplitude": peak,
        "margin_ratio": sol.meta.get("margin_ratio"),
        "boundary_contaminated": sol.meta.get("boundary_contaminated"),
        "n_saved": len(sol.states),
        "t_final": float(sol.times[-1]),
    }
