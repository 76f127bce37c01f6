"""Workload definitions: seeded config generators and output checks.

Every workload is one ``maxlor`` subcommand run on a config generated
here from the workload seed.  The seed moves only parameters that leave
the grid size n, the stencil length m and the step count unchanged
(charge mass, B0, world-line starts), so every seed does the same amount
of work and only the numbers in the outputs differ.

Each check function reads a finished output tree and returns a list of
problems; an empty list means the run is correct.  The checks hold for
every seed, so a faster code path cannot pass them by being wrong.
"""

from __future__ import annotations

import csv
import json
import os
import random

# the release every workload starts from: a unit point charge on the left
# of the origin, evolved with the causal left kernel on [-4, 1]
_BASE = {
    "grid": {"x_min": -4.0, "x_max": 1.0, "n": 1001},
    "mollifier": {"kind": "left"},
    "model": {"B0": 0.0, "T": 0.5},
    "delta_net": {"profile": {"kind": "left"}, "center": 0.0, "mass": 1.0},
    "initial": {
        "E": {"kind": "zero"},
        "u": {"kind": "zero"},
        "sigma": {"kind": "delta-net"},
    },
}

SWEEP_SCHEDULE = [1e-2, 3e-3, 1e-3]
# single-run eps of the sweep config; it must not repeat a schedule member
# (validate reports that as a duplicate) and must stay resolvable on the
# base grid, which needs delta-net width eps >= 4 dx = 0.02
SWEEP_SINGLE_EPS = 0.05
Q_PSI = {"field": "Q", "t0": 0.3, "x0": 0.3, "r_t": 0.1, "r_x": 0.1}
SIGMA_PSI = {"field": "sigma", "t0": 0.3, "x0": -0.2, "r_t": 0.1, "r_x": 0.1}

VERDICT_OBSTRUCTION = "diverging (support obstruction)"
Q_PAIRING_MAX = 1e-8
# measured drift of the seed code is 9.3e-15 at mass 1; the bound leaves
# room for rounding across masses but fails any real charge leak
CHARGE_DRIFT_MAX = 1e-12
N_WORLD_LINES = 3


def _seeded(seed: int) -> tuple[random.Random, dict]:
    rng = random.Random(seed)
    cfg = json.loads(json.dumps(_BASE))
    cfg["seed"] = seed
    cfg["delta_net"]["mass"] = round(rng.uniform(0.8, 1.2), 6)
    cfg["model"]["B0"] = round(rng.uniform(-0.2, 0.2), 6)
    return rng, cfg


def sweep_loglog(seed: int) -> dict:
    _, cfg = _seeded(seed)
    cfg["scaling"] = {"kind": "loglog", "c": 0.2}
    cfg["eps"] = SWEEP_SINGLE_EPS
    cfg["eps_schedule"] = list(SWEEP_SCHEDULE)
    cfg["solver"] = {"save_every": 4}
    cfg["experiment"] = {"psi": [dict(Q_PSI), dict(SIGMA_PSI)]}
    return cfg


def solve_dense_save(seed: int) -> dict:
    _, cfg = _seeded(seed)
    cfg["grid"]["n"] = 4001
    cfg["scaling"] = {"kind": "constant", "c": 0.1}
    cfg["eps"] = 0.1
    cfg["solver"] = {"save_every": 1}
    return cfg


def picard_worldlines(seed: int) -> dict:
    rng, cfg = _seeded(seed)
    cfg["grid"]["n"] = 8001
    cfg["scaling"] = {"kind": "constant", "c": 0.1}
    cfg["eps"] = 0.1
    cfg["solver"] = {"method": "picard", "dt": "auto", "save_every": 4}
    starts = sorted(round(rng.uniform(-0.6, -0.05), 6) for _ in range(N_WORLD_LINES))
    cfg["experiment"] = {"trajectory_starts": starts}
    return cfg


def _summary(out_dir) -> dict:
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_sweep(out_dir) -> list:
    s = _summary(out_dir)
    problems = []
    if s["statuses"] != ["ok"] * len(SWEEP_SCHEDULE):
        problems.append(f"sweep: member statuses {s['statuses']}")
    if s.get("partial"):
        problems.append("sweep: marked partial")
    q_labels = [k for k in s["verdicts"] if k.startswith("Q@")]
    if len(q_labels) != 1:
        problems.append(f"sweep: expected one Q observable, got {q_labels}")
    for label in q_labels:
        if s["verdicts"][label] != VERDICT_OBSTRUCTION:
            problems.append(f"sweep: {label} verdict {s['verdicts'][label]!r}")
        vals = s["pairings"][label]
        if len(vals) != len(SWEEP_SCHEDULE) or any(
                v is None or not abs(v) <= Q_PAIRING_MAX for v in vals):
            problems.append(f"sweep: {label} pairings {vals} exceed {Q_PAIRING_MAX:g}")
    return problems


def check_solve(out_dir) -> list:
    s = _summary(out_dir)
    problems = []
    if s["status"] != "ok":
        problems.append(f"solve: status {s['status']!r}")
    if not abs(s["charge_max_drift"]) <= CHARGE_DRIFT_MAX:
        problems.append(f"solve: charge drift {s['charge_max_drift']:.3g} > {CHARGE_DRIFT_MAX:g}")
    with open(os.path.join(out_dir, "meta.json"), encoding="utf-8") as fh:
        files = json.load(fh)["files"]
    if len(files) != s["n_saved"]:
        problems.append(f"solve: {len(files)} state files for {s['n_saved']} saved states")
    for name in files:
        with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
            rows = csv.reader(fh)
            next(rows)
            for x, *vals in rows:
                if float(x) > 0.0 and any(float(v) != 0.0 for v in vals):
                    problems.append(f"solve: {name} nonzero in the vacuum at x={x}")
                    break
    return problems


def check_trajectories(out_dir) -> list:
    s = _summary(out_dir)
    problems = []
    if s["status"] != "ok":
        problems.append(f"trajectories: status {s['status']!r}")
    lines = s["trajectories"]
    if len(lines) != N_WORLD_LINES:
        problems.append(f"trajectories: {len(lines)} world lines, expected {N_WORLD_LINES}")
    for row in lines:
        if row["exited"]:
            problems.append(f"trajectories: path from {row['start']} left the grid")
        if not row["max_speed"] < 1.0:
            problems.append(f"trajectories: path from {row['start']} reached speed {row['max_speed']}")
    return problems


# name -> (subcommand, config generator, output check)
WORKLOADS = {
    "sweep_loglog": ("sweep", sweep_loglog, check_sweep),
    "solve_dense_save": ("solve", solve_dense_save, check_solve),
    "picard_worldlines": ("trajectories", picard_worldlines, check_trajectories),
}
