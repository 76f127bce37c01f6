"""Command-line front end.

Every subcommand is config-driven and deterministic: outputs are CSV data
files plus one ``summary.json`` verdict object per run directory.  Exit
codes sort failures by class: 0 clean, 2 config problems, 3 runtime
aborts (guard trip, overflow, fixed-point stall), 4 boundary
contamination of an otherwise finished run.

Subcommands::

    validate       dry-check a config against every module precondition
    solve          run one eps and write the full space-time solution
    sweep          run an eps schedule and classify pairing limits
    check-support  probe one-sided support confinement
    compare-lin    distance from the linearized closed form
    probe-blowup   peak interaction density across an eps family
    trajectories   integrate charge world lines through a solved field
    check-scaling  test the admissible-growth condition for a scaling
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, config as cfgmod, output, trajectories as trajmod
from .scaling import verify_growth_condition
from .solver import STATUS_OK, solve

__all__ = ["main", "console_entry"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CONTAMINATED = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxlor",
        description="Mollifier-regularized solver for a self-interacting "
        "Maxwell-Lorentz toy model in one space dimension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = (
        "validate", "solve", "sweep", "check-support", "compare-lin",
        "probe-blowup", "trajectories", "check-scaling",
    )
    for name in names:
        p = sub.add_parser(name, help=f"{name} subcommand")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for sweep members")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    return parser


def _load(args):
    try:
        cfg = cfgmod.load_config(args.config)
    except FileNotFoundError:
        print(f"config: cannot read {args.config!r}", file=sys.stderr)
        return None
    except json.JSONDecodeError as exc:
        print(f"config: {args.config!r} is not valid JSON: {exc}", file=sys.stderr)
        return None
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _validated(args):
    cfg = _load(args)
    if cfg is None:
        return None
    errors = cfgmod.validate_config(cfg)
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        print(f"config: {len(errors)} problem(s)", file=sys.stderr)
        return None
    return cfg


def _outdir(args, cfg) -> str:
    if args.out:
        path = args.out
    else:
        path = os.path.join("runs", f"{args.command}-{output.run_id(cfgmod.config_to_dict(cfg))}")
    os.makedirs(path, exist_ok=True)
    return path


def _exit_for(sol) -> int:
    if sol.status != STATUS_OK:
        return EXIT_RUNTIME
    if sol.meta.get("boundary_contaminated"):
        return EXIT_CONTAMINATED
    return EXIT_OK


def _solve_once(cfg, eps=None, refine=False):
    pieces = cfgmod.assemble_run(cfg, eps=eps, refine=refine)
    sol = solve(pieces.initial, pieces.solver, pieces.operator, pieces.params)
    return pieces, sol


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    cfg = _load(args)
    if cfg is None:
        return EXIT_CONFIG
    errors = cfgmod.validate_config(cfg)
    if errors:
        for e in errors:
            print(e)
        print(f"invalid: {len(errors)} problem(s)")
        return EXIT_CONFIG
    print(f"ok: run id {output.run_id(cfgmod.config_to_dict(cfg))}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    cfg = _validated(args)
    if cfg is None:
        return EXIT_CONFIG
    out = _outdir(args, cfg)
    pieces, sol = _solve_once(cfg)
    output.write_solution(out, sol, cfgmod.config_to_dict(cfg))
    summary = output.solve_summary(sol)
    output.write_json(os.path.join(out, "summary.json"), summary)
    print(f"status={sol.status} saved={len(sol.states)} out={out}")
    return _exit_for(sol)


def _observables(cfg):
    specs = cfg.experiment.get("psi")
    if not specs:
        raise ValueError(
            "experiment: sweep needs a 'psi' list of test functions "
            "(each with field, t0, x0, r_t, r_x)"
        )
    obs = []
    for i, d in enumerate(specs):
        d = dict(d)
        field_name = d.pop("field", "Q")
        try:
            obs.append((field_name, analysis.psi_from_dict(d)))
        except KeyError as exc:
            raise ValueError(f"experiment: psi[{i}] is missing {exc}") from None
    return obs


def _cmd_sweep(args) -> int:
    cfg = _validated(args)
    if cfg is None:
        return EXIT_CONFIG
    if not cfg.eps_schedule:
        print("eps_schedule: sweep needs a decreasing eps schedule", file=sys.stderr)
        return EXIT_CONFIG
    try:
        obs = _observables(cfg)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    out = _outdir(args, cfg)
    result = analysis.limit_sweep(cfg, cfg.eps_schedule, obs, workers=max(1, args.workers))
    rows = []
    for label in result.labels:
        for eps, val in zip(result.eps_schedule, result.pairings[label]):
            rows.append((eps, label, "" if val is None else val))
    output.write_table(os.path.join(out, "sweep.csv"), ("eps", "observable", "pairing"), rows)
    summary = {
        "eps_schedule": list(result.eps_schedule),
        "verdicts": dict(result.verdicts),
        "pairings": {k: list(v) for k, v in result.pairings.items()},
        "increments": {k: list(v) for k, v in result.increments.items()},
        "targets": dict(result.targets),
        "statuses": list(result.statuses),
        "a_priori_bounds": list(result.bounds),
        "partial": result.partial,
        "run_id": output.run_id(cfgmod.config_to_dict(cfg)),
    }
    output.write_json(os.path.join(out, "summary.json"), summary)
    for label in result.labels:
        print(f"{label}: {result.verdicts[label]}")
    return EXIT_RUNTIME if result.partial else EXIT_OK


def _cmd_check_support(args) -> int:
    cfg = _validated(args)
    if cfg is None:
        return EXIT_CONFIG
    out = _outdir(args, cfg)
    x0 = float(cfg.experiment.get("probe_x0", 0.05))
    pieces, sol = _solve_once(cfg)
    rep = analysis.support_probe(sol, x0)
    rows = []
    for name in ("E", "u", "sigma"):
        rows.append((name, "right", rep.sup_right[name], rep.global_max[name], rep.rel_right(name)))
        rows.append((name, "left", rep.sup_left[name], rep.global_max[name], rep.rel_left(name)))
    output.write_table(
        os.path.join(out, "check_support.csv"),
        ("field", "side", "sup", "global_max", "relative"), rows,
    )
    kind = pieces.mollifier.kind
    if kind == "left":
        worst = max(rep.rel_right(n) for n in ("E", "u", "sigma"))
        vacuum = "right"
    elif kind == "right":
        worst = max(rep.rel_left(n) for n in ("E", "u", "sigma"))
        vacuum = "left"
    else:
        worst, vacuum = None, None
    summary = {
        "x0": x0,
        "vacuum_side": vacuum,
        "worst_relative": worst,
        "confined": None if worst is None else bool(worst <= analysis.SUPPORT_REL_TOL),
        "status": sol.status,
        "a_priori_bound": sol.meta.get("a_priori_bound"),
        "boundary_contaminated": sol.meta.get("boundary_contaminated"),
        "run_id": output.run_id(cfgmod.config_to_dict(cfg)),
    }
    output.write_json(os.path.join(out, "summary.json"), summary)
    print(f"vacuum side {vacuum}: worst relative {worst}")
    return _exit_for(sol)


def _cmd_compare_lin(args) -> int:
    cfg = _validated(args)
    if cfg is None:
        return EXIT_CONFIG
    out = _outdir(args, cfg)
    pieces, sol = _solve_once(cfg)
    rep = analysis.compare_linearized(sol)
    output.write_table(
        os.path.join(out, "compare_lin.csv"),
        ("t", "l1_E", "l1_u"),
        zip(rep.times, rep.l1_E, rep.l1_u),
    )
    summary = {
        "q": pieces.params.q,
        "max_l1_E": rep.max_l1_E,
        "max_l1_u": rep.max_l1_u,
        "status": sol.status,
        "a_priori_bound": sol.meta.get("a_priori_bound"),
        "run_id": output.run_id(cfgmod.config_to_dict(cfg)),
    }
    output.write_json(os.path.join(out, "summary.json"), summary)
    print(f"max L1 gap: E {rep.max_l1_E:.6g}, u {rep.max_l1_u:.6g}")
    return _exit_for(sol)


def _cmd_probe_blowup(args) -> int:
    cfg = _validated(args)
    if cfg is None:
        return EXIT_CONFIG
    if not cfg.eps_schedule:
        print("eps_schedule: probe-blowup needs a decreasing eps schedule", file=sys.stderr)
        return EXIT_CONFIG
    out = _outdir(args, cfg)
    window = float(cfg.experiment.get("blowup_window", 0.25))
    center = float(cfg.delta_net.get("center", 0.0)) if cfg.delta_net else 0.0
    sols = []
    worst_exit = EXIT_OK
    for eps in cfg.eps_schedule:
        _, sol = _solve_once(cfg, eps=eps, refine=True)
        sols.append(sol)
        worst_exit = max(worst_exit, _exit_for(sol))
    rep = analysis.blow_up_probe(sols, window=window, center=center)
    output.write_table(
        os.path.join(out, "probe_blowup.csv"),
        ("eps", "peak_interaction"),
        zip(rep.eps_values, rep.peaks),
    )
    summary = {
        "eps_schedule": list(rep.eps_values),
        "peaks": list(rep.peaks),
        "exponent": rep.exponent,
        "window": window,
        "center": center,
        "statuses": [s.status for s in sols],
        "a_priori_bounds": [s.meta.get("a_priori_bound") for s in sols],
        "run_id": output.run_id(cfgmod.config_to_dict(cfg)),
    }
    output.write_json(os.path.join(out, "summary.json"), summary)
    print(f"peak growth exponent {rep.exponent:.4g} over eps {list(rep.eps_values)}")
    return worst_exit


def _cmd_trajectories(args) -> int:
    cfg = _validated(args)
    if cfg is None:
        return EXIT_CONFIG
    starts = cfg.experiment.get("trajectory_starts")
    if not starts:
        print("experiment: trajectories needs a 'trajectory_starts' list", file=sys.stderr)
        return EXIT_CONFIG
    out = _outdir(args, cfg)
    n_steps = cfg.experiment.get("trajectory_steps")
    pieces, sol = _solve_once(cfg)
    if sol.status != STATUS_OK:
        print(f"status={sol.status}: no trajectories integrated", file=sys.stderr)
        return EXIT_RUNTIME
    summary_rows = []
    for i, w0 in enumerate(starts):
        traj = trajmod.integrate_world_line(sol, float(w0), n_steps=n_steps)
        output.write_table(
            os.path.join(out, f"trajectory_{i:02d}.csv"),
            ("r", "w"),
            zip(traj.times, traj.positions),
        )
        summary_rows.append({
            "start": traj.start,
            "end": float(traj.positions[-1]),
            "max_speed": traj.max_speed,
            "exited": traj.exited,
        })
    summary = {
        "trajectories": summary_rows,
        "n_steps": n_steps,
        "status": sol.status,
        "a_priori_bound": sol.meta.get("a_priori_bound"),
        "run_id": output.run_id(cfgmod.config_to_dict(cfg)),
    }
    output.write_json(os.path.join(out, "summary.json"), summary)
    print(f"integrated {len(starts)} world line(s), "
          f"max speed {max(r['max_speed'] for r in summary_rows):.6g}")
    return _exit_for(sol)


def _cmd_check_scaling(args) -> int:
    cfg = _validated(args)
    if cfg is None:
        return EXIT_CONFIG
    out = _outdir(args, cfg)
    scl = cfgmod.build_scaling(cfg)
    ps = cfg.experiment.get("growth_p", [1, 2])
    eps_grid = cfg.experiment.get("growth_eps")
    if eps_grid is None:
        eps_grid = list(np.logspace(-3, -12, 10))
    rows = []
    verdicts = {}
    for p in ps:
        rep = verify_growth_condition(scl, p, eps_grid)
        verdicts[str(p)] = {"satisfied": rep.satisfied, "k_estimate": rep.k_estimate}
        for eps, h, r in zip(rep.eps_grid, rep.h_values, rep.r_values):
            rows.append((p, eps, h, r))
    output.write_table(
        os.path.join(out, "check_scaling.csv"), ("p", "eps", "h", "growth_ratio"), rows
    )
    summary = {
        "scaling": scl.spec_dict(),
        "eps_grid": [float(e) for e in eps_grid],
        "verdicts": verdicts,
        "run_id": output.run_id(cfgmod.config_to_dict(cfg)),
    }
    output.write_json(os.path.join(out, "summary.json"), summary)
    for p in ps:
        v = verdicts[str(p)]
        word = "satisfied" if v["satisfied"] else "violated"
        print(f"p={p}: growth condition {word} (k ~ {v['k_estimate']:.6g})")
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "check-support": _cmd_check_support,
    "compare-lin": _cmd_compare_lin,
    "probe-blowup": _cmd_probe_blowup,
    "trajectories": _cmd_trajectories,
    "check-scaling": _cmd_check_scaling,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG


def console_entry() -> None:
    sys.exit(main())
