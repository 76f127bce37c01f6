"""Command-line front end.

Every subcommand is config-driven and deterministic: outputs are CSV data
files plus one ``summary.json`` verdict object per run directory.  Exit
codes sort failures by class: 0 clean, 2 config problems, 3 runtime
aborts (guard trip, overflow, fixed-point stall, a family member that
raised), 4 boundary contamination of an otherwise finished run; in a
family an aborted member wins over a contaminated one.  ``sweep`` and
``probe-blowup`` walk their eps family through one runner: ``--workers``
pools the members, and a member that raises becomes an ``error`` row.

The subcommands are the rows of ``_COMMANDS``: a name, its ``--help``
line, what it needs of a config beyond ``validate`` (keys it cannot run
without, checks of the defaults it reads), and a run function that does
only the command's own work.  ``main`` takes every subcommand down the one
path load → validate (the config plus the row's needs) → create ``--out``
→ run → stamp the run id on the summary, write ``summary.json`` and read
the exit code off it; ``validate`` stops after the checks and prints the
sizes of each member they rehearsed.  A run function that solves hangs
its fold on the solver's ``on_save`` hook and keeps no saved state.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, config as cfgmod, output, trajectories as trajmod
from .fields import FIELD_NAMES
from .scaling import verify_growth_condition
from .solver import STATUS_OK, march_plan, solve

__all__ = ["main", "console_entry"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CONTAMINATED = 4


def _positive_int(text: str) -> int:
    """``--workers``: a count of worker processes, at least one."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _load(args):
    try:
        cfg = cfgmod.load_config(args.config)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"config: cannot read {args.config!r}: {reason}", file=sys.stderr)
        return None
    except json.JSONDecodeError as exc:
        print(f"config: {args.config!r} is not valid JSON: {exc}", file=sys.stderr)
        return None
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _unmet(cfg, command: str, needs) -> list:
    """A message for each needed key (``eps``, ``eps_schedule`` or ``experiment.<key>``)
    that the config leaves unset or empty, and those of each needed check."""
    errors = []
    for need in needs:
        if callable(need):
            errors.extend(need(cfg))
            continue
        section, _, key = need.rpartition(".")
        if not (cfg.experiment.get(key) if section else getattr(cfg, key)):
            errors.append(f"{section or key}: {command} needs {key!r}")
    return errors


def _default_probe_cut(cfg) -> list:
    """check-support cuts at the default probe_x0 when the key is absent, a
    cut that validate does not know is used; it must lie on the grid too."""
    if cfg.experiment.get("probe_x0") is not None:
        return []  # validate checked the given cut
    return cfgmod._off_grid(cfg, "probe_x0", cfgmod._experiment_value(cfg, "probe_x0"))


def _plan_line(eps, schedule, record) -> str:
    """``validate``'s line for one member: the record a family run keeps in ``members``."""
    sizes = " ".join(f"{key}={value}" for key, value in record.items())
    return f"member eps={eps:g} {'schedule' if schedule else 'single'}: {sizes}"


def _exit_code(summary) -> int:
    """The exit rule of every run, read off its summary: 3 when the run or a
    member aborted or raised (it wins over contamination), else 4 when one
    is contaminated, else 0; a summary without a status block exits 0."""
    flags = summary.get("boundary_contaminated")
    if any(s != STATUS_OK for s in summary.get("statuses", [summary.get("status", STATUS_OK)])):
        return EXIT_RUNTIME
    return EXIT_CONTAMINATED if any(flags if isinstance(flags, list) else [flags]) else EXIT_OK


def _family_status(fam) -> dict:
    """A family's status block: one entry per member, ``members`` holding
    each one's sizes (grid, stencil, FFT, steps, saves); ``errors`` if one raised."""
    errors = {"errors": dict(fam.errors)} if fam.errors else {}
    return {"statuses": list(fam.statuses), "a_priori_bounds": list(fam.bounds),
            "boundary_contaminated": list(fam.contaminated), "partial": fam.partial,
            "members": list(fam.members), **errors}


# ---------------------------------------------------------------------------
# run functions: (cfg, args, out) -> (summary, line to print)


def _run_solve(cfg, args, out):
    pieces = cfgmod.assemble_run(cfg)
    writer, summary = output.StateWriter(out, pieces.grid), output.SolveSummary(pieces.grid)

    def on_save(state):
        writer(state)
        summary(state)

    meta = solve(pieces.initial, pieces.solver, pieces.operator, pieces.params,
                 on_save=on_save).meta
    writer.finish(meta, cfgmod.config_to_dict(cfg))
    line = f"status={meta['status']} saved={len(writer.files)} out={out}"
    return summary.result(meta), line


def _run_sweep(cfg, args, out):
    obs = cfgmod.build_observables(cfg)
    result = analysis.limit_sweep(cfg, cfg.eps_schedule, obs, workers=args.workers)
    # a member without a pairing leaves its cell empty
    rows = [(eps, label, val) for label in result.labels
            for eps, val in zip(result.eps_schedule, result.pairings[label])]
    output.write_table(os.path.join(out, "sweep.csv"), ("eps", "observable", "pairing"), rows)
    summary = {
        "eps_schedule": list(result.eps_schedule),
        "verdicts": dict(result.verdicts),
        "pairings": {k: list(v) for k, v in result.pairings.items()},
        "increments": {k: list(v) for k, v in result.increments.items()},
        "targets": dict(result.targets),
        **_family_status(result),
    }
    line = "\n".join(f"{label}: {result.verdicts[label]}" for label in result.labels)
    return summary, line


def _run_check_support(cfg, args, out):
    x0 = float(cfgmod._experiment_value(cfg, "probe_x0"))
    pieces = cfgmod.assemble_run(cfg)
    probe = analysis.SupportProbe(pieces.grid, x0)
    sol = solve(pieces.initial, pieces.solver, pieces.operator, pieces.params, on_save=probe)
    rep = probe.result()
    rows = []
    for name in FIELD_NAMES:
        rows.append((name, "right", rep.sup_right[name], rep.global_max[name], rep.rel_right(name)))
        rows.append((name, "left", rep.sup_left[name], rep.global_max[name], rep.rel_left(name)))
    output.write_table(
        os.path.join(out, "check_support.csv"),
        ("field", "side", "sup", "global_max", "relative"), rows,
    )
    # a one-sided kernel keeps the other half-line vacuum; a symmetric one has none
    vacuum = {"left": "right", "right": "left"}.get(pieces.operator.mollifier.kind)
    worst = None if vacuum is None else rep.worst(vacuum)
    summary = {
        "x0": x0,
        "vacuum_side": vacuum,
        "worst_relative": worst,
        "confined": None if worst is None else bool(worst <= analysis.SUPPORT_REL_TOL),
        **output.run_status(sol.meta),
    }
    return summary, f"vacuum side {vacuum}: worst relative {worst}"


def _run_compare_lin(cfg, args, out):
    pieces = cfgmod.assemble_run(cfg)
    gaps = analysis.LinearGaps(pieces.grid, pieces.params.q)
    sol = solve(pieces.initial, pieces.solver, pieces.operator, pieces.params, on_save=gaps)
    rep = gaps.result()
    output.write_table(
        os.path.join(out, "compare_lin.csv"),
        ("t", "l1_E", "l1_u"),
        zip(rep.times, rep.l1_E, rep.l1_u),
    )
    summary = {
        "q": pieces.params.q,
        "max_l1_E": rep.max_l1_E,
        "max_l1_u": rep.max_l1_u,
        **output.run_status(sol.meta),
    }
    line = f"max L1 gap: E {rep.max_l1_E:.6g}, u {rep.max_l1_u:.6g}"
    return summary, line


def _run_probe_blowup(cfg, args, out):
    window = float(cfgmod._experiment_value(cfg, "blowup_window"))
    center = float(cfg.delta_net["center"])
    rep = analysis.blow_up_probe(cfg, cfg.eps_schedule, window, center, workers=args.workers)
    output.write_table(os.path.join(out, "probe_blowup.csv"), ("eps", "peak_interaction"),
                       zip(rep.eps_schedule, rep.peaks))
    summary = {
        "eps_schedule": list(rep.eps_schedule),
        "peaks": list(rep.peaks),
        "exponent": rep.exponent,
        "window": window,
        "center": center,
        **_family_status(rep),
    }
    line = (f"no growth exponent: {len(rep.errors)} member(s) raised" if rep.exponent is None
            else f"peak growth exponent {rep.exponent:.4g} over eps {list(rep.eps_schedule)}")
    return summary, line


def _run_trajectories(cfg, args, out):
    pieces = cfgmod.assemble_run(cfg)
    # the world lines step on the save grid the march is about to take
    _, _, saved_times = march_plan(pieces.initial.t, pieces.params.T, pieces.solver.dt,
                                   pieces.solver.save_every)
    lines = trajmod.WorldLines(pieces.grid, saved_times, cfg.experiment["trajectory_starts"])
    sol = solve(pieces.initial, pieces.solver, pieces.operator, pieces.params, on_save=lines)
    rows = []
    # an aborted solve has no field to integrate through; else the summary
    # records the count every world line steps with
    ok = sol.status == STATUS_OK
    for i, traj in enumerate(lines.result() if ok else ()):
        output.write_table(
            os.path.join(out, f"trajectory_{i:02d}.csv"),
            ("r", "w"),
            zip(traj.times, traj.positions),
        )
        rows.append({
            "start": traj.start,
            "end": float(traj.positions[-1]),
            "max_speed": traj.max_speed,
            "exited": traj.exited,
        })
    summary = {
        "trajectories": rows,
        "n_steps": lines.n_steps if ok else None,
        **output.run_status(sol.meta),
    }
    if rows:
        line = (f"integrated {len(rows)} world line(s), "
                f"max speed {max(r['max_speed'] for r in rows):.6g}")
    else:
        line = f"status={sol.status}: no trajectories integrated"
    return summary, line


def _run_check_scaling(cfg, args, out):
    scl = cfgmod.build_scaling(cfg)
    ps = cfgmod._experiment_value(cfg, "growth_p")
    eps_grid = cfgmod._experiment_value(cfg, "growth_eps")
    rows, verdicts, lines = [], {}, []
    for p in ps:
        rep = verify_growth_condition(scl, p, eps_grid)
        verdicts[str(p)] = {"satisfied": rep.satisfied, "k_estimate": rep.k_estimate}
        for eps, h, r in zip(rep.eps_grid, rep.h_values, rep.r_values):
            rows.append((p, eps, h, r))
        word = "satisfied" if rep.satisfied else "violated"
        lines.append(f"p={p}: growth condition {word} (k ~ {rep.k_estimate:.6g})")
    output.write_table(
        os.path.join(out, "check_scaling.csv"), ("p", "eps", "h", "growth_ratio"), rows
    )
    summary = {
        "scaling": scl.spec_dict(),
        "eps_grid": [float(e) for e in eps_grid],
        "verdicts": verdicts,
    }
    return summary, "\n".join(lines)


# name -> (--help line, keys and checks the run cannot do without, run function)
_COMMANDS = {
    "validate": ("dry-check a config against every module precondition, then exit",
                 (), None),
    "solve": ("run one eps; write one CSV per saved time plus meta.json",
              ("eps",), _run_solve),
    "sweep": ("run an eps schedule, pair observables, classify the limit",
              ("eps_schedule", "experiment.psi"), _run_sweep),
    "check-support": ("solve, then probe field leakage into the vacuum half-line",
                      ("eps", _default_probe_cut), _run_check_support),
    "compare-lin": ("L1 distance of a run from the linearized closed form over time",
                    ("eps",), _run_compare_lin),
    "probe-blowup": ("peak interaction density sigma*a(u) across an eps family + fit",
                     ("eps_schedule",), _run_probe_blowup),
    "trajectories": ("integrate charge world lines through a solved field",
                     ("eps", "experiment.trajectory_starts"), _run_trajectories),
    "check-scaling": ("test the admissible-growth condition for the configured scaling",
                      (), _run_check_scaling),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxlor",
        description="Mollifier-regularized solver for a self-interacting "
        "Maxwell-Lorentz toy model in one space dimension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line, description=help_line)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=_positive_int, default=1,
                       help="worker processes for the members of sweep and probe-blowup")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    return parser


def _run(args) -> int:
    _, needs, run = _COMMANDS[args.command]
    cfg = _load(args)
    if cfg is None:
        return EXIT_CONFIG
    plans: list = []
    errors = cfgmod.validate_config(cfg, plans) + _unmet(cfg, args.command, needs)
    if errors:
        # validate reports on stdout; a refused run on stderr
        stream = sys.stdout if run is None else sys.stderr
        for e in errors:
            print(e, file=stream)
        print(f"{'invalid' if run is None else 'config'}: {len(errors)} problem(s)",
              file=stream)
        return EXIT_CONFIG
    rid = output.run_id(cfgmod.config_to_dict(cfg))
    if run is None:
        print(f"ok: run id {rid}")
        for plan in plans:
            print(_plan_line(*plan))
        return EXIT_OK
    out = args.out or os.path.join("runs", f"{args.command}-{rid}")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print(f"out: cannot create {out!r}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    summary, line = run(cfg, args, out)
    summary["run_id"] = rid
    output.write_json(os.path.join(out, "summary.json"), summary)
    print(line)
    return _exit_code(summary)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG


def console_entry() -> None:
    sys.exit(main())
