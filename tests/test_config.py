import json
import math
from pathlib import Path

import numpy as np
import pytest

from maxlor.analysis import TestFunction2D
from maxlor.config import (
    MAX_GRID_POINTS,
    assemble_run,
    build_initial_state,
    build_grid,
    build_observables,
    config_from_dict,
    config_to_dict,
    load_config,
    validate_config,
)
from maxlor.scaling import make_scaling
from maxlor.solver import SolverConfig, step_bound


def cfg_of(**overrides):
    return config_from_dict(dict(overrides))


def test_empty_dict_gets_full_defaults():
    cfg = config_from_dict({})
    assert cfg.grid == {"x_min": -4.0, "x_max": 1.0, "n": 1001}
    assert cfg.mollifier["kind"] == "left"
    assert cfg.eps == 0.1
    assert cfg.solver["dt"] == "auto"
    assert cfg.initial["sigma"]["kind"] == "delta-net"
    assert cfg.seed == 0
    assert validate_config(cfg) == []


def test_partial_section_merge_keeps_other_defaults():
    cfg = cfg_of(model={"B0": 2.5})
    assert cfg.model["B0"] == 2.5
    assert cfg.model["T"] == 0.5


def test_unknown_keys_are_collected_not_fatal():
    cfg = config_from_dict({"grdi": {}, "extra": 1})
    errs = validate_config(cfg)
    assert any("unknown top-level key 'grdi'" in e for e in errs)
    assert any("'extra'" in e for e in errs)


@pytest.mark.parametrize("section, key", [
    ("grid", "nn"),
    ("model", "b0"),
    ("solver", "picard_subintervall"),
    ("solver", "picard_subinterval"),
    ("mollifier", "suport"),
    ("scaling", "exponant"),
    ("delta_net", "masss"),
    ("delta_net.profile", "s_low"),
    ("initial.E", "centre"),
    ("experiment", "probe_xo"),
    ("experiment", "trajectory_steps"),
])
def test_unknown_section_key_is_reported(section, key):
    outer, _, inner = section.partition(".")
    body = {key: 0.1}
    if inner:
        # a nested object keeps the rest of its default, its kind included
        body = {inner: {**getattr(config_from_dict({}), outer)[inner], key: 0.1}}
    errs = validate_config(cfg_of(**{outer: body}))
    assert errs == [f"{section}: unknown key {key!r}"]


def test_readme_schema_block_lists_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config schema", 1)[1].split("```jsonc", 1)[1].split("```", 1)[0]
    stripped = "\n".join(line.split("//", 1)[0] for line in block.splitlines())
    assert json.loads(stripped) == config_to_dict(config_from_dict({}))


def test_multiple_violations_all_reported():
    cfg = config_from_dict({
        "grid": {"x_min": 3.0, "x_max": -1.0, "n": 4},
        "model": {"T": -2.0},
        "solver": {"method": "euler", "save_every": 0},
        "eps": -0.5,
    })
    errs = validate_config(cfg)
    joined = "\n".join(errs)
    for needle in ("grid: x_min must be below", "grid: n must be",
                   "model: T must be", "solver: unknown method",
                   "solver: save_every", "eps: must be"):
        assert needle in joined, needle
    assert len(errs) >= 6


def test_section_prefixes_name_the_module():
    errs = validate_config(cfg_of(mollifier={"kind": "left", "support": [-1.0, 0.5]}))
    assert any(e.startswith("mollifier:") for e in errs)


def test_loglog_scaling_rejects_large_eps():
    cfg = cfg_of(scaling={"kind": "loglog"}, eps=0.5)
    errs = validate_config(cfg)
    assert any("exp(-e)" in e for e in errs)


@pytest.mark.parametrize("exponent", [0, 1.5])
def test_powerlaw_exponent_rule_is_the_builders(exponent):
    # validate reports the exponent range through make_scaling, once
    errs = validate_config(cfg_of(scaling={"kind": "powerlaw", "exponent": exponent}))
    with pytest.raises(ValueError) as built:
        make_scaling("powerlaw", 1.0, exponent=float(exponent))
    assert [e for e in errs if "scaling" in e] == [str(built.value)]


def test_explicit_dt_above_stable_bound_is_rejected():
    cfg = cfg_of(solver={"dt": 10.0})
    errs = validate_config(cfg)
    assert any("stable step bound" in e for e in errs)


def test_resolution_check_applies_to_single_run_eps_only():
    # a coarse grid cannot resolve the kernel at the run eps
    coarse = cfg_of(grid={"x_min": -4.0, "x_max": 1.0, "n": 21},
                    scaling={"kind": "constant", "c": 0.1})
    errs = validate_config(coarse)
    assert any("cannot resolve" in e and "refine the grid" in e for e in errs)

    # the same widths inside a schedule pass validation: family harnesses
    # refine per member
    family = cfg_of(grid={"x_min": -4.0, "x_max": 1.0, "n": 1001},
                    scaling={"kind": "constant", "c": 0.1},
                    eps=0.1, eps_schedule=[0.1, 0.001, 0.0001])
    errs = validate_config(family)
    assert errs == []


def test_single_eps_in_schedule_reported_once():
    # the single-run eps repeating a schedule member must not double its errors
    cfg = cfg_of(grid={"x_min": -4.0, "x_max": 1.0, "n": 1001},
                 eps=0.01, eps_schedule=[0.05, 0.01])
    errs = validate_config(cfg)
    assert len(errs) == len(set(errs))
    width = [e for e in errs if e.startswith("delta_net: width 0.01")]
    assert len(width) == 1
    assert sum("kernel width" in e and "eps=0.01" in e for e in errs) == 1


@pytest.mark.parametrize("factor, ok", [(1.0, True), (0.99, False)])
def test_guard_factor_rule_matches_solver_config(factor, ok):
    errs = validate_config(cfg_of(solver={"guard_factor": factor}))
    assert (not any("guard_factor" in e for e in errs)) == ok
    if ok:
        SolverConfig(dt=0.01, guard_factor=factor)
    else:
        with pytest.raises(ValueError, match="guard_factor"):
            SolverConfig(dt=0.01, guard_factor=factor)


def test_validate_reports_the_message_a_refined_run_raises():
    cfg = cfg_of(scaling={"kind": "constant", "c": 0.1}, eps_schedule=[0.01, 1e-5])
    with pytest.raises(ValueError) as exc:
        assemble_run(cfg, eps=1e-5, refine=True)
    assert validate_config(cfg) == [str(exc.value)]


def test_net_support_checked_for_every_schedule_member():
    cfg = cfg_of(
        grid={"x_min": -0.05, "x_max": 1.0, "n": 1001},
        mollifier={"kind": "left"},
        delta_net={"profile": {"kind": "left"}, "center": 0.0},
        eps_schedule=[0.2, 0.1],
    )
    errs = validate_config(cfg)
    assert any("sticks out of the grid" in e and "eps=0.2" in e for e in errs)


def test_round_trip_through_json(tmp_path):
    cfg = cfg_of(model={"B0": 1.5}, eps=0.05)
    d = config_to_dict(cfg)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(d))
    again = load_config(p)
    assert config_to_dict(again) == d


def test_assemble_run_wires_the_pieces_together():
    pieces = assemble_run(config_from_dict({}))
    assert pieces.params.eps == 0.1
    assert pieces.operator.nu == pytest.approx(1.0 * 0.1)  # powerlaw c=1, exponent=1
    # the model charge follows the prepared point-charge mass
    assert pieces.params.q == pieces.net.mass
    assert pieces.solver.dt == pytest.approx(0.4 * step_bound(pieces.operator.op_norm))
    assert pieces.initial.sigma.max() > 0.0
    assert pieces.grid.n == 1001


def test_assemble_run_without_refine_raises_on_coarse_grid():
    cfg = cfg_of(grid={"x_min": -4.0, "x_max": 1.0, "n": 21},
                 scaling={"kind": "constant", "c": 0.1})
    with pytest.raises(ValueError):
        assemble_run(cfg)


def test_assemble_run_refines_by_doubling():
    cfg = cfg_of(grid={"x_min": -4.0, "x_max": 1.0, "n": 101},
                 scaling={"kind": "constant", "c": 0.1})
    pieces = assemble_run(cfg, eps=0.01, refine=True)
    finest = min(pieces.operator.nu, pieces.net.half_width(0.01))
    assert pieces.grid.dx <= finest / 4.0
    # doubling the cell count keeps the original nodes as a subset
    assert (pieces.grid.n - 1) % 100 == 0
    assert pieces.grid.n <= MAX_GRID_POINTS


def test_refinement_refuses_to_exceed_hard_cap():
    # rather than silently running under-resolved, an eps beyond what the
    # point budget allows is an error naming the way out
    cfg = cfg_of(grid={"x_min": -4.0, "x_max": 1.0, "n": 101},
                 scaling={"kind": "constant", "c": 0.1})
    with pytest.raises(ValueError, match=f"{MAX_GRID_POINTS}"):
        assemble_run(cfg, eps=1e-7, refine=True)


def test_initial_profile_builders():
    grid = build_grid(config_from_dict({}))
    cfg = config_from_dict({
        "initial": {
            "E": {"kind": "gaussian", "amplitude": 2.0, "center": -1.0, "width": 0.5},
            "u": {"kind": "bump", "amplitude": 1.0, "center": -1.0, "width": 0.5},
            "sigma": {"kind": "zero"},
        },
    })
    state = build_initial_state(cfg, grid, 0.1, None)
    i = int(np.argmin(np.abs(grid.xs + 1.0)))
    assert state.E[i] == pytest.approx(2.0, abs=1e-12)
    assert state.u[i] == pytest.approx(1.0, abs=1e-12)
    # both profiles die away from their center; the bump exactly so
    assert abs(state.E[-1]) < 1e-6
    assert state.u[-1] == 0.0
    assert np.all(state.sigma == 0.0)


def test_a_run_without_a_delta_net_profile_builds_no_net(monkeypatch):
    # smooth_fields starts from gaussians only: nothing reads the net
    def no_net(spec):
        raise AssertionError("delta net built for a run that reads none")

    monkeypatch.setattr("maxlor.config.net_from_spec", no_net)
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "smooth_fields.json")
    pieces = assemble_run(cfg)
    assert pieces.net is None
    assert np.all(pieces.initial.u == 0.0)


def test_profile_validation_messages():
    errs = validate_config(cfg_of(initial={"E": {"kind": "wiggle"}}))
    assert any("unknown kind 'wiggle'" in e for e in errs)
    errs = validate_config(cfg_of(initial={"E": {"kind": "gaussian", "width": -1.0}}))
    assert any("positive width" in e for e in errs)
    errs = validate_config(cfg_of(initial={"fields": {"kind": "zero"}}))
    assert any("unknown field 'fields'" in e for e in errs)


def test_build_observables_reads_each_psi_entry():
    # field Q and amplitude 1 unless given; a null key counts as absent
    window = {"t0": 0.25, "x0": 0.5, "r_t": 0.2, "r_x": 0.3}
    cfg = cfg_of(experiment={"psi": [
        window,
        {**window, "field": "sigma", "amplitude": 2},
        {**window, "field": None, "amplitude": None},
    ]})
    assert validate_config(cfg) == []
    psi = TestFunction2D(t0=0.25, x0=0.5, r_t=0.2, r_x=0.3)
    doubled = TestFunction2D(t0=0.25, x0=0.5, r_t=0.2, r_x=0.3, amplitude=2.0)
    assert build_observables(cfg) == [("Q", psi), ("sigma", doubled), ("Q", psi)]


def test_schedule_validation():
    errs = validate_config(cfg_of(eps_schedule=[0.1]))
    assert any("at least 2" in e for e in errs)
    errs = validate_config(cfg_of(eps_schedule=[0.05, 0.1]))
    assert any("strictly decreasing" in e for e in errs)


def test_seed_must_be_integer():
    errs = validate_config(cfg_of(seed=1.5))
    assert any("seed" in e for e in errs)
    errs = validate_config(cfg_of(seed=True))
    assert any("seed" in e for e in errs)


def test_growth_eps_is_rehearsed_on_the_configured_scaling():
    # a well-formed grid that the loglog scaling is undefined on
    grid = [0.5, 0.01, 0.001, 0.0001]
    errors = validate_config(cfg_of(
        scaling={"kind": "loglog", "c": 1.0}, eps=0.01,
        initial={"sigma": {"kind": "zero"}}, experiment={"growth_eps": grid},
    ))
    assert any(e.startswith("experiment: growth_eps:") and "eps=0.5" in e for e in errors)
    assert validate_config(cfg_of(
        scaling={"kind": "loglog", "c": 1.0}, eps=0.01,
        initial={"sigma": {"kind": "zero"}}, experiment={"growth_eps": grid[1:] + [1e-5]},
    )) == []
