import csv
import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from maxlor import analysis, cli, output, solver
from maxlor import config as cfgmod

from maxlor.cli import (
    EXIT_CONFIG,
    EXIT_CONTAMINATED,
    EXIT_OK,
    EXIT_RUNTIME,
    main,
)
from maxlor.fields import FieldState, Grid, SpacetimeSolution

from stored_route import stored_solve, world_line

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def write_cfg(tmp_path, name="cfg.json", **body):
    p = tmp_path / name
    p.write_text(json.dumps(body))
    return str(p)


def release_cfg(tmp_path, **extra):
    body = {
        "grid": {"x_min": -3.0, "x_max": 1.0, "n": 801},
        "mollifier": {"kind": "left"},
        "scaling": {"kind": "constant", "c": 0.1},
        "model": {"B0": 0.0, "T": 0.3},
        "solver": {"save_every": 8},
    }
    body.update(extra)
    return write_cfg(tmp_path, **body)


def tight_cfg(tmp_path, **extra):
    # symmetric kernel on a domain so tight the field reaches the edge
    body = {
        "grid": {"x_min": -1.0, "x_max": 1.0, "n": 401},
        "mollifier": {"kind": "symmetric"},
        "scaling": {"kind": "constant", "c": 0.1},
        "model": {"B0": 0.0, "T": 0.8},
        "solver": {"save_every": 8},
        "initial": {"E": {"kind": "gaussian", "amplitude": 1.0, "center": 0.0,
                          "width": 0.4},
                    "u": {"kind": "zero"}, "sigma": {"kind": "zero"}},
    }
    body.update(extra)
    return write_cfg(tmp_path, **body)


def read_csv_columns(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    return rows


# what validate reports of eps = 0.1 on a 21-point grid under a constant width
# of 0.1, and of dt = 10 on the default config
COARSE_KERNEL = ("regops: grid spacing dx=0.25 cannot resolve kernel width nu=0.1; need nu "
                 ">= 4*dx = 1, refine the grid (eps=0.1)")
COARSE_NET = "delta_net: width 0.1 at eps=0.1 is below 4*dx = 1; refine the grid"
STEP_CAP = ("solver: dt=10 exceeds the stable step bound 0.5/||D|| = 0.0150863; lower dt or "
            "use 'auto' (eps=0.1)")


class TestValidate:
    def test_good_config_prints_run_id(self, tmp_path, capsys):
        cfg = release_cfg(tmp_path)
        assert main(["validate", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ok: run id" in out

    def test_bad_config_lists_all_problems(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, grid={"n": 4}, model={"T": -1.0},
                        solver={"method": "leapfrog"})
        assert main(["validate", "--config", cfg]) == EXIT_CONFIG
        out = capsys.readouterr().out
        assert "grid:" in out and "model:" in out and "solver:" in out
        assert "invalid:" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["validate", "--config", str(p)]) == EXIT_CONFIG
        assert "json" in capsys.readouterr().err.lower()

    def test_directory_is_an_unreadable_config(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config: cannot read {str(tmp_path)!r}")

    def test_non_utf8_config_is_refused(self, tmp_path, capsys):
        p = tmp_path / "utf16.json"
        p.write_bytes(b"\xff\xfe")
        assert main(["validate", "--config", str(p)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config: cannot read {str(p)!r}:") and "utf-8" in err

    def test_unresolvable_kernel_is_caught_dry(self, tmp_path, capsys):
        cfg = release_cfg(tmp_path, grid={"x_min": -3.0, "x_max": 1.0, "n": 31})
        assert main(["validate", "--config", cfg]) == EXIT_CONFIG
        assert "cannot resolve" in capsys.readouterr().out


    @pytest.mark.parametrize("body, lines", [
        ({"grid": {"n": 21}, "scaling": {"kind": "constant", "c": 0.1}, "model": {"T": -1}},
         ["model: T must be a positive number", COARSE_KERNEL, COARSE_NET,
          "invalid: 3 problem(s)"]),
        ({"grid": {"n": 21}, "scaling": {"kind": "constant", "c": 0.1},
          "solver": {"dt": "fast", "save_every": 0}},
         ["solver: dt must be a positive number or 'auto'",
          "solver: save_every must be a positive integer", COARSE_KERNEL, COARSE_NET,
          "invalid: 4 problem(s)"]),
        ({"solver": {"dt": 10.0, "save_every": 0}},
         ["solver: save_every must be a positive integer", STEP_CAP, "invalid: 2 problem(s)"]),
        ({"model": {"T": -1}, "solver": {"dt": 10.0}},
         ["model: T must be a positive number", STEP_CAP, "invalid: 2 problem(s)"]),
    ], ids=["T", "dt-save_every", "save_every-cap", "T-cap"])
    def test_a_refused_march_key_hides_no_member_problem(self, tmp_path, capsys, body, lines):
        # each member builder runs unless a key it needs was refused
        assert main(["validate", "--config", write_cfg(tmp_path, **body)]) == EXIT_CONFIG
        assert capsys.readouterr().out.splitlines() == lines

    @pytest.mark.parametrize("body, prefix", [
        ({"delta_net": {"profile": "left"}}, "delta_net:"),
        ({"delta_net": {"profile": {"kind": "left", "s_lo": -1}}}, "delta_net:"),
        ({"initial": {"E": "zero"}}, "initial.E:"),
        ({"initial": "zero"}, "initial:"),
        ({"mollifier": {"kind": ["left"]}}, "mollifier:"),
    ])
    def test_malformed_section_exits_config(self, tmp_path, capsys, body, prefix):
        cfg = write_cfg(tmp_path, **body)
        assert main(["validate", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).splitlines()
        assert any(line.startswith(prefix) for line in lines), lines


# (experiment key, a value its rule refuses, the subcommand that reads it,
# the other keys that subcommand needs)
BAD_EXPERIMENT_KEYS = [
    ("probe_x0", [1], "check-support", {}),
    ("blowup_window", "w", "probe-blowup", {}),
    ("growth_p", "x", "check-scaling", {}),
    ("growth_eps", [0.1, "a"], "check-scaling", {}),
]


@pytest.mark.parametrize("key, value, command, extra", BAD_EXPERIMENT_KEYS,
                         ids=[case[0] for case in BAD_EXPERIMENT_KEYS])
def test_bad_experiment_key_is_refused_before_solving(tmp_path, capsys, monkeypatch,
                                                      key, value, command, extra):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve called on an invalid experiment block")

    monkeypatch.setattr("maxlor.solver.solve", no_solve)
    cfg = release_cfg(tmp_path, eps_schedule=[0.2, 0.1],
                      experiment={key: value, **extra})
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert f"experiment: {key} must be" in capsys.readouterr().out
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"experiment: {key} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "check-support", "compare-lin", "trajectories"])
def test_a_one_eps_run_without_eps_is_refused_before_out_exists(tmp_path, capsys, command):
    # "eps": null passes validate, which has no single eps to need
    cfg = release_cfg(tmp_path, eps=None, experiment={"trajectory_starts": [-0.1]})
    assert main(["validate", "--config", cfg]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"eps: {command} needs 'eps'" in capsys.readouterr().err.splitlines()
    assert not out.exists()


@pytest.mark.parametrize("command, body, message", [
    ("solve", {"eps": 0}, "eps: must be a positive number"),
    ("sweep", {"eps_schedule": [0.2, 0.1], "experiment": {"psi": 0}},
     "experiment: psi must be a list of objects"),
], ids=["eps-0", "psi-0"])
def test_a_needed_key_its_rule_refuses_is_one_problem(tmp_path, capsys, command, body,
                                                      message):
    # the refusal says what is wrong; "needs" would add a second line for it
    cfg = release_cfg(tmp_path, **body)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [message, "config: 1 problem(s)"]
    assert not out.exists()


@pytest.mark.parametrize("x0", [5.0, -3.5])
def test_probe_cut_outside_the_grid_is_refused_before_solving(tmp_path, capsys,
                                                              monkeypatch, x0):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve called with a probe cut outside the grid")

    monkeypatch.setattr("maxlor.solver.solve", no_solve)
    cfg = release_cfg(tmp_path, experiment={"probe_x0": x0})
    message = f"experiment: probe_x0 {x0:g} lies outside the grid [-3, 1]"
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert message in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["check-support", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("solve", "point_charge.json"), ("check-support", "point_charge.json"),
    ("compare-lin", "weak_charge.json"), ("trajectories", "point_charge.json"),
])
def test_patching_the_solver_reaches_every_single_run(tmp_path, monkeypatch, command, config):
    # the one patch point of the "refused before solving" tests: each run
    # marches through analysis.run_member, which looks solver.solve up per call
    def stub(*args, **kwargs):
        raise RuntimeError("the patched solve ran")

    monkeypatch.setattr("maxlor.solver.solve", stub)
    path = os.path.join(CONFIGS, config)
    with pytest.raises(RuntimeError, match="the patched solve ran"):
        main([command, "--config", path, "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command, config", [
    ("solve", "point_charge.json"), ("compare-lin", "weak_charge.json"),
    ("sweep", "obstruction_sweep.json"),
])
def test_every_spatial_integral_goes_through_the_grid(tmp_path, monkeypatch, command, config):
    # Grid.integrate counts the functions that call it and np.trapezoid its
    # own callers: a spatial integral that skips the grid shows as a caller
    # of np.trapezoid other than integrate and Pairing.result's time rule
    integrals, trapezoids, samples = Counter(), Counter(), []
    integrate, trapezoid, sample = Grid.integrate, np.trapezoid, cfgmod.sample

    def counted_integrate(self, f):
        integrals[sys._getframe(1).f_code.co_name] += 1
        return integrate(self, f)

    def counted_trapezoid(*args, **kwargs):
        trapezoids[sys._getframe(1).f_code.co_name] += 1
        return trapezoid(*args, **kwargs)

    def counted_sample(*args):
        samples.append(args)
        return sample(*args)

    monkeypatch.setattr(Grid, "integrate", counted_integrate)
    monkeypatch.setattr(np, "trapezoid", counted_trapezoid)
    monkeypatch.setattr(cfgmod, "sample", counted_sample)
    out = tmp_path / "out"
    argv = [command, "--config", os.path.join(CONFIGS, config), "--out", str(out)]
    assert main(argv + ["--workers", "1"]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    members = summary.get("members", [summary.get("member")])
    saved = sum(member["n_saved"] for member in members)
    observables = len(summary.get("pairings", ()))
    # per saved state: the charge, the two L1 gaps, one row per observable
    caller, per_state = {"solve": ("total_charge", 1), "compare-lin": ("__call__", 2),
                         "sweep": ("__call__", observables)}[command]
    assert len(samples) > len(members) and saved > 0  # validate and the run both sample
    assert integrals == Counter({caller: per_state * saved, "sample": len(samples)})
    assert trapezoids == Counter(integrate=per_state * saved + len(samples),
                                 result=observables * len(members))


def _no_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve called on a config validate refuses")

    monkeypatch.setattr("maxlor.solver.solve", no_solve)


def _sample_with(tmp_path, name, **experiment_and_net):
    with open(os.path.join(CONFIGS, name)) as fh:
        body = json.load(fh)
    body["delta_net"].update(experiment_and_net.pop("delta_net", {}))
    body["experiment"].update(experiment_and_net)
    return write_cfg(tmp_path, **body)


def test_blowup_window_without_a_grid_point_is_refused_before_solving(tmp_path, capsys,
                                                                     monkeypatch):
    # the window [0.0013 - 1e-6, 0.0013 + 1e-6] falls between two grid points
    _no_solve(monkeypatch)
    cfg = _sample_with(tmp_path, "blowup_family.json", blowup_window=1e-6,
                       delta_net={"center": 0.0013})
    message = ("blow-up probe: window 1e-06 around center 0.0013 holds no grid point "
               "at eps=0.2 (dx=0.005); widen blowup_window")
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert message in capsys.readouterr().out.splitlines()
    out = tmp_path / "out"
    assert main(["probe-blowup", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err.splitlines()
    assert not out.exists()


# a family so coarse that the default blowup_window (0.25) around center 1
# holds no grid point of either member's grid
_COARSE_FAMILY = {
    "grid": {"x_min": -100.0, "x_max": 100.0, "n": 16},
    "scaling": {"kind": "constant", "c": 40.0},
    "eps": None, "eps_schedule": [40.0, 20.0], "delta_net": {"center": 1.0},
}


@pytest.mark.parametrize("command, body, messages", [
    # no probe_x0: check-support cuts at the default 0.05, right of x_max
    ("check-support", {"grid": {"x_min": -3.0, "x_max": 0.0, "n": 801}},
     ["experiment: probe_x0 0.05 lies outside the grid [-3, 0]"]),
    ("probe-blowup", _COARSE_FAMILY,
     [f"blow-up probe: window 0.25 around center 1 holds no grid point at eps={eps} "
      f"(dx={dx}); widen blowup_window" for eps, dx in (("40", "6.66667"), ("20", "3.33333"))]),
], ids=["check-support-cut", "probe-blowup-window"])
def test_a_default_the_run_reads_is_checked_before_out_exists(tmp_path, capsys, monkeypatch,
                                                               command, body, messages):
    # validate checks given values only; the run checks the value it reads
    _no_solve(monkeypatch)
    cfg = release_cfg(tmp_path, **body)
    assert main(["validate", "--config", cfg]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line in messages] == messages
    assert not out.exists()


def _obstruction(**changes):
    with open(os.path.join(CONFIGS, "obstruction_sweep.json")) as fh:
        return {**json.load(fh), **changes}


# (id, config body, the commands that run none of its failing members, the
# line validate refuses it with); each used to refuse these commands too
UNRUN_MEMBERS = [
    ("single-eps-1e-3", _obstruction(eps=0.001), ("sweep", "probe-blowup"),
     "delta_net: width 0.001 at eps=0.001 is below 4*dx = 0.02; refine the grid"),
    ("schedule-to-1e-7",
     _obstruction(eps_schedule=[0.2, 0.1, 0.05, 1e-7], experiment={
         **_obstruction()["experiment"], "trajectory_starts": [-0.1]}),
     ("solve", "check-support", "compare-lin", "trajectories"),
     "grid: resolving width 1e-07 at eps=1e-07 on [-4, 1] needs more than 600000 points; "
     "shrink the domain or stop the eps schedule earlier"),
    ("loglog-default-eps", {"scaling": {"kind": "loglog", "c": 1.0}}, ("check-scaling",),
     "scaling: loglog schedule needs eps < exp(-e) = 0.065988, got eps=0.1"),
]
_UNRUN_RUNS = [(case, command) for case in UNRUN_MEMBERS for command in case[2]]


@pytest.mark.parametrize("case, command", _UNRUN_RUNS,
                         ids=[f"{case[0]}-{command}" for case, command in _UNRUN_RUNS])
def test_a_command_is_not_refused_for_a_member_it_never_runs(tmp_path, capsys, case,
                                                             command):
    _, body, _, line = case
    cfg = write_cfg(tmp_path, **body)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "summary.json").is_file()
    capsys.readouterr()
    # validate rehearses every member, so it still refuses the config
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().out.splitlines() == [line, "invalid: 1 problem(s)"]


_SIGMA_PSI = {"field": "sigma", "t0": 0.3, "x0": -0.2, "r_t": 0.1, "r_x": 0.1}


@pytest.mark.parametrize("third", [
    {**_SIGMA_PSI, "amplitude": 2.0},
    {**_SIGMA_PSI, "t0": 0.3000001},
    _SIGMA_PSI,
], ids=["amplitude", "t0-7th-digit", "copy"])
def test_a_psi_entry_repeating_an_observable_label_is_refused(tmp_path, capsys, monkeypatch,
                                                              third):
    # the sweep keys its results by the label, which shows the field and
    # psi's center and radii at %g: two entries with one label would collide
    _no_solve(monkeypatch)
    with open(os.path.join(CONFIGS, "obstruction_sweep.json")) as fh:
        psi = json.load(fh)["experiment"]["psi"]
    cfg = _sample_with(tmp_path, "obstruction_sweep.json", psi=psi + [third])
    message = ("experiment.psi[2]: repeats the observable sigma@(0.3,-0.2)r(0.1,0.1) "
               "of psi[1]")
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert message in capsys.readouterr().out.splitlines()
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err.splitlines()
    assert not out.exists()


def test_blowup_peak_names_the_window_that_holds_no_grid_point(release_left):
    # a window the run was not validated for: the peak fold names it
    pieces, _ = release_left
    with pytest.raises(ValueError, match=r"window 1e-06 around center 0.0013 holds no grid "
                                         r"point at eps=0.1"):
        analysis._Peak(pieces, window=1e-6, center=0.0013)


@pytest.mark.parametrize("experiment, message", [
    ({"trajectory_starts": [-0.5, 3.0]},
     "experiment: trajectory_starts[1] 3 lies outside the grid [-4, 1]"),
], ids=["start-off-grid"])
def test_trajectories_are_refused_before_solving(tmp_path, capsys, monkeypatch,
                                                  experiment, message):
    _no_solve(monkeypatch)
    cfg = _sample_with(tmp_path, "point_charge.json", **experiment)
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert message in capsys.readouterr().out.splitlines()
    out = tmp_path / "out"
    assert main(["trajectories", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err.splitlines()
    assert not out.exists()


def test_a_delta_net_beyond_the_double_range_is_refused_before_out_exists(tmp_path, capsys,
                                                                         monkeypatch):
    _no_solve(monkeypatch)
    cfg = _sample_with(tmp_path, "point_charge.json", delta_net={"mass": 1e308})
    message = "delta_net: mass 1e+308 at eps=0.1 gives samples beyond the double range"
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert message in capsys.readouterr().out.splitlines()
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err.splitlines()
    assert not out.exists()


@pytest.mark.parametrize("body", [
    {"solver": {"dt": 1e-320}}, {"model": {"T": 1e308}}, {"solver": {"dt": 1e-9}},
], ids=["dt-1e-320", "T-1e308", "dt-1e-9"])
def test_a_march_beyond_max_steps_is_refused_before_out_exists(tmp_path, capsys, monkeypatch,
                                                               body):
    # the first two overflowed ceil(T/dt) in solve, the last planned 5e8 steps
    _no_solve(monkeypatch)
    with open(os.path.join(CONFIGS, "point_charge.json")) as fh:
        sample = json.load(fh)
    for section, values in body.items():
        sample[section].update(values)
    cfg = write_cfg(tmp_path, **sample)
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("solver: T=") and f"the {solver.MAX_STEPS} a march may take"
               in line for line in lines), lines
    for command in ("solve", "trajectories", "check-support", "compare-lin"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert any(line.startswith("solver: T=") for line in capsys.readouterr().err.splitlines())
        assert not out.exists()


@pytest.mark.parametrize("command, body", [
    ("solve", {"grid": {"x_min": -1e200, "x_max": 1e200, "n": 1001},
               "scaling": {"kind": "constant", "c": 1e199}, "eps": 0.1, "model": {"T": 1e-199},
               "initial": {"E": {"kind": "gaussian", "width": 0.5}, "u": {"kind": "zero"},
                           "sigma": {"kind": "zero"}}}),
    ("sweep", {"grid": {"x_min": -1e300, "x_max": 1e300, "n": 1001},
               "scaling": {"kind": "constant", "c": 1e299}, "eps": None,
               "eps_schedule": [1e299, 5e298], "model": {"T": 1.0},
               "experiment": {"psi": [{"field": "sigma", "t0": 0.5, "x0": 0.0, "r_t": 0.4,
                                       "r_x": 1e-10}]}}),
], ids=["gaussian", "psi"])
def test_a_grid_reaching_far_runs_without_an_overflow_warning(tmp_path, command, body):
    # far from a gaussian's center or a psi's x0 the scaled offset is inf and
    # the profile 0.0; the suite turns numpy's RuntimeWarning into an error
    cfg = write_cfg(tmp_path, **body)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK


def test_default_path_steps_are_the_most_the_saves_allow(release_left):
    # 83 march steps saved every fourth leave 21 save intervals, the last one
    # short; the largest spacing, four march steps, allows 20 path steps
    _, sol = release_left
    assert len(world_line(sol, -0.05).times) - 1 == 20


def test_misspelt_key_is_refused_before_sweeping(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep run on a config with a misspelt key")

    monkeypatch.setattr("maxlor.analysis.limit_sweep", no_sweep)
    psi = {"field": "Q", "t0": 0.15, "x0": 0.3, "r_t": 0.1, "r_x": 0.1}
    cfg = release_cfg(tmp_path, scaling={"kind": "constant", "c": 0.1, "exponant": 0.5},
                      eps_schedule=[0.2, 0.1], experiment={"psi": [psi]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "scaling: unknown key 'exponant'" in capsys.readouterr().err.splitlines()
    assert not out.exists()


OVER_CAP = {
    "scaling": {"kind": "constant", "c": 0.1},
    "eps_schedule": [0.01, 0.003, 1e-5],
    "experiment": {"psi": [{"field": "Q", "t0": 0.3, "x0": 0.3, "r_t": 0.1, "r_x": 0.1}]},
}


class TestGridCap:
    def test_validate_names_the_cap_and_the_member(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, **OVER_CAP)
        assert main(["validate", "--config", cfg]) == EXIT_CONFIG
        out = capsys.readouterr().out
        assert any("600000" in line and "eps=1e-05" in line for line in out.splitlines())

    # every run subcommand takes the one path that validates before it
    # creates --out or solves; only the family ones run the over-cap member,
    # so only they are refused for it
    @pytest.mark.parametrize("command", [
        "solve", "sweep", "check-support", "compare-lin", "probe-blowup",
        "trajectories", "check-scaling",
    ])
    def test_family_commands_refuse_before_solving(self, tmp_path, monkeypatch, command):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve called on an invalid schedule")

        monkeypatch.setattr("maxlor.solver.solve", no_solve)
        cfg = write_cfg(tmp_path, **OVER_CAP)
        out = tmp_path / "out"
        if command in ("sweep", "probe-blowup"):
            assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
            assert not out.exists()
            return
        reads = cli._COMMANDS[command][1]
        errors = cfgmod.validate_config(cfgmod.load_config(cfg), reads=reads, command=command)
        unset = ["experiment: trajectories needs 'trajectory_starts'"]
        assert errors == (unset if command == "trajectories" else [])


class TestSolve:
    def test_seed_flag_moves_the_run_id_and_no_state(self, tmp_path, capsys):
        path = os.path.join(CONFIGS, "point_charge.json")
        plain, seeded = tmp_path / "plain", tmp_path / "seeded"
        assert main(["solve", "--config", path, "--out", str(plain)]) == EXIT_OK
        assert main(["solve", "--config", path, "--out", str(seeded), "--seed", "7"]) == EXIT_OK
        states = sorted(p.name for p in plain.glob("state_*.csv"))
        assert states and states == sorted(p.name for p in seeded.glob("state_*.csv"))
        for name in states:
            assert (plain / name).read_bytes() == (seeded / name).read_bytes()
        cfg = cfgmod.load_config(path)
        assert cfg.seed != 7
        cfg.seed = 7
        rid = output.run_id(cfgmod.config_to_dict(cfg))
        assert json.loads((seeded / "summary.json").read_text())["run_id"] == rid
        assert json.loads((plain / "summary.json").read_text())["run_id"] != rid
        capsys.readouterr()
        assert main(["validate", "--config", path, "--seed", "7"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == f"ok: run id {rid}"

    def test_writes_states_summary_and_config(self, tmp_path):
        cfg = release_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
        names = os.listdir(out)
        assert "summary.json" in names
        assert "meta.json" in names
        assert "config.json" in names
        assert "state_00000.csv" in names
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["boundary_contaminated"] is False

    def test_out_that_is_a_file_is_refused(self, tmp_path, capsys):
        cfg = release_cfg(tmp_path)
        out = tmp_path / "taken"
        out.write_bytes(b"keep")
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"out: cannot create {str(out)!r}")
        assert out.read_bytes() == b"keep"

    def test_byte_identical_across_reruns(self, tmp_path):
        cfg = release_cfg(tmp_path)
        o1, o2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["solve", "--config", cfg, "--out", o1]) == EXIT_OK
        assert main(["solve", "--config", cfg, "--out", o2]) == EXIT_OK
        for name in sorted(os.listdir(o1)):
            b1 = (tmp_path / "a" / name).read_bytes()
            b2 = (tmp_path / "b" / name).read_bytes()
            assert b1 == b2, name

    def test_zero_data_writes_zero_fields(self, tmp_path):
        cfg = release_cfg(
            tmp_path,
            initial={"E": {"kind": "zero"}, "u": {"kind": "zero"},
                     "sigma": {"kind": "zero"}},
        )
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
        last = sorted(n for n in os.listdir(out) if n.startswith("state_"))[-1]
        rows = read_csv_columns(tmp_path / "out" / last)
        assert np.all(rows[:, 1:] == 0.0)

    def test_overflow_exits_runtime(self, tmp_path, capsys):
        cfg = release_cfg(
            tmp_path,
            initial={"E": {"kind": "gaussian", "amplitude": 2e307,
                           "center": -1.5, "width": 0.3},
                     "u": {"kind": "zero"}, "sigma": {"kind": "zero"}},
        )
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == EXIT_RUNTIME
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "overflow"

        # the a-priori bound overflows a double: both files hold the largest
        # one, so they parse as strict JSON (no Infinity)
        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        for name in ("summary.json", "meta.json"):
            data = json.loads((tmp_path / "out" / name).read_text(), parse_constant=refuse)
            assert data["a_priori_bound"] == sys.float_info.max

    def test_boundary_contamination_exits_4(self, tmp_path):
        cfg = tight_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == EXIT_CONTAMINATED
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["boundary_contaminated"] is True


class TestSweep:
    @pytest.mark.parametrize("command, config", [
        ("sweep", "obstruction_sweep.json"), ("probe-blowup", "blowup_family.json"),
    ])
    def test_summary_records_each_members_sizes(self, tmp_path, command, config):
        path = os.path.join(CONFIGS, config)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        cfg = cfgmod.load_config(path)
        assert len(summary["members"]) == len(cfg.eps_schedule)
        for eps, member in zip(cfg.eps_schedule, summary["members"]):
            pieces = cfgmod.assemble_run(cfg, eps=eps, refine=True)
            op = pieces.operator
            sol = stored_solve(pieces.initial, pieces.solver, op, pieces.params)
            assert member == {"grid_n": op.grid.n, "m": len(op.weights), "nu": op.nu,
                              "fft_len": op.fft_len, "n_steps": sol.meta["n_steps"],
                              "n_saved": len(sol.states)}

    @pytest.mark.parametrize("command, config", [
        ("sweep", "obstruction_sweep.json"), ("probe-blowup", "blowup_family.json"),
        ("solve", "point_charge.json"), ("check-support", "point_charge.json"),
        ("compare-lin", "weak_charge.json"), ("trajectories", "point_charge.json"),
    ])
    def test_validate_prints_the_sizes_each_member_records(self, tmp_path, capsys, command,
                                                           config):
        path = os.path.join(CONFIGS, config)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        capsys.readouterr()
        assert main(["validate", "--config", path]) == EXIT_OK
        first, *lines = capsys.readouterr().out.splitlines()
        assert first.startswith("ok: run id ")
        cfg = cfgmod.load_config(path)
        schedule = [line for line in lines if " schedule: " in line]
        assert lines == [lines[0]] * (cfg.eps is not None) + schedule
        if cfg.eps is not None:
            assert lines[0].startswith(f"member eps={cfg.eps:g} single: ")
        if "members" in summary:
            assert "member" not in summary
            members, printed, want = summary["members"], schedule, [
                f"member eps={eps:g} schedule" for eps in cfg.eps_schedule]
        else:  # a single run keeps the record of validate's single line
            members, printed, want = [summary["member"]], lines[:1], [
                f"member eps={cfg.eps:g} single"]
        assert len(printed) == len(members) == len(want)
        for label_want, line, member in zip(want, printed, members):
            label, sizes = line.split(": ")
            assert label == label_want
            pairs = [pair.split("=") for pair in sizes.split()]
            # the record's own order; summary.json sorts its keys
            assert [key for key, _ in pairs] == ["grid_n", "m", "nu", "fft_len", "n_steps",
                                                 "n_saved"]
            assert dict(pairs) == {key: str(value) for key, value in member.items()}

    def test_contaminated_member_exits_4(self, tmp_path):
        # the tight domain of the solve contamination test, run as a
        # two-member schedule
        cfg = tight_cfg(
            tmp_path,
            eps_schedule=[0.2, 0.05],
            experiment={"psi": [{"field": "E", "t0": 0.4, "x0": 0.0,
                                 "r_t": 0.1, "r_x": 0.2}]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONTAMINATED
        summary = json.loads((out / "summary.json").read_text())
        assert summary["boundary_contaminated"] == [True, True]
        assert summary["partial"] is False

    def test_raising_member_keeps_the_others(self, tmp_path, monkeypatch):
        # the eps=0.1 member raises mid-solve; the finished members' work is
        # still written and the sweep exits as an aborted one
        real_solve = solver.solve

        def solve_or_raise(initial, cfg, op, params, on_save):
            if params.eps == 0.1:
                raise MemoryError("no room for the eps=0.1 member")
            return real_solve(initial, cfg, op, params, on_save=on_save)

        monkeypatch.setattr("maxlor.solver.solve", solve_or_raise)
        cfg = os.path.join(CONFIGS, "obstruction_sweep.json")
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
        summary = json.loads((out / "summary.json").read_text())
        assert summary["statuses"] == ["ok", "error", "ok"]
        assert summary["partial"] is True
        assert summary["errors"] == {"0.1": "MemoryError: no room for the eps=0.1 member"}
        assert set(summary["verdicts"].values()) == {"inconclusive"}
        for pairings in summary["pairings"].values():
            assert pairings[1] is None
            assert pairings[0] is not None and pairings[2] is not None
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [float(r[0]) for r in rows] == [0.2, 0.1, 0.05] * 2
        assert [r[2] == "" for r in rows] == [False, True, False] * 2

    def test_raising_probe_blowup_member_keeps_the_others(self, tmp_path, monkeypatch):
        # probe-blowup runs its members through the sweep's runner: the
        # eps=0.05 member raises mid-solve, the three finished peaks are
        # still written, no exponent is fitted and the run exits as aborted
        real_solve = solver.solve

        def solve_or_raise(initial, cfg, op, params, on_save):
            if params.eps == 0.05:
                raise MemoryError("no room for the eps=0.05 member")
            return real_solve(initial, cfg, op, params, on_save=on_save)

        monkeypatch.setattr("maxlor.solver.solve", solve_or_raise)
        cfg = os.path.join(CONFIGS, "blowup_family.json")
        out = tmp_path / "out"
        assert main(["probe-blowup", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
        summary = json.loads((out / "summary.json").read_text())
        assert summary["statuses"] == ["ok", "ok", "error", "ok"]
        assert summary["partial"] is True
        assert summary["errors"] == {"0.05": "MemoryError: no room for the eps=0.05 member"}
        assert summary["exponent"] is None
        peaks = summary["peaks"]
        assert peaks[2] is None
        # the golden peaks of the members that finished
        assert peaks[:2] + peaks[3:] == pytest.approx(
            [13.263786092741983, 38.09066071166985, 72.29405589600186], rel=1e-9)
        with open(out / "probe_blowup.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [float(r[0]) for r in rows] == [0.2, 0.1, 0.05, 0.025]
        assert [r[1] == "" for r in rows] == [False, False, True, False]

    def test_needs_psi_list(self, tmp_path, capsys):
        cfg = release_cfg(tmp_path, eps_schedule=[0.2, 0.1])
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
        assert "psi" in capsys.readouterr().err

    def test_incomplete_psi_names_key_and_index(self, tmp_path, capsys):
        cfg = release_cfg(tmp_path, eps_schedule=[0.2, 0.1],
                          experiment={"psi": [{"field": "Q", "t0": 0.3}]})
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "experiment.psi[0]: x0 must be a finite number",
            "experiment.psi[0]: r_t must be a positive number",
            "experiment.psi[0]: r_x must be a positive number",
            "config: 3 problem(s)",
        ]

    def test_non_object_psi_exits_before_solving(self, tmp_path, capsys):
        cfg = release_cfg(tmp_path, eps_schedule=[0.2, 0.1], experiment={"psi": [5]})
        assert main(["validate", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().out.splitlines() == [
            "experiment.psi[0]: must be an object", "invalid: 1 problem(s)"]
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("spec, message", [
        ({"field": "B"}, "experiment.psi[0]: unknown field 'B'; choose from Q, E, u, sigma"),
        ({"t0": 0.45},
         "experiment.psi[0]: psi time support [0.35, 0.55] outside solved window [0, 0.3]"),
        ({"x0": 0.95},
         "experiment.psi[0]: psi spatial support [0.85, 1.05] outside the grid [-3, 1]"),
        ({"r_x": 0.0}, "experiment.psi[0]: r_x must be a positive number"),
        ({"x0": float("nan")}, "experiment.psi[0]: x0 must be a finite number"),
        ({"feild": "sigma"}, "experiment.psi[0]: unknown key 'feild'"),
        ({"t0": "0.15"}, "experiment.psi[0]: t0 must be a finite number"),
        ({"r_x": True}, "experiment.psi[0]: r_x must be a positive number"),
    ], ids=["field", "time-window", "space-window", "radius", "nan-center", "unknown-key",
            "string-number", "bool-radius"])
    def test_psi_rehearsal_refuses_before_solving(self, tmp_path, capsys, monkeypatch,
                                                  spec, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve called on an invalid psi")

        monkeypatch.setattr("maxlor.solver.solve", no_solve)
        psi = {"field": "Q", "t0": 0.15, "x0": 0.3, "r_t": 0.1, "r_x": 0.1, **spec}
        cfg = release_cfg(tmp_path, eps_schedule=[0.2, 0.1], experiment={"psi": [psi]})
        assert main(["validate", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().out.splitlines() == [message, "invalid: 1 problem(s)"]
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [message, "config: 1 problem(s)"]
        assert not out.exists()

    def test_psi_with_every_known_key_validates(self, tmp_path, capsys):
        psi = {"field": "sigma", "t0": 0.15, "x0": -0.5, "r_t": 0.1, "r_x": 0.1,
               "amplitude": 2.0}
        cfg = release_cfg(tmp_path, eps_schedule=[0.2, 0.1], experiment={"psi": [psi]})
        assert main(["validate", "--config", cfg]) == EXIT_OK

    def test_writes_table_and_verdicts(self, tmp_path):
        cfg = release_cfg(
            tmp_path,
            eps_schedule=[0.2, 0.1],
            experiment={"psi": [{"t0": 0.15, "x0": -0.5, "r_t": 0.1,
                                 "r_x": 0.3, "field": "Q"}]},
            initial={"E": {"kind": "zero"}, "u": {"kind": "zero"},
                     "sigma": {"kind": "zero"}},
        )
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out,
                     "--workers", "2"]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["partial"] is False
        verdict = next(iter(summary["verdicts"].values()))
        assert verdict == "converging"
        raw = (tmp_path / "out" / "sweep.csv").read_text()
        assert raw.startswith("eps,observable,pairing")


# the picard_worldlines benchmark workload at seed 1
_PICARD_WORLDLINES_SEED_1 = {
    "grid": {"x_min": -4.0, "x_max": 1.0, "n": 8001},
    "mollifier": {"kind": "left"},
    "model": {"B0": 0.138973, "T": 0.5},
    "delta_net": {"profile": {"kind": "left"}, "center": 0.0, "mass": 0.853746},
    "initial": {"E": {"kind": "zero"}, "u": {"kind": "zero"}, "sigma": {"kind": "delta-net"}},
    "seed": 1,
    "scaling": {"kind": "constant", "c": 0.1},
    "eps": 0.1,
    "solver": {"method": "picard", "dt": "auto", "save_every": 4},
    "experiment": {"trajectory_starts": [-0.459712, -0.327511, -0.179924]},
}


class TestSupportAndTrajectories:
    def test_check_support_confined(self, tmp_path):
        cfg = release_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert main(["check-support", "--config", cfg, "--out", out]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["confined"] is True
        assert summary["worst_relative"] <= 1e-8

    def test_symmetric_control_config_leaks(self, tmp_path):
        cfg = os.path.join(os.path.dirname(__file__), "..", "configs",
                           "support_control_symmetric.json")
        out = tmp_path / "out"
        assert main(["check-support", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = (out / "check_support.csv").read_text().splitlines()[1:]
        right = {r.split(",")[0]: float(r.split(",")[4]) for r in rows if ",right," in r}
        assert right["E"] == 1.0 and right["u"] == 1.0
        assert right["sigma"] == pytest.approx(0.7917, abs=1e-4)

    def test_trajectories_need_starts(self, tmp_path, capsys):
        cfg = release_cfg(tmp_path)
        assert main(["trajectories", "--config", cfg]) == EXIT_CONFIG
        assert "trajectory_starts" in capsys.readouterr().err

    def test_non_numeric_start_exits_before_solving(self, tmp_path, capsys):
        # the output directory is created before the solve, so its absence
        # shows that nothing was solved
        cfg = release_cfg(tmp_path, experiment={"trajectory_starts": [[1]]})
        out = tmp_path / "out"
        assert main(["trajectories", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert ("experiment: trajectory_starts must be a list of finite numbers"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_aborted_solve_still_writes_summary(self, tmp_path):
        # the overflow release of TestSolve::test_overflow_exits_runtime
        cfg = release_cfg(
            tmp_path,
            initial={"E": {"kind": "gaussian", "amplitude": 2e307,
                           "center": -1.5, "width": 0.3},
                     "u": {"kind": "zero"}, "sigma": {"kind": "zero"}},
            experiment={"trajectory_starts": [-0.05, -0.2]},
        )
        out = tmp_path / "out"
        assert main(["trajectories", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
        assert os.listdir(out) == ["summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "overflow"
        assert summary["trajectories"] == []
        assert "a_priori_bound" in summary and "run_id" in summary

    def test_trajectories_write_one_file_per_start(self, tmp_path):
        cfg = release_cfg(
            tmp_path,
            experiment={"trajectory_starts": [-0.05, -0.2]},
        )
        out = str(tmp_path / "out")
        assert main(["trajectories", "--config", cfg, "--out", out]) == EXIT_OK
        names = os.listdir(out)
        assert "trajectory_00.csv" in names and "trajectory_01.csv" in names
        rows = read_csv_columns(tmp_path / "out" / "trajectory_00.csv")
        assert rows.shape[1] == 2  # (r, w) samples along the path
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert all(t["max_speed"] < 1.0 for t in summary["trajectories"])

    def test_trajectories_record_the_default_step_count(self, tmp_path):
        # the summary records the count the world lines took: on
        # point_charge the largest one its saves allow
        out = tmp_path / "out"
        cfg = os.path.join(CONFIGS, "point_charge.json")
        assert main(["trajectories", "--config", cfg, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_steps"] == 20
        for i, row in enumerate(summary["trajectories"]):
            assert not row["exited"]
            samples = read_csv_columns(out / f"trajectory_{i:02d}.csv")
            assert len(samples) == summary["n_steps"] + 1

    def test_a_picard_run_records_its_iterations(self, tmp_path):
        # seed 1 takes 646 iterations at the default PICARD_TOL, 807 at 1e-10
        out = tmp_path / "picard"
        cfg = write_cfg(tmp_path, **_PICARD_WORLDLINES_SEED_1)
        assert main(["trajectories", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["picard_iterations"] == 646
        out = tmp_path / "rk4"
        cfg = release_cfg(tmp_path, experiment={"trajectory_starts": [-0.05]})
        assert main(["trajectories", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert "picard_iterations" not in json.loads((out / "summary.json").read_text())

    def test_a_heavy_charge_picard_run_converges_at_the_state_scale(self, tmp_path):
        # the picard_worldlines benchmark workload at seed 1 with mass 20:
        # max|V| reaches 1.3e6, where one ulp of the state exceeds an
        # absolute step tolerance of 1e-10, and a Picard step that stopped
        # on one stalled for 200 iterations
        cfg = write_cfg(tmp_path, **{**_PICARD_WORLDLINES_SEED_1,
                                     "delta_net": {"profile": {"kind": "left"},
                                                   "center": 0.0, "mass": 20.0}})
        out = tmp_path / "out"
        assert main(["trajectories", "--config", cfg, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["trajectories"]) == 3
        assert all(row["max_speed"] < 1.0 for row in summary["trajectories"])
        pieces = cfgmod.assemble_run(cfgmod.load_config(cfg))
        final = {}
        for method in ("picard", "rk4"):
            sol = stored_solve(pieces.initial, dataclasses.replace(pieces.solver, method=method),
                               pieces.operator, pieces.params)
            assert sol.status == solver.STATUS_OK
            last = sol.states[-1]
            final[method] = np.array([last.E, last.u, last.sigma])
        scale = np.max(np.abs(final["rk4"]))
        assert scale > 1e6
        # the two time rules differ by 3.1e-2 of max|V| here, as at mass 0.85
        assert np.max(np.abs(final["picard"] - final["rk4"])) <= 0.1 * scale


class TestScalingAndBlowup:
    def test_check_scaling_writes_growth_table(self, tmp_path):
        # the growth study never builds fields, but the config still has to
        # validate; zero data avoids the point-charge width dry check
        cfg = release_cfg(
            tmp_path, scaling={"kind": "loglog"}, eps=0.01,
            initial={"E": {"kind": "zero"}, "u": {"kind": "zero"},
                     "sigma": {"kind": "zero"}},
        )
        out = str(tmp_path / "out")
        assert main(["check-scaling", "--config", cfg, "--out", out]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["verdicts"]["1"]["satisfied"] is True
        assert summary["verdicts"]["2"]["satisfied"] is True
        raw = (tmp_path / "out" / "check_scaling.csv").read_text()
        assert raw.startswith("p,eps,h,growth_ratio")

    def test_check_scaling_records_a_powerlaw_exponent(self, tmp_path):
        cfg = release_cfg(tmp_path, scaling={"kind": "powerlaw", "c": 0.5, "exponent": 0.5},
                          initial={"E": {"kind": "zero"}, "u": {"kind": "zero"},
                                   "sigma": {"kind": "zero"}})
        out = tmp_path / "out"
        assert main(["check-scaling", "--config", cfg, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scaling"] == {"kind": "powerlaw", "c": 0.5, "exponent": 0.5}

    def test_probe_blowup_reports_exponent(self, tmp_path):
        cfg = release_cfg(tmp_path, eps_schedule=[0.2, 0.1, 0.05],
                          model={"B0": 0.0, "T": 0.15})
        out = str(tmp_path / "out")
        assert main(["probe-blowup", "--config", cfg, "--out", out]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["exponent"] > 0.0
        assert len(summary["peaks"]) == 3

    def test_aborted_member_wins_over_contamination(self, tmp_path, monkeypatch):
        # the eps=0.2 member trips the guard and the others finish
        # contaminated: the abort decides the exit code, as in sweep
        def fake_solve(initial, cfg, op, params, on_save):
            eps = params.eps
            ones = np.ones(op.grid.n)
            for t in (0.0, 0.1):
                on_save(FieldState(t, ones, ones, ones / eps))
            meta = {"eps": eps, "status": "guard" if eps == 0.2 else "ok",
                    "boundary_contaminated": eps != 0.2, "a_priori_bound": 1.0}
            return SpacetimeSolution(op.grid, [], meta)

        monkeypatch.setattr("maxlor.solver.solve", fake_solve)
        cfg = os.path.join(CONFIGS, "blowup_family.json")
        out = tmp_path / "out"
        assert main(["probe-blowup", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
        summary = json.loads((out / "summary.json").read_text())
        assert summary["statuses"] == ["guard", "ok", "ok", "ok"]
        assert summary["boundary_contaminated"] == [False, True, True, True]

    def test_compare_lin_writes_distances(self, tmp_path):
        cfg = release_cfg(tmp_path, model={"B0": 0.0, "T": 0.2})
        out = str(tmp_path / "out")
        assert main(["compare-lin", "--config", cfg, "--out", out]) == EXIT_OK
        rows = read_csv_columns(tmp_path / "out" / "compare_lin.csv")
        assert rows.shape[1] == 3  # t, l1_E, l1_u
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "max_l1_E" in summary


@pytest.mark.parametrize("command, flag", [
    ("check-support", True),
    ("compare-lin", True),
    ("trajectories", True),
    ("probe-blowup", [True, True]),
])
def test_contaminated_run_says_why_it_exits_4(tmp_path, command, flag):
    # the tight domain of the solve contamination test, which every
    # single-solve command runs once and probe-blowup once per member
    cfg = tight_cfg(tmp_path, eps_schedule=[0.2, 0.05],
                    experiment={"trajectory_starts": [0.0]})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONTAMINATED
    summary = json.loads((out / "summary.json").read_text())
    assert summary["boundary_contaminated"] == flag


def test_unknown_subcommand_fails_fast(capsys):
    with pytest.raises(SystemExit):
        main(["transmogrify"])


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_are_refused_before_out_exists(tmp_path, capsys, workers):
    cfg = os.path.join(CONFIGS, "obstruction_sweep.json")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cfg, "--out", str(out), "--workers", workers])
    assert exc.value.code == EXIT_CONFIG
    assert "--workers: must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


# runs one subcommand in a fresh interpreter and prints the SciPy modules it loaded
_SCIPY_PROBE = """
import sys
from maxlor.cli import main
code = main(sys.argv[1:])
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
sys.exit(code)
"""


@pytest.mark.parametrize("subcommand, config", [
    ("validate", "point_charge"),
    ("solve", "point_charge"),
    ("trajectories", "point_charge"),
    ("check-support", "point_charge"),
    ("compare-lin", "weak_charge"),
    ("sweep", "obstruction_sweep"),
    ("probe-blowup", "blowup_family"),
    ("check-scaling", "loglog_scaling"),
])
def test_run_path_loads_no_scipy(tmp_path, subcommand, config):
    root = os.path.join(os.path.dirname(__file__), "..")
    argv = [subcommand, "--config", os.path.join(root, "configs", f"{config}.json")]
    if subcommand != "validate":
        argv += ["--out", str(tmp_path / "out")]
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
