"""Tests of the benchmark itself: generators, output checks and the tracer.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

import run
import tracer
import workloads

sys.path.insert(0, run.SRC)

from maxlor import cli  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_keeps_the_problem_size(name):
    subcommand, generate, _ = workloads.WORKLOADS[name]
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)
    sizes = [run.problem_size(subcommand, generate(seed)) for seed in range(5)]
    assert all(s == sizes[0] for s in sizes)


def test_sweep_sizes_match_the_loglog_ladder():
    size = run.problem_size("sweep", workloads.sweep_loglog(0))
    assert [(m["n"], m["m"]) for m in size["members"]] == [(2001, 53), (8001, 183), (32001, 663)]


def test_sweep_single_eps_is_not_a_schedule_member():
    cfg = workloads.sweep_loglog(3)
    assert cfg["eps"] not in cfg["eps_schedule"]


def _small(name, seed=1):
    """The workload's config shrunk so that a real run takes well under a second."""
    cfg = workloads.WORKLOADS[name][1](seed)
    if name == "sweep_loglog":
        cfg["eps"] = 0.06
        cfg["eps_schedule"] = [0.05, 0.03, 0.02]
    else:
        cfg["grid"]["n"] = 1001
        cfg["model"]["T"] = 0.1
    return cfg


def _run_small(tmp_path, name):
    subcommand, _, check = workloads.WORKLOADS[name]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_small(name)))
    out = tmp_path / "out"
    assert cli.main([subcommand, "--config", str(cfg_path), "--out", str(out)]) == 0
    assert check(str(out)) == []
    return out, check


def _edit_json(path, edit):
    d = json.loads(path.read_text())
    edit(d)
    path.write_text(json.dumps(d))


def _q_label(d):
    return next(k for k in d["verdicts"] if k.startswith("Q@"))


@pytest.mark.parametrize("edit", [
    lambda d: d["verdicts"].__setitem__(_q_label(d), "converging"),
    lambda d: d["pairings"][_q_label(d)].__setitem__(1, 2e-8),
    lambda d: d["statuses"].__setitem__(2, "guard"),
])
def test_sweep_check_rejects_tampered_summary(tmp_path, edit):
    out, check = _run_small(tmp_path, "sweep_loglog")
    _edit_json(out / "summary.json", edit)
    assert check(str(out))


def test_solve_check_rejects_one_nonzero_vacuum_cell(tmp_path):
    out, check = _run_small(tmp_path, "solve_dense_save")
    state = out / "state_00003.csv"
    lines = state.read_text().splitlines()
    i = next(i for i, line in enumerate(lines[1:], 1) if float(line.split(",")[0]) > 0.5)
    x, e, u, sigma = lines[i].split(",")
    lines[i] = ",".join((x, e, u, "4.9406564584124654e-324"))
    state.write_text("\n".join(lines) + "\n")
    assert any("vacuum" in p for p in check(str(out)))


def test_solve_check_rejects_charge_drift(tmp_path):
    out, check = _run_small(tmp_path, "solve_dense_save")
    _edit_json(out / "summary.json", lambda d: d.__setitem__("charge_max_drift", 1e-9))
    assert check(str(out))


@pytest.mark.parametrize("edit", [
    lambda d: d["trajectories"][0].__setitem__("exited", True),
    lambda d: d["trajectories"][1].__setitem__("max_speed", 1.0),
    lambda d: d["trajectories"].pop(),
])
def test_trajectory_check_rejects_tampered_summary(tmp_path, edit):
    out, check = _run_small(tmp_path, "picard_worldlines")
    _edit_json(out / "summary.json", edit)
    assert check(str(out))


def test_run_child_probes_the_cpu_while_the_child_runs(tmp_path):
    r = run.run_child([sys.executable, "-c", "import time; time.sleep(0.5)"],
                      tmp_path / "child.log")
    assert r["code"] == 0 and r["wall_s"] >= 0.5
    assert r["probes"] >= 2 and r["probe_s"] > 0


def test_tree_digest_sees_one_changed_byte(tmp_path):
    (tmp_path / "a.csv").write_bytes(b"x,E\n0,0\n")
    before = run.tree_digest(tmp_path)
    (tmp_path / "a.csv").write_bytes(b"x,E\n0,1\n")
    assert run.tree_digest(tmp_path) != before


def _namespaces(table):
    return {id(owner): (owner, dict(vars(owner))) for owner, *_ in table}


def test_wrappers_leave_no_trace_on_the_namespaces(tmp_path):
    table = tracer.wrap_table()
    before = _namespaces(table)
    t = tracer.Tracer()
    with t:
        t.install(table)
        assert all(owner.__dict__[attr] is not before[id(owner)][1][attr]
                   for owner, attr, *_ in table)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(_small("picard_worldlines")))
        assert cli.main(["trajectories", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 0
    after = _namespaces(table)
    for key, (owner, names) in before.items():
        now = after[key][1]
        assert now.keys() == names.keys(), owner
        assert all(now[k] is names[k] for k in names), owner
    names = {s[0] for s in t.spans}
    assert {"regops.apply", "solver.rhs", "solver.solve", "trajectories.sample"} <= names


def test_wrappers_are_restored_when_the_run_raises():
    table = tracer.wrap_table()
    before = _namespaces(table)
    with pytest.raises(RuntimeError):
        with tracer.Tracer() as t:
            t.install(table)
            raise RuntimeError("boom")
    for owner, names in before.values():
        assert all(vars(owner)[k] is v for k, v in names.items())


def test_layer_metrics_self_time_and_picard_counts():
    apply_info = {"n": 10, "m": 3}
    solve_info = {"n": 10, "steps": 2, "saved": 3, "iterations": 4, "subinterval_steps": 1}
    spans = [
        ["config.validate", 0.0, 1.0, -1, None],
        ["solver.solve", 1.0, 9.0, -1, solve_info],
        ["solver.rhs", 2.0, 5.0, 1, None],
        ["regops.apply", 2.5, 4.5, 2, apply_info],
        ["solver.rhs", 5.0, 6.0, 1, None],
        ["regops.apply", 7.0, 7.5, 1, apply_info],
        ["output.write_solution", 9.0, 10.0, -1, None],
        ["output.write_table", 9.0, 9.5, 6, None],
    ]
    m = tracer.layer_metrics(spans, wall_s=12.0, untraced_wall_s=11.0, output_bytes=2_000_000)
    assert m["regops.apply.calls"] == 2
    assert m["regops.apply.self_s"] == pytest.approx(2.5)
    assert m["solver.rhs.self_s"] == pytest.approx(2.0)
    assert m["solver.self_s"] == pytest.approx(8.0 - 4.0 - 0.5)
    assert m["regops.macs"] == 60
    assert m["analysis.apply_calls"] == 1
    assert m["solver.picard.iterations"] == 4
    assert m["solver.picard.rhs_useful_ratio"] == pytest.approx(4 / 2)
    assert m["output.write.s"] == pytest.approx(1.0)
    assert m["output.mb_per_s"] == pytest.approx(2.0)
    assert m["cli.unattributed_s"] == pytest.approx(12.0 - 10.0)
    assert m["trace.overhead_s"] == pytest.approx(1.0)


def test_benchmark_json_names_every_reported_metric_with_its_unit():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    reported = tracer.layer_metrics([], wall_s=1.0, untraced_wall_s=1.0, output_bytes=0)
    assert set(reported) == set(run.PER_LAYER_UNITS)
