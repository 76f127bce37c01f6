"""``validate`` refuses malformed configs with exit 2 and problem lines.

Every section and every key a config may hold is fed each of a fixed set
of bad values; a value the run could use may pass (exit 0), anything else
must be refused with exit 2 and problem lines on stdout, never end in a
traceback.  The configs found to crash a builder are pinned by name below.
No test here needs SciPy.
"""

import copy
import json

import pytest

from maxlor.cli import EXIT_CONFIG, EXIT_OK, main
from maxlor.config import _SCHEMA

# an integer literal no double holds
HUGE_INT = int("1" + "0" * 400)
BAD_VALUES = [[], {}, "x", "", True, False, None, -1, 0, 1e308, 1e-320, HUGE_INT]
BAD_IDS = ["list", "object", "string", "empty-string", "true", "false", "null", "minus-one",
           "zero", "1e308", "1e-320", "huge-int"]

# valid, with every object a nested key lives in spelled out, a schedule
# so the sweep's keys are rehearsed, and one psi entry
BASE = {
    "eps": 0.1,
    "eps_schedule": [0.2, 0.1],
    "initial": {"E": {"kind": "gaussian", "width": 0.5, "amplitude": 1.0, "center": -1.0},
                "u": {"kind": "zero"}, "sigma": {"kind": "delta-net"}},
    "delta_net": {"profile": {"kind": "left", "s_lo": -1.0, "s_hi": 0.0}},
    "experiment": {"psi": [{"t0": 0.25, "x0": -0.5, "r_t": 0.1, "r_x": 0.2}],
                   "trajectory_starts": [0.0]},
}


def _targets():
    """A path into the config for every section and every key a run reads."""
    for section, rows in _SCHEMA.items():
        yield (section,)
        for key, (_, rule, _) in rows.items():
            yield (section, key)
            if isinstance(rule, dict):
                yield from ((section, key, sub) for sub in rule)
            elif isinstance(rule, list):  # the first item of a list of objects
                yield from ((section, key, 0, sub) for sub in rule[0])
    yield from [("eps",), ("eps_schedule",), ("seed",)]


TARGETS = list(_targets())


def _validate(tmp_path, body, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(body))
    code = main(["validate", "--config", str(path)])
    return code, capsys.readouterr()


def test_the_base_config_is_valid(tmp_path, capsys):
    code, out = _validate(tmp_path, BASE, capsys)
    assert code == EXIT_OK, out


@pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
@pytest.mark.parametrize("path", TARGETS, ids=[".".join(map(str, p)) for p in TARGETS])
def test_a_bad_value_is_refused_or_usable(tmp_path, capsys, path, value):
    # every bad grid.n is refused by its rule, so no case sizes a huge array
    body = copy.deepcopy(BASE)
    node = body
    for key in path[:-1]:
        node = node[key] if isinstance(node, list) else node.setdefault(key, {})
    node[path[-1]] = value
    code, out = _validate(tmp_path, body, capsys)
    assert code in (EXIT_OK, EXIT_CONFIG), out
    if code == EXIT_CONFIG:
        lines = out.out.splitlines()
        assert lines[-1] == f"invalid: {len(lines) - 1} problem(s)" and not out.err, out
        if len(path) == 1 and path[0] in _SCHEMA:
            assert f"{path[0]}: must be a JSON object" in lines, out


def test_a_section_that_is_not_an_object_hides_no_other_problem(tmp_path, capsys):
    # the section used to be refused alone, on stderr, before any other check ran
    code, out = _validate(tmp_path, {"grid": 5, "model": {"T": -1}}, capsys)
    assert code == EXIT_CONFIG
    assert out.out.splitlines() == ["grid: must be a JSON object",
                                    "model: T must be a positive number",
                                    "invalid: 2 problem(s)"]


def test_a_top_level_that_is_not_an_object_fails_to_load(tmp_path, capsys):
    code, out = _validate(tmp_path, [1, 2], capsys)
    assert code == EXIT_CONFIG
    assert (out.out, out.err) == ("", "config: top level must be a JSON object\n")


# the falsy values: only null means "no schedule"
FALSY = [(value, name) for value, name in zip(BAD_VALUES, BAD_IDS)
         if value is not None and not value]


@pytest.mark.parametrize("value", [value for value, _ in FALSY], ids=[name for _, name in FALSY])
def test_a_given_falsy_schedule_is_refused_by_its_rule(tmp_path, capsys, value):
    # these used to read as no schedule and print the run id of a config without one
    code, out = _validate(tmp_path, {"eps_schedule": value}, capsys)
    assert code == EXIT_CONFIG
    assert out.out.splitlines() == ["eps_schedule: must list at least 2 positive numbers",
                                    "invalid: 1 problem(s)"]


@pytest.mark.parametrize("body, line", [
    ({"model": {"B0": HUGE_INT}}, "model: B0 must be a finite number"),
    ({"grid": {"n": HUGE_INT}}, "grid: n must be an integer of at least 16"),
], ids=["B0", "n"])
def test_an_integer_beyond_the_double_range_is_refused(tmp_path, capsys, body, line):
    code, out = _validate(tmp_path, body, capsys)
    assert code == EXIT_CONFIG
    assert out.out.splitlines() == [line, "invalid: 1 problem(s)"]


@pytest.mark.parametrize("body, prefix", [
    ({"scaling": {"c": 1e308}}, "regops: kernel width"),
    ({"eps": 1e308}, "regops: kernel width"),
    # finite, but 2e6 stencil cells: refused before anything is sized
    ({"scaling": {"c": 1e5}}, "regops: kernel width"),
    ({"eps": None, "scaling": {"kind": "loglog", "c": 1.0},
      "experiment": {"growth_eps": [1e-3, 1e-100, 1e-300, 1e-320]}},
     "experiment: growth_eps: scaling: width h(eps) = 0"),
    ({"scaling": {"c": 1e-320}}, "experiment: growth_eps: scaling: width h(eps) = 0"),
    # ln(1/eps) = 0 at eps = 1
    ({"experiment": {"growth_eps": [2, 1, 0.5, 0.1]}},
     "experiment: growth_eps: scaling: growth ratio h^-1"),
    # the samples overflow: these used to pass, and solve refused them after --out existed
    ({"delta_net": {"mass": 1e308}}, "delta_net:"),
    ({"delta_net": {"mass": -1e308}}, "delta_net:"),
    # ceil(T/dt) overflows, or plans 5e8 steps: these used to pass, and solve
    # raised OverflowError or built the save grid for minutes after --out existed
    ({"solver": {"dt": 1e-320}}, "solver: T=0.5 at dt=9.99989e-321 needs inf steps"),
    ({"model": {"T": 1e308}}, "solver: T=1e+308 at dt="),
    ({"solver": {"dt": 1e-9}}, "solver: T=0.5 at dt=1e-09 needs 5e+08 steps"),
], ids=["c-1e308", "eps-1e308", "c-1e5", "loglog-eps-1e-320", "c-1e-320", "eps-1",
        "mass-1e308", "mass-minus-1e308", "dt-1e-320", "T-1e308", "dt-1e-9"])
def test_a_builder_refusal_is_a_problem_line(tmp_path, capsys, body, prefix):
    # each of the first six but c-1e5 used to end in an OverflowError or a ZeroDivisionError
    code, out = _validate(tmp_path, body, capsys)
    assert code == EXIT_CONFIG
    assert any(line.startswith(prefix) for line in out.out.splitlines()), out


def test_the_growth_check_is_rehearsed_at_every_p(tmp_path, capsys):
    # h^-1 fits a double and h^-2 does not: check-scaling runs p = 1 and 2
    body = {"eps": None, "scaling": {"kind": "constant", "c": 1e-200}}
    code, out = _validate(tmp_path, body, capsys)
    assert code == EXIT_CONFIG
    assert "experiment: growth_eps: scaling: growth ratio h^-2" in out.out
    body["experiment"] = {"growth_p": [1]}
    assert _validate(tmp_path, body, capsys)[0] == EXIT_OK

    body = {"eps": None, "scaling": {"kind": "constant", "c": 1e-200}}
    path, run = tmp_path / "scaling.json", tmp_path / "run"
    path.write_text(json.dumps(body))
    assert main(["check-scaling", "--config", str(path), "--out", str(run)]) == EXIT_CONFIG
    assert not run.exists()
