"""Golden values: five sample-config runs against numbers recorded once.

Byte-identical reruns (acceptance 10) only compare a build with itself.
These values pin the numbers across Python and numpy builds, whose FFT
rounding may differ, so they are compared at a relative tolerance and
stored as numbers, not as byte digests.  The one exception is the ``Q``
pairing of the obstruction sweep, which confinement keeps exactly zero.
"""

import json
import os

import pytest

from maxlor.analysis import VERDICT_CONVERGING, VERDICT_OBSTRUCTION
from maxlor.cli import EXIT_OK, main

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
REL = 1e-9

Q_LABEL = "Q@(0.3,0.3)r(0.1,0.1)"
SIGMA_LABEL = "sigma@(0.3,-0.2)r(0.1,0.1)"


def run(tmp_path, command, config):
    out = tmp_path / command
    argv = [command, "--config", os.path.join(CONFIGS, f"{config}.json"), "--out", str(out)]
    assert main(argv) == EXIT_OK
    return json.loads((out / "summary.json").read_text())


def test_obstruction_sweep(tmp_path):
    s = run(tmp_path, "sweep", "obstruction_sweep")
    assert s["eps_schedule"] == [0.2, 0.1, 0.05]
    assert s["pairings"][Q_LABEL] == [0.0, 0.0, 0.0]
    assert s["pairings"][SIGMA_LABEL] == pytest.approx(
        [-0.06680339265086692, -0.42430496705185256, -0.6304509164198425], rel=REL)
    assert s["verdicts"] == {Q_LABEL: VERDICT_OBSTRUCTION, SIGMA_LABEL: VERDICT_CONVERGING}
    assert s["targets"][Q_LABEL] == pytest.approx(0.0983380812912743, rel=REL)
    assert s["targets"][SIGMA_LABEL] is None


def test_weak_charge_linearized_gap(tmp_path):
    s = run(tmp_path, "compare-lin", "weak_charge")
    assert s["max_l1_E"] == pytest.approx(1.3581116175309362e-04, rel=REL)
    assert s["max_l1_u"] == pytest.approx(1.3430623195321667e-05, rel=REL)


def test_blowup_family(tmp_path):
    s = run(tmp_path, "probe-blowup", "blowup_family")
    assert s["eps_schedule"] == [0.2, 0.1, 0.05, 0.025]
    assert s["peaks"] == pytest.approx(
        [13.263786092741983, 38.09066071166985, 57.2681280257718, 72.29405589600186], rel=REL)
    assert s["exponent"] == pytest.approx(0.7927448291955418, rel=REL)


# (start, end, max_speed) of each world line
POINT_CHARGE_LINES = [
    (-0.5, -0.598069488683306, 0.9999978318855157),
    (-0.25, -0.24419900734476252, 0.999384066975052),
    (-0.05, -0.002789889912597398, 0.27261507414335817),
]
SMOOTH_FIELDS_LINES = [
    (-1.0, -0.9953501732220765, 0.018878400314058286),
    (0.0, 0.016608322467411053, 0.07450733339166563),
    (1.0, 1.0084409574125468, 0.04299992051776591),
]


@pytest.mark.parametrize("config, n_steps, lines", [
    ("point_charge", 20, POINT_CHARGE_LINES),
    ("smooth_fields", 40, SMOOTH_FIELDS_LINES),
])
def test_world_lines(tmp_path, config, n_steps, lines):
    s = run(tmp_path, "trajectories", config)
    assert s["n_steps"] == n_steps
    assert len(s["trajectories"]) == len(lines)
    for row, (start, end, max_speed) in zip(s["trajectories"], lines):
        assert row["start"] == start
        assert row["end"] == pytest.approx(end, rel=REL)
        assert row["max_speed"] == pytest.approx(max_speed, rel=REL)
        assert row["exited"] is False
