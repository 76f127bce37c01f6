import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxlor import output
from maxlor.config import assemble_run, config_from_dict, config_to_dict, load_config
from maxlor.fields import FieldState, Grid, SpacetimeSolution
from maxlor.output import (
    SolveSummary,
    StateWriter,
    canonical_config_bytes,
    fmt,
    run_id,
    write_json,
    write_table,
)

from stored_route import stored_solve

# sha256 of the canonical encoding of {"b": [1.5, 2], "a": 1}, computed
# independently with the sha256sum tool on the bytes {"a":1,"b":[1.5,2]}
FROZEN_ID = "4be623b211972"[:12]


def test_fmt_round_trips_doubles():
    for v in (1.0 / 3.0, 0.1, 1e-17, 2.5e300, -7.25, 123456789.123456789):
        assert float(fmt(v)) == v
    assert fmt(1.0) == "1"
    assert fmt(0.5) == "0.5"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_round_trips_any_double(v):
    assert float(fmt(v)) == v


def test_canonical_bytes_ignore_insertion_order():
    a = {"b": [1.5, 2], "a": 1}
    b = {"a": 1, "b": [1.5, 2]}
    assert canonical_config_bytes(a) == canonical_config_bytes(b)
    assert canonical_config_bytes(a) == b'{"a":1,"b":[1.5,2]}'


def test_run_id_frozen_and_stable():
    assert run_id({"b": [1.5, 2], "a": 1}) == FROZEN_ID
    assert len(run_id({})) == 12
    assert run_id({"a": 1}) != run_id({"a": 2})


@pytest.mark.parametrize("cfg_dict", [
    pytest.param({"b": [1.5, 2], "a": 1}, id="frozen"),
    *(pytest.param(config_to_dict(load_config(path)), id=path.stem)
      for path in sorted((Path(__file__).parent.parent / "configs").glob("*.json"))),
])
def test_run_id_is_hashlibs_sha256(cfg_dict):
    # the built-in SHA-256 run_id takes must agree with OpenSSL's
    expected = hashlib.sha256(canonical_config_bytes(cfg_dict)).hexdigest()[:12]
    assert run_id(cfg_dict) == expected


def test_write_json_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, {"z": 1, "a": [1, 2]})
    write_json(p2, {"a": [1, 2], "z": 1})
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.endswith(b"\n")
    assert json.loads(b1) == {"z": 1, "a": [1, 2]}


def test_write_table_format(tmp_path):
    p = tmp_path / "t.csv"
    write_table(p, ["x", "label"], [[1.0 / 3.0, "ok"], [2.0, "no"]])
    raw = p.read_bytes()
    assert b"\r\n" in raw
    lines = raw.decode().split("\r\n")
    assert lines[0] == "x,label"
    assert float(lines[1].split(",")[0]) == 1.0 / 3.0


@pytest.fixture(scope="module")
def solved_run():
    cfg = config_from_dict({
        "grid": {"x_min": -2.0, "x_max": 0.5, "n": 301},
        "model": {"T": 0.1},
        "solver": {"save_every": 8},
    })
    pieces = assemble_run(cfg)
    sol = stored_solve(pieces.initial, pieces.solver, pieces.operator, pieces.params)
    return cfg, sol


def write_run(out_dir, sol, cfg_dict):
    """A run directory written from a stored solution; returns its meta.json."""
    return sol.replay(StateWriter(out_dir, sol.grid)).finish(sol.meta, cfg_dict)


def read_states(out_dir):
    """The ``(E, u, sigma)`` columns of each state file, read as docs/plotting.md does."""
    meta = json.loads((Path(out_dir) / "meta.json").read_text())
    return [np.loadtxt(Path(out_dir) / name, delimiter=",", skiprows=1)[:, 1:].T
            for name in meta["files"]]


def test_solution_round_trip_is_exact(tmp_path, solved_run):
    cfg, sol = solved_run
    meta = write_run(tmp_path / "run", sol, config_to_dict(cfg))
    assert meta["times"] == sol.times.tolist()
    again = read_states(tmp_path / "run")
    assert len(again) == len(sol.states)
    for s1, columns in zip(sol.states, again):
        for name, column in zip(("E", "u", "sigma"), columns):
            assert np.array_equal(s1.component(name), column)
    assert meta["grid"]["n"] == sol.grid.n
    assert meta["run_id"] == run_id(config_to_dict(cfg))


def test_written_layout(tmp_path, solved_run):
    cfg, sol = solved_run
    out = tmp_path / "run"
    meta = write_run(out, sol, config_to_dict(cfg))
    names = sorted(p.name for p in out.iterdir())
    assert "meta.json" in names
    assert "config.json" in names
    assert meta["files"][0] == "state_00000.csv"
    assert len(meta["files"]) == len(sol.times)
    header = (out / "state_00000.csv").read_bytes().split(b"\r\n")[0]
    assert header == b"x,E,u,sigma"
    assert json.loads((out / "config.json").read_text()) == config_to_dict(cfg)


def test_double_write_is_byte_identical(tmp_path, solved_run):
    cfg, sol = solved_run
    d = config_to_dict(cfg)
    write_run(tmp_path / "r1", sol, d)
    write_run(tmp_path / "r2", sol, d)
    for p1 in sorted((tmp_path / "r1").iterdir()):
        p2 = tmp_path / "r2" / p1.name
        assert p1.read_bytes() == p2.read_bytes(), p1.name


def test_summary_reports_the_run(solved_run):
    _, sol = solved_run
    s = sol.replay(SolveSummary(sol.grid)).result(sol.meta)
    for key in ("status", "a_priori_bound", "op_norm", "nu", "eps",
                "charge_initial", "charge_final", "charge_max_drift",
                "peak_amplitude", "margin_ratio", "boundary_contaminated",
                "n_saved", "t_final"):
        assert key in s, key
    assert s["status"] == "ok"
    assert s["n_saved"] == len(sol.times)
    assert s["charge_max_drift"] <= 1e-6 * abs(s["charge_initial"])
    assert not math.isnan(s["peak_amplitude"])


# values that stress the 17-digit format: signed zero, subnormals down to the
# smallest, the ends of the exponent range, integers held as floats, nan, inf
STRESS_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308,
    2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
    1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 1e22, 123456789.0,
    0.1, 1.0 / 3.0, math.nan, math.inf, -math.inf,
]


def solution_of(columns, x_min=-1.0, x_max=1.0):
    """Two saved states holding the given (E, u, sigma) columns in turn."""
    E, u, sigma = (np.asarray(c, dtype=float) for c in columns)
    states = [FieldState(0.0, E, u, sigma), FieldState(0.5, sigma, E, u)]
    return SpacetimeSolution(grid=Grid(x_min, x_max, len(E)), states=states)


def assert_writers_agree(out_dir, sol):
    """The state files equal write_table's on the same rows, and
    read back bit for bit (nan as nan)."""
    meta = write_run(out_dir / "run", sol, {})
    for name, state in zip(meta["files"], sol.states):
        table = out_dir / "table.csv"
        write_table(table, ("x", "E", "u", "sigma"),
                    zip(sol.grid.xs, state.E, state.u, state.sigma))
        assert (out_dir / "run" / name).read_bytes() == table.read_bytes(), name
    again = read_states(out_dir / "run")
    for s1, columns in zip(sol.states, again):
        for field_name, v2 in zip(("E", "u", "sigma"), columns):
            v1 = s1.component(field_name)
            nan = np.isnan(v1)
            assert np.array_equal(nan, np.isnan(v2))
            assert np.array_equal(v1[~nan].view(np.uint64), v2[~nan].view(np.uint64))


def test_state_writer_matches_write_table_on_extreme_values(tmp_path):
    values = STRESS_VALUES
    sol = solution_of((values, values[::-1], values[7:] + values[:7]))
    assert_writers_agree(tmp_path, sol)
    text = (tmp_path / "run" / "state_00000.csv").read_text()
    for token in (",-0,", ",4.9406564584124654e-324", ",1.0000000000000001e+300",
                  ",9007199254740992", ",nan", ",inf", ",-inf"):
        assert token in text, token


@given(st.integers(min_value=16, max_value=40).flatmap(
           lambda n: st.tuples(*[st.lists(st.floats(), min_size=n, max_size=n)] * 3)),
       st.floats(min_value=-1e6, max_value=0.0),
       st.floats(min_value=1e-3, max_value=1e6))
def test_state_writer_matches_write_table_on_any_doubles(columns, x_min, x_max):
    with tempfile.TemporaryDirectory() as d:
        assert_writers_agree(Path(d), solution_of(columns, x_min, x_max))


# -- the state-file kernel against fmt ---------------------------------------

def kernel_bytes(values):
    """The kernel's bytes for ``values``, each followed by a newline."""
    size = 3 * output._BLOCK
    formatter = output._CellFormatter(size)
    cells = np.empty((output._SPARSE + 1, size), np.uint8)
    cells[-1] = ord("\n")
    chunks = []
    for lo in range(0, len(values), size):
        v = values[lo:lo + size]
        formatter(v, cells[:-1, :len(v)])
        chunks.append(cells[:, :len(v)].T.tobytes().translate(None, b"\0"))
    return b"".join(chunks)


def assert_kernel_matches_fmt(values):
    values = np.ascontiguousarray(values, dtype=float)
    got = kernel_bytes(values)
    want = "".join(fmt(v) + "\n" for v in values.tolist()).encode()
    if got != want:
        bad = [(v, g) for v, g, w in zip(values.tolist(), got.split(b"\n"), want.split(b"\n"))
               if g != w]
        pytest.fail(f"{len(bad)} of {len(values)} differ from fmt, first {bad[:3]}")


def _near_ties(rng, n, exponents):
    # 18-digit decimals ending in 5: the doubles nearest them sit close to a
    # rounding tie of the 17-digit form
    mantissas = rng.integers(10 ** 16, 10 ** 17, n).tolist()
    return [float(f"{m}5e{e}") for m, e in zip(mantissas, rng.integers(*exponents, n).tolist())]


def _ulps_around(centres, k):
    up, down, out = centres.copy(), centres.copy(), [centres]
    for _ in range(k):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def _random_bits(rng, n, high=2 ** 64):
    return rng.integers(0, high, n, dtype=np.uint64, endpoint=False).view(np.float64)


# the families hold 1.19 M doubles together
KERNEL_FAMILIES = {
    "near ties": lambda rng: _near_ties(rng, 150_000, (-300, 290)),
    "near ties, fixed notation": lambda rng: _near_ties(rng, 150_000, (-22, 0)),
    "powers of ten and 1-5 ulps either side": lambda rng: _ulps_around(
        np.array([s * float(f"1e{k}") for s in (1, -1) for k in range(-300, 301)]), 5),
    "integers around 2**53": lambda rng: np.concatenate(
        [c + np.arange(-20_000, 20_000) for c in (2.0 ** 53, 2.0 ** 54, 1e16, -1e17)]),
    "subnormals, zeros, inf and nan": lambda rng: np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
         2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308],
        _ulps_around(np.array([1e-280, 1e280, -1e-280, -1e280]), 3),
        _random_bits(rng, 20_000, 2 ** 52), -_random_bits(rng, 20_000, 2 ** 52)]),
    "E = -5, -4, 16 and 17": lambda rng: np.concatenate(
        [_ulps_around(10.0 ** e * np.array([1.0, 9.99999999999999999]), 3) for e in (-5, -4, 16, 17, 18)]
        + [rng.uniform(1.0, 10.0, 20_000) * 10.0 ** e for e in (-5, -4, 16, 17)]),
    "random bit patterns": lambda rng: _random_bits(rng, 500_000),
    "random magnitudes": lambda rng: (rng.standard_normal(100_000)
                                      * 10.0 ** rng.integers(-30, 30, 100_000)),
}


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_kernel_writes_the_bytes_of_fmt(family):
    assert_kernel_matches_fmt(KERNEL_FAMILIES[family](np.random.default_rng(2024)))


@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_kernel_writes_the_bytes_of_fmt_on_any_doubles(values):
    assert_kernel_matches_fmt(values)


@pytest.mark.parametrize("n", [16, output._BLOCK - 1, output._BLOCK, output._BLOCK + 1,
                               3 * output._BLOCK + 1])
def test_state_writer_matches_write_table_at_block_edges(tmp_path, n):
    # a grid has at least 16 points, so 16 rows stand in for a single row
    rng = np.random.default_rng(n)
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n) for _ in range(3)]
    columns[0][::7] = 0.0
    columns[1][::11] = np.nan
    assert_writers_agree(tmp_path, solution_of(columns, x_min=-3.0, x_max=1e-3))
