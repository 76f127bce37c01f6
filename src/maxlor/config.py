"""Run configuration: JSON schema, validation, and assembly into run pieces.

A config is a plain JSON object with sections ``grid``, ``mollifier``,
``scaling``, ``model``, ``solver``, ``initial``, ``delta_net`` and an
``experiment`` block whose keys the subcommands read (``_EXPERIMENT``
gives each its default and its rule), plus a top-level ``eps`` (or
``eps_schedule`` for sweeps) and ``seed``.  Every section has defaults
chosen so that an empty config describes the basic point-charge release
experiment with the causal left kernel.

``validate_config`` collects every violation instead of stopping at the
first, with messages prefixed by the section they concern, so one
round-trip fixes a broken file.  It checks the raw JSON types and ranges
of each section, then rehearses the run: for every eps a run will use
(the single-run eps on the configured grid, each schedule member on its
refined grid) it calls the builders the run calls (scaling, grid
refinement, operator, delta-net sampling, the solver's step bound) and
reports what they raise; each ``psi`` entry goes through the sweep's
``psi_from_dict`` and the pairing window check, and the growth grid
through ``verify_growth_condition``.  ``assemble_run`` turns a config plus a
concrete eps into ready-to-solve pieces.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import _check_window, psi_from_dict
from .deltanet import DeltaNet, net_from_spec, sample
from .fields import FIELD_NAMES, FieldState, Grid, ModelParams
from .mollifier import DEFAULT_SUPPORTS, Mollifier, make_mollifier
from .regops import MIN_CELLS_PER_WIDTH, RegDerivOperator, make_operator
from .scaling import ScalingFunction, h_eval, make_scaling, verify_growth_condition
from .solver import SolverConfig, _check_step, step_bound

__all__ = [
    "RunConfig",
    "RunPieces",
    "config_from_dict",
    "load_config",
    "config_to_dict",
    "validate_config",
    "build_grid",
    "build_mollifier",
    "build_scaling",
    "build_delta_net",
    "build_solver_config",
    "build_initial_state",
    "assemble_run",
    "MAX_GRID_POINTS",
]

# refinement safety valve: needing more than this is a config mistake
MAX_GRID_POINTS = 600_000

_DEFAULTS = {
    "grid": {"x_min": -4.0, "x_max": 1.0, "n": 1001},
    "mollifier": {"kind": "left"},
    "scaling": {"kind": "powerlaw", "c": 1.0, "exponent": 1.0},
    "model": {"B0": 0.0, "T": 0.5, "q": 1.0},
    "solver": {
        "dt": "auto",
        "method": "rk4",
        "save_every": 1,
        "picard_tol": 1e-10,
        "picard_max_iter": 200,
        "guard_factor": 10.0,
    },
    "initial": {
        "E": {"kind": "zero"},
        "u": {"kind": "zero"},
        "sigma": {"kind": "delta-net"},
    },
    "delta_net": {
        "profile": {"kind": "left"},
        "center": 0.0,
        "mass": 1.0,
        "width_scale": 1.0,
        "width_power": 1.0,
    },
    "experiment": {},
}

_KNOWN_TOP = set(_DEFAULTS) | {"eps", "eps_schedule", "seed"}

_PROFILE_KINDS = ("zero", "gaussian", "bump", "delta-net")


@dataclass
class RunConfig:
    grid: dict = field(default_factory=dict)
    mollifier: dict = field(default_factory=dict)
    scaling: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    initial: dict = field(default_factory=dict)
    delta_net: dict = field(default_factory=dict)
    experiment: dict = field(default_factory=dict)
    eps: float | None = 0.1
    eps_schedule: list | None = None
    seed: int = 0
    unknown_keys: tuple = ()


def _merged(section: str, given) -> dict:
    if given is not None and not isinstance(given, dict):
        raise ValueError(f"{section}: must be a JSON object")
    return {**copy.deepcopy(_DEFAULTS[section]), **copy.deepcopy(given or {})}


def config_from_dict(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ValueError("config: top level must be a JSON object")
    unknown = tuple(sorted(k for k in d if k not in _KNOWN_TOP))
    sections = {name: _merged(name, d.get(name)) for name in _DEFAULTS}
    sched = d.get("eps_schedule")
    return RunConfig(
        **sections,
        eps=(d["eps"] if "eps" in d else 0.1),
        eps_schedule=(list(sched) if isinstance(sched, list) else sched) if sched else None,
        seed=d.get("seed", 0),
        unknown_keys=unknown,
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def config_to_dict(cfg: RunConfig) -> dict:
    return {
        **{name: copy.deepcopy(getattr(cfg, name)) for name in _DEFAULTS},
        "eps": cfg.eps,
        "eps_schedule": cfg.eps_schedule,
        "seed": cfg.seed,
    }


# ---------------------------------------------------------------------------
# validation


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_pos_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _is_num_list(v, ok=lambda x: True) -> bool:
    return isinstance(v, (list, tuple)) and all(_is_num(x) and ok(x) for x in v)


def _is_growth_grid(v) -> bool:
    # what verify_growth_condition requires of its eps grid
    return (_is_num_list(v, lambda e: e > 0) and len(v) >= 4
            and all(b < a for a, b in zip(v, v[1:])))


# The experiment keys the subcommands read: the value a run uses when the key
# is absent or null, the rule a given value must pass, and what that rule asks.
_EXPERIMENT = {
    "psi": (None, lambda v: isinstance(v, (list, tuple)), "a list of objects"),
    "probe_x0": (0.05, _is_num, "a finite number"),
    "blowup_window": (0.25, lambda v: _is_num(v) and v > 0, "a positive number"),
    "trajectory_starts": (None, _is_num_list, "a list of finite numbers"),
    "trajectory_steps": (None, _is_pos_int, "a positive integer"),
    "growth_p": ((1, 2), lambda v: _is_num_list(v, lambda p: p >= 1),
                 "a list of numbers >= 1"),
    "growth_eps": (tuple(np.logspace(-3, -12, 10)), _is_growth_grid,
                   "a list of at least 4 strictly decreasing positive numbers"),
}


def _experiment_value(cfg: RunConfig, key: str):
    """The value of ``experiment.<key>`` a run uses."""
    value = cfg.experiment.get(key)
    return _EXPERIMENT[key][0] if value is None else value


def _check_profile(name: str, prof, errors: list, has_net: bool) -> bool:
    """Report problems with one initial profile; False when its kind is unusable."""
    if not isinstance(prof, dict):
        errors.append(f"initial.{name}: must be an object")
        return False
    kind = prof.get("kind")
    if kind not in _PROFILE_KINDS:
        errors.append(
            f"initial.{name}: unknown kind {kind!r}; choose from {', '.join(_PROFILE_KINDS)}"
        )
        return False
    if kind in ("gaussian", "bump"):
        if not _is_num(prof.get("width")) or prof.get("width", 0) <= 0:
            errors.append(f"initial.{name}: {kind} profile needs a positive width")
        if not _is_num(prof.get("amplitude", 1.0)):
            errors.append(f"initial.{name}: amplitude must be a finite number")
        if not _is_num(prof.get("center", 0.0)):
            errors.append(f"initial.{name}: center must be a finite number")
    if kind == "delta-net" and not has_net:
        errors.append(f"initial.{name}: kind 'delta-net' needs a delta_net section")
    return True


def validate_config(cfg: RunConfig) -> list:
    """All violations as section-prefixed messages; empty means valid."""
    errors = [f"config: unknown top-level key {key!r}" for key in cfg.unknown_keys]
    for section in ("grid", "model", "solver"):
        errors.extend(
            f"{section}: unknown key {key!r}"
            for key in getattr(cfg, section) if key not in _DEFAULTS[section]
        )

    g = cfg.grid
    grid_ok = True
    if not _is_num(g.get("x_min")) or not _is_num(g.get("x_max")):
        errors.append("grid: x_min and x_max must be finite numbers")
        grid_ok = False
    elif g["x_min"] >= g["x_max"]:
        errors.append("grid: x_min must be below x_max")
        grid_ok = False
    n = g.get("n")
    if not _is_pos_int(n) or n < 16:
        errors.append("grid: n must be an integer of at least 16")
        grid_ok = False

    m = cfg.mollifier
    moll_ok = True
    if m.get("kind") not in tuple(DEFAULT_SUPPORTS):
        errors.append(
            f"mollifier: unknown kind {m.get('kind')!r}; choose from "
            f"{', '.join(sorted(DEFAULT_SUPPORTS))}"
        )
        moll_ok = False
    sup = m.get("support")
    if sup is not None:
        if (not isinstance(sup, (list, tuple)) or len(sup) != 2
                or not all(_is_num(v) for v in sup) or sup[0] >= sup[1]):
            errors.append("mollifier: support must be a pair [lo, hi] with lo < hi")
            moll_ok = False
    if moll_ok:
        try:
            build_mollifier(cfg)  # owns the one-sided support rule
        except ValueError as exc:
            errors.append(str(exc))
            moll_ok = False

    s = cfg.scaling
    scaling_ok = True
    if s.get("kind") not in ("loglog", "powerlaw", "constant"):
        errors.append(
            f"scaling: unknown kind {s.get('kind')!r}; choose loglog, powerlaw or constant"
        )
        scaling_ok = False
    if not _is_num(s.get("c")) or s.get("c", 0) <= 0:
        errors.append("scaling: c must be a positive number")
        scaling_ok = False
    exp = s.get("exponent", 1.0)
    if not _is_num(exp):
        errors.append("scaling: exponent must be a finite number")
        scaling_ok = False
    elif s.get("kind") == "powerlaw" and not (0.0 < exp <= 1.0):
        errors.append("scaling: powerlaw exponent must lie in (0, 1]")
        scaling_ok = False

    # (eps, refine) for every member a run builds: the single run on the
    # configured grid, schedule members on a refined one
    members = []
    if cfg.eps is not None:
        if not _is_num(cfg.eps) or cfg.eps <= 0:
            errors.append("eps: must be a positive number")
        else:
            members.append((float(cfg.eps), False))
    if cfg.eps_schedule is not None:
        sched = cfg.eps_schedule
        if (not isinstance(sched, (list, tuple)) or len(sched) < 2
                or not all(_is_num(e) and e > 0 for e in sched)):
            errors.append("eps_schedule: must list at least 2 positive numbers")
        elif any(b >= a for a, b in zip(sched, sched[1:])):
            errors.append("eps_schedule: values must be strictly decreasing")
        else:
            members.extend((float(e), True) for e in sched)

    md = cfg.model
    if not _is_num(md.get("B0")):
        errors.append("model: B0 must be a finite number")
    t_ok = _is_num(md.get("T")) and md["T"] > 0
    if not t_ok:
        errors.append("model: T must be a positive number")
    if not _is_num(md.get("q")):
        errors.append("model: q must be a finite number")

    sv = cfg.solver
    dt = sv.get("dt")
    if dt != "auto" and (not _is_num(dt) or dt <= 0):
        errors.append("solver: dt must be a positive number or 'auto'")
    if sv.get("method") not in ("rk4", "picard"):
        errors.append(f"solver: unknown method {sv.get('method')!r}; choose rk4 or picard")
    if not _is_pos_int(sv.get("save_every")):
        errors.append("solver: save_every must be a positive integer")
    if not _is_num(sv.get("picard_tol")) or sv.get("picard_tol", 0) <= 0:
        errors.append("solver: picard_tol must be a positive number")
    if not _is_pos_int(sv.get("picard_max_iter")):
        errors.append("solver: picard_max_iter must be a positive integer")
    gf = sv.get("guard_factor")
    if not _is_num(gf) or gf < 1.0:
        errors.append("solver: guard_factor must be >= 1")

    n_before = len(errors)
    has_net = bool(cfg.delta_net)
    if has_net:
        dn = cfg.delta_net
        prof = dn.get("profile", {})
        if not isinstance(prof, dict) or prof.get("kind") not in tuple(DEFAULT_SUPPORTS):
            errors.append("delta_net: profile.kind must name a mollifier kind")
        elif ("s_lo" in prof or "s_hi" in prof) and not (
                _is_num(prof.get("s_lo")) and _is_num(prof.get("s_hi"))):
            errors.append("delta_net: profile s_lo and s_hi must be given together as numbers")
        for key in ("center", "mass", "width_scale", "width_power"):
            if not _is_num(dn.get(key)):
                errors.append(f"delta_net: {key} must be a finite number")
        if _is_num(dn.get("width_scale")) and dn["width_scale"] <= 0:
            errors.append("delta_net: width_scale must be positive")
        if _is_num(dn.get("width_power")) and dn["width_power"] <= 0:
            errors.append("delta_net: width_power must be positive")
    net_ok = len(errors) == n_before

    # a list, not a generator: every profile reports its problems
    initial_ok = all([
        _check_profile(name, cfg.initial.get(name, {"kind": "zero"}), errors, has_net)
        for name in ("E", "u", "sigma")
    ])
    for name in cfg.initial:
        if name not in ("E", "u", "sigma"):
            errors.append(f"initial: unknown field {name!r}; expected E, u, sigma")

    if grid_ok and moll_ok and scaling_ok and net_ok and initial_ok:
        # a single-run eps repeating a schedule member may fail the same way twice
        errors.extend(dict.fromkeys(_rehearse(cfg, members)))

    # every pairing window lies in [0, T] x [x_min, x_max]: refinement keeps
    # the domain and the last saved state is at T
    window = (0.0, md["T"], g["x_min"], g["x_max"]) if grid_ok and t_ok else None
    errors.extend(_check_experiment(cfg, window, scaling_ok))

    if not isinstance(cfg.seed, int) or isinstance(cfg.seed, bool):
        errors.append("seed: must be an integer")
    return errors


def _check_experiment(cfg: RunConfig, window, scaling_ok: bool) -> list:
    """Each given experiment key against its rule, then the psi entries and
    the growth study through the code the run calls on them."""
    errors = []
    ok = {}
    for key, (_, rule, demand) in _EXPERIMENT.items():
        value = cfg.experiment.get(key)
        ok[key] = value is None or rule(value)
        if not ok[key]:
            errors.append(f"experiment: {key} must be {demand}")
    x0 = cfg.experiment.get("probe_x0")
    if ok["probe_x0"] and x0 is not None and window is not None:
        x_min, x_max = window[2:]
        if not x_min <= x0 <= x_max:
            # a side of the cut with no grid points would be vacuously confined
            errors.append(f"experiment: probe_x0 {x0:g} lies outside the grid "
                          f"[{x_min:g}, {x_max:g}]")
    if ok["psi"]:
        for i, spec in enumerate(_experiment_value(cfg, "psi") or ()):
            errors.extend(f"experiment: psi[{i}] {problem}"
                          for problem in _psi_problems(spec, window))
    if scaling_ok and ok["growth_eps"]:
        # the rules above leave only the scaling's own domain to fail, for any p
        try:
            verify_growth_condition(build_scaling(cfg), 1, _experiment_value(cfg, "growth_eps"))
        except ValueError as exc:
            errors.append(f"experiment: growth_eps: {exc}")
    return errors


def _psi_problems(spec, window) -> list:
    if not isinstance(spec, dict):
        return ["must be an object"]
    problems = []
    field_name = spec.get("field", "Q")
    if field_name not in ("Q",) + FIELD_NAMES:
        problems.append(f"has unknown field {field_name!r}; choose Q, {', '.join(FIELD_NAMES)}")
    try:
        psi = psi_from_dict(spec)
        if window is not None:
            _check_window(psi, *window)
    except KeyError as exc:
        problems.append(f"is missing {exc}")
    except (TypeError, ValueError) as exc:
        problems.append(f"is invalid: {exc}")
    return problems


def _rehearse(cfg: RunConfig, members: list) -> list:
    """What the builders of ``assemble_run`` and the solver raise for each
    ``(eps, refine)`` member; a failed step skips the steps needing its result.
    """
    errors: list = []

    def attempt(fn, *args, eps=None):
        try:
            return fn(*args)
        except ValueError as exc:
            errors.append(str(exc) if eps is None else f"{exc} (eps={eps:g})")
            return None

    moll = build_mollifier(cfg)
    scl = build_scaling(cfg)
    try:
        net = build_delta_net(cfg) if _uses_net(cfg) else None
    except ValueError as exc:
        return [f"delta_net: profile {exc}"]
    dt = cfg.solver["dt"]
    for eps, refine in members:
        nu = attempt(h_eval, scl, eps)
        grid = None if nu is None else attempt(_member_grid, cfg, eps, nu, net, refine)
        if grid is None:
            continue
        op = attempt(make_operator, moll, nu, grid, eps=eps)
        if net is not None:
            attempt(sample, net, eps, grid)
        if op is not None and _is_num(dt) and dt > 0:
            attempt(_check_step, float(dt), op.op_norm, eps=eps)
    return errors


# ---------------------------------------------------------------------------
# builders


def build_grid(cfg: RunConfig) -> Grid:
    g = cfg.grid
    return Grid(x_min=float(g["x_min"]), x_max=float(g["x_max"]), n=int(g["n"]))


def build_mollifier(cfg: RunConfig) -> Mollifier:
    m = cfg.mollifier
    sup = m.get("support")
    return make_mollifier(kind=m["kind"], support=tuple(sup) if sup else None)


def build_scaling(cfg: RunConfig) -> ScalingFunction:
    s = cfg.scaling
    return make_scaling(kind=s["kind"], c=float(s["c"]), exponent=float(s.get("exponent", 1.0)))


def build_delta_net(cfg: RunConfig) -> DeltaNet | None:
    if not cfg.delta_net:
        return None
    return net_from_spec(cfg.delta_net)


def build_solver_config(cfg: RunConfig, op_norm: float | None = None) -> SolverConfig:
    sv = cfg.solver
    dt = sv["dt"]
    if dt == "auto":
        if op_norm is None:
            raise ValueError("solver: dt 'auto' needs the operator norm to resolve")
        dt = 0.4 * step_bound(op_norm)
    return SolverConfig(
        dt=float(dt),
        method=sv["method"],
        save_every=int(sv["save_every"]),
        picard_tol=float(sv["picard_tol"]),
        picard_max_iter=int(sv["picard_max_iter"]),
        guard_factor=float(sv["guard_factor"]),
    )


def _profile_values(prof: dict, grid: Grid, eps: float, net: DeltaNet | None) -> np.ndarray:
    kind = prof["kind"]
    xs = grid.xs
    if kind == "zero":
        return np.zeros(grid.n)
    if kind == "gaussian":
        amp = float(prof.get("amplitude", 1.0))
        c = float(prof.get("center", 0.0))
        w = float(prof["width"])
        return amp * np.exp(-(((xs - c) / w) ** 2))
    if kind == "bump":
        amp = float(prof.get("amplitude", 1.0))
        c = float(prof.get("center", 0.0))
        w = float(prof["width"])
        s = (xs - c) / w
        out = np.zeros(grid.n)
        inside = np.abs(s) < 1.0
        out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
        return out
    if kind == "delta-net":
        if net is None:
            raise ValueError("initial: delta-net profile without a delta_net section")
        return sample(net, eps, grid)
    raise ValueError(f"initial: unknown profile kind {kind!r}")


def build_initial_state(cfg: RunConfig, grid: Grid, eps: float,
                        net: DeltaNet | None = None) -> FieldState:
    if net is None:
        net = build_delta_net(cfg)
    fields = {
        name: _profile_values(cfg.initial[name], grid, eps, net)
        for name in ("E", "u", "sigma")
    }
    return FieldState(t=0.0, E=fields["E"], u=fields["u"], sigma=fields["sigma"])


@dataclass
class RunPieces:
    grid: Grid
    mollifier: Mollifier
    scaling: ScalingFunction
    eps: float
    nu: float
    net: DeltaNet | None
    operator: RegDerivOperator
    params: ModelParams
    initial: FieldState
    solver: SolverConfig


def _uses_net(cfg: RunConfig) -> bool:
    return any(cfg.initial[name]["kind"] == "delta-net" for name in ("E", "u", "sigma"))


def _member_grid(cfg: RunConfig, eps: float, nu: float, net: DeltaNet | None,
                 refine: bool) -> Grid:
    """The configured grid, or with ``refine`` its spacing halved until the
    kernel width and the net width each span enough cells."""
    grid = build_grid(cfg)
    if not refine:
        return grid
    finest = nu if net is None else min(nu, net.half_width(eps))
    n = grid.n
    span = grid.x_max - grid.x_min
    while span / (n - 1) > finest / MIN_CELLS_PER_WIDTH:
        n = 2 * (n - 1) + 1
        if n > MAX_GRID_POINTS:
            raise ValueError(
                f"grid: resolving width {finest:g} at eps={eps:g} on [{grid.x_min:g}, "
                f"{grid.x_max:g}] needs more than {MAX_GRID_POINTS} points; "
                "shrink the domain or stop the eps schedule earlier"
            )
    return grid if n == grid.n else Grid(x_min=grid.x_min, x_max=grid.x_max, n=n)


def assemble_run(cfg: RunConfig, eps: float | None = None,
                 refine: bool = False) -> RunPieces:
    """Build every piece needed to solve one member of the family.

    With ``refine=False`` (single runs) no silent fixups happen: if the
    configured grid cannot resolve the kernel or the charge profile at
    this eps, the corresponding builder raises the same message
    ``validate_config`` would report.  The eps-family harnesses pass
    ``refine=True``, which treats the configured grid as a floor and
    halves the spacing until both widths span enough cells.
    """
    if eps is None:
        eps = cfg.eps
    if eps is None:
        raise ValueError("config: no eps given and none set in the config")
    eps = float(eps)
    moll = build_mollifier(cfg)
    scl = build_scaling(cfg)
    nu = h_eval(scl, eps)
    net = build_delta_net(cfg) if _uses_net(cfg) else None
    grid = _member_grid(cfg, eps, nu, net, refine)
    op = make_operator(moll, nu, grid)
    solver_cfg = build_solver_config(cfg, op_norm=op.op_norm)
    q = float(cfg.model["q"])
    if net is not None and cfg.initial["sigma"]["kind"] == "delta-net":
        q = net.mass
    params = ModelParams(B0=float(cfg.model["B0"]), T=float(cfg.model["T"]), eps=eps, q=q)
    initial = build_initial_state(cfg, grid, eps, net=net)
    return RunPieces(
        grid=grid, mollifier=moll, scaling=scl, eps=eps, nu=nu, net=net,
        operator=op, params=params, initial=initial, solver=solver_cfg,
    )
