"""Run configuration: JSON schema, validation, and assembly into run pieces.

A config is a plain JSON object with sections ``grid``, ``mollifier``,
``scaling``, ``model``, ``solver``, ``initial``, ``delta_net`` and an
``experiment`` block whose keys the subcommands read, plus a top-level
``eps`` (or ``eps_schedule`` for sweeps) and ``seed``.

``_SCHEMA`` is the one table of what each section may hold: per key, the
value a run uses when the key is absent, the rule a given value must
pass, and what that rule demands.  ``config_from_dict`` writes the
defaults of every section but ``experiment`` into the config, so an
empty config is the point-charge release with the causal left kernel and
the run id covers every default; experiment defaults, and those of the
objects nested in a section, apply when a run reads the key.

``validate_config`` collects every violation instead of stopping at the
first, so one round-trip fixes a broken file.  One loop walks the table,
refusing keys it does not know (``<section>: unknown key '<k>'``) and
values their rule refuses (``<section>: <key> must be <demand>``); only
the rules relating two keys are spelled out beside it.  Then it rehearses
the run: for every eps a run will use (the single-run eps on the
configured grid, each schedule member on its refined grid) it calls the
builders the run calls (scaling, grid refinement, operator, delta-net
sampling, the solver's step bound and step count) and reports what they
raise, and it records what each member will run for ``validate`` to
print; the ``psi`` entries, once every one passed its rows, are built by the
sweep's ``build_observables`` for the pairing window check, and the
growth grid goes through ``verify_growth_condition`` at every p of
``growth_p``.  ``assemble_run`` turns a config plus a concrete eps into
ready-to-solve pieces.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .analysis import TestFunction2D, _check_window, _window_mask, member_record
from .deltanet import DeltaNet, net_from_spec, sample
from .fields import FIELD_NAMES, FieldState, Grid, ModelParams
from .mollifier import DEFAULT_SUPPORTS, Mollifier, make_mollifier
from .regops import MIN_CELLS_PER_WIDTH, RegDerivOperator, make_operator
from .scaling import SCALING_KINDS, ScalingFunction, h_eval, make_scaling, verify_growth_condition
from .solver import METHODS, SolverConfig, _check_step, march_plan, step_bound, step_count

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
    "build_solver_config",
    "build_initial_state",
    "assemble_run",
    "build_observables",
    "MAX_GRID_POINTS",
]

# refinement safety valve: needing more than this is a config mistake
MAX_GRID_POINTS = 600_000


def _is_num(v) -> bool:
    # a finite float, or an int a float holds: the builders call float() on it
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_pos(v) -> bool:
    return _is_num(v) and v > 0


def _is_pos_int(v) -> bool:
    return isinstance(v, int) and _is_num(v) and v >= 1


def _is_num_list(v, ok=lambda x: True) -> bool:
    return isinstance(v, (list, tuple)) and all(_is_num(x) and ok(x) for x in v)


def _is_growth_grid(v) -> bool:
    # what verify_growth_condition requires of its eps grid
    return (_is_num_list(v, lambda e: e > 0) and len(v) >= 4
            and all(b < a for a, b in zip(v, v[1:])))


# the default of a key that has none: it must be given
_GIVEN = object()

_FINITE = (_is_num, "a finite number")
_POSITIVE = (_is_pos, "a positive number")

# key -> (default, rule, demand).  A rule is a predicate the value must pass
# (``demand`` says what it asks), a tuple of the names the value may take,
# a dict: the value is an object with those rows of its own, or a list
# holding one such dict: the value is a list of those objects.  A default
# of None means the key is optional and has none.
_PROFILE = {
    "kind": (_GIVEN, ("zero", "gaussian", "bump", "delta-net"), None),
    # needed by the gaussian and bump kinds
    "width": (None, _is_pos, "a positive width"),
    "amplitude": (1.0, *_FINITE),
    "center": (0.0, *_FINITE),
}
_SHAPED_KINDS = ("gaussian", "bump")

# a sweep observable: the field it pairs and its TestFunction2D
_PSI = {
    "field": ("Q", ("Q",) + FIELD_NAMES, None),
    "t0": (_GIVEN, *_FINITE),
    "x0": (_GIVEN, *_FINITE),
    "r_t": (_GIVEN, *_POSITIVE),
    "r_x": (_GIVEN, *_POSITIVE),
    "amplitude": (1.0, *_FINITE),
}

_MOLLIFIER_KINDS = tuple(sorted(DEFAULT_SUPPORTS))

_SCHEMA = {
    "grid": {
        "x_min": (-4.0, *_FINITE),
        "x_max": (1.0, *_FINITE),
        "n": (1001, lambda v: _is_pos_int(v) and v >= 16, "an integer of at least 16"),
    },
    "mollifier": {
        "kind": ("left", _MOLLIFIER_KINDS, None),
        "support": (None, lambda v: _is_num_list(v) and len(v) == 2 and v[0] < v[1],
                    "a pair [lo, hi] with lo < hi"),
    },
    "scaling": {
        "kind": ("powerlaw", SCALING_KINDS, None),
        "c": (1.0, *_POSITIVE),
        "exponent": (1.0, *_FINITE),
    },
    "model": {
        "B0": (0.0, *_FINITE),
        "T": (0.5, *_POSITIVE),
        "q": (1.0, *_FINITE),
    },
    "solver": {
        "dt": ("auto", lambda v: v == "auto" or _is_pos(v), "a positive number or 'auto'"),
        "method": ("rk4", METHODS, None),
        "save_every": (1, _is_pos_int, "a positive integer"),
        "picard_tol": (1e-10, *_POSITIVE),
        "picard_max_iter": (200, _is_pos_int, "a positive integer"),
        "guard_factor": (10.0, lambda v: _is_num(v) and v >= 1.0, ">= 1"),
    },
    "initial": {
        "E": ({"kind": "zero"}, _PROFILE, None),
        "u": ({"kind": "zero"}, _PROFILE, None),
        "sigma": ({"kind": "delta-net"}, _PROFILE, None),
    },
    "delta_net": {
        "profile": ({"kind": "left"}, {
            "kind": (_GIVEN, _MOLLIFIER_KINDS, None),
            "s_lo": (None, *_FINITE),
            "s_hi": (None, *_FINITE),
        }, None),
        "center": (0.0, *_FINITE),
        "mass": (1.0, *_FINITE),
        "width_scale": (1.0, *_POSITIVE),
        "width_power": (1.0, *_POSITIVE),
    },
    "experiment": {
        "psi": (None, [_PSI], "a list of objects"),
        "probe_x0": (0.05, *_FINITE),
        "blowup_window": (0.25, *_POSITIVE),
        "trajectory_starts": (None, _is_num_list, "a list of finite numbers"),
        "growth_p": ((1, 2), lambda v: _is_num_list(v, lambda p: p >= 1),
                     "a list of numbers >= 1"),
        "growth_eps": (tuple(np.logspace(-3, -12, 10)), _is_growth_grid,
                       "a list of at least 4 strictly decreasing positive numbers"),
    },
}

# the defaults config_from_dict writes into each section; experiment keys
# get theirs when a run reads them, so they stay out of the run id
_WRITTEN = {
    section: {} if section == "experiment" else {
        key: default for key, (default, _, _) in rows.items() if default is not None
    }
    for section, rows in _SCHEMA.items()
}

_KNOWN_TOP = set(_SCHEMA) | {"eps", "eps_schedule", "seed"}


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
    return {**copy.deepcopy(_WRITTEN[section]), **copy.deepcopy(given or {})}


def config_from_dict(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ValueError("config: top level must be a JSON object")
    unknown = tuple(sorted(k for k in d if k not in _KNOWN_TOP))
    sections = {name: _merged(name, d.get(name)) for name in _SCHEMA}
    given = {key: d[key] for key in ("eps", "seed") if key in d}
    sched = d.get("eps_schedule")
    return RunConfig(
        **sections,
        **given,
        eps_schedule=(list(sched) if isinstance(sched, list) else sched) if sched else None,
        unknown_keys=unknown,
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def config_to_dict(cfg: RunConfig) -> dict:
    return {
        **{name: copy.deepcopy(getattr(cfg, name)) for name in _SCHEMA},
        "eps": cfg.eps,
        "eps_schedule": cfg.eps_schedule,
        "seed": cfg.seed,
    }


def _read(values: dict, rows: dict, key: str):
    """The value of ``key`` a run uses: the one given, or the row's default."""
    value = values.get(key)
    return rows[key][0] if value is None else value


def _experiment_value(cfg: RunConfig, key: str):
    """The value of ``experiment.<key>`` a run uses."""
    return _read(cfg.experiment, _SCHEMA["experiment"], key)


# ---------------------------------------------------------------------------
# validation


def _check(name: str, values: dict, rows: dict, errors: list) -> set:
    """Report each key of ``values`` that ``rows`` does not know and each
    value its row's rule refuses, prefixed ``<name>:`` (``<name>.<key>:`` in
    a nested object, ``<name>.<key>[i]:`` in a list item); return the
    refused keys.

    A key set to null counts as absent, except where the config holds the
    key's default and null would replace it.
    """
    # the keys of ``initial`` are fields, each naming its profile initial.<field>
    noun = "field" if name == "initial" else "key"
    errors.extend(f"{name}: unknown {noun} {key!r}" for key in values if key not in rows)
    written = _WRITTEN.get(name, {})
    refused = set()
    for key, (default, rule, demand) in rows.items():
        value = values.get(key)
        if value is None and default is not _GIVEN and key not in written:
            continue
        if isinstance(rule, dict):
            if not isinstance(value, dict):
                errors.append(f"{name}.{key}: must be an object" if name == "initial"
                              else f"{name}: {key} must be an object")
                refused.add(key)
            elif _check(f"{name}.{key}", value, rule, errors):
                refused.add(key)
        elif isinstance(rule, list):
            if not isinstance(value, (list, tuple)):
                errors.append(f"{name}: {key} must be {demand}")
                refused.add(key)
                continue
            for i, item in enumerate(value):
                where = f"{name}.{key}[{i}]"
                if not isinstance(item, dict):
                    errors.append(f"{where}: must be an object")
                    refused.add(key)
                elif _check(where, item, rule[0], errors):
                    refused.add(key)
        elif isinstance(rule, tuple):
            if value not in rule:
                errors.append(f"{name}: unknown {key} {value!r}; choose from {', '.join(rule)}")
                refused.add(key)
        elif not rule(value):
            errors.append(f"{name}: {key} must be {demand}")
            refused.add(key)
    return refused


def _off_grid(cfg: RunConfig, name: str, x) -> list:
    """A point ``x`` outside a valid grid: a probe cut there leaves a side
    with no grid points, which would read as vacuously confined, and a world
    line started there has no field to move in."""
    x_min, x_max = cfg.grid.get("x_min"), cfg.grid.get("x_max")
    if not (_is_num(x_min) and _is_num(x_max) and x_min < x_max) or x_min <= x <= x_max:
        return []
    return [f"experiment: {name} {x:g} lies outside the grid [{x_min:g}, {x_max:g}]"]


def validate_config(cfg: RunConfig, plans: list | None = None) -> list:
    """All violations as section-prefixed messages; empty means valid.

    ``plans``, a list, gets what each member will run when the config is
    valid: ``(eps, schedule, record)``, ``schedule`` true for a member on a
    refined grid and ``record`` the sizes a family run records for it in
    ``members`` (``analysis.member_record``).
    """
    errors = [f"config: unknown top-level key {key!r}" for key in cfg.unknown_keys]
    refused = {name: _check(name, getattr(cfg, name), rows, errors)
               for name, rows in _SCHEMA.items()}

    # the rules that relate two keys, each applied once its keys passed
    g, net_prof = cfg.grid, cfg.delta_net.get("profile")
    if not refused["grid"] & {"x_min", "x_max"} and g["x_min"] >= g["x_max"]:
        errors.append("grid: x_min must be below x_max")
        refused["grid"].add("x_max")
    if not refused["scaling"]:
        try:
            build_scaling(cfg)  # owns the powerlaw exponent range
        except ValueError as exc:
            errors.append(str(exc))
            refused["scaling"].add("exponent")
    if ("profile" not in refused["delta_net"] and net_prof.keys() & {"s_lo", "s_hi"}
            and None in (net_prof.get("s_lo"), net_prof.get("s_hi"))):
        errors.append("delta_net: profile s_lo and s_hi must be given together as numbers")
        refused["delta_net"].add("profile")
    for name in _SCHEMA["initial"]:
        prof = cfg.initial[name] if name not in refused["initial"] else {}
        if prof.get("kind") in _SHAPED_KINDS and prof.get("width") is None:
            errors.append(f"initial.{name}: {prof['kind']} profile needs a positive width")
            refused["initial"].add(name)
    if not refused["mollifier"]:
        try:
            build_mollifier(cfg)  # owns the one-sided support rule
        except ValueError as exc:
            errors.append(str(exc))
            refused["mollifier"].add("support")

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

    if not any(refused[name] for name in ("grid", "mollifier", "scaling", "delta_net",
                                          "initial")):
        # a given blowup_window depends on each schedule member's grid
        window = (None if "blowup_window" in refused["experiment"]
                  else cfg.experiment.get("blowup_window"))
        # T, dt and save_every, each None when its rule refused it
        march = [None if key in refused[section] else getattr(cfg, section)[key]
                 for section, key in (("model", "T"), ("solver", "dt"), ("solver", "save_every"))]
        # a single-run eps repeating a schedule member may fail the same way twice
        errors.extend(dict.fromkeys(_rehearse(cfg, members, window, march,
                                              [] if plans is None else plans)))

    # every pairing window lies in [0, T] x [x_min, x_max]: refinement keeps
    # the domain and the last saved state is at T
    window = ((0.0, cfg.model["T"], g["x_min"], g["x_max"])
              if not refused["grid"] and "T" not in refused["model"] else None)
    errors.extend(_check_experiment(cfg, window, refused["experiment"],
                                    not refused["scaling"]))

    if not isinstance(cfg.seed, int) or isinstance(cfg.seed, bool):
        errors.append("seed: must be an integer")
    return errors


def _check_experiment(cfg: RunConfig, window, refused: set, scaling_ok: bool) -> list:
    """The given probe cut against the grid, then the psi entries and the
    growth study through the code the run calls on them; ``window`` is the
    solved window the psi supports must lie in, None when refused."""
    errors = []
    x0 = cfg.experiment.get("probe_x0")
    if "probe_x0" not in refused and x0 is not None:
        errors.extend(_off_grid(cfg, "probe_x0", x0))
    if "trajectory_starts" not in refused:
        for i, w0 in enumerate(cfg.experiment.get("trajectory_starts") or ()):
            errors.extend(_off_grid(cfg, f"trajectory_starts[{i}]", w0))
    if "psi" not in refused and window is not None:
        for i, (_, psi) in enumerate(build_observables(cfg)):
            try:
                _check_window(psi, *window)
            except ValueError as exc:
                errors.append(f"experiment.psi[{i}]: {exc}")
    if scaling_ok and not refused & {"growth_p", "growth_eps"}:
        # the rules above leave the scaling's own domain and the range of
        # h^-p to fail; check-scaling runs every p of growth_p
        scl, eps_grid = build_scaling(cfg), _experiment_value(cfg, "growth_eps")
        try:
            for p in _experiment_value(cfg, "growth_p"):
                verify_growth_condition(scl, p, eps_grid)
        except ValueError as exc:
            errors.append(f"experiment: growth_eps: {exc}")
    return errors


def _rehearse(cfg: RunConfig, members: list, window, march, plans: list) -> list:
    """What the builders of ``assemble_run`` and the solver raise for each
    ``(eps, refine)`` member; a failed step skips the steps needing its result.

    A given ``blowup_window`` must hold a grid point of each schedule
    member's grid.  ``march`` is ``(T, dt, save_every)``, each None when
    refused; each member whose march is planned goes to ``plans``.
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
        net = net_from_spec(cfg.delta_net) if _uses_net(cfg) else None
    except ValueError as exc:
        return [f"delta_net: profile {exc}"]
    for eps, refine in members:
        nu = attempt(h_eval, scl, eps)
        grid = None if nu is None else attempt(_member_grid, cfg, eps, nu, net, refine)
        if grid is None:
            continue
        op = attempt(make_operator, moll, nu, grid, eps=eps)
        if net is not None:
            attempt(sample, net, eps, grid)
        T, dt, save_every = march
        if op is not None and dt is not None:
            dt = _step(dt, op.op_norm)
            attempt(_check_step, dt, op.op_norm, eps=eps)
            n_steps = None if T is None else attempt(step_count, float(T), dt, eps=eps)
            if n_steps is not None and save_every is not None:
                _, _, saved = march_plan(0.0, float(T), dt, save_every)
                plans.append((eps, refine, member_record(op, n_steps, len(saved))))
        if refine and window is not None:
            attempt(_window_mask, grid, float(window), float(cfg.delta_net["center"]), eps)
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
    return make_scaling(kind=s["kind"], c=float(s["c"]), exponent=float(s["exponent"]))


def build_observables(cfg: RunConfig) -> list:
    """The sweep's ``(field, TestFunction2D)`` pair of each ``experiment.psi`` entry."""
    return [(_read(spec, _PSI, "field"),
             TestFunction2D(**{key: float(_read(spec, _PSI, key)) for key in list(_PSI)[1:]}))
            for spec in _experiment_value(cfg, "psi") or ()]


def _step(dt, op_norm: float) -> float:
    """A configured dt, with ``"auto"`` resolved against ``op_norm``."""
    return 0.4 * step_bound(op_norm) if dt == "auto" else float(dt)


def build_solver_config(cfg: RunConfig, op_norm: float) -> SolverConfig:
    """The solver section, with dt ``"auto"`` resolved against ``op_norm``."""
    sv = cfg.solver
    return SolverConfig(
        dt=_step(sv["dt"], op_norm),
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
    if kind == "delta-net":
        return sample(net, eps, grid)
    if kind not in _SHAPED_KINDS:
        raise ValueError(f"initial: unknown profile kind {kind!r}")
    amp = float(_read(prof, _PROFILE, "amplitude"))
    c = float(_read(prof, _PROFILE, "center"))
    w = float(prof["width"])
    if kind == "gaussian":
        return amp * np.exp(-(((xs - c) / w) ** 2))
    s = (xs - c) / w
    out = np.zeros(grid.n)
    inside = np.abs(s) < 1.0
    out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def build_initial_state(cfg: RunConfig, grid: Grid, eps: float,
                        net: DeltaNet | None) -> FieldState:
    """The t = 0 state on ``grid``; a delta-net profile samples ``net``, the run's, at eps."""
    fields = {name: _profile_values(cfg.initial[name], grid, eps, net) for name in FIELD_NAMES}
    return FieldState(t=0.0, **fields)


@dataclass
class RunPieces:
    """A member ready to solve: ``params`` holds eps, ``operator`` the kernel and width nu."""

    grid: Grid
    net: DeltaNet | None
    operator: RegDerivOperator
    params: ModelParams
    initial: FieldState
    solver: SolverConfig


def _uses_net(cfg: RunConfig) -> bool:
    return any(cfg.initial[name]["kind"] == "delta-net" for name in FIELD_NAMES)


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
    nu = h_eval(build_scaling(cfg), eps)
    net = net_from_spec(cfg.delta_net) if _uses_net(cfg) else None
    grid = _member_grid(cfg, eps, nu, net, refine)
    op = make_operator(build_mollifier(cfg), nu, grid)
    solver_cfg = build_solver_config(cfg, op.op_norm)
    q = float(cfg.model["q"])
    if net is not None and cfg.initial["sigma"]["kind"] == "delta-net":
        q = net.mass
    params = ModelParams(B0=float(cfg.model["B0"]), T=float(cfg.model["T"]), eps=eps, q=q)
    return RunPieces(grid=grid, net=net, operator=op, params=params,
                     initial=build_initial_state(cfg, grid, eps, net), solver=solver_cfg)
