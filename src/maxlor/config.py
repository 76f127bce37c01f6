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
first, so one round-trip fixes a broken file.  One loop walks the table
over every given key, refusing keys it does not know (``<section>:
unknown key '<k>'``) and values their rule refuses (``<section>: <key>
must be <demand>``); only the rules relating two keys are spelled out
beside it.  It owns what a command reads: from the keys its run reads it
decides which members to rehearse and which keys must be set.  Each
member is built by ``_build_member``, the function ``assemble_run``
calls: width, grid refinement, operator, initial state (the delta-net
sampled), step, step count and march plan.  It reports what each of
them raises, skipping only those whose input failed or was refused, and
records what the member will run for ``validate`` to print; the run
raises the first problem.  The ``psi`` entries, once every one passed its
rows, are built by the sweep's ``build_observables`` for the pairing
window check, and no two may share an ``analysis.observable_label``; the
growth grid goes through ``verify_growth_condition`` at every p of
``growth_p``.
``assemble_run`` turns a config plus a concrete eps into ready-to-solve
pieces.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .analysis import TestFunction2D, _check_window, _window_mask, member_record, observable_label
from .deltanet import DeltaNet, net_from_spec, sample
from .fields import FIELD_NAMES, FieldState, Grid, ModelParams
from .mollifier import DEFAULT_SUPPORTS, Mollifier, make_mollifier
from .regops import RegDerivOperator, make_operator
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


def _merged(section: str, given):
    if given is not None and not isinstance(given, dict):
        return given  # validate_config reports it
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
        eps_schedule=list(sched) if isinstance(sched, list) else sched,
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
    key's default and null would replace it.  A section that is not an
    object is one problem, and every key of it counts as refused.
    """
    if not isinstance(values, dict):  # only a section: a nested object is checked first
        errors.append(f"{name}: must be a JSON object")
        return set(rows)
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


def _off_grid(span, name: str, x) -> list:
    """A point ``x`` outside the grid's ``span`` (None when refused): a probe cut
    there leaves a side with no grid points, which would read as vacuously
    confined, and a world line started there has no field to move in."""
    if span is None or span[0] <= x <= span[1]:
        return []
    return [f"experiment: {name} {x:g} lies outside the grid [{span[0]:g}, {span[1]:g}]"]


def _checked(cfg: RunConfig, key: str, refused: set, reads):
    """The value of ``experiment.<key>`` to check: None when its rule
    refused it, the run's when ``reads`` names it, else the given one."""
    if key in refused:
        return None
    return _experiment_value(cfg, key) if f"experiment.{key}" in reads else cfg.experiment.get(key)


def validate_config(cfg: RunConfig, plans: list | None = None, reads=(),
                    command: str = "validate") -> list:
    """All violations as section-prefixed messages; empty means valid.

    ``plans``, a list, gets what each member will run when the config is
    valid: ``(eps, schedule, record)``, ``schedule`` true for a member on a
    refined grid and ``record`` the sizes a family run records for it in
    ``members`` (``analysis.member_record``).  ``reads`` names the keys
    ``command``'s run reads beyond the sections (``eps``, ``eps_schedule``,
    ``experiment.<key>``): one without a default must be set (``<key>:
    <command> needs '<key>'``), one with a default is checked at the value
    the run uses, and only the members it runs are rehearsed, the
    single-run eps for ``eps``, the schedule's for ``eps_schedule``; with
    no ``reads``, as for ``validate``, every member is.
    """
    errors = [f"config: unknown top-level key {key!r}" for key in cfg.unknown_keys]
    refused = {name: _check(name, getattr(cfg, name), rows, errors)
               for name, rows in _SCHEMA.items()}

    # the rules that relate two keys, each applied once its keys passed
    g = cfg.grid
    if not refused["grid"] & {"x_min", "x_max"} and g["x_min"] >= g["x_max"]:
        errors.append("grid: x_min must be below x_max")
        refused["grid"].add("x_max")
    span = None if refused["grid"] & {"x_min", "x_max"} else (g["x_min"], g["x_max"])
    if not refused["scaling"]:
        try:
            build_scaling(cfg)  # owns the powerlaw exponent range
        except ValueError as exc:
            errors.append(str(exc))
            refused["scaling"].add("exponent")
    net_prof = {} if "profile" in refused["delta_net"] else cfg.delta_net["profile"]
    if net_prof.keys() & {"s_lo", "s_hi"} and None in (net_prof.get("s_lo"), net_prof.get("s_hi")):
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

    # (eps, refine) for every member the command runs: the single run on
    # the configured grid, schedule members on a refined one
    members = []
    if cfg.eps is not None:
        if not _is_num(cfg.eps) or cfg.eps <= 0:
            errors.append("eps: must be a positive number")
        elif not reads or "eps" in reads:
            members.append((float(cfg.eps), False))
    if cfg.eps_schedule is not None:
        sched = cfg.eps_schedule
        if (not isinstance(sched, (list, tuple)) or len(sched) < 2
                or not all(_is_num(e) and e > 0 for e in sched)):
            errors.append("eps_schedule: must list at least 2 positive numbers")
        elif any(b >= a for a, b in zip(sched, sched[1:])):
            errors.append("eps_schedule: values must be strictly decreasing")
        elif not reads or "eps_schedule" in reads:
            members.extend((float(e), True) for e in sched)

    if not any(refused[name] for name in ("grid", "mollifier", "scaling", "delta_net",
                                          "initial")):
        # the window depends on each schedule member's grid
        window = _checked(cfg, "blowup_window", refused["experiment"], reads)
        # T, dt and save_every, each None when its rule refused it
        march = [None if key in refused[section] else getattr(cfg, section)[key]
                 for section, key in (("model", "T"), ("solver", "dt"), ("solver", "save_every"))]
        try:
            net = net_from_spec(cfg.delta_net) if _uses_net(cfg) else None
        except ValueError as exc:
            errors.append(f"delta_net: profile {exc}")
        else:
            found: list = []
            for eps, refine in members:
                member = _build_member(cfg, eps, refine, net, march, window, found)
                if member is not None and plans is not None:
                    plans.append((eps, refine, member[-1]))
            # a single-run eps repeating a schedule member may fail the same way twice
            errors.extend(dict.fromkeys(found))

    # every pairing window lies in [0, T] x [x_min, x_max]: refinement keeps
    # the domain and the last saved state is at T
    window = ((0.0, cfg.model["T"], g["x_min"], g["x_max"])
              if not refused["grid"] and "T" not in refused["model"] else None)
    errors.extend(_check_experiment(cfg, span, window, refused["experiment"],
                                    not refused["scaling"], reads))

    if not isinstance(cfg.seed, int) or isinstance(cfg.seed, bool):
        errors.append("seed: must be an integer")

    # a needed key without a default left unset, or a psi or trajectory_starts left empty
    for need in reads:
        section, _, key = need.rpartition(".")
        if section and (_SCHEMA[section][key][0] is not None or key in refused[section]):
            continue
        value = getattr(cfg, section).get(key) if section else getattr(cfg, key)
        if value is None or (section and not value):
            errors.append(f"{section or key}: {command} needs {key!r}")
    return errors


def _check_experiment(cfg: RunConfig, span, window, refused: set, scaling_ok, reads) -> list:
    """The probe cut and world-line starts against the grid's ``span``, then the
    psi entries and the growth study through the code the run calls on them;
    ``window`` is the solved window the psi supports must lie in; None if refused."""
    errors = []
    x0 = _checked(cfg, "probe_x0", refused, reads)
    if x0 is not None:
        errors.extend(_off_grid(span, "probe_x0", x0))
    for i, w0 in enumerate(_checked(cfg, "trajectory_starts", refused, reads) or ()):
        errors.extend(_off_grid(span, f"trajectory_starts[{i}]", w0))
    first = {}  # each observable label -> the first psi entry with it
    for i, (name, psi) in enumerate(build_observables(cfg) if "psi" not in refused else ()):
        label = observable_label(name, psi)
        if first.setdefault(label, i) != i:
            errors.append(f"experiment.psi[{i}]: repeats the observable {label} "
                          f"of psi[{first[label]}]")
        if window is not None:
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
    with np.errstate(over="ignore"):  # far out s is inf and the profile 0.0
        s = (xs - c) / w
        if kind == "gaussian":
            return amp * np.exp(-(s ** 2))
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
    """A member ready to solve: ``params`` holds eps, ``operator`` the kernel and
    width nu, ``times`` the times its march saves at (``march_plan``'s)."""

    grid: Grid
    net: DeltaNet | None
    operator: RegDerivOperator
    params: ModelParams
    initial: FieldState
    solver: SolverConfig
    times: list


def _uses_net(cfg: RunConfig) -> bool:
    return any(cfg.initial[name]["kind"] == "delta-net" for name in FIELD_NAMES)


def _member_grid(cfg: RunConfig, eps: float, nu: float, net: DeltaNet | None,
                 refine: bool) -> Grid:
    """The configured grid, or with ``refine`` its spacing halved until it
    resolves the kernel's and the net's widths, each ``Mollifier.width``."""
    grid = build_grid(cfg)
    if not refine:
        return grid
    finest = build_mollifier(cfg).width(nu)
    if net is not None:
        finest = min(finest, net.profile.width(net.half_width(eps)))
    while not grid.resolves(finest):
        grid = grid.refined()
        if grid.n > MAX_GRID_POINTS:
            raise ValueError(
                f"grid: resolving width {finest:g} at eps={eps:g} on [{grid.x_min:g}, "
                f"{grid.x_max:g}] needs more than {MAX_GRID_POINTS} points; "
                "shrink the domain or stop the eps schedule earlier"
            )
    return grid


def _build_member(cfg: RunConfig, eps: float, refine: bool, net: DeltaNet | None, march,
                  window, errors: list):
    """The member at ``eps``, on a refined grid with ``refine``, built from
    ``net``, the run's: every refusal is appended to ``errors``, and a
    builder is skipped only when an input it needs failed or was refused,
    so every problem of the member is reported.

    ``march`` is the configured ``(T, dt, save_every)``, each None when
    refused; dt ``"auto"`` is 0.4 of the step bound 0.5/||D||.  A ``window``
    not None is a ``blowup_window`` that must hold a grid point of a refined
    member's grid (``assemble_run`` passes None: ``probe-blowup``'s fold
    checks its own).  Returns ``(grid, operator, initial, dt, times,
    record)``, ``record`` the member's ``member_record``, or None if a piece
    failed or was not built.
    """
    before = len(errors)

    def attempt(fn, *args, tag=False):
        try:
            return fn(*args)
        except ValueError as exc:
            errors.append(f"{exc} (eps={eps:g})" if tag else str(exc))
            return None

    T, dt, save_every = march
    nu = attempt(h_eval, build_scaling(cfg), eps)
    grid = None if nu is None else attempt(_member_grid, cfg, eps, nu, net, refine)
    if grid is None:
        return None
    op = attempt(make_operator, build_mollifier(cfg), nu, grid, tag=True)
    initial = attempt(build_initial_state, cfg, grid, eps, net)
    times = None
    if op is not None and dt is not None:
        dt = 0.4 * step_bound(op.op_norm) if dt == "auto" else float(dt)
        attempt(_check_step, dt, op.op_norm, tag=True)
        n_steps = None if T is None else attempt(step_count, float(T), dt, tag=True)
        if n_steps is not None and save_every is not None:
            _, _, times = march_plan(0.0, float(T), dt, save_every)
    if refine and window is not None:
        attempt(_window_mask, grid, float(window), float(cfg.delta_net["center"]), eps)
    if times is None or len(errors) > before:
        return None
    return grid, op, initial, dt, times, member_record(op, n_steps, len(times))


def assemble_run(cfg: RunConfig, eps: float | None = None,
                 refine: bool = False) -> RunPieces:
    """Build every piece needed to solve one member of the family.

    The member is built as ``validate_config`` builds it, and the first
    problem it reports is raised.  With ``refine=False`` (single runs) no
    silent fixups happen: a configured grid that cannot resolve the kernel
    or the charge profile at this eps is refused.  The eps-family harnesses
    pass ``refine=True``, which treats the configured grid as a floor and
    halves the spacing until both widths span enough cells.
    """
    if eps is None:
        eps = cfg.eps
    if eps is None:
        raise ValueError("config: no eps given and none set in the config")
    eps = float(eps)
    net = net_from_spec(cfg.delta_net) if _uses_net(cfg) else None
    sv, errors = cfg.solver, []
    member = _build_member(cfg, eps, refine, net, (cfg.model["T"], sv["dt"], sv["save_every"]),
                           None, errors)
    if errors:
        raise ValueError(errors[0])
    grid, op, initial, dt, times, _ = member
    q = float(cfg.model["q"])
    if net is not None and cfg.initial["sigma"]["kind"] == "delta-net":
        q = net.mass
    params = ModelParams(B0=float(cfg.model["B0"]), T=float(cfg.model["T"]), eps=eps, q=q)
    solver = SolverConfig(dt=dt, method=sv["method"], save_every=int(sv["save_every"]))
    return RunPieces(grid=grid, net=net, operator=op, params=params, initial=initial,
                     solver=solver, times=times)
