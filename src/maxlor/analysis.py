"""Experiment harnesses on solved runs.

Pairing against smooth test functions (:class:`Pairing`), probing
one-sided support (:class:`SupportProbe`), measuring the gap to the
linearized closed form (:class:`LinearGaps`) and tracking the interaction
peak are each one fold over saved states: a callable that a run hangs on
the solver's ``on_save`` hook, finished by ``result()``.  A stored
solution feeds a fold with ``sol.replay(fold)``.  Every command marches
through one member runner, ``run_member``, which feeds the fold and
records the march's sizes; the sweep and the blow-up probe walk their eps
family through it (pooled if asked), keeping a member that raises as an
"error" row.  A fold that reads part of the grid holds it as a slice of
columns: a pairing its bump's, the support probe each half-line, the peak its window.
The process pool is imported only when ``workers`` is above 1, and the
64-node Gauss-Legendre rule of the obstruction's pairing target is built
on first use, so a run that computes no pairing target never loads
``numpy.polynomial``.  The linearized closed form is here for
:class:`LinearGaps`; the tests hold the residual check that it solves its
system.

The sweep verdict logic encodes the central structural dichotomy: smooth
pairings that settle down are reported ``converging``; a family whose
``Q``-pairings against diagonal test functions in the vacuum half-plane
stay at zero, while the solutions visibly carry charge confined to the
other half-plane, is reported ``diverging (support obstruction)`` because
no distributional limit can both vanish there and transport the initial
point charge along the light cone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fields import FIELD_NAMES, SpacetimeSolution
from .nonlinearity import a
from .regops import RegDerivOperator

__all__ = [
    "TestFunction2D",
    "SupportReport",
    "SweepResult",
    "LinearizedReference",
    "CompareReport",
    "BlowupReport",
    "Pairing",
    "SupportProbe",
    "LinearGaps",
    "limit_sweep",
    "linearized_reference",
    "blow_up_probe",
    "diag_pairing_target",
    "member_record",
    "run_member",
    "observable_label",
    "VERDICT_CONVERGING",
    "VERDICT_DIVERGING",
    "VERDICT_OBSTRUCTION",
    "VERDICT_INCONCLUSIVE",
]

VERDICT_CONVERGING = "converging"
VERDICT_DIVERGING = "diverging"
VERDICT_OBSTRUCTION = "diverging (support obstruction)"
VERDICT_INCONCLUSIVE = "inconclusive"

# absolute tolerance for "the pairing vanishes" in the obstruction verdict
OBSTRUCTION_PAIRING_TOL = 1e-8
# the diagonal target must clear this floor for the obstruction to be meaningful
OBSTRUCTION_TARGET_MIN = 1e-3
# relative tolerance for "support stays on one side"
SUPPORT_REL_TOL = 1e-8


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction2D:
    """Tensor bump ``amplitude * b((t-t0)/r_t) * b((x-x0)/r_x)``.

    ``b(s) = exp(1 - 1/(1-s^2))`` is the unit-peak bump on (-1, 1); the
    support is the closed box ``[t0-r_t, t0+r_t] x [x0-r_x, x0+r_x]``.
    """

    __test__ = False  # "test function" in the distributional sense, not pytest's

    t0: float
    x0: float
    r_t: float
    r_x: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not (self.r_t > 0.0 and self.r_x > 0.0):
            raise ValueError("test function: radii must be positive")

    @property
    def t_lo(self) -> float:
        return self.t0 - self.r_t

    @property
    def t_hi(self) -> float:
        return self.t0 + self.r_t

    @property
    def x_lo(self) -> float:
        return self.x0 - self.r_x

    @property
    def x_hi(self) -> float:
        return self.x0 + self.r_x

    @staticmethod
    def _b(s):
        # the bump b(s), zero off (-1, 1)
        s = np.asarray(s)
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
        return out

    def value(self, t, x):
        """psi at broadcast ``(t, x)``; floats give a float."""
        st = (np.asarray(t, dtype=float) - self.t0) / self.r_t
        sx = (np.asarray(x, dtype=float) - self.x0) / self.r_x
        out = self.amplitude * self._b(st) * self._b(sx)
        return float(out) if out.ndim == 0 else out


def observable_label(field_name: str, psi: TestFunction2D) -> str:
    """A sweep observable's key in its results; ``validate`` refuses a repeat."""
    return f"{field_name}@({psi.t0:g},{psi.x0:g})r({psi.r_t:g},{psi.r_x:g})"


def diag_pairing_target(psi: TestFunction2D, slope: float = 1.0) -> float:
    """The pairing a unit charge transported along ``x = slope*t`` would give.

    Evaluates ``int psi(t, slope*t) dt``, by the 64-node Gauss-Legendre rule
    on the interval where the line crosses the support (the integrand is
    smooth there); this is what ``<delta(x - slope t), psi>`` requires of any
    candidate distributional limit.
    """
    lo, hi = psi.t_lo, psi.t_hi
    if slope > 0:
        lo, hi = max(lo, psi.x_lo / slope), min(hi, psi.x_hi / slope)
    else:
        lo, hi = max(lo, psi.x_hi / slope), min(hi, psi.x_lo / slope)
    if lo >= hi:
        return 0.0
    nodes, weights = _gl_rule()
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    tn = mid + half * nodes
    # 0.0 + writes a -0.0 sum as 0.0
    return 0.0 + float(np.sum(psi.value(tn, slope * tn) * (half * weights)))


@functools.cache
def _gl_rule():
    # built on first use: numpy.polynomial stays unloaded in a run that
    # computes no pairing target
    return np.polynomial.legendre.leggauss(64)


# ---------------------------------------------------------------------------
# pairings and probes: each a fold, called with every saved state in time
# order and finished by result(); it keeps a few numbers per state


def _check_window(psi: TestFunction2D, t_lo: float, t_hi: float,
                  x_min: float, x_max: float) -> None:
    """Raise unless the support of ``psi`` lies in ``[t_lo, t_hi] x [x_min, x_max]``."""
    tiny = 1e-12
    # written so that a nan bound fails the check too
    if not (psi.t_lo >= t_lo - tiny and psi.t_hi <= t_hi + tiny):
        raise ValueError(
            f"psi time support [{psi.t_lo:g}, {psi.t_hi:g}] outside solved "
            f"window [{t_lo:g}, {t_hi:g}]"
        )
    if not (psi.x_lo >= x_min - tiny and psi.x_hi <= x_max + tiny):
        raise ValueError(
            f"psi spatial support [{psi.x_lo:g}, {psi.x_hi:g}] outside the grid "
            f"[{x_min:g}, {x_max:g}]"
        )


class Pairing:
    """Space-time trapezoid pairing ``<F, psi>`` as a fold: the row integral
    of ``F psi(t, .)`` per state, then the trapezoid over their times; also
    the peak of ``|F|`` over the grid.

    ``field_name`` is one of ``E``, ``u``, ``sigma`` or the derived ``Q =
    sigma - D E``, which reads the operator ``op``.  ``psi`` must lie in the
    time window ``[t_lo, t_hi]`` the states will cover, and on the grid.

    ``psi(t, .)`` is ``c * bx``, with ``c = amplitude * b((t - t0)/r_t)`` and
    ``bx`` the bump's x-factor, fixed across states and zero off the columns
    with ``|sx| < 1``.  The pairing keeps those columns and one zero column on
    each side, clipped at the grid's ends, and ``bx`` on them: the trapezoid
    rule weighs them as on the whole grid, so their row integral is the grid's.
    """

    def __init__(self, grid, field_name, psi, op, t_lo, t_hi):
        _check_window(psi, t_lo, t_hi, grid.x_min, grid.x_max)
        self.grid, self.field_name, self.psi, self.op = grid, field_name, psi, op
        self.times, self.rows, self.peak = [], [], 0.0
        sx = (grid.xs - psi.x0) / psi.r_x
        inside = np.flatnonzero(np.abs(sx) < 1.0)
        self.cols = slice(max(inside[0] - 1, 0), inside[-1] + 2) if len(inside) else slice(0)
        self.bx = psi._b(sx[self.cols])

    def __call__(self, state) -> None:
        name, t, psi = self.field_name, state.t, self.psi
        F = state.sigma - self.op.apply(state.E) if name == "Q" else state.component(name)
        c = psi.amplitude * psi._b((t - psi.t0) / psi.r_t)
        self.times.append(t)
        self.rows.append(self.grid.integrate(F[self.cols] * (c * self.bx)))
        self.peak = max(self.peak, float(np.max(np.abs(F))))

    def result(self) -> float:
        return float(np.trapezoid(np.asarray(self.rows), x=np.asarray(self.times)))


def pair(sol: SpacetimeSolution, field_name: str, psi: TestFunction2D,
         op: RegDerivOperator) -> float:
    """:class:`Pairing` over a stored solution; kept only because
    ``bench/tracer.py`` wraps it, until the tracer wraps the fold."""
    fold = Pairing(sol.grid, field_name, psi, op, sol.times[0], sol.times[-1])
    return sol.replay(fold).result()


@dataclass(frozen=True)
class SupportReport:
    x0: float
    sup_right: dict
    sup_left: dict
    global_max: dict

    def rel_right(self, name: str) -> float:
        g = self.global_max[name]
        return self.sup_right[name] / g if g > 0.0 else 0.0

    def rel_left(self, name: str) -> float:
        g = self.global_max[name]
        return self.sup_left[name] / g if g > 0.0 else 0.0

    def worst(self, side: str) -> float:
        """The largest relative sup over the fields on ``side``, "right" or "left"."""
        rel = self.rel_right if side == "right" else self.rel_left
        return max(rel(n) for n in FIELD_NAMES)


class SupportProbe:
    """Per-field sup of ``|F|`` over ``{x >= x0}``, ``{x <= x0}`` and the grid
    as a fold across saved times.

    Raises ``ValueError`` when either side holds no grid point, where a sup
    of 0 would report a vacuous confinement.
    """

    def __init__(self, grid, x0: float):
        xs = grid.xs  # sorted: each half-line is a run of columns from one end
        self.right = slice(int(np.searchsorted(xs, x0, side="left")), grid.n)
        self.left = slice(0, int(np.searchsorted(xs, x0, side="right")))
        if not (self.right.start < grid.n and self.left.stop > 0):
            raise ValueError(
                f"support probe: x0={x0:g} leaves a side with no grid points on "
                f"[{grid.x_min:g}, {grid.x_max:g}]"
            )
        self.x0, self.sups = float(x0), ({}, {}, {})  # right, left, global

    def __call__(self, state) -> None:
        for name in FIELD_NAMES:
            F = np.abs(state.component(name))
            for sup, part in zip(self.sups, (F[self.right], F[self.left], F)):
                sup[name] = max(sup.get(name, 0.0), float(np.max(part)))

    def result(self) -> SupportReport:
        return SupportReport(self.x0, *self.sups)


def support_probe(sol: SpacetimeSolution, x0: float) -> SupportReport:
    """:class:`SupportProbe` over a stored solution; kept only because
    ``bench/tracer.py`` wraps it, until the tracer wraps the fold."""
    return sol.replay(SupportProbe(sol.grid, x0)).result()


# ---------------------------------------------------------------------------
# members: the one runner of every march, and of every eps family


@dataclass(frozen=True)
class _Family:
    eps_schedule: tuple
    statuses: tuple
    contaminated: tuple
    bounds: tuple
    members: tuple            # per member: its grid, stencil and march sizes
    errors: dict              # eps -> message, for each member that raised
    partial: bool             # some member aborted or raised


def member_record(op, n_steps, n_saved) -> dict:
    """What a run records for its march (a family in ``members``, a single run
    as ``member``), in the order ``validate`` prints it: its grid, stencil,
    width, FFT and march sizes."""
    return {"grid_n": op.grid.n, "m": len(op.weights), "nu": op.nu, "fft_len": op.fft_len,
            "n_steps": n_steps, "n_saved": n_saved}


def run_member(pieces, fold):
    """The one runner of every march: ``fold`` gets each state as the march
    saves it, so no state outlives its step; returns ``(meta, member_record)``."""
    from .solver import solve  # looked up per call: a patched solver.solve sees every march

    op, saved = pieces.operator, []

    def on_save(state):
        saved.append(state.t)
        fold(state)

    meta = solve(pieces.initial, pieces.solver, op, pieces.params, on_save=on_save).meta
    return meta, member_record(op, meta.get("n_steps"), len(saved))


def _run_member(template, make, args, eps):
    # one family member, refined; a member that raises becomes an "error" row
    from .config import assemble_run

    contaminated, bound = False, None
    try:
        pieces = assemble_run(template, eps=eps, refine=True)
        fold = make(pieces, *args)
        meta, record = run_member(pieces, fold)
        contaminated, bound = bool(meta.get("boundary_contaminated")), meta.get("a_priori_bound")
        return meta["status"], contaminated, bound, record, fold.result(), None
    except Exception as exc:
        return "error", contaminated, bound, None, None, f"{type(exc).__name__}: {exc}"


def _run_family(template, eps_schedule, make, args=(), workers: int = 1):
    """Assemble (refined), solve and reduce each member of an eps family.

    ``make(pieces, *args)`` returns the member's fold, whose ``result()`` is
    the member's value; it and ``args`` must pickle for ``workers > 1``,
    which pools the members.
    """
    eps_schedule = tuple(float(e) for e in eps_schedule)
    if not eps_schedule or any(b >= a_ for a_, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("family: eps schedule must be non-empty and strictly decreasing")
    run = functools.partial(_run_member, template, make, args)
    if workers > 1:
        # imported here: the pool's modules load only when a run asks for it
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its processes at once: never more than members
        with ProcessPoolExecutor(max_workers=min(workers, len(eps_schedule))) as pool:
            rows = list(pool.map(run, eps_schedule))
    else:
        rows = [run(eps) for eps in eps_schedule]
    statuses, contaminated, bounds, members, values, errors = zip(*rows)
    errors = {e: m for e, m in zip(eps_schedule, errors) if m is not None}
    partial = any(s != "ok" for s in statuses)
    return _Family(eps_schedule, statuses, contaminated, bounds, members, errors, partial), values


# ---------------------------------------------------------------------------
# limit sweep


@dataclass(frozen=True)
class SweepResult(_Family):
    labels: tuple
    pairings: dict
    increments: dict
    verdicts: dict
    targets: dict


def _vacuum_diagonal(field_name: str, psi: TestFunction2D):
    """Slope (1.0 or -1.0) of the light-cone diagonal through a vacuum
    half-plane that ``psi`` sits on, when the observable is ``Q``; else None.

    Only these observables can show the support obstruction.
    """
    if field_name != "Q":
        return None
    reach = min(psi.r_t, psi.r_x)
    if psi.x_lo > 0.0 and abs(psi.t0 - psi.x0) <= reach:
        return 1.0
    if psi.x_hi < 0.0 and abs(psi.t0 + psi.x0) <= reach:
        return -1.0
    return None


class _SweepMember:
    # the sweep's fold: each observable's pairing, and for one on a vacuum
    # diagonal (slope not None) the support probe of its vacuum side

    def __init__(self, pieces, observables, slopes):
        t0, grid, self.folds = pieces.initial.t, pieces.grid, []
        for (field_name, psi), slope in zip(observables, slopes):
            pairing = Pairing(grid, field_name, psi, pieces.operator, t0, t0 + pieces.params.T)
            probe = slope and SupportProbe(grid, 0.5 * (psi.x_lo if slope > 0 else psi.x_hi))
            self.folds.append((slope and ("right" if slope > 0 else "left"), pairing, probe))

    def __call__(self, state) -> None:
        for _, pairing, probe in self.folds:
            pairing(state)
            if probe:
                probe(state)

    def result(self) -> list:
        # one (pairing, leak, peak) per observable: the vacuum side's worst
        # relative sup and the largest |F|, both None off a vacuum diagonal
        return [(pairing.result(), probe and probe.result().worst(side), probe and pairing.peak)
                for side, pairing, probe in self.folds]


def limit_sweep(template, eps_schedule, observables, workers: int = 1) -> SweepResult:
    """Run the same configuration down an eps schedule and classify limits.

    ``observables`` is a list of ``(field_name, TestFunction2D)`` pairs.
    Members run independently (optionally in a process pool); a member that
    aborted or raised leaves the sweep partial, its pairings empty and the
    observables inconclusive without a target.  Each observable's vacuum
    diagonal and pairing target are found once, here, for the verdict.
    """
    slopes = [_vacuum_diagonal(f, psi) for f, psi in observables]
    fam, values = _run_family(template, eps_schedule, _SweepMember, (observables, slopes),
                              workers)
    labels = tuple(observable_label(f, psi) for f, psi in observables)
    pairings, increments, verdicts, targets = {}, {}, {}, {}
    for j, ((_, psi), slope, label) in enumerate(zip(observables, slopes, labels)):
        vals = pairings[label] = tuple(v[j][0] if s == "ok" else None
                                       for s, v in zip(fam.statuses, values))
        if fam.partial:
            increments[label], verdicts[label], targets[label] = (), VERDICT_INCONCLUSIVE, None
            continue
        _, leaks, peaks = zip(*(v[j] for v in values))
        target = targets[label] = None if slope is None else diag_pairing_target(psi, slope)
        incs = increments[label] = tuple(abs(b - a_) for a_, b in zip(vals, vals[1:]))
        verdicts[label] = _classify(vals, incs, target, leaks, peaks)
    return SweepResult(**vars(fam), labels=labels, pairings=pairings, increments=increments,
                       verdicts=verdicts, targets=targets)


def _classify(vals, incs, target, leaks, peaks) -> str:
    """One observable's verdict from its pairings and their increments, and
    on a vacuum diagonal (``target`` not None) each member's leak and peak."""
    # the obstruction case: Q paired against a diagonal bump in the vacuum
    # half-plane, for solutions carrying charge confined to the other side
    if target is not None:
        confined = all(leak <= SUPPORT_REL_TOL for leak in leaks)
        nontrivial = any(peak > 1e-6 for peak in peaks)
        vanishing = all(abs(v) <= OBSTRUCTION_PAIRING_TOL for v in vals)
        if confined and nontrivial and vanishing and target > OBSTRUCTION_TARGET_MIN:
            return VERDICT_OBSTRUCTION
    if not incs:
        return VERDICT_INCONCLUSIVE
    scale = max(abs(v) for v in vals)
    slack = 1e-14 * max(scale, 1.0)
    tail = incs[-3:]
    if all(i <= slack for i in tail):
        return VERDICT_CONVERGING
    if len(tail) < 2:
        return VERDICT_INCONCLUSIVE
    if all(b <= a_ + slack for a_, b in zip(tail, tail[1:])):
        return VERDICT_CONVERGING
    if all(b > a_ for a_, b in zip(tail, tail[1:])):
        return VERDICT_DIVERGING
    return VERDICT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# linearized reference


def _heaviside(z):
    return np.where(z > 0.0, 1.0, np.where(z < 0.0, 0.0, 0.5))


@dataclass(frozen=True)
class LinearizedReference:
    """Closed-form solution of the linearized system with point-charge data.

    For charge q at the origin: ``E = q (H(x) - H(x-t))``,
    ``u = q (t-x)(H(x) - H(x-t))``, and the charge stays ``q delta(x)``.
    The jump convention is ``H(0) = 1/2``.
    """

    q: float

    def box(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return _heaviside(x) - _heaviside(x - t)

    def E(self, t, x):
        out = self.q * self.box(t, x)
        return float(out) if out.ndim == 0 else out

    def u(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        out = self.q * (t - x) * self.box(t, x)
        return float(out) if out.ndim == 0 else out


def linearized_reference(q: float) -> LinearizedReference:
    return LinearizedReference(q=float(q))


@dataclass(frozen=True)
class CompareReport:
    times: tuple
    l1_E: tuple
    l1_u: tuple
    max_l1_E: float
    max_l1_u: float


class LinearGaps:
    """L1-in-space distances between each saved state and the linearized
    closed form for charge ``q``, as a fold."""

    def __init__(self, grid, q: float):
        self.grid, self.ref, self.rows = grid, linearized_reference(q), []

    def __call__(self, state) -> None:
        t, xs, integrate = state.t, self.grid.xs, self.grid.integrate
        self.rows.append((float(t),
                          float(integrate(np.abs(state.E - self.ref.E(t, xs)))),
                          float(integrate(np.abs(state.u - self.ref.u(t, xs))))))

    def result(self) -> CompareReport:
        times, l1_E, l1_u = zip(*self.rows)
        return CompareReport(times, l1_E, l1_u, max(l1_E), max(l1_u))


# ---------------------------------------------------------------------------
# blow-up probe


@dataclass(frozen=True)
class BlowupReport(_Family):
    peaks: tuple              # per member; None for one that raised
    exponent: float | None    # None when a member raised


def _window_mask(grid, window: float, center: float, eps: float) -> slice:
    """The run of grid columns with ``|x - center| <= window``; raises if there are none."""
    inside = np.flatnonzero(np.abs(grid.xs - center) <= window)
    if not len(inside):
        raise ValueError(f"blow-up probe: window {window:g} around center {center:g} holds "
                         f"no grid point at eps={eps:g} (dx={grid.dx:.6g}); widen blowup_window")
    return slice(int(inside[0]), int(inside[-1]) + 1)


class _Peak:
    # a member's fold: the peak of |sigma a(u)| over the window and the saved
    # states; an aborted member keeps the peak of what it saved

    def __init__(self, pieces, window: float, center: float):
        self.cols, self.peaks = _window_mask(pieces.grid, window, center, pieces.params.eps), []

    def __call__(self, state) -> None:
        sigma, u = state.sigma[self.cols], state.u[self.cols]
        self.peaks.append(float(np.max(np.abs(sigma * a(u)))))

    def result(self) -> float:
        return max(self.peaks)


def _peak_exponent(eps_values, peaks) -> float:
    # least-squares slope of log peak against log(1/eps); 0 if a peak is not positive
    if any(p <= 0.0 for p in peaks):
        return 0.0
    return float(np.polyfit(np.log([1.0 / e for e in eps_values]), np.log(peaks), 1)[0])


def blow_up_probe(template, eps_schedule, window: float, center: float,
                  workers: int = 1) -> BlowupReport:
    """Peak of the interaction density ``|sigma a(u)|`` near the charge
    across an eps family.

    Runs the family as ``limit_sweep`` does (refined members, pooled if
    asked, a member that raises kept as an "error" row), records each
    member's peak over the window ``|x - center| <= window`` and fits the
    growth exponent of peak against ``1/eps``; a raised member leaves its
    peak and the exponent None.  A positive exponent is the finite-eps
    signature of the interaction term concentrating without a limit.
    """
    if len(eps_schedule) < 2:
        raise ValueError("blow-up probe: the eps schedule needs at least 2 members")
    fam, peaks = _run_family(template, eps_schedule, _Peak, (window, center), workers)
    # a fit without a raised member's peak would hide the gap
    exponent = None if fam.errors else _peak_exponent(fam.eps_schedule, peaks)
    return BlowupReport(**vars(fam), peaks=peaks, exponent=exponent)
