"""Experiment harnesses on top of solved runs.

Everything here treats a finished :class:`~maxlor.fields.SpacetimeSolution`
as data: pairing fields against smooth test functions, probing one-sided
support, measuring how well the derived quantity ``Q = sigma - D E``
transports, sweeping a family of runs down an eps schedule and classifying
the limit behavior, and comparing against the closed-form solution of the
linearized system.

The sweep verdict logic encodes the central structural dichotomy: smooth
pairings that settle down are reported ``converging``; a family whose
``Q``-pairings against diagonal test functions in the vacuum half-plane
stay at zero, while the solutions visibly carry charge confined to the
other half-plane, is reported ``diverging (support obstruction)`` because
no distributional limit can both vanish there and transport the initial
point charge along the light cone.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .fields import FieldState, SpacetimeSolution, CONTAMINATION_TOL
from .nonlinearity import a
from .regops import RegDerivOperator, operator_for_meta

__all__ = [
    "TestFunction2D",
    "SupportReport",
    "TransportReport",
    "SweepResult",
    "LinearizedReference",
    "CompareReport",
    "BlowupReport",
    "pair",
    "support_probe",
    "transport_residual",
    "limit_sweep",
    "linearized_reference",
    "linear_system_residuals",
    "compare_linearized",
    "blow_up_probe",
    "thin_solution",
    "psi_from_dict",
    "diag_pairing_target",
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

_QUAD_KW = dict(epsabs=1e-12, epsrel=1e-10, limit=200)


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
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
        return out

    @staticmethod
    def _db(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        one = 1.0 - si * si
        out[inside] = np.exp(1.0 - 1.0 / one) * (-2.0 * si / one**2)
        return out

    def value(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        out = self.amplitude * self._b((t - self.t0) / self.r_t) * self._b((x - self.x0) / self.r_x)
        if out.ndim == 0:
            return float(out)
        return out

    def dt(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        out = (
            self.amplitude
            * self._db((t - self.t0) / self.r_t) / self.r_t
            * self._b((x - self.x0) / self.r_x)
        )
        if out.ndim == 0:
            return float(out)
        return out

    def dx(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        out = (
            self.amplitude
            * self._b((t - self.t0) / self.r_t)
            * self._db((x - self.x0) / self.r_x) / self.r_x
        )
        if out.ndim == 0:
            return float(out)
        return out

    def label(self) -> str:
        return f"({self.t0:g},{self.x0:g})r({self.r_t:g},{self.r_x:g})"

    def spec_dict(self) -> dict:
        return {
            "t0": self.t0,
            "x0": self.x0,
            "r_t": self.r_t,
            "r_x": self.r_x,
            "amplitude": self.amplitude,
        }


def psi_from_dict(d: dict) -> TestFunction2D:
    return TestFunction2D(
        t0=float(d["t0"]),
        x0=float(d["x0"]),
        r_t=float(d["r_t"]),
        r_x=float(d["r_x"]),
        amplitude=float(d.get("amplitude", 1.0)),
    )


def diag_pairing_target(psi: TestFunction2D, slope: float = 1.0) -> float:
    """The pairing a unit charge transported along ``x = slope*t`` would give.

    Evaluates ``int psi(t, slope*t) dt``; this is what ``<delta(x - slope t),
    psi>`` requires of any candidate distributional limit.
    """
    from scipy.integrate import quad

    lo, hi = psi.t_lo, psi.t_hi
    if slope > 0:
        lo, hi = max(lo, psi.x_lo / slope), min(hi, psi.x_hi / slope)
    else:
        lo, hi = max(lo, psi.x_hi / slope), min(hi, psi.x_lo / slope)
    if lo >= hi:
        return 0.0
    val, _ = quad(lambda t: psi.value(t, slope * t), lo, hi, **_QUAD_KW)
    return float(val)


# ---------------------------------------------------------------------------
# pairings and probes


def _field_stack(sol: SpacetimeSolution, name: str, op: RegDerivOperator | None) -> np.ndarray:
    if name == "Q":
        if op is None:
            op = operator_for_meta(sol.meta, sol.grid)
        return np.stack([s.sigma - op.apply(s.E) for s in sol.states])
    return sol.field_stack(name)


def pair(sol: SpacetimeSolution, field_name: str, psi: TestFunction2D,
         op: RegDerivOperator | None = None) -> float:
    """Space-time trapezoid pairing ``<field, psi>`` over the saved states.

    ``field_name`` is one of ``E``, ``u``, ``sigma`` or the derived ``Q``.
    The test function must sit inside the solved window.
    """
    return _pair_stack(_field_stack(sol, field_name, op), sol, psi)


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


def _pair_stack(F: np.ndarray, sol: SpacetimeSolution, psi: TestFunction2D) -> float:
    # pair() on a field stack (saved state x grid) that the caller already holds
    times = sol.times
    grid = sol.grid
    _check_window(psi, times[0], times[-1], grid.x_min, grid.x_max)
    W = psi.value(times[:, None], grid.xs[None, :])
    inner = np.trapezoid(F * W, dx=grid.dx, axis=1)
    return float(np.trapezoid(inner, x=times))


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


def support_probe(sol: SpacetimeSolution, x0: float) -> SupportReport:
    """Per-field sup over ``{x >= x0}`` and ``{x <= x0}`` across saved times.

    Raises ``ValueError`` when either side holds no grid point, where a sup
    of 0 would report a vacuous confinement.
    """
    xs = sol.grid.xs
    right = xs >= x0
    left = xs <= x0
    if not (right.any() and left.any()):
        raise ValueError(
            f"support probe: x0={x0:g} leaves a side with no grid points on "
            f"[{sol.grid.x_min:g}, {sol.grid.x_max:g}]"
        )
    sup_r, sup_l, gmax = {}, {}, {}
    for name in ("E", "u", "sigma"):
        F = np.abs(sol.field_stack(name))
        sup_r[name] = float(np.max(F[:, right]))
        sup_l[name] = float(np.max(F[:, left]))
        gmax[name] = float(np.max(F))
    return SupportReport(x0=float(x0), sup_right=sup_r, sup_left=sup_l, global_max=gmax)


@dataclass(frozen=True)
class TransportReport:
    max_residual: float
    save_dt: float
    nu: float
    n_times_used: int


def transport_residual(sol: SpacetimeSolution, op: RegDerivOperator | None = None) -> TransportReport:
    """Residual of ``dQ/dt + D Q = 0`` from saved states.

    Uses a centered difference in time on ``Q = sigma - D E``; needs the
    saved spacing to resolve the kernel (``save_dt <= nu/4``) and at least
    three uniformly spaced saves.  The outermost 5% of columns are excluded
    since padding pollutes them for non-compact data.
    """
    if op is None:
        op = operator_for_meta(sol.meta, sol.grid)
    times = sol.times
    if len(times) < 3:
        raise ValueError("transport residual: need at least 3 saved states")
    dts = np.diff(times)
    save_dt = float(dts[0])
    if save_dt > op.nu / 4.0 + 1e-12:
        raise ValueError(
            f"transport residual: save spacing {save_dt:.6g} too coarse for "
            f"nu={op.nu:.6g}; need save_dt <= nu/4 = {op.nu / 4.0:.6g}"
        )
    Q = np.stack([s.sigma - op.apply(s.E) for s in sol.states])
    n = sol.grid.n
    k = max(1, int(round(0.05 * (n - 1))))
    cols = slice(k + 1, n - k - 1)
    worst = 0.0
    used = 0
    for i in range(1, len(times) - 1):
        if not (math.isclose(dts[i - 1], save_dt, rel_tol=1e-9)
                and math.isclose(dts[i], save_dt, rel_tol=1e-9)):
            continue
        r = (Q[i + 1] - Q[i - 1]) / (2.0 * save_dt) + op.apply(Q[i])
        worst = max(worst, float(np.max(np.abs(r[cols]))))
        used += 1
    if used == 0:
        raise ValueError("transport residual: no uniformly spaced interior times")
    return TransportReport(max_residual=worst, save_dt=save_dt, nu=op.nu, n_times_used=used)


def thin_solution(sol: SpacetimeSolution, step: int) -> SpacetimeSolution:
    """Keep every ``step``-th saved state (always keeping the first)."""
    idx = list(range(0, len(sol.states), step))
    return SpacetimeSolution(
        grid=sol.grid,
        times=sol.times[idx],
        states=[sol.states[i] for i in idx],
        meta=dict(sol.meta),
    )


# ---------------------------------------------------------------------------
# limit sweep


@dataclass(frozen=True)
class SweepResult:
    eps_schedule: tuple
    labels: tuple
    pairings: dict
    increments: dict
    verdicts: dict
    targets: dict
    statuses: tuple
    contaminated: tuple
    bounds: tuple
    partial: bool


def _observable_label(field_name: str, psi: TestFunction2D) -> str:
    return f"{field_name}@{psi.label()}"


def _run_member(template, eps, observables):
    # worker body: run one member of the family and reduce it to scalars
    from .config import assemble_run

    pieces = assemble_run(template, eps=eps, refine=True)
    from .solver import solve

    sol = solve(pieces.initial, pieces.solver, pieces.operator, pieces.params)
    out = {
        "eps": eps,
        "status": sol.status,
        "contaminated": bool(sol.meta.get("boundary_contaminated", False)),
        "a_priori_bound": sol.meta.get("a_priori_bound"),
        "pairings": {},
        "support_rel": {},
        "field_max": {},
    }
    if sol.status != "ok":
        return out
    for field_name, psi in observables:
        label = _observable_label(field_name, psi)
        F = _field_stack(sol, field_name, pieces.operator)
        out["pairings"][label] = _pair_stack(F, sol, psi)
        out["field_max"][label] = float(np.max(np.abs(F)))
        if psi.x_lo > 0.0:
            rep = support_probe(sol, 0.5 * psi.x_lo)
            out["support_rel"][label] = max(rep.rel_right(n) for n in ("E", "u", "sigma"))
        elif psi.x_hi < 0.0:
            rep = support_probe(sol, 0.5 * psi.x_hi)
            out["support_rel"][label] = max(rep.rel_left(n) for n in ("E", "u", "sigma"))
    return out


def _sweep_worker(args):
    return _run_member(*args)


def limit_sweep(template, eps_schedule, observables, workers: int = 1) -> SweepResult:
    """Run the same configuration down an eps schedule and classify limits.

    ``observables`` is a list of ``(field_name, TestFunction2D)`` pairs.
    Members run independently (optionally in a process pool); an aborted
    member leaves the sweep partial and its observables inconclusive.
    """
    eps_schedule = [float(e) for e in eps_schedule]
    if any(b >= a_ for a_, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("sweep: eps schedule must be strictly decreasing")
    observables = [
        (f, psi if isinstance(psi, TestFunction2D) else psi_from_dict(psi))
        for f, psi in observables
    ]
    jobs = [(template, eps, observables) for eps in eps_schedule]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_run_member(*j) for j in jobs]

    statuses = tuple(r["status"] for r in results)
    contaminated = tuple(r["contaminated"] for r in results)
    partial = any(s != "ok" for s in statuses)
    labels = tuple(_observable_label(f, psi) for f, psi in observables)
    pairings, increments, verdicts, targets = {}, {}, {}, {}
    for (field_name, psi), label in zip(observables, labels):
        targets[label] = None
        if partial:
            pairings[label] = tuple(r["pairings"].get(label) for r in results)
            increments[label] = ()
            verdicts[label] = VERDICT_INCONCLUSIVE
            continue
        vals = [r["pairings"][label] for r in results]
        pairings[label] = tuple(vals)
        incs = [abs(b - a_) for a_, b in zip(vals, vals[1:])]
        increments[label] = tuple(incs)
        verdicts[label] = _classify(field_name, psi, vals, incs, results, label, targets)
    return SweepResult(
        eps_schedule=tuple(eps_schedule),
        labels=labels,
        pairings=pairings,
        increments=increments,
        verdicts=verdicts,
        targets=targets,
        statuses=statuses,
        contaminated=contaminated,
        bounds=tuple(r["a_priori_bound"] for r in results),
        partial=partial,
    )


def _classify(field_name, psi, vals, incs, results, label, targets) -> str:
    # the obstruction case: Q paired against a diagonal bump in the vacuum
    # half-plane, for solutions carrying charge confined to the other side
    if field_name == "Q":
        on_right = psi.x_lo > 0.0 and abs(psi.t0 - psi.x0) <= min(psi.r_t, psi.r_x)
        on_left = psi.x_hi < 0.0 and abs(psi.t0 + psi.x0) <= min(psi.r_t, psi.r_x)
        if on_right or on_left:
            target = diag_pairing_target(psi, slope=1.0 if on_right else -1.0)
            targets[label] = target
            confined = all(
                r["support_rel"].get(label, math.inf) <= SUPPORT_REL_TOL for r in results
            )
            nontrivial = any(r["field_max"][label] > 1e-6 for r in results)
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
    ``u = q (t-x)(H(x) - H(x-t))``, and the charge stays ``q delta(x)``,
    available only through its pairing rule.  The jump convention is
    ``H(0) = 1/2``.
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

    def sigma_pairing(self, psi: TestFunction2D) -> float:
        """``<q delta(x), psi> = q int psi(t, 0) dt``."""
        from scipy.integrate import quad

        if psi.x_lo > 0.0 or psi.x_hi < 0.0:
            return 0.0
        val, _ = quad(lambda t: psi.value(t, 0.0), psi.t_lo, psi.t_hi, **_QUAD_KW)
        return self.q * float(val)


def linearized_reference(q: float) -> LinearizedReference:
    return LinearizedReference(q=float(q))


# the outer time integral of the quad route is looser than the inner one
_OUTER_QUAD_KW = dict(limit=300, epsabs=1e-11, epsrel=1e-9)


def _piecewise_quad(f, lo, hi, breaks, quad_kw):
    """``quad`` of ``f`` over ``[lo, hi]``, split at the breaks inside it."""
    from scipy.integrate import quad

    cuts = sorted({lo, hi} | {b for b in breaks if lo < b < hi})
    total = 0.0
    for a_, b in zip(cuts, cuts[1:]):
        val, _ = quad(f, a_, b, **quad_kw)
        total += val
    return total


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _gl_map(lo, hi):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid[..., None] + half[..., None] * _GL_NODES, half[..., None] * _GL_WEIGHTS


def _gauss_inner(F, t, xlo, xhi):
    """``int F(t, x) dx`` over ``[xlo, xhi]`` for a whole vector of times.

    Splits at the jump lines ``x = 0`` and ``x = t``; degenerate pieces
    collapse to zero length and contribute nothing.
    """
    t = np.asarray(t, dtype=float)
    zero = np.clip(0.0, xlo, xhi)
    cuts = np.sort(
        np.stack([
            np.full_like(t, xlo),
            np.full_like(t, zero),
            np.clip(t, xlo, xhi),
            np.full_like(t, xhi),
        ]),
        axis=0,
    )
    total = np.zeros_like(t)
    for p in range(3):
        xn, wn = _gl_map(cuts[p], cuts[p + 1])
        total += np.sum(F(t[..., None], xn) * wn, axis=-1)
    return total


def _gauss_outer(inner, tlo, thi, tbreaks):
    cuts = sorted({tlo, thi} | {b for b in tbreaks if tlo < b < thi})
    total = 0.0
    for a_, b in zip(cuts, cuts[1:]):
        tn, tw = _gl_map(a_, b)
        total += float(np.sum(inner(tn) * tw))
    return total


def linear_system_residuals(q: float, psi: TestFunction2D, method: str = "gauss") -> dict:
    """Distributional residuals of the linearized system against one psi.

    All integrals act on the closed forms, split at the jump lines ``x = 0``
    and ``x = t``; no solver output is involved.  ``method`` selects the
    quadrature: "gauss" (vectorized fixed-order Gauss-Legendre per smooth
    piece, the fast default) or "quad" (scalar adaptive quadrature; slower,
    kept as an independent cross-check of the fast route).  Returns the
    three residuals keyed ``faraday`` (dE/dt + dE/dx = sigma), ``force``
    (du/dt = E), and ``continuity`` (dsigma/dt = 0).
    """
    from scipy.integrate import quad

    if method not in ("gauss", "quad"):
        raise ValueError(f"linear system residuals: unknown method {method!r}")
    ref = linearized_reference(q)
    xlo, xhi = psi.x_lo, psi.x_hi
    tlo, thi = psi.t_lo, psi.t_hi
    tbreaks = (0.0, xlo, xhi)

    def F_E_dpsi(t, x):
        return ref.E(t, x) * (psi.dt(t, x) + psi.dx(t, x))

    def F_u_dt(t, x):
        return ref.u(t, x) * psi.dt(t, x)

    def F_E_psi(t, x):
        return ref.E(t, x) * psi.value(t, x)

    if method == "gauss":
        lhs1 = -_gauss_outer(lambda tn: _gauss_inner(F_E_dpsi, tn, xlo, xhi), tlo, thi, tbreaks)
        lhs2 = -_gauss_outer(lambda tn: _gauss_inner(F_u_dt, tn, xlo, xhi), tlo, thi, tbreaks)
        rhs2 = _gauss_outer(lambda tn: _gauss_inner(F_E_psi, tn, xlo, xhi), tlo, thi, tbreaks)
    else:
        def quad2(F):
            def inner(t):
                return _piecewise_quad(lambda x: F(t, x), xlo, xhi, (0.0, t), _QUAD_KW)
            return _piecewise_quad(inner, tlo, thi, tbreaks, _OUTER_QUAD_KW)

        lhs1 = -quad2(F_E_dpsi)
        lhs2 = -quad2(F_u_dt)
        rhs2 = quad2(F_E_psi)
    rhs1 = ref.sigma_pairing(psi)
    if psi.x_lo > 0.0 or psi.x_hi < 0.0:
        res3 = 0.0
    else:
        val, _ = quad(lambda t: psi.dt(t, 0.0), tlo, thi, **_QUAD_KW)
        res3 = -q * float(val)
    return {"faraday": lhs1 - rhs1, "force": lhs2 - rhs2, "continuity": res3}


@dataclass(frozen=True)
class CompareReport:
    times: tuple
    l1_E: tuple
    l1_u: tuple
    max_l1_E: float
    max_l1_u: float


def compare_linearized(sol: SpacetimeSolution, q: float | None = None) -> CompareReport:
    """L1-in-space distances between a run and the linearized closed form."""
    if q is None:
        q = sol.meta.get("q", 1.0)
    ref = linearized_reference(q)
    xs = sol.grid.xs
    dx = sol.grid.dx
    rows_E, rows_u = [], []
    for t, s in zip(sol.times, sol.states):
        rows_E.append(float(np.trapezoid(np.abs(s.E - ref.E(t, xs)), dx=dx)))
        rows_u.append(float(np.trapezoid(np.abs(s.u - ref.u(t, xs)), dx=dx)))
    return CompareReport(
        times=tuple(float(t) for t in sol.times),
        l1_E=tuple(rows_E),
        l1_u=tuple(rows_u),
        max_l1_E=max(rows_E),
        max_l1_u=max(rows_u),
    )


# ---------------------------------------------------------------------------
# blow-up probe


@dataclass(frozen=True)
class BlowupReport:
    eps_values: tuple
    peaks: tuple
    exponent: float


def blow_up_probe(sols: list[SpacetimeSolution], window: float = 0.25,
                  center: float = 0.0) -> BlowupReport:
    """Peak of the interaction density ``|sigma a(u)|`` near the charge.

    Given runs for a decreasing eps family, records the peak over the
    window ``|x - center| <= window`` and fits the growth exponent of
    peak against ``1/eps``.  A positive exponent is the finite-eps
    signature of the interaction term concentrating without a limit.
    """
    if len(sols) < 2:
        raise ValueError("blow-up probe: need at least 2 runs")
    eps_values, peaks = [], []
    for sol in sols:
        eps_values.append(float(sol.meta["eps"]))
        mask = np.abs(sol.grid.xs - center) <= window
        pk = max(
            float(np.max(np.abs((s.sigma * a(s.u))[mask]))) for s in sol.states
        )
        peaks.append(pk)
    order = np.argsort(eps_values)[::-1]
    eps_sorted = [eps_values[i] for i in order]
    pk_sorted = [peaks[i] for i in order]
    if any(p <= 0.0 for p in pk_sorted):
        exponent = 0.0
    else:
        exponent = float(
            np.polyfit(np.log([1.0 / e for e in eps_sorted]), np.log(pk_sorted), 1)[0]
        )
    return BlowupReport(eps_values=tuple(eps_sorted), peaks=tuple(pk_sorted), exponent=exponent)
