"""Span tracer for one ``maxlor`` subcommand, run from outside the package.

Run as a script, it imports ``maxlor.cli``, wraps the public functions of
each layer with span recorders, calls the CLI in-process, restores every
wrapped attribute and writes the spans as JSON::

    python3 bench/tracer.py SPANS.json -- sweep --config cfg.json --out dir

A span is ``[name, start, end, parent, info]``: ``parent`` is the index of
the enclosing span or -1, ``info`` carries the counts a layer metric needs
(grid size and stencil length per operator application, steps and saved
states per solve).  Spans are kept in memory and written once at the end.
``layer_metrics`` turns a span list into the per-layer metrics.

The wrappers sit on module and class attributes, looked up at call time
by the code that calls them, so nothing inside the package is edited.
"""

from __future__ import annotations

import json
import sys
import time

def _apply_info(args, result):
    op = args[0]
    return {"n": op.grid.n, "m": len(op.weights)}


def _solve_info(args, result):
    meta = result.meta
    info = {
        "n": result.grid.n,
        "steps": meta["n_steps"],
        "saved": len(result.states),
    }
    if "picard" in meta:
        info["iterations"] = meta["picard"]["iterations"]
        info["subinterval_steps"] = meta["picard"]["subinterval_steps"]
    return info


def wrap_table() -> list:
    """``(owner, attribute, span name, info function)`` for every traced call.

    ``a`` and ``sqrt1p_sq`` are wrapped where the solver looks them up, and
    ``solve_lines``/``solve_picard`` where ``solver.solve`` dispatches to
    them, so every caller of those names is covered.
    """
    from maxlor import analysis, config, output, regops, solver, trajectories

    return [
        (regops.RegDerivOperator, "apply", "regops.apply", _apply_info),
        (solver, "solve_lines", "solver.solve", _solve_info),
        (solver, "solve_picard", "solver.solve", _solve_info),
        (solver, "rhs", "solver.rhs", None),
        (solver, "cumulative_trapezoid", "solver.cumulative_trapezoid", None),
        (solver, "a", "nonlinearity.a", None),
        (solver, "sqrt1p_sq", "nonlinearity.sqrt1p_sq", None),
        (config, "validate_config", "config.validate", None),
        (config, "assemble_run", "config.assemble", None),
        (analysis, "limit_sweep", "analysis.limit_sweep", None),
        (analysis, "pair", "analysis.pair", None),
        (analysis, "support_probe", "analysis.support_probe", None),
        (trajectories, "integrate_world_line", "trajectories.world_line", None),
        (trajectories._FieldSampler, "__call__", "trajectories.sample", None),
        (output, "write_solution", "output.write_solution", None),
        (output, "write_table", "output.write_table", None),
        (output, "write_json", "output.write_json", None),
    ]


class Tracer:
    """Records nested spans around wrapped callables; restores them on exit."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def record(self, name, start, end):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, None])

    def _wrapper(self, fn, name, info_fn):
        clock, spans, stack = time.perf_counter, self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if info_fn is not None:
                spans[idx][4] = info_fn(args, result)
            return result

        return traced

    def install(self, table) -> None:
        for owner, attr, name, info_fn in table:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, info_fn))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _self_times(spans) -> list:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, wall_s: float, untraced_wall_s: float, output_bytes: int) -> dict:
    """Per-layer metrics from one traced run's spans.

    ``wall_s`` is the traced child's wall time measured by the harness,
    ``untraced_wall_s`` the median of the untraced runs of the same config,
    ``output_bytes`` the size of the traced run's output tree.
    """
    own = _self_times(spans)
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ()))

    def self_s(name):
        return sum(own[i] for i in by_name.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    applies = [spans[i] for i in by_name.get("regops.apply", ())]
    macs = sum(s[4]["n"] * s[4]["m"] for s in applies)
    # computed, not measured: read f and the stencil, write the result
    moved = sum(8 * (2 * s[4]["n"] + s[4]["m"]) for s in applies)
    rhs_ids = set(by_name.get("solver.rhs", ()))
    outside_rhs = sum(1 for s in applies if s[3] not in rhs_ids)

    solves = [spans[i][4] for i in by_name.get("solver.solve", ())]
    steps = sum(s["steps"] for s in solves)
    saved = sum(s["saved"] for s in solves)
    saved_cells = sum(s["saved"] * s["n"] for s in solves)
    picard_ids = {i for i in by_name.get("solver.solve", ()) if "iterations" in spans[i][4]}
    iterations = sum(spans[i][4]["iterations"] for i in picard_ids)
    useful = sum(spans[i][4]["iterations"] * spans[i][4]["subinterval_steps"] for i in picard_ids)
    picard_rhs = sum(1 for i in rhs_ids if spans[i][3] in picard_ids)

    output_names = ("output.write_solution", "output.write_table", "output.write_json")
    output_ids = {i for name in output_names for i in by_name.get(name, ())}
    write_s = sum(spans[i][2] - spans[i][1] for i in output_ids if spans[i][3] not in output_ids)
    top_s = sum(s[2] - s[1] for s in spans if s[3] == -1)
    apply_self = self_s("regops.apply")
    nonlin = ("nonlinearity.a", "nonlinearity.sqrt1p_sq")
    return {
        "regops.apply.calls": calls("regops.apply"),
        "regops.apply.self_s": apply_self,
        "regops.apply.us_per_call": 1e6 * ratio(apply_self, calls("regops.apply")),
        "regops.stencil_m": max((s[4]["m"] for s in applies), default=0),
        "regops.grid_n": max((s[4]["n"] for s in applies), default=0),
        "regops.macs": macs,
        "regops.bytes_computed": moved,
        "regops.ops_per_byte": ratio(2 * macs, moved),
        "regops.gmac_per_s": 1e-9 * ratio(macs, apply_self),
        "solver.solve.s": total("solver.solve"),
        "solver.self_s": self_s("solver.solve"),
        "solver.steps": steps,
        "solver.rhs.calls": calls("solver.rhs"),
        "solver.rhs.self_s": self_s("solver.rhs"),
        "solver.rhs_per_step": ratio(calls("solver.rhs"), steps),
        "solver.cumulative_trapezoid.s": total("solver.cumulative_trapezoid"),
        "solver.picard.iterations": iterations,
        "solver.picard.rhs_useful_ratio": ratio(useful, picard_rhs),
        "nonlinearity.calls": sum(calls(n) for n in nonlin),
        "nonlinearity.s": sum(total(n) for n in nonlin),
        "analysis.pair.calls": calls("analysis.pair"),
        "analysis.pair.s": total("analysis.pair"),
        "analysis.support_probe.s": total("analysis.support_probe"),
        "analysis.apply_calls": outside_rhs,
        "analysis.apply_per_saved_state": ratio(outside_rhs, saved),
        "fields.saved_states": saved,
        "fields.saved_mb": saved_cells * 3 * 8 / 1e6,
        "config.validate.s": total("config.validate"),
        "config.assemble.calls": calls("config.assemble"),
        "config.assemble.s": total("config.assemble"),
        "cli.import_s": total("cli.import"),
        "trajectories.world_line.s": total("trajectories.world_line"),
        "trajectories.sample.calls": calls("trajectories.sample"),
        "trajectories.sample.us_per_call": 1e6 * ratio(
            total("trajectories.sample"), calls("trajectories.sample")),
        "output.write.s": write_s,
        "output.write_table.calls": calls("output.write_table"),
        "output.bytes": output_bytes,
        "output.mb_per_s": ratio(output_bytes / 1e6, write_s),
        "cli.unattributed_s": wall_s - top_s,
        "trace.overhead_s": wall_s - untraced_wall_s,
    }


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <maxlor subcommand and arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    t0 = time.perf_counter()
    from maxlor import cli

    tracer.record("cli.import", t0, time.perf_counter())
    with tracer:
        tracer.install(wrap_table())
        code = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
