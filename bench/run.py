"""End-to-end and per-layer benchmark for the maxlor CLI.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload sweep_loglog --seed 1 --seconds 40 --trace 0

The harness generates the workload config from ``--seed``, then drives
``python3 -m maxlor <subcommand>`` from ``src/`` in fresh interpreters,
each with ``--workers 1`` and a fresh empty output directory.

``--trace 0`` repeats the subcommand at least ``MIN_RUNS`` times and as
long as another run is expected to end within ``--seconds`` of the start,
timing ``validate`` on the same config (set-up) before each run, and
reports the end-to-end metrics as medians.  The harness and its children
share one CPU; while a child runs, the harness wakes every
``PROBE_INTERVAL_S`` and times a short fixed loop (``probe_s``) on that
CPU.  Each run's wall and CPU time are divided by the mean probe time of
that run, so the host's speed, which drifts by tens of percent within
seconds on a shared machine, cancels out of ``wall_rel``, ``cpu_rel`` and
``cell_steps_per_ref``.  Set-up time is rescaled the same way and
reported in seconds at the probe speed ``PROBE_NOMINAL_S``.
``--trace 1`` makes the untraced runs the same way without set-up,
keeping room for one more, then makes one run under ``tracer.py`` and
reports the per-layer metrics derived from its spans.

Every run's output tree must be byte-identical to the first one, and the
first must pass the workload's output checks; the traced tree must match
the untraced one.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files
go to ``.bench_work/`` in the checkout; output trees are deleted once
hashed and checked.  See ``bench/BENCHMARK.md`` for every metric.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

MIN_RUNS = 3
# the probe loop takes about 1.5 ms of CPU on the reference machine, so
# probing costs a child under 1% of its CPU
PROBE_LOOPS = 20_000
PROBE_INTERVAL_S = 0.2
# the probe's time on the reference machine in a fast phase: set-up time
# in probe units times this is set-up time in seconds at that speed
PROBE_NOMINAL_S = 1.5e-3

END_TO_END_UNITS = {
    "wall_rel": "ratio",
    "setup_s": "s",
    "cpu_rel": "ratio",
    "peak_rss_mb": "MB",
    "cell_steps_per_ref": "1/ref",
    "ok_fraction": "ratio",
}

PER_LAYER_UNITS = {
    "regops.apply.calls": "count",
    "regops.apply.self_s": "s",
    "regops.apply.us_per_call": "us",
    "regops.stencil_m": "count",
    "regops.grid_n": "count",
    "regops.macs": "count",
    "regops.bytes_computed": "B",
    "regops.ops_per_byte": "op/B",
    "regops.gmac_per_s": "GMAC/s",
    "solver.solve.s": "s",
    "solver.self_s": "s",
    "solver.steps": "count",
    "solver.rhs.calls": "count",
    "solver.rhs.self_s": "s",
    "solver.rhs_per_step": "ratio",
    "solver.cumulative_trapezoid.s": "s",
    "solver.picard.iterations": "count",
    "solver.picard.rhs_useful_ratio": "ratio",
    "nonlinearity.calls": "count",
    "nonlinearity.s": "s",
    "analysis.pair.calls": "count",
    "analysis.pair.s": "s",
    "analysis.support_probe.s": "s",
    "analysis.apply_calls": "count",
    "analysis.apply_per_saved_state": "ratio",
    "fields.saved_states": "count",
    "fields.saved_mb": "MB",
    "config.validate.s": "s",
    "config.assemble.calls": "count",
    "config.assemble.s": "s",
    "cli.import_s": "s",
    "trajectories.world_line.s": "s",
    "trajectories.sample.calls": "count",
    "trajectories.sample.us_per_call": "us",
    "output.write.s": "s",
    "output.write_table.calls": "count",
    "output.bytes": "B",
    "output.mb_per_s": "MB/s",
    "cli.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe_s() -> float:
    """CPU time of a fixed pure-Python loop: how fast this CPU runs right now.

    The loop calls nothing from the package, so no change to the program
    can move it, and CPU time leaves out any wait for the CPU.
    """
    t0 = time.thread_time()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.thread_time() - t0


def _probe_until_exit(pid, probes) -> None:
    """Probe every ``PROBE_INTERVAL_S`` until ``pid`` exits; return at its exit."""
    if not hasattr(os, "pidfd_open"):
        return
    fd = os.pidfd_open(pid)
    try:
        while not select.select([fd], [], [], PROBE_INTERVAL_S)[0]:
            probes.append(probe_s())
    finally:
        os.close(fd)


def run_child(argv, log_path) -> dict:
    """Run one child to completion, probing the CPU's speed while it runs.

    Returns wall time, the child's rusage from wait4 and the mean probe time.
    """
    probes = []
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=_child_env())
        try:
            _probe_until_exit(proc.pid, probes)
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "probe_s": statistics.mean(probes or [probe_s()]),
        "probes": len(probes),
    }


def pin_to_one_cpu():
    """Run the harness and every child it starts on one CPU.

    On a shared host each virtual CPU slows down and speeds up on its own;
    the probe tracks the speed of a child only when both run on the same
    CPU.  Children inherit the mask.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def tree_digest(path) -> tuple[str, int]:
    """SHA-256 over every relative file name and its bytes, and total size."""
    h = hashlib.sha256()
    size = 0
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(full, path).encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
            size += len(data)
    return h.hexdigest(), size


def problem_size(subcommand: str, cfg_dict: dict) -> dict:
    """n, m and step count of every member, from ``assemble_run`` (not timed)."""
    from maxlor.config import assemble_run, config_from_dict

    cfg = config_from_dict(cfg_dict)
    if subcommand == "sweep":
        members = [assemble_run(cfg, eps=e, refine=True) for e in cfg.eps_schedule]
    else:
        members = [assemble_run(cfg)]
    out = []
    for p in members:
        steps = max(1, int(math.ceil(p.params.T / p.solver.dt - 1e-12)))
        out.append({"n": p.grid.n, "m": len(p.operator.weights), "steps": steps})
    return {"members": out, "cell_steps": sum(x["n"] * x["steps"] for x in out)}


def environment() -> dict:
    import numpy
    import scipy

    caches = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(idx, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(idx, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(idx, "size")) as fh:
                caches[f"L{level}-{kind}"] = fh.read().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _maxlor(subcommand, cfg_path, out=None) -> list:
    argv = [subcommand, "--config", cfg_path, "--workers", "1"]
    return argv + ["--out", out] if out else argv


def _next_cost(runs, setup) -> float:
    """Expected seconds for one more run, its set-up, and the traced run if any."""
    run = statistics.median(r["wall_s"] for r in runs)
    if not setup:
        # tracing: the traced run is about as long as an untraced one
        return 2 * run
    return run + statistics.median(r["wall_s"] for r in setup)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    subcommand, generate, check = workloads.WORKLOADS[name]
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg = generate(seed)
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    size = problem_size(subcommand, cfg)
    deadline = time.perf_counter() + seconds
    py = [sys.executable]
    attempted = failed = 0
    problems: list = []

    setup = []
    runs = []
    first_digest, first_problems = None, []
    while len(runs) < MIN_RUNS or time.perf_counter() + _next_cost(runs, setup) <= deadline:
        i = len(runs)
        if not trace:
            r = run_child(py + ["-m", "maxlor"] + _maxlor("validate", cfg_path),
                          os.path.join(work, f"validate_{i}.log"))
            setup.append(r)
            attempted += 1
            if r["code"] != 0:
                failed += 1
                problems.append(f"validate {i} exited {r['code']}")
        out = os.path.join(work, f"run_{i}")
        r = run_child(py + ["-m", "maxlor"] + _maxlor(subcommand, cfg_path, out),
                      os.path.join(work, f"run_{i}.log"))
        r["digest"], r["bytes"] = tree_digest(out)
        if i == 0:
            first_digest = r["digest"]
            first_problems = check(out) if r["code"] == 0 else ["run 0 failed"]
            problems.extend(first_problems)
        r["ok"] = r["code"] == 0 and r["digest"] == first_digest and not first_problems
        if r["code"] != 0:
            problems.append(f"run {i} exited {r['code']}")
        elif r["digest"] != first_digest:
            problems.append(f"run {i} output differs from run 0")
        shutil.rmtree(out, ignore_errors=True)
        runs.append(r)
        attempted += 1
        failed += not r["ok"]

    wall = statistics.median(r["wall_s"] for r in runs)
    record = {"workload": name, "seed": seed, "size": size, "setup": setup, "runs": runs}
    if trace:
        out = os.path.join(work, "traced")
        spans_path = os.path.join(work, "spans.json")
        r = run_child(py + [os.path.join(HERE, "tracer.py"), spans_path, "--"]
                      + _maxlor(subcommand, cfg_path, out),
                      os.path.join(work, "traced.log"))
        r["digest"], r["bytes"] = tree_digest(out)
        shutil.rmtree(out, ignore_errors=True)
        attempted += 1
        r["ok"] = r["code"] == 0 and r["digest"] == first_digest
        if not r["ok"]:
            failed += 1
            problems.append(f"traced run exited {r['code']} or its output differs from untraced")
        record["traced"] = r
        values = {}
        if os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)
            values = tracer.layer_metrics(spans, r["wall_s"], wall, r["bytes"])
        metrics = {k: {"value": values.get(k, 0), "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        ok = sum(r["ok"] for r in runs)
        wall_rel = statistics.median(r["wall_s"] / r["probe_s"] for r in runs)
        values = {
            "wall_rel": wall_rel,
            "setup_s": PROBE_NOMINAL_S
            * statistics.median(r["wall_s"] / r["probe_s"] for r in setup),
            "cpu_rel": statistics.median(r["cpu_s"] / r["probe_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "cell_steps_per_ref": size["cell_steps"] / wall_rel,
            "ok_fraction": ok / len(runs),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    record["problems"] = problems
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "record": record,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "maxlor", "cli.py")):
        print(f"bench: no maxlor package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # a terminated harness unwinds through run_child, which kills its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cpu = pin_to_one_cpu()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record = result.pop("record")
    record["environment"] = dict(environment(), pinned_cpu=cpu)
    with open(os.path.join(WORK, args.workload, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, record=record), fh, indent=2, sort_keys=True)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("as measured: " + json.dumps({
        "runs": len(record["runs"]),
        "wall_s_median": statistics.median(r["wall_s"] for r in record["runs"]),
        "cpu_s_median": statistics.median(r["cpu_s"] for r in record["runs"]),
        "setup_s_median": (statistics.median(r["wall_s"] for r in record["setup"])
                           if record["setup"] else None),
        "probe_s_median": statistics.median(r["probe_s"] for r in record["runs"]),
    }))
    for p in record["problems"]:
        print(f"problem: {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
