"""A run loads only the libraries it calls.

Each subcommand runs in a fresh interpreter, which then names the heavy
modules it loaded: OpenSSL's ``_hashlib``, the process pool and
``numpy.polynomial``.  Nothing here measures memory, which depends on the
host; the modules are what a default run must not pay for.
"""

import json
import os
import subprocess
import sys

import pytest

# the modules a default run never calls
HEAVY = ("_hashlib", "concurrent.futures.process", "multiprocessing", "numpy.polynomial")

# runs one subcommand and prints, as JSON, which of HEAVY it loaded
_FOOTPRINT_PROBE = """
import json, sys
from maxlor.cli import main
code = main(sys.argv[2:])
print(json.dumps([m for m in json.loads(sys.argv[1]) if m in sys.modules]))
sys.exit(code)
"""

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize("subcommand, config, loaded", [
    ("validate", "point_charge", []),
    ("solve", "point_charge", []),
    ("trajectories", "point_charge", []),
    # the verdict computes a pairing target, which builds the quadrature rule
    ("sweep", "obstruction_sweep", ["numpy.polynomial"]),
])
def test_run_loads_only_what_it_uses(tmp_path, subcommand, config, loaded):
    argv = [subcommand, "--config", os.path.join(ROOT, "configs", f"{config}.json"),
            "--workers", "1"]
    if subcommand != "validate":
        argv += ["--out", str(tmp_path / "out")]
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_PROBE, json.dumps(HEAVY), *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == loaded
