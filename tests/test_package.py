"""Every name a ``maxlor`` module exports in ``__all__`` exists on it, so a
stale entry left by a deletion fails here and not only on ``import *``; and
the library tour in README runs as written."""

import importlib
import os
import pkgutil
import re

import pytest

import maxlor

# ``__main__`` runs the command line when imported
MODULES = sorted(info.name for info in pkgutil.iter_modules(maxlor.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"maxlor.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_readme_library_snippets_run(monkeypatch, capsys):
    # the snippets build on each other and name configs relative to the repo root
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(ROOT)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    status, leak, drift = capsys.readouterr().out.split()
    assert status == "ok" and float(leak) == 0.0 and float(drift) < 1e-12
