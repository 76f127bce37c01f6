"""Every name a ``maxlor`` module exports in ``__all__`` exists on it, so a
stale entry left by a deletion fails here and not only on ``import *``."""

import importlib
import pkgutil

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
