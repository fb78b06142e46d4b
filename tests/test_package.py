"""Package-wide invariants: every module imports, and its exports resolve."""

import importlib
import pkgutil

import pytest

import advfield

MODULES = sorted(info.name for info in pkgutil.iter_modules(advfield.__path__, "advfield."))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
