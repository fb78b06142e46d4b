"""Package-wide invariants: every module imports, its exports resolve, and the
runtime needs numpy and the standard library alone."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import advfield

MODULES = sorted(info.name for info in pkgutil.iter_modules(advfield.__path__, "advfield."))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("path", sorted(Path(advfield.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_the_runtime_imports_numpy_and_the_standard_library_alone(path):
    allowed = sys.stdlib_module_names | {"__future__", "numpy"}
    foreign = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [name for name in names if name.split(".")[0] not in allowed]
    assert not foreign, f"{path.name} imports {foreign}"
