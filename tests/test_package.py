"""Package-wide invariants: every module imports, its exports resolve, the
runtime needs numpy and the standard library alone, and every name the
benchmark wraps or calls with ``k=`` still exists."""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import advfield
from advfield import attack, evaluate, field

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

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


def _wrapped_names() -> list:
    """``(module, attribute)`` of every entry of the benchmark's ``WRAPPED`` list."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"{TRACING} assigns no WRAPPED list")


def test_every_name_the_benchmark_traces_resolves():
    names = _wrapped_names()
    assert names
    unresolved = []
    for module, attribute in names:
        target = importlib.import_module(module)
        for part in attribute.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            unresolved.append(f"{module}.{attribute}")
    assert not unresolved, f"the benchmark traces missing names {unresolved}"


def test_the_benchmark_passes_k_where_the_library_accepts_it():
    for fn in (attack.AttackConfig, evaluate.train_augmented, evaluate.deform_all_objects):
        assert "k" in inspect.signature(fn).parameters, fn.__qualname__
    # the tracing hook of plan_deformation reads k as its fifth positional argument
    assert list(inspect.signature(field.plan_deformation).parameters)[4] == "k"
