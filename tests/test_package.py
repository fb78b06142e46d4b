"""Package-wide invariants: every module imports, its exports resolve, the
runtime needs numpy and the standard library alone, no module or test imports
a name it never uses, every name the benchmark wraps still exists, and every
call the benchmark makes still binds."""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import advfield
from advfield import field

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")

MODULES = sorted(info.name for info in pkgutil.iter_modules(advfield.__path__, "advfield."))
SOURCES = sorted(Path(advfield.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
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


FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes", "mkdir"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_cloudio_opens_or_creates_files(path):
    calls = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in FILE_CALLS:
                calls.append(f"{path.name}:{node.lineno}: {name}")
    if path.name == "cloudio.py":
        assert calls  # the check sees the file calls of the one module that makes them
    else:
        assert not calls, calls


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_another(path):
    private = [f"{path.name}:{node.lineno}: {alias.name}"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "advfield")
               for alias in node.names if alias.name.startswith("_")]
    assert not private, private


def _unused_imports(tree) -> list:
    """``(line, name)`` of every name the module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno)
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES + TESTS,
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_imported_name_is_used(path):
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, [f"{path.name}:{line}: {name}" for line, name in unused]


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


def _advfield_modules(tree) -> dict:
    """Local name -> module of every ``from advfield import <module>``."""
    return {alias.asname or alias.name: importlib.import_module(f"advfield.{alias.name}")
            for node in tree.body if isinstance(node, ast.ImportFrom)
            and node.module == "advfield" for alias in node.names}


def _resolve(node, modules):
    """The advfield object that ``module.attr...`` names, else None; raises
    AttributeError for a name the library lacks."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in modules or not parts:
        return None
    target = modules[node.id]
    for part in reversed(parts):
        target = getattr(target, part)
    return target


def _loop_bindings(tree) -> dict:
    """``id(call) -> {name: [element]}`` for calls inside ``for a, b in ((x, y), ...)``
    loops over literal tuples: each name with every element it takes."""
    bindings = {}
    for loop in ast.walk(tree):
        if not (isinstance(loop, ast.For) and isinstance(loop.target, ast.Tuple)
                and isinstance(loop.iter, (ast.Tuple, ast.List))
                and all(isinstance(t, ast.Name) for t in loop.target.elts)
                and all(isinstance(row, ast.Tuple) for row in loop.iter.elts)):
            continue
        names = [t.id for t in loop.target.elts]
        values = {name: [row.elts[i] for row in loop.iter.elts]
                  for i, name in enumerate(names)}
        for call in (n for stmt in loop.body for n in ast.walk(stmt)
                     if isinstance(n, ast.Call)):
            bindings.setdefault(id(call), {}).update(values)
    return bindings


# workload helpers that take the library callable as an argument: its position
FORWARDERS = {"call": 0, "attempt": 1}


def _benchmark_calls():
    """``(line, callable expression, callable, positional count, keyword names)``
    of every advfield call in the workloads, resolved against the library."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = _advfield_modules(tree)
    assert {"attack", "baselines", "evaluate"} <= modules.keys()
    loops = _loop_bindings(tree)
    calls = []
    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        fn_node, args = call.func, call.args
        at = FORWARDERS.get(getattr(fn_node, "attr", None))
        if at is not None and len(args) > at:
            fn_node, args = args[at], args[at + 1:]
        candidates = [fn_node]
        if isinstance(fn_node, ast.Name):
            candidates = loops.get(id(call), {}).get(fn_node.id, [])
        for node in candidates:
            try:
                fn = _resolve(node, modules)
            except AttributeError as err:
                raise AssertionError(f"workloads.py:{call.lineno}: {err}") from None
            if fn is None:
                continue
            assert not any(isinstance(a, ast.Starred) for a in args), call.lineno
            assert all(kw.arg for kw in call.keywords), call.lineno
            calls.append((call.lineno, ast.unparse(node), fn, len(args),
                          [kw.arg for kw in call.keywords]))
    return calls


def test_every_call_the_benchmark_makes_binds_to_the_library():
    calls = _benchmark_calls()
    names = {name for _, name, *_ in calls}
    # direct, through Ops.call and Ops.attempt, and through the baseline loop
    assert {"attack.AttackConfig", "attack.fit_bank", "simulator.load_split",
            "baselines.iterative_gradient_l2", "baselines.chamfer_attack"} <= names
    unbound = []
    for line, name, fn, n_args, keywords in calls:
        try:
            inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as err:
            unbound.append(f"workloads.py:{line}: {name}: {err}")
    assert not unbound, "the benchmark's calls no longer bind:\n" + "\n".join(unbound)
    # the tracing hook of plan_deformation reads k as its fifth positional argument
    assert list(inspect.signature(field.plan_deformation).parameters)[4] == "k"
