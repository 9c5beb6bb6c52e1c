"""The benchmark still matches the library it drives.

``benchmarks/tracer.py`` patches each (module, attribute path) in its
``TARGETS`` and only records a missing one, so a renamed or dropped
function would silently vanish from the per-layer metrics.  The
benchmark's workloads are not run here, so a call that no longer binds
to the library's signature would first show as failed operations.
Imports the library keeps only for the tracer (marked ``# noqa: F401``)
must stay among its targets, so that none is left behind when a target
moves.
"""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
WORKLOAD = TRACER.parent / "workload.py"
SOURCES = Path(__file__).resolve().parents[1] / "src" / "vvpflow"
# The names benchmarks/workload.py binds to vvpflow's modules.
LIBRARY = {
    "assembly": "vvpflow.assembly",
    "fields": "vvpflow.fields",
    "solver": "vvpflow.solver",
    "spaces": "vvpflow.spaces",
    "vmesh": "vvpflow.mesh",
}


def _tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = _tracer()
    missing = []
    for module_name, path, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert len(tracer.TARGETS) > 20
    assert missing == []


def test_workload_calls_bind_to_library_signatures():
    calls = [
        node
        for node in ast.walk(ast.parse(WORKLOAD.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in LIBRARY
    ]
    unbound = []
    for call in calls:
        name = f"{call.func.value.id}.{call.func.attr}"
        module = importlib.import_module(LIBRARY[call.func.value.id])
        target = getattr(module, call.func.attr, None)
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        keywords = [kw.arg for kw in call.keywords]
        if target is None:
            unbound.append(f"line {call.lineno}: {name} is not in the library")
            continue
        if starred or None in keywords:
            unbound.append(f"line {call.lineno}: {name} unpacks its arguments")
            continue
        try:
            inspect.signature(target).bind(*call.args, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {name}: {exc}")
    assert len(calls) >= 15
    assert unbound == []


def test_imports_kept_for_the_tracer_are_its_targets():
    targets = {(module_name, path) for module_name, path, _ in _tracer().TARGETS}
    kept = []
    for source in sorted(SOURCES.glob("*.py")):
        module_name = "vvpflow" if source.stem == "__init__" else f"vvpflow.{source.stem}"
        text = source.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if "noqa: F401" in lines[alias.lineno - 1]:
                        kept.append((module_name, alias.asname or alias.name))
    assert ("vvpflow.assembly", "interpolate") in kept
    assert len(kept) >= 4
    assert [name for name in kept if name not in targets] == []
