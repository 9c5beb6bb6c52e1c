"""The benchmark tracer's targets still name functions of the library.

``benchmarks/tracer.py`` patches each (module, attribute path) in its
``TARGETS`` and only records a missing one, so a renamed or dropped
function would silently vanish from the per-layer metrics.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, path, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert len(tracer.TARGETS) > 20
    assert missing == []
