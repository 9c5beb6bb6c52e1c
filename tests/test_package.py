"""The package's public names."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import vvpflow

MODULES = ["vvpflow"] + [
    f"vvpflow.{info.name}" for info in pkgutil.iter_modules(vvpflow.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_the_submodules_are_found():
    assert {"vvpflow.assembly", "vvpflow.linalg", "vvpflow.solver"} <= set(MODULES)


ROOT = Path(__file__).resolve().parents[1]
# Public names that no library module, benchmark or demo reads, each with
# why it stays.
UNREAD_EXPORTS = {
    # The writer of the format that read_tetmesh and `vvpflow mesh-info` read.
    ("vvpflow.mesh", "write_tetmesh"),
}


def _names_read(*dirs):
    """Every name loaded, every attribute read and every name imported by
    the Python files under ``dirs``."""
    read = set()
    for path in (p for d in dirs for p in sorted((ROOT / d).rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def test_every_exported_name_has_a_reader():
    """A submodule's public name that only the tests read is dead weight:
    it is removed, or listed in UNREAD_EXPORTS with its reason."""
    read = _names_read("src/vvpflow", "benchmarks", "demos")
    unread = {
        (name, n)
        for name in MODULES[1:]
        for n in getattr(importlib.import_module(name), "__all__", ())
        if n not in read
    }
    assert unread == UNREAD_EXPORTS
