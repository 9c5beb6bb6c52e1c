"""The package's public names."""
import importlib
import pkgutil

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
