"""The package's public names."""
import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
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


_THREADS_RUN = """
import json, os, signal, threading
names = lambda: sorted(t.name for t in threading.enumerate() if t is not threading.main_thread())
import vvpflow, vvpflow.cli, vvpflow.experiments, vvpflow.vtk_io
from vvpflow import fields, mesh, solver, spaces
seen = {"import": names()}
complex_ = spaces.DeRhamComplex(mesh.build_box_mesh(1, 1, 1))
mms = fields.stokes_mms_fields()
bc = vvpflow.assembly.BoundaryConditionSpec(
    vvpflow.assembly.RegionBC(vorticity_data=mms["vorticity"], velocity_data=mms["velocity"])
)
config = solver.SolverConfig(dt=1e-2, t_end=2e-2)
run = solver.run_transient(complex_, bc, config, velocity_data=mms["velocity"], f=mms["forcing"])
complex_.error_norms(run.final.u, mms["velocity"])  # 384 points: below the sharing size
seen["steps"] = names()
solver.solve_stokes(complex_, bc, f2=mms["forcing"])
seen["first"] = names()
for _ in range(19):
    solver.solve_stokes(complex_, bc, f2=mms["forcing"])
seen["twenty"] = names()
large = spaces.DeRhamComplex(mesh.build_box_mesh(5, 5, 5))  # 48,000 error points
u = large.interpolate(mms["velocity"], 2)
read, write = os.pipe()
pid = os.fork()
if pid == 0:  # the child has no worker thread and must make its own
    signal.alarm(30)
    child = [names()]
    large.error_norms(u, mms["velocity"])
    child.append(names())
    solver.solve_stokes(complex_, bc, f2=mms["forcing"])
    child.append(names())
    os.write(write, json.dumps(child).encode())
    os._exit(0)
os.close(write)
seen["forked"] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
seen["child"] = json.loads(os.read(read, 4096))
print(json.dumps(seen))
"""


def test_the_worker_thread_starts_with_the_first_steady_solve():
    """Importing the package starts no thread, nor do time steps or error
    norms below the size that shares their blocks; the first steady solve
    makes the one worker, named ``vvpflow-...``, and twenty solves still
    leave that one.  A child forked after them makes a worker of its own,
    here with error norms above that size, and its steady solve uses it."""
    done = subprocess.run(
        [sys.executable, "-c", _THREADS_RUN],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["import"] == seen["steps"] == []
    assert len(seen["first"]) == 1 and seen["first"][0].startswith("vvpflow-")
    assert seen["twenty"] == seen["first"]
    assert seen["forked"] == 0
    assert seen["child"] == [[], ["vvpflow-worker_0"], ["vvpflow-worker_0"]]
