"""Legacy ASCII VTK export of tetrahedral meshes and cell fields.

Writes DATASET UNSTRUCTURED_GRID files (cell type 10) with per-cell
scalars and vectors, which is enough for any standard VTK reader to
show the solver fields.  Pressure and divergence are exported as
piecewise-constant densities; velocity and vorticity as their values
at each cell barycenter.
"""
from __future__ import annotations

import numpy as np

__all__ = ["write_vtk", "cell_fields", "write_vtk_fields"]


def _fmt(x):
    return format(float(x), ".9e")


def write_vtk(path, mesh, cell_scalars=None, cell_vectors=None, title="vvpflow fields"):
    """Write the mesh plus per-cell data as a legacy ASCII VTK file.

    ``cell_scalars`` and ``cell_vectors`` map names to arrays of shape
    (n_tets,) and (n_tets, 3).  Field names must be single tokens.
    """
    cell_scalars = dict(cell_scalars or {})
    cell_vectors = dict(cell_vectors or {})
    for name, arr in cell_scalars.items():
        if " " in name:
            raise ValueError(f"field name {name!r} must not contain spaces")
        if np.shape(arr) != (mesh.n_tets,):
            raise ValueError(f"scalar field {name!r} has wrong shape")
    for name, arr in cell_vectors.items():
        if " " in name:
            raise ValueError(f"field name {name!r} must not contain spaces")
        if np.shape(arr) != (mesh.n_tets, 3):
            raise ValueError(f"vector field {name!r} has wrong shape")

    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_vertices} double",
    ]
    for p in mesh.vertices:
        lines.append(" ".join(_fmt(c) for c in p))
    lines.append(f"CELLS {mesh.n_tets} {5 * mesh.n_tets}")
    for tet in mesh.tets:
        lines.append("4 " + " ".join(str(int(v)) for v in tet))
    lines.append(f"CELL_TYPES {mesh.n_tets}")
    lines.extend(["10"] * mesh.n_tets)
    if cell_scalars or cell_vectors:
        lines.append(f"CELL_DATA {mesh.n_tets}")
        for name in sorted(cell_scalars):
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(_fmt(v) for v in cell_scalars[name])
        for name in sorted(cell_vectors):
            lines.append(f"VECTORS {name} double")
            for v in cell_vectors[name]:
                lines.append(" ".join(_fmt(c) for c in v))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cell_fields(complex_, state):
    """Per-cell field arrays for one solver state.

    Returns (scalars, vectors): pressure and divergence densities, and
    velocity/vorticity evaluated at the barycenters (the degree-1
    volume rule has its single node exactly there).
    """
    mesh = complex_.mesh
    tab = complex_.tabulation(1)
    velocity = tab.field(2, state.u.values)[:, 0]
    vorticity = tab.field(1, state.omega.values)[:, 0]
    scalars = {
        "pressure": state.p.values / mesh.tet_volumes,
        "divergence": (complex_.d2 @ state.u.values) / mesh.tet_volumes,
    }
    vectors = {"velocity": velocity, "vorticity": vorticity}
    return scalars, vectors


def write_vtk_fields(path, complex_, state, title="vvpflow fields"):
    scalars, vectors = cell_fields(complex_, state)
    write_vtk(path, complex_.mesh, scalars, vectors, title=title)
