"""Legacy ASCII VTK export of one solver state on its tetrahedral mesh.

Writes DATASET UNSTRUCTURED_GRID files (cell type 10) with per-cell
scalars and vectors, which is enough for any standard VTK reader to
show the solver fields.  The scalars are the divergence and pressure
densities (piecewise constant); the vectors are velocity and vorticity
at each cell barycenter.  Every number is written with ``.9e``.
"""
from __future__ import annotations

__all__ = ["write_vtk_fields"]


def _fmt(x):
    return format(float(x), ".9e")


def write_vtk_fields(path, complex_, state, title="vvpflow fields"):
    """Write the mesh of ``complex_`` and the cell fields of ``state``.

    Velocity and vorticity are evaluated with the degree-1 volume rule,
    whose single node is the barycenter of each tet.
    """
    mesh = complex_.mesh
    tab = complex_.tabulation(1)
    scalars = {
        "divergence": (complex_.d2 @ state.u.values) / mesh.tet_volumes,
        "pressure": state.p.values / mesh.tet_volumes,
    }
    vectors = {
        "velocity": tab.field(2, state.u.values)[:, 0],
        "vorticity": tab.field(1, state.omega.values)[:, 0],
    }
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
    lines.append(f"CELL_DATA {mesh.n_tets}")
    for name, values in scalars.items():
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(_fmt(v) for v in values)
    for name, values in vectors.items():
        lines.append(f"VECTORS {name} double")
        for v in values:
            lines.append(" ".join(_fmt(c) for c in v))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
