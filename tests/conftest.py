import numpy as np
import pytest

from vvpflow.assembly import BoundaryConditionSpec, assemble_convection
from vvpflow.mesh import SimplicialMesh3, build_box_mesh
from vvpflow.spaces import DeRhamComplex, _scatter

from oracles import REF_VERTS


def jittered_box(n, seed):
    """Kuhn box with interior vertices moved by up to 0.1 h per coordinate."""
    mesh = build_box_mesh(n, n, n)
    verts = mesh.vertices.copy()
    inner = np.setdiff1d(np.arange(mesh.n_vertices), mesh.boundary_vertices)
    shift = np.random.default_rng(seed).uniform(-0.1, 0.1, (len(inner), 3))
    verts[inner] += shift / n
    return SimplicialMesh3(verts, mesh.tets)


def side_by_side(meshes):
    """One mesh of unit boxes, box i shifted by 2i in x so that none touch."""
    verts, tets, offset = [], [], 0
    for i, mesh in enumerate(meshes):
        verts.append(mesh.vertices + [2.0 * i, 0.0, 0.0])
        tets.append(mesh.tets + offset)
        offset += mesh.n_vertices
    return SimplicialMesh3(np.concatenate(verts), np.concatenate(tets))


def carved_box(cubes):
    """3x3x3 Kuhn box of side 3 without the unit cubes at the given (i, j, k)."""
    box = build_box_mesh(3, 3, 3, hi=(3.0, 3.0, 3.0))
    cube = np.floor(box.vertices[box.tets].mean(axis=1)).astype(int)
    drop = np.any([np.all(cube == c, axis=1) for c in cubes], axis=0)
    return SimplicialMesh3(box.vertices, box.tets[~drop])


def scattered_convection(complex_, omega_values, u_values, theta):
    """The convection blocks as sparse (F, E) and (F, F) matrices."""
    mesh = complex_.mesh
    local3, local5 = assemble_convection(complex_, omega_values, u_values, theta)
    return (
        _scatter(local3, mesh.tet_faces, mesh.tet_edges, (mesh.n_faces, mesh.n_edges)),
        _scatter(local5, mesh.tet_faces, mesh.tet_faces, (mesh.n_faces, mesh.n_faces)),
    )


@pytest.fixture(scope="session")
def ref_complex():
    """The single reference tetrahedron as a one-cell complex."""
    return DeRhamComplex(SimplicialMesh3(REF_VERTS, [[0, 1, 2, 3]]))


@pytest.fixture(scope="session")
def complex_n1():
    return DeRhamComplex(build_box_mesh(1, 1, 1))


@pytest.fixture(scope="session")
def complex_n2():
    return DeRhamComplex(build_box_mesh(2, 2, 2))


@pytest.fixture
def region_map_calls(monkeypatch):
    """The meshes of every ``BoundaryConditionSpec.face_region_map`` call,
    the one place a boundary spec is resolved, made while the test runs."""
    real = BoundaryConditionSpec.face_region_map
    calls = []

    def counting(self, mesh):
        calls.append(mesh)
        return real(self, mesh)

    monkeypatch.setattr(BoundaryConditionSpec, "face_region_map", counting)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
