import numpy as np
import pytest

from vvpflow.mesh import SimplicialMesh3, build_box_mesh
from vvpflow.spaces import DeRhamComplex

from oracles import REF_VERTS


def jittered_box(n, seed):
    """Kuhn box with interior vertices moved by up to 0.1 h per coordinate."""
    mesh = build_box_mesh(n, n, n)
    verts = mesh.vertices.copy()
    inner = np.setdiff1d(np.arange(mesh.n_vertices), mesh.boundary_vertices)
    shift = np.random.default_rng(seed).uniform(-0.1, 0.1, (len(inner), 3))
    verts[inner] += shift / n
    return SimplicialMesh3(verts, mesh.tets)


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
def rng():
    return np.random.default_rng(1234)
