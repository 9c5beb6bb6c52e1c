"""Mesh construction, skeleton extraction, orientation, and file IO."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, assume
from hypothesis import strategies as st

from vvpflow.mesh import (
    SimplicialMesh3,
    build_box_mesh,
    euler_characteristic,
    mesh_size,
    read_tetmesh,
    write_tetmesh,
)

import oracles
from conftest import carved_box, jittered_box, side_by_side
from oracles import REF_VERTS


def brute_force_skeleton(tets):
    """Edge and face sets recomputed naively with itertools."""
    edges, faces = set(), set()
    for tet in tets:
        for pair in itertools.combinations(sorted(tet), 2):
            edges.add(pair)
        for tri in itertools.combinations(sorted(tet), 3):
            faces.add(tri)
    return sorted(edges), sorted(faces)


@pytest.mark.parametrize(
    "n,counts,bdry_faces",
    [(1, (8, 19, 18, 6), 12), (2, (27, 98, 120, 48), 48), (3, (64, 279, 378, 162), 108)],
)
def test_box_mesh_counts(n, counts, bdry_faces):
    mesh = build_box_mesh(n, n, n)
    assert (mesh.n_vertices, mesh.n_edges, mesh.n_faces, mesh.n_tets) == counts
    assert len(mesh.boundary_faces) == bdry_faces
    assert euler_characteristic(mesh) == 1


def test_box_mesh_matches_brute_force_skeleton():
    mesh = build_box_mesh(2, 2, 2)
    edges, faces = brute_force_skeleton(mesh.tets.tolist())
    assert [tuple(e) for e in mesh.edges] == edges
    assert [tuple(f) for f in mesh.faces] == faces


def test_boundary_edges_and_vertices():
    mesh = build_box_mesh(2, 2, 2)
    assert len(mesh.boundary_edges) == 72
    # All 27 - 1 = 26 vertices except the center lie on the boundary.
    assert len(mesh.boundary_vertices) == 26


def test_volumes_sum_to_box_volume():
    mesh = build_box_mesh(2, 3, 4, lo=(0.0, -1.0, 2.0), hi=(2.0, 1.0, 5.0))
    assert mesh.tet_volumes.sum() == pytest.approx(2.0 * 2.0 * 3.0, rel=1e-13)
    assert np.all(mesh.tet_volumes > 0)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_mesh_size_is_box_diagonal_over_n(n):
    mesh = build_box_mesh(n, n, n)
    assert mesh_size(mesh) == pytest.approx(np.sqrt(3.0) / n, rel=1e-13)


def test_simplices_are_sorted():
    mesh = build_box_mesh(2, 2, 2)
    assert np.all(np.diff(mesh.tets, axis=1) > 0)
    assert np.all(np.diff(mesh.edges, axis=1) > 0)
    assert np.all(np.diff(mesh.faces, axis=1) > 0)
    # Lexicographic global ordering of the skeletons.
    for arr in (mesh.edges, mesh.faces):
        as_tuples = [tuple(row) for row in arr]
        assert as_tuples == sorted(as_tuples)


def test_face_incidence_counts():
    mesh = build_box_mesh(2, 2, 2)
    interior = np.setdiff1d(np.arange(mesh.n_faces), mesh.boundary_faces)
    assert np.all(mesh.face_tets[interior] >= 0)
    assert np.all(mesh.face_tets[mesh.boundary_faces, 0] >= 0)
    assert np.all(mesh.face_tets[mesh.boundary_faces, 1] == -1)
    # Each tet lists the face among its own four faces.
    for face in range(mesh.n_faces):
        for tet in mesh.face_tets[face]:
            if tet >= 0:
                assert face in mesh.tet_faces[tet]


def test_face_edges_are_the_vertex_pairs():
    mesh = build_box_mesh(2, 2, 2)
    for face in range(mesh.n_faces):
        a, b, c = mesh.faces[face]
        want = [(b, c), (a, c), (a, b)]
        got = [tuple(mesh.edges[e]) for e in mesh.face_edges[face]]
        assert got == want


def test_boundary_face_signs_point_outward():
    mesh = build_box_mesh(2, 2, 2)
    for sign, face in zip(mesh.boundary_face_signs, mesh.boundary_faces):
        a, b, c = mesh.vertices[mesh.faces[face]]
        normal = sign * np.cross(b - a, c - a)
        tet = mesh.face_tets[face, 0]
        outward = (a + b + c) / 3.0 - mesh.vertices[mesh.tets[tet]].mean(axis=0)
        assert normal @ outward > 0


def test_face_areas():
    mesh = SimplicialMesh3(REF_VERTS, [[0, 1, 2, 3]])
    areas = mesh.face_areas()
    # Faces in lexicographic order: (0,1,2), (0,1,3), (0,2,3), (1,2,3).
    np.testing.assert_allclose(
        areas, [0.5, 0.5, 0.5, np.sqrt(3.0) / 2.0], rtol=1e-14
    )
    np.testing.assert_allclose(mesh.face_areas([3]), [np.sqrt(3.0) / 2.0])


def test_unsorted_tet_input_is_canonicalized():
    mesh = SimplicialMesh3(REF_VERTS, [[3, 1, 0, 2]])
    assert np.array_equal(mesh.tets, [[0, 1, 2, 3]])
    assert mesh.tet_volumes[0] == pytest.approx(1.0 / 6.0)
    assert mesh.tet_orientations[0] == 1


def test_mesh_validation_errors():
    with pytest.raises(ValueError, match="vertices"):
        SimplicialMesh3(np.zeros((4, 2)), [[0, 1, 2, 3]])
    with pytest.raises(ValueError, match="tets"):
        SimplicialMesh3(REF_VERTS, [[0, 1, 2]])
    with pytest.raises(ValueError, match="out of range"):
        SimplicialMesh3(REF_VERTS, [[0, 1, 2, 7]])
    with pytest.raises(ValueError, match="repeated vertex"):
        SimplicialMesh3(REF_VERTS, [[0, 1, 2, 2]])
    flat = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    with pytest.raises(ValueError, match="zero volume"):
        SimplicialMesh3(flat, [[0, 1, 2, 3]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_is_rejected(bad):
    """A NaN vertex would give NaN volumes and a system that "solves" with
    a NaN divergence; the mesh names the vertex instead."""
    mesh = build_box_mesh(2, 2, 2)
    verts = mesh.vertices.copy()
    verts[13, 1] = bad
    with pytest.raises(ValueError, match="non-finite coordinate of vertex 13"):
        SimplicialMesh3(verts, mesh.tets)


def test_duplicate_tet_is_rejected():
    """A tet listed twice, in any vertex order, is named as such, also where
    its copies would make the faces it shares inside a box non-manifold."""
    with pytest.raises(ValueError, match=r"duplicate tet: vertices \[0, 1, 2, 3\]"):
        SimplicialMesh3(REF_VERTS, [[0, 1, 2, 3], [3, 1, 0, 2]])
    mesh = build_box_mesh(2, 2, 2)
    inner = mesh.face_tets[mesh.face_tets[:, 1] >= 0][0, 0]
    tets = np.vstack([mesh.tets, mesh.tets[inner][::-1]])
    with pytest.raises(ValueError, match="duplicate tet"):
        SimplicialMesh3(mesh.vertices, tets)


def test_mesh_without_tets_is_rejected():
    """It built with no edges and no faces, and any solve on it then died in
    betti_numbers on scipy's "cannot infer dimensions" error."""
    with pytest.raises(ValueError, match="at least one tet"):
        SimplicialMesh3(np.zeros((4, 3)), np.zeros((0, 4)))


def test_unused_vertex_is_not_counted_by_euler_characteristic():
    """The n=2 box with one vertex that no tet uses read chi = 2 and Betti
    numbers (1, -1, 0)."""
    box = build_box_mesh(2, 2, 2)
    mesh = SimplicialMesh3(np.vstack([box.vertices, [[5.0, 5.0, 5.0]]]), box.tets)
    assert euler_characteristic(mesh) == 1
    assert mesh.betti_numbers == (1, 0, 0)


CARVINGS = ([(1, 1, 1)], [(1, 1, k) for k in range(3)], [(0, 0, 0)], [(2, 1, 0), (2, 1, 1)])


@st.composite
def meshes(draw):
    """A Kuhn box, a jittered box, a carved box or two of them side by side."""
    sizes = st.integers(1, 3)
    kind = draw(st.sampled_from(["box", "jittered", "carved", "union"]))
    if kind == "box":
        return build_box_mesh(draw(sizes), draw(sizes), draw(sizes))
    if kind == "jittered":
        return jittered_box(draw(sizes), draw(st.integers(0, 50)))
    if kind == "carved":
        return carved_box(draw(st.sampled_from(CARVINGS)))
    carved = carved_box(draw(st.sampled_from(CARVINGS)))
    return side_by_side([jittered_box(draw(sizes), draw(st.integers(0, 50))), carved])


@settings(max_examples=25, deadline=None)
@given(meshes(), st.integers(0, 2**32 - 1))
def test_skeleton_matches_row_unique_oracle(mesh, seed):
    """Every skeleton array is bitwise the one of np.unique(axis=0) and a
    key lookup, whatever the vertex numbering, tet order and vertex order
    within each tet."""
    rng = np.random.default_rng(seed)
    relabel = rng.permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[relabel] = mesh.vertices
    tets = rng.permuted(relabel[mesh.tets][rng.permutation(mesh.n_tets)], axis=1)
    shuffled = SimplicialMesh3(vertices, tets)
    for name, want in oracles.skeleton(shuffled.tets).items():
        got = getattr(shuffled, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


def test_non_manifold_mesh_rejected():
    verts = np.vstack([REF_VERTS, [[0.0, 0.0, -1.0], [1.0, 1.0, 1.0]]])
    tets = [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]]
    with pytest.raises(ValueError, match="non-manifold"):
        SimplicialMesh3(verts, tets)


# Two tets on either side of vertex 0; the second shares vertex 1 with the
# first too when they are joined along the edge (0, 1).
JOINED = np.array(
    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0], [0, 0, -1], [-1, 0, 0]],
    dtype=float,
)


def test_tets_joined_only_at_a_vertex_are_rejected():
    """Their union is contractible, but the dual forest sees two components
    and betti_numbers read (2, 1, 0): a handle that is not there."""
    with pytest.raises(ValueError, match="non-manifold mesh: the cells at vertex 0 are not"):
        SimplicialMesh3(JOINED, [[0, 1, 2, 3], [0, 4, 5, 6]])


def test_tets_joined_only_along_an_edge_are_rejected():
    """betti_numbers read b2 = -1 here; the edge's end vertices show the join."""
    with pytest.raises(ValueError, match="non-manifold mesh: the cells at vertex 0 are not"):
        SimplicialMesh3(JOINED, [[0, 1, 2, 3], [0, 1, 4, 5]])
    with pytest.raises(ValueError, match="the cells at vertex 5 are not"):
        SimplicialMesh3(JOINED[::-1], [[6, 5, 4, 3], [6, 5, 2, 1]])


def test_build_box_mesh_validation():
    with pytest.raises(ValueError):
        build_box_mesh(0, 1, 1)
    with pytest.raises(ValueError):
        build_box_mesh(1, 1, 1, lo=(0, 0, 0), hi=(1, 1, 0))


def test_tetmesh_io_round_trip(tmp_path):
    mesh = build_box_mesh(2, 1, 1, hi=(2.0, 1.0, 1.0))
    path = tmp_path / "mesh.txt"
    write_tetmesh(path, mesh)
    back = read_tetmesh(path)
    np.testing.assert_array_equal(back.tets, mesh.tets)
    np.testing.assert_array_equal(back.vertices, mesh.vertices)


def test_read_tetmesh_malformed_inputs(tmp_path):
    cases = {
        "empty.txt": ("", "empty"),
        "header.txt": ("trimesh 4 1\n0 0 0\n", "expected header"),
        "counts.txt": ("tetmesh four 1\n", "bad counts"),
        "lines.txt": ("tetmesh 4 1\n0 0 0\n", "expected 6 lines"),
        "token.txt": (
            "tetmesh 4 1\n0 0 zero\n1 0 0\n0 1 0\n0 0 1\n0 1 2 3\n",
            "malformed",
        ),
        "columns.txt": (
            "tetmesh 4 1\n0 0\n1 0\n0 1\n0 0\n0 1 2 3\n",
            "3 coordinates",
        ),
    }
    for name, (content, match) in cases.items():
        path = tmp_path / name
        path.write_text(content)
        with pytest.raises(ValueError, match=match):
            read_tetmesh(path)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-0.3, max_value=0.3, allow_nan=False),
        min_size=12,
        max_size=12,
    )
)
def test_random_tet_volume_matches_determinant(perturbation):
    verts = REF_VERTS.copy()
    verts += np.array(perturbation).reshape(4, 3)
    jac = verts[1:] - verts[0]
    det = float(np.linalg.det(jac))
    assume(abs(det) > 1e-3)
    mesh = SimplicialMesh3(verts, [[0, 1, 2, 3]])
    assert mesh.tet_volumes[0] == pytest.approx(abs(det) / 6.0, rel=1e-12)
    assert mesh.tet_orientations[0] == (1 if det > 0 else -1)
    assert len(mesh.boundary_faces) == 4
