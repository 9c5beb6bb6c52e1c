"""The mesh's dual spanning forest and what it decides: the harmonic
3-forms and their pins, the flux shift, and the divergence sweep."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvpflow import linalg
from vvpflow.assembly import (
    NATURAL,
    BoundaryConditionSpec,
    RegionBC,
    ResolvedBoundary,
    build_harmonic_space,
    essential_constraints,
)
from vvpflow.linalg import RESIDUAL_TOL, assemble_blocks
from vvpflow.mesh import SimplicialMesh3, build_box_mesh
from vvpflow.solver import solve_stokes
from vvpflow.spaces import DeRhamComplex, interpolate

import oracles
from conftest import carved_box, jittered_box, side_by_side


def outlets(open_boxes, walls):
    """Natural outlets on the x = 2i + 1 face of each open box i."""
    xs = 2.0 * np.asarray(open_boxes, dtype=float) + 1.0
    outlet = RegionBC(
        name="outlet",
        vorticity_mode=NATURAL,
        velocity_mode=NATURAL,
        where=lambda c: np.any(np.abs(c[:, :1] - xs[None, :]) < 1e-9, axis=1),
    )
    return BoundaryConditionSpec((outlet, walls))


def forcing(points, t=0.0):
    return np.stack(
        [np.sin(points[:, 1]), points[:, 2] ** 2, np.cos(points[:, 0])], axis=1
    )


def expanding(points, t=0.0):
    return points.copy()


def assert_stokes_gates(complex_, bc):
    state, info = solve_stokes(complex_, bc, f2=forcing)
    assert info["residual"] <= RESIDUAL_TOL
    assert info["div_max"] <= 1e-12 * (1.0 + complex_.norm(state.u))
    return state


def test_two_closed_boxes_have_two_harmonic_forms(monkeypatch):
    complex_ = DeRhamComplex(side_by_side([build_box_mesh(2, 2, 2)] * 2))
    bc = BoundaryConditionSpec(RegionBC())
    harmonic = build_harmonic_space(complex_, bc)
    assert harmonic.dim == 2 == oracles.harmonic_rank(complex_, bc)
    np.testing.assert_array_equal(harmonic.pins // 48, [0, 1])

    # The forest now exists; solving must not search the graph again.
    def no_graph_work(*args, **kwargs):
        raise AssertionError("graph search after the forest was built")

    for name in ("connected_components", "breadth_first_order", "shortest_path"):
        monkeypatch.setattr(f"vvpflow.mesh.csgraph.{name}", no_graph_work)
    state = assert_stokes_gates(complex_, bc)
    assert complex_.norm(state.u) > 1e-3
    gauge = harmonic.basis.T @ (complex_.m3 @ state.p.values)
    np.testing.assert_allclose(gauge, 0.0, atol=1e-14)

    # The paper's bordered system, with both multipliers, has the same solution.
    system = oracles.saddle_system(complex_, bc, f2=forcing)
    bordered = oracles.bordered_system(*system, harmonic.basis, complex_.m3)
    reduced = assemble_blocks(*bordered)
    x, _ = linalg.solve(reduced.matrix, reduced.rhs)
    want = reduced.split(reduced.expand(x))
    for got, key in ((state.omega, "u1"), (state.u, "u2"), (state.p, "u3")):
        ref = want[key]
        assert np.linalg.norm(got.values - ref) <= 1e-12 * np.linalg.norm(ref)


def test_outlet_box_beside_closed_box_shifts_only_the_closed_flux():
    complex_ = DeRhamComplex(side_by_side([build_box_mesh(2, 2, 2)] * 2))
    bc = outlets([1], RegionBC(name="walls", velocity_data=expanding))
    harmonic = build_harmonic_space(complex_, bc)
    assert harmonic.dim == 1 == oracles.harmonic_rank(complex_, bc)
    np.testing.assert_array_equal(harmonic.pins // 48, [0])

    idx, vals = essential_constraints(complex_, bc)["u2"]
    mesh = complex_.mesh
    signs = mesh.boundary_face_signs[np.searchsorted(mesh.boundary_faces, idx)]
    raw = interpolate(expanding, complex_.V2).values[idx]
    closed = mesh.face_tets[idx, 0] < 48
    assert signs[closed] @ raw[closed] == pytest.approx(3.0, rel=1e-12)
    assert abs(signs[closed] @ vals[closed]) < 1e-13
    np.testing.assert_array_equal(vals[~closed], raw[~closed])
    assert_stokes_gates(complex_, bc)


def swirl(points, t=0.0):
    x, y, z = points.T
    return np.stack([np.sin(y + t), np.cos(z - t), x * (1.0 + t)], axis=1)


def growing(points, t=0.0):
    return (1.0 + t) * points  # net outflux 3 (1 + t) per unit box


@pytest.mark.parametrize("case", ["seam", "outlet", "two-closed"])
def test_shared_boundary_gives_standalone_essential_values(case, monkeypatch):
    """One resolved boundary, reused at two times, gives the indices and
    the bit-identical values of a call that resolves its own, without
    evaluating a region predicate again."""
    if case == "seam":
        mesh = build_box_mesh(2, 2, 2)
        left = RegionBC(
            name="left",
            vorticity_data=expanding,
            velocity_data=growing,
            where=lambda c: c[:, 0] < 0.5,
        )
        rest = RegionBC(name="rest", vorticity_data=swirl, velocity_data=growing)
        bc = BoundaryConditionSpec((left, rest))
    elif case == "outlet":
        mesh = build_box_mesh(2, 2, 2)
        bc = outlets([0], RegionBC(name="walls", vorticity_data=swirl, velocity_data=growing))
    else:
        mesh = side_by_side([build_box_mesh(2, 2, 2)] * 2)
        bc = BoundaryConditionSpec(RegionBC(vorticity_data=swirl, velocity_data=growing))
    complex_ = DeRhamComplex(mesh)
    boundary = ResolvedBoundary(complex_, bc)
    times = (0.0, 0.7)
    standalone = [essential_constraints(complex_, bc, t=t) for t in times]

    def no_predicates(*args):
        raise AssertionError("region predicates evaluated again")

    monkeypatch.setattr(BoundaryConditionSpec, "face_region_map", no_predicates)
    for t, want in zip(times, standalone):
        got = essential_constraints(complex_, boundary, t=t)
        assert got.keys() == want.keys() == {"u1", "u2"}
        for group, (idx, vals) in want.items():
            np.testing.assert_array_equal(got[group][0], idx)
            assert got[group][1].tobytes() == vals.tobytes()

        if case == "seam":  # a seam edge takes the first region's data
            edges, values = got["u1"]
            (_, lf, _), (_, rf, _) = boundary.regions("vorticity", "essential")
            seam = np.intersect1d(mesh.face_edges[lf], mesh.face_edges[rf])
            assert len(seam) > 0
            first = interpolate(expanding, complex_.V1, t=t).values[seam]
            np.testing.assert_allclose(values[np.searchsorted(edges, seam)], first, atol=1e-14)
        if case == "two-closed":  # the flux shift ran on each box
            faces, fluxes = got["u2"]
            signs = mesh.boundary_face_signs[np.searchsorted(mesh.boundary_faces, faces)]
            in_first = mesh.face_tets[faces, 0] < 48
            for box in (in_first, ~in_first):
                assert abs(signs[box] @ fluxes[box]) < 1e-13


@settings(max_examples=12, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 3), st.integers(0, 50), st.booleans()),
        min_size=1,
        max_size=3,
    )
)
def test_forest_matches_rank_oracle_on_box_unions(boxes):
    meshes = [jittered_box(n, seed) for n, seed, _ in boxes]
    mesh = side_by_side(meshes)
    complex_ = DeRhamComplex(mesh)
    open_boxes = [i for i, (_, _, is_open) in enumerate(boxes) if is_open]
    bc = outlets(open_boxes, RegionBC(name="walls"))
    harmonic = build_harmonic_space(complex_, bc)
    assert harmonic.dim == oracles.harmonic_rank(complex_, bc)
    assert harmonic.dim == len(boxes) - len(open_boxes)

    forest = mesh.dual_forest
    starts = np.cumsum([0] + [m.n_tets for m in meshes])
    for i, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
        assert len(np.unique(forest.labels[lo:hi])) == 1
        pins = harmonic.pins[(harmonic.pins >= lo) & (harmonic.pins < hi)]
        if i in open_boxes:
            assert len(pins) == 0
        else:
            np.testing.assert_array_equal(pins, [lo + np.argmax(mesh.tet_volumes[lo:hi])])
    assert len(np.unique(forest.labels)) == len(boxes) == len(forest.roots)

    order = np.concatenate(forest.levels)
    assert sorted(order) == list(range(mesh.n_tets))
    np.testing.assert_array_equal(np.sort(forest.levels[0]), np.sort(forest.roots))
    for above, level in zip(forest.levels, forest.levels[1:]):
        assert np.all(np.isin(forest.parent[level], above))
    tree = order[len(forest.roots) :]
    faces = forest.parent_face[tree]
    assert np.all(mesh.face_tets[faces, 1] >= 0)
    np.testing.assert_array_equal(
        np.sort(mesh.face_tets[faces], axis=1),
        np.sort(np.stack([tree, forest.parent[tree]], axis=1), axis=1),
    )
    d2 = complex_.d2[tree, faces]
    np.testing.assert_array_equal(np.asarray(d2).ravel(), forest.parent_sign[tree])
    assert_stokes_gates(complex_, bc)


@pytest.mark.parametrize(
    "mesh",
    [
        lambda: jittered_box(4, 7),
        lambda: jittered_box(5, 3),
        lambda: side_by_side([jittered_box(2, 1), build_box_mesh(3, 2, 2)]),
        lambda: HANDLE,
    ],
    ids=["jittered-box", "odd-jittered-box", "two-boxes", "handle"],
)
def test_elimination_order_pairs_each_cell_with_its_parent_face(mesh):
    mesh = mesh()
    E, F, T = mesh.n_edges, mesh.n_faces, mesh.n_tets
    order = mesh.elimination_order
    np.testing.assert_array_equal(np.sort(order), np.arange(E + F + T))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    forest = mesh.dual_forest
    tree = np.flatnonzero(forest.parent >= 0)
    np.testing.assert_array_equal(
        position[E + F + tree], position[E + forest.parent_face[tree]] + 1
    )
    roots = order[-len(forest.roots) :] - E - F
    np.testing.assert_array_equal(np.sort(roots), np.sort(forest.roots))


CAVITY = carved_box([(1, 1, 1)])
HANDLE = carved_box([(1, 1, k) for k in range(3)])


def carved_bc(vorticity_mode, velocity_mode, outlet):
    """One pairing on the walls; with ``outlet``, natural on the x = 3 face."""
    walls = RegionBC(name="walls", vorticity_mode=vorticity_mode, velocity_mode=velocity_mode)
    if not outlet:
        return BoundaryConditionSpec(walls)
    outlet = RegionBC(
        name="outlet",
        vorticity_mode=NATURAL,
        velocity_mode=NATURAL,
        where=lambda c: c[:, 0] > 3.0 - 1e-9,
    )
    return BoundaryConditionSpec((outlet, walls))


def test_carved_boxes_have_their_betti_numbers():
    assert CAVITY.betti_numbers == (1, 0, 1)
    assert HANDLE.betti_numbers == (1, 1, 0)
    assert build_box_mesh(2, 2, 2).betti_numbers == (1, 0, 0)
    assert side_by_side([CAVITY, HANDLE]).betti_numbers == (2, 1, 1)


def test_unused_vertex_keeps_the_handle_check():
    """With a vertex that no tet uses, the handle read b1 = 0, the check was
    skipped, and essential vorticity with essential velocity failed deep in
    the solver on the residual contract."""
    mesh = SimplicialMesh3(np.vstack([HANDLE.vertices, [[9.0, 9.0, 9.0]]]), HANDLE.tets)
    assert mesh.betti_numbers == (1, 1, 0)
    with pytest.raises(ValueError, match="singular on a mesh with a handle"):
        solve_stokes(DeRhamComplex(mesh), carved_bc("essential", "essential", False), f2=forcing)


@pytest.mark.parametrize(
    "mesh, mode, what",
    [(CAVITY, NATURAL, "cavity"), (HANDLE, "essential", "handle")],
    ids=["natural-on-cavity", "essential-on-handle"],
)
def test_singular_pairing_on_the_whole_boundary_is_rejected(mesh, mode, what):
    complex_ = DeRhamComplex(mesh)
    # A second region that claims no face leaves one pairing on the whole boundary.
    unclaimed = RegionBC(
        name="nowhere",
        vorticity_mode=NATURAL,
        velocity_mode=NATURAL,
        where=lambda c: c[:, 0] > 4.0,
    )
    walls = RegionBC(vorticity_mode=mode, velocity_mode=mode)
    for bc in (BoundaryConditionSpec(walls), BoundaryConditionSpec((unclaimed, walls))):
        with pytest.raises(ValueError, match=f"{mode} vorticity with {mode} velocity.*{what}"):
            build_harmonic_space(complex_, bc)
        with pytest.raises(ValueError, match=what):
            solve_stokes(complex_, bc, f2=forcing)


@pytest.mark.parametrize("outlet", [False, True], ids=["whole", "outlet"])
@pytest.mark.parametrize(
    "mesh, vorticity_mode, velocity_mode",
    [
        (CAVITY, "essential", "essential"),
        (CAVITY, NATURAL, "essential"),
        (HANDLE, NATURAL, "essential"),
        (HANDLE, NATURAL, NATURAL),
    ],
    ids=["cavity-essential", "cavity-mixed", "handle-mixed", "handle-natural"],
)
def test_other_pairings_on_carved_boxes_solve(mesh, vorticity_mode, velocity_mode, outlet):
    assert_stokes_gates(DeRhamComplex(mesh), carved_bc(vorticity_mode, velocity_mode, outlet))
