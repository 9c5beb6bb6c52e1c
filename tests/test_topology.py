"""The mesh's dual spanning forest and what it decides: the harmonic
3-forms (and the saddle reference's pins), the flux shift and the
divergence sweep; the stream function's cotree, the generators, and the
specs of every topology on the one operator."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvpflow import linalg, solver
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
    np.testing.assert_array_equal(oracles.SaddleOperator(complex_, bc, 1.0).pins // 48, [0, 1])

    # The forest now exists, and so does the cotree the stream operator
    # gauges with; solving must not search a graph again.
    assert len(complex_.mesh.cotree) > 0

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
    np.testing.assert_array_equal(oracles.SaddleOperator(complex_, bc, 1.0).pins // 48, [0])

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
            (_, lf, *_), (_, rf, *_) = boundary.regions("vorticity", "essential")
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
    all_pins = oracles.SaddleOperator(complex_, bc, 1.0).pins
    for i, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
        assert len(np.unique(forest.labels[lo:hi])) == 1
        pins = all_pins[(all_pins >= lo) & (all_pins < hi)]
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


# ---------------------------------------------------------------------------
# the cotree of the stream operator, and the subtree sums of the forest


def _interior_counts(mesh):
    """(interior edges, interior vertices), counting only vertices a tet uses."""
    used = np.unique(mesh.tets)
    return mesh.n_edges - len(mesh.boundary_edges), len(used) - len(mesh.boundary_vertices)


COTREE_MESHES = {
    "box": lambda: build_box_mesh(3, 3, 3),
    "jittered-box": lambda: jittered_box(3, 4),
    "odd-jittered-box": lambda: jittered_box(5, 1),
    "two-boxes": lambda: side_by_side([jittered_box(2, 1), build_box_mesh(3, 2, 2)]),
    "unused-vertex": lambda: SimplicialMesh3(
        np.vstack([build_box_mesh(2, 2, 2).vertices, [[5.0, 5.0, 5.0]]]),
        build_box_mesh(2, 2, 2).tets,
    ),
}


@pytest.mark.parametrize("mesh", COTREE_MESHES.values(), ids=COTREE_MESHES.keys())
def test_cotree_gauges_one_interior_edge_per_interior_vertex(mesh):
    mesh = mesh()
    cotree = mesh.cotree
    edges, vertices = _interior_counts(mesh)
    assert len(cotree) == edges - vertices
    assert np.all(np.diff(cotree) > 0)
    assert not np.isin(cotree, mesh.boundary_edges).any()


@pytest.mark.parametrize(
    "mesh",
    [COTREE_MESHES[k] for k in ("box", "jittered-box", "two-boxes")],
    ids=["box", "jittered-box", "two-boxes"],
)
def test_cotree_curls_are_independent_and_divergence_free(mesh):
    """D2 D1 = 0 holds on the cotree's columns, and their curls on the
    interior faces have full column rank (dense rank, n <= 3)."""
    complex_ = DeRhamComplex(mesh())
    mesh, cotree = complex_.mesh, complex_.mesh.cotree
    d1c = complex_.d1[:, cotree]
    assert (complex_.d2 @ d1c).nnz == 0
    interior = np.setdiff1d(np.arange(mesh.n_faces), mesh.boundary_faces)
    assert np.linalg.matrix_rank(d1c[interior].toarray()) == len(cotree)


@pytest.mark.parametrize(
    "mesh", [lambda: jittered_box(4, 7), lambda: HANDLE, lambda: side_by_side([CAVITY, HANDLE])],
    ids=["jittered-box", "handle", "two-carved-boxes"],
)
def test_subtree_map_sums_each_subtree(mesh):
    """``subtree @ x`` is the leaves-to-roots sum of x over each non-root
    cell's subtree, level by level, and a root's row is empty; ``paths @ x``
    is the roots-to-leaves sum of x over each cell's non-root ancestors and
    itself."""
    forest = mesh().dual_forest
    x = np.random.default_rng(3).standard_normal(len(forest.parent))
    acc = x.copy()
    for cells in forest.levels[:0:-1]:
        np.add.at(acc, forest.parent[cells], acc[cells])
    want = np.where(forest.parent >= 0, acc, 0.0)
    np.testing.assert_allclose(forest.subtree @ x, want, rtol=1e-12, atol=1e-12)
    acc = np.where(forest.parent >= 0, x, 0.0)
    for cells in forest.levels[1:]:
        acc[cells] += acc[forest.parent[cells]]
    np.testing.assert_allclose(forest.paths @ x, acc, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(forest.tree, np.flatnonzero(forest.parent >= 0))


CLOSED = BoundaryConditionSpec(RegionBC())


def natural_where(where, walls="essential"):
    """Natural vorticity and velocity where ``where``, ``walls`` vorticity with
    essential velocity elsewhere; pressure data 1 - x."""
    ends = RegionBC(
        name="ends",
        vorticity_mode=NATURAL,
        velocity_mode=NATURAL,
        velocity_data=lambda points, t=0.0: 1.0 - points[:, 0],
        where=where,
    )
    return BoundaryConditionSpec((ends, RegionBC(name="walls", vorticity_mode=walls)))


def two_ended(walls="essential"):
    """The unit box natural at both ends, x = 0 and x = 1: two disks."""
    return natural_where(lambda c: np.abs(c[:, 0] - 0.5) > 0.5 - 1e-9, walls)


# The x = 3 face of the side-3 box natural but for its middle unit square: an annulus.
ANNULUS = natural_where(
    lambda c: (c[:, 0] > 3.0 - 1e-9) & ~(np.all(np.abs(c[:, 1:] - 1.5) < 0.5, axis=1)), NATURAL
)


def _step_inputs(complex_, bc, dt):
    """(state, convection, rhs_u2) of a step of ``dt`` from
    ``initialize_state``'s state of the swirling velocity."""
    state0 = solver.initialize_state(complex_, bc, swirl)
    convection = solver.assemble_convection(complex_, state0.omega.values, state0.u.values, 0.5)
    return state0, convection, complex_.m2 @ state0.u.values / dt


def stream_and_saddle(complex_, bc, dt):
    """The states and residuals of one solve by the stream operator and by
    the saddle reference (``oracles.SaddleOperator``) on the same data:
    steady without ``dt``, else one step from the swirling velocity."""
    out = []
    for kind in (solver.make_operator, oracles.SaddleOperator):
        operator = kind(complex_, bc, 1.0, dt)
        loads = {"f2": forcing, "load_degree": None}
        if dt is None:
            out.append((operator, *operator.solve(0.0, loads)))
        else:
            state0, convection, rhs_u2 = _step_inputs(complex_, bc, dt)
            out.append((operator, *operator.solve(dt, loads, convection, rhs_u2, state0)))
    return out


@pytest.mark.parametrize(
    "mesh, bc, generators, dropped",
    [
        (lambda: build_box_mesh(2, 2, 2), CLOSED, 0, 0),
        (lambda: jittered_box(2, 3), carved_bc(NATURAL, "essential", False), 0, 0),
        (lambda: side_by_side([build_box_mesh(2, 2, 2)] * 2), CLOSED, 0, 0),
        (lambda: build_box_mesh(3, 3, 3, hi=(3.0,) * 3), carved_bc(NATURAL, "essential", True),
         0, 0),
        (lambda: side_by_side([build_box_mesh(2, 2, 2)] * 2), outlets([1], RegionBC()), 0, 0),
        (lambda: CAVITY, carved_bc("essential", "essential", False), 0, 0),
        (lambda: CAVITY, carved_bc(NATURAL, "essential", False), 0, 0),
        (lambda: HANDLE, carved_bc(NATURAL, "essential", False), 1, 0),
        (lambda: side_by_side([CAVITY, build_box_mesh(2, 2, 2)]), CLOSED, 0, 0),
        (lambda: build_box_mesh(2, 2, 2), two_ended(NATURAL), 1, 0),
        (lambda: HANDLE, carved_bc(NATURAL, "essential", True), 1, 0),
        (lambda: build_box_mesh(3, 3, 3, hi=(3.0,) * 3), ANNULUS, 0, 0),
        (lambda: HANDLE, carved_bc(NATURAL, NATURAL, False), 0, 1),
        (lambda: side_by_side([CAVITY, HANDLE]), carved_bc(NATURAL, "essential", False), 1, 0),
    ],
    ids=[
        "box", "jittered-box", "two-boxes", "box-with-outlet", "outlet-beside-closed-box",
        "cavity", "cavity-natural-vorticity", "handle", "cavity-beside-box",
        "two-ended-box", "handle-with-outlet", "annulus-outlet", "handle-natural",
        "cavity-beside-handle",
    ],
)
def test_specs_route_to_their_operator(mesh, bc, generators, dropped):
    """Every spec gets the stream operator: a handle, or natural ends that
    are two pieces, add one generator field to the curls of the cotree
    (as many as the oracle's velocity nullity), a handle under natural
    velocity drops one dependent curl, and a cavity or an annulus needs
    neither.  Steady and at dt = 1e-3 its omega, u and p match the saddle
    reference to 1e-12 relative, from one float32 factor, with the
    divergence at roundoff."""
    complex_ = DeRhamComplex(mesh())
    mesh, boundary = complex_.mesh, ResolvedBoundary(complex_, bc)
    assert len(boundary.generators) == generators == oracles.harmonic_rank(complex_, bc, k=2)
    walls = np.setdiff1d(mesh.boundary_faces, boundary.outlet_faces)
    assert len(mesh.relative_cotree(walls)) - len(boundary.cotree) == dropped
    for dt in (None, 1e-3):
        (stream, got, residual), (_, want, _) = stream_and_saddle(complex_, boundary, dt)
        assert type(stream) is solver._StreamOperator
        assert stream.factor.dtype == np.float32
        assert residual <= RESIDUAL_TOL
        for name in ("omega", "u", "p"):
            a, b = getattr(got, name).values, getattr(want, name).values
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b), (dt, name)
        assert complex_.divergence_max(got.u.values) <= 1e-13 * (1.0 + complex_.norm(got.u))


UNHELD = {
    # Essential walls: nothing holds the flow around the handle, or from end to end.
    "handle-with-outlet": (lambda: HANDLE, carved_bc("essential", "essential", True)),
    "two-ended-box": (lambda: build_box_mesh(3, 3, 3), natural_where(
        lambda c: np.abs(c[:, 0] - 0.5) > 0.5 - 1e-9)),
}


@pytest.mark.parametrize("mesh, bc", UNHELD.values(), ids=UNHELD.keys())
def test_steady_specs_with_unheld_generators_are_rejected_at_setup(mesh, bc, monkeypatch):
    """A handle beside an outlet and a box with two natural ends, both with
    essential walls, have a generator that no steady row holds: the steady
    solve raises the same named ValueError before SuperLU is reached (the
    handle failed on the residual contract, relative residual 1.0), and a
    time step still solves."""
    complex_ = DeRhamComplex(mesh())
    assert len(ResolvedBoundary(complex_, bc).generators) == 1
    real = linalg.spla.splu

    def no_factor(*args, **kwargs):
        raise AssertionError("SuperLU reached")

    monkeypatch.setattr(linalg.spla, "splu", no_factor)
    message = "component 0 has 1 divergence-free flux direction.* not determined by a steady"
    with pytest.raises(ValueError, match=message):
        solve_stokes(complex_, bc, f2=forcing)
    monkeypatch.setattr(linalg.spla, "splu", real)
    config = solver.SolverConfig(dt=1e-2, t_end=1e-2)
    state0 = solver.initialize_state(complex_, bc, expanding)
    state, residual = solver.step(complex_, bc, config, state0, f=forcing)
    assert residual <= RESIDUAL_TOL
    assert complex_.divergence_max(state.u.values) <= 1e-13 * (1.0 + complex_.norm(state.u))


def _unit(mesh):
    """``mesh`` scaled into the unit box."""
    return SimplicialMesh3(mesh.vertices / mesh.vertices.max(), mesh.tets)


UNION_PARTS = {
    "box": lambda: build_box_mesh(1, 1, 1),
    "jittered-box": lambda: jittered_box(2, 4),
    "cavity": lambda: _unit(CAVITY),
    "handle": lambda: _unit(HANDLE),
}


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(sorted(UNION_PARTS)), st.integers(0, 2)),
        min_size=1,
        max_size=2,
    )
)
def test_generator_count_matches_the_velocity_nullity_on_unions(parts):
    """On unions of boxes and carved boxes, each natural at none, one or
    both of its x ends (with natural-vorticity walls), peeling's generator
    count is the oracle's dense velocity nullity, and the steady stream
    system solves to the residual contract with the divergence at
    roundoff, its matrix of full rank."""
    complex_ = DeRhamComplex(side_by_side([UNION_PARTS[name]() for name, _ in parts]))
    ends = [x for i, (_, n) in enumerate(parts) for x in (2.0 * i + 1.0, 2.0 * i)[:n]]
    bc = natural_where(
        lambda c: np.any(np.abs(c[:, :1] - np.array(ends)[None, :]) < 1e-9, axis=1), NATURAL
    )
    boundary = ResolvedBoundary(complex_, bc)
    assert len(boundary.generators) == oracles.harmonic_rank(complex_, bc, k=2)
    operator = solver.make_operator(complex_, boundary, 1.0)
    matrix = operator.reduced.matrix.toarray()
    assert np.linalg.matrix_rank(matrix) == len(matrix)
    state, residual = operator.solve(0.0, {"f2": forcing, "load_degree": None})
    assert residual <= RESIDUAL_TOL
    assert complex_.divergence_max(state.u.values) <= 1e-13 * (1.0 + complex_.norm(state.u))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_steady_flux_between_two_natural_ends_is_rejected(n):
    """Essential walls with natural ends at x = 0 and x = 1 leave the
    potential flow from one end to the other out of the steady rows; the
    solve used to fail in linalg.solve on the residual contract (relative
    residual 10, 2.6 and 45 at n = 2, 3, 4).  It now fails at setup, while
    a time step, natural-vorticity walls and one natural end still solve."""
    complex_ = DeRhamComplex(build_box_mesh(n, n, n))
    message = "component 0 has 1 divergence-free flux .*'ends'.* not determined"
    with pytest.raises(ValueError, match=message):
        solve_stokes(complex_, two_ended(), f2=forcing)
    config = solver.SolverConfig(dt=1e-2, t_end=1e-2)
    state0 = solver.initialize_state(complex_, two_ended(), expanding)
    state, residual = solver.step(complex_, two_ended(), config, state0, f=forcing)
    assert residual <= RESIDUAL_TOL
    assert complex_.divergence_max(state.u.values) <= 1e-12 * (1.0 + complex_.norm(state.u))
    assert_stokes_gates(complex_, two_ended(NATURAL))
    assert_stokes_gates(complex_, natural_where(lambda c: c[:, 0] > 1.0 - 1e-9))


# The outlet specs of the relative cotree and the outlet forest.
OUTLET_CASES = {
    "outlet-box": (lambda: jittered_box(3, 4), natural_where(lambda c: c[:, 0] > 1.0 - 1e-9)),
    "outlet-beside-closed-box": (
        lambda: side_by_side([jittered_box(2, 1), build_box_mesh(3, 2, 2)]),
        outlets([1], RegionBC(name="walls")),
    ),
    "corner-outlet": (  # a disk of three faces of the box, about a corner
        lambda: build_box_mesh(2, 2, 2),
        natural_where(lambda c: np.all(c < 0.5, axis=1) & np.any(c < 1e-9, axis=1), NATURAL),
    ),
}


@pytest.mark.parametrize("mesh, bc", OUTLET_CASES.values(), ids=OUTLET_CASES.keys())
def test_relative_cotree_gauges_one_free_edge_per_free_vertex(mesh, bc):
    """Relative to the essential-velocity faces Γe: one free edge (off the
    closure of Γe) per free vertex is in the tree; D2 D1 = 0 on the
    cotree's columns, their curls vanish on Γe and have full column rank
    on the other faces (dense rank, n <= 3)."""
    complex_ = DeRhamComplex(mesh())
    mesh, boundary = complex_.mesh, ResolvedBoundary(complex_, bc)
    walls = np.setdiff1d(mesh.boundary_faces, boundary.outlet_faces)
    cotree = boundary.cotree
    free_edges = np.setdiff1d(np.arange(mesh.n_edges), mesh.face_edges[walls])
    free_vertices = np.setdiff1d(np.unique(mesh.tets), mesh.faces[walls])
    assert len(cotree) == len(free_edges) - len(free_vertices)
    assert np.all(np.diff(cotree) > 0) and np.isin(cotree, free_edges).all()
    assert np.isin(cotree, mesh.boundary_edges).any()  # edges inside the outlet carry psi
    d1c = complex_.d1[:, cotree]
    assert (complex_.d2 @ d1c).nnz == 0
    assert d1c[walls].nnz == 0
    other = np.setdiff1d(np.arange(mesh.n_faces), walls)
    assert np.linalg.matrix_rank(d1c[other].toarray()) == len(cotree)


@pytest.mark.parametrize(
    "mesh, bc",
    [*OUTLET_CASES.values(), (lambda: HANDLE, carved_bc(NATURAL, "essential", True)),
     (lambda: build_box_mesh(3, 3, 3), two_ended())],
    ids=[*OUTLET_CASES.keys(), "handle-with-outlet", "two-ended-box"],
)
def test_outlet_forest_carries_each_subtree_out(mesh, bc):
    """In the forest of ``ResolvedBoundary.forest`` every cell of a component
    with an outlet reaches the outside: the first level holds the closed
    components' roots, as in ``mesh.dual_forest``, and the outlet cells, each
    through an outlet face.  ``subtree`` and ``paths`` are the level loop's
    sums, and the sweep puts any divergence on an open component's cells."""
    complex_ = DeRhamComplex(mesh())
    mesh, boundary = complex_.mesh, ResolvedBoundary(complex_, bc)
    forest = boundary.forest
    closed = boundary.closed[forest.labels]
    roots = np.flatnonzero(forest.parent_face < 0)
    np.testing.assert_array_equal(roots, np.sort(mesh.dual_forest.roots[boundary.closed]))
    outlet = np.flatnonzero((forest.parent < 0) & (forest.parent_face >= 0))
    assert not closed[outlet].any()
    assert np.isin(forest.parent_face[outlet], boundary.outlet_faces).all()
    np.testing.assert_array_equal(np.sort(forest.levels[0]), np.sort(np.r_[roots, outlet]))
    tree = forest.tree
    d2 = complex_.d2[tree, forest.parent_face[tree]]
    np.testing.assert_array_equal(np.asarray(d2).ravel(), forest.parent_sign[tree])

    x = np.random.default_rng(5).standard_normal(mesh.n_tets)
    acc = x.copy()
    for cells in forest.levels[:0:-1]:
        np.add.at(acc, forest.parent[cells], acc[cells])
    want = np.where(forest.parent_face >= 0, acc, 0.0)
    np.testing.assert_allclose(forest.subtree @ x, want, rtol=1e-12, atol=1e-12)
    acc = np.where(forest.parent_face >= 0, x, 0.0)
    for cells in forest.levels[1:]:
        acc[cells] += acc[forest.parent[cells]]
    np.testing.assert_allclose(forest.paths @ x, acc, rtol=1e-12, atol=1e-12)

    defect = np.where(closed, 0.0, x)
    u = np.zeros(mesh.n_faces)
    solver._sweep(forest, boundary.harmonic, mesh.tet_volumes, u, defect)
    np.testing.assert_allclose(complex_.d2 @ u, defect, atol=1e-12)


def test_outlet_objects_are_the_mesh_ones_without_a_natural_face():
    complex_ = DeRhamComplex(jittered_box(3, 4))
    boundary = ResolvedBoundary(complex_, carved_bc(NATURAL, "essential", False))
    assert boundary.forest is complex_.mesh.dual_forest
    assert boundary.cotree is complex_.mesh.cotree
