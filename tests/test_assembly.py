"""Boundary conditions, harmonic space, loads, and the saddle system."""
import re
from fractions import Fraction

import numpy as np
import pytest

from vvpflow.assembly import (
    ESSENTIAL,
    NATURAL,
    BoundaryConditionSpec,
    NaturalBCCache,
    RegionBC,
    ResolvedBoundary,
    assemble_B0,
    assemble_convection,
    assemble_load,
    assemble_natural_bc,
    assemble_rhs,
    assemble_scalar_load,
    build_harmonic_space,
    essential_constraints,
)
from vvpflow import solver, spaces
from vvpflow.fields import ethier_velocity, stokes_mms_fields
from vvpflow.mesh import SimplicialMesh3, build_box_mesh
from vvpflow.solver import SolverConfig, run_transient
from vvpflow.spaces import DeRhamComplex, FormCoefficients, interpolate

import oracles
from conftest import carved_box, jittered_box, scattered_convection
from oracles import EDGES, GRADS, REF_VERTS


def constant_field(c):
    c = np.asarray(c, dtype=float)

    def field(points, t=0.0):
        return np.broadcast_to(c, (len(points), 3)).copy()

    return field


def unit_scalar(points, t=0.0):
    return np.ones(len(points))


# ---------------------------------------------------------------------------
# boundary condition bookkeeping


def test_region_mode_validation():
    with pytest.raises(ValueError, match="unknown boundary mode"):
        RegionBC(vorticity_mode="weak")
    with pytest.raises(ValueError, match="unknown boundary mode"):
        RegionBC(velocity_mode="strong")


def test_solvable_pairings():
    for vorticity, velocity in (
        (ESSENTIAL, ESSENTIAL),
        (NATURAL, ESSENTIAL),
        (NATURAL, NATURAL),
    ):
        RegionBC(vorticity_mode=vorticity, velocity_mode=velocity)
    with pytest.raises(ValueError, match="singular"):
        RegionBC(vorticity_mode=ESSENTIAL, velocity_mode=NATURAL)


def test_spec_needs_regions_and_single_catch_all(complex_n2):
    with pytest.raises(ValueError, match="at least one"):
        BoundaryConditionSpec(())
    with pytest.raises(ValueError, match="catch-all"):
        BoundaryConditionSpec((RegionBC(name="a"), RegionBC(name="b")))
    spec = BoundaryConditionSpec(RegionBC())
    assert build_harmonic_space(complex_n2, spec).dim == 1


def test_face_region_map_partitions():
    mesh = build_box_mesh(2, 2, 2)
    left = RegionBC(name="left", where=lambda c: c[:, 0] < 0.5)
    rest = RegionBC(name="rest")
    owner = BoundaryConditionSpec((left, rest)).face_region_map(mesh)
    assert owner.shape == (len(mesh.boundary_faces),)
    assert set(owner) == {0, 1}
    centroids = mesh.vertices[mesh.faces[mesh.boundary_faces]].mean(axis=1)
    np.testing.assert_array_equal(owner == 0, centroids[:, 0] < 0.5)


def test_face_region_map_rejects_overlap_and_gaps():
    mesh = build_box_mesh(1, 1, 1)
    a = RegionBC(name="a", where=lambda c: c[:, 0] < 0.6)
    b = RegionBC(name="b", where=lambda c: c[:, 0] < 0.9)
    with pytest.raises(ValueError, match="overlaps"):
        BoundaryConditionSpec((a, b)).face_region_map(mesh)
    only = RegionBC(name="only", where=lambda c: c[:, 0] < 0.4)
    with pytest.raises(ValueError, match="unclaimed"):
        BoundaryConditionSpec((only,)).face_region_map(mesh)
    bad = RegionBC(name="bad", where=lambda c: np.ones(3, dtype=bool))
    with pytest.raises(ValueError, match="bad shape"):
        BoundaryConditionSpec((bad, RegionBC())).face_region_map(mesh)
    # A float mask is not cast: on the n=2 box it would claim 40 of 48 faces.
    box = build_box_mesh(2, 2, 2)
    signed = RegionBC(name="signed", where=lambda c: c[:, 0] - 1.0)
    with pytest.raises(ValueError, match="'signed' predicate .* float64, not"):
        BoundaryConditionSpec((signed, RegionBC())).face_region_map(box)
    count = RegionBC(name="count", where=lambda c: (c[:, 0] > 0.99).astype(int))
    with pytest.raises(ValueError, match=r"'count' predicate .* int\d+, not"):
        BoundaryConditionSpec((count, RegionBC())).face_region_map(box)


# ---------------------------------------------------------------------------
# harmonic space


def test_harmonic_space_dimensions(complex_n2):
    essential = BoundaryConditionSpec(RegionBC())
    h_ess = build_harmonic_space(complex_n2, essential)
    assert h_ess.dim == 1 == oracles.harmonic_rank(complex_n2, essential)
    natural = BoundaryConditionSpec(
        RegionBC(vorticity_mode=NATURAL, velocity_mode=NATURAL)
    )
    h_nat = build_harmonic_space(complex_n2, natural)
    assert h_nat.dim == 0 == oracles.harmonic_rank(complex_n2, natural)


def test_harmonic_basis_is_normalized_volume_vector(complex_n2):
    h = build_harmonic_space(complex_n2, BoundaryConditionSpec(RegionBC()))
    vols = complex_n2.mesh.tet_volumes
    want = vols / np.sqrt(vols.sum())
    np.testing.assert_allclose(h.basis[:, 0], want, rtol=1e-14)
    # Unit length in the volume-form inner product.
    m3 = complex_n2.m3
    assert float(h.basis[:, 0] @ (m3 @ h.basis[:, 0])) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# essential constraints


def test_homogeneous_constraints_are_zero(complex_n2):
    ess = essential_constraints(complex_n2, BoundaryConditionSpec(RegionBC()))
    mesh = complex_n2.mesh
    np.testing.assert_array_equal(ess["u1"][0], mesh.boundary_edges)
    np.testing.assert_array_equal(ess["u2"][0], mesh.boundary_faces)
    assert not ess["u1"][1].any()
    assert not ess["u2"][1].any()


def test_constraint_values_are_the_interpolants(complex_n2):
    wdata = constant_field([0.0, 1.0, 2.0])
    udata = constant_field([1.0, 0.0, 0.0])
    bc = BoundaryConditionSpec(
        RegionBC(vorticity_data=wdata, velocity_data=udata)
    )
    ess = essential_constraints(complex_n2, bc)
    mesh = complex_n2.mesh
    want_w = interpolate(wdata, complex_n2.V1).values[mesh.boundary_edges]
    np.testing.assert_allclose(ess["u1"][1], want_w, atol=1e-14)
    # Constant data has zero net flux, so the correction is a no-op.
    want_u = interpolate(udata, complex_n2.V2).values[mesh.boundary_faces]
    np.testing.assert_allclose(ess["u2"][1], want_u, atol=1e-13)


def test_flux_compatibility_correction(complex_n2):
    """Incompatible normal data is shifted to zero total boundary flux."""
    udata = constant_field([0.0, 0.0, 0.0])

    def expanding(points, t=0.0):
        return points.copy()  # divergence 3, net outflux 3

    bc = BoundaryConditionSpec(RegionBC(velocity_data=expanding))
    mesh = complex_n2.mesh
    signs = mesh.boundary_face_signs.astype(float)

    corrected = essential_constraints(complex_n2, bc)["u2"]
    assert abs(signs @ corrected[1]) < 1e-13

    raw = interpolate(expanding, complex_n2.V2).values[mesh.boundary_faces]
    assert signs @ raw == pytest.approx(3.0, rel=1e-12)

    given_f3 = essential_constraints(complex_n2, bc, f3_given=True)["u2"]
    assert given_f3[1] == pytest.approx(raw)


def test_no_flux_correction_with_natural_regions(complex_n2):
    def expanding(points, t=0.0):
        return points.copy()

    bc = BoundaryConditionSpec(
        (
            RegionBC(
                name="out",
                vorticity_mode=NATURAL,
                velocity_mode=NATURAL,
                where=lambda c: c[:, 0] > 0.99,
            ),
            RegionBC(name="walls", velocity_data=expanding),
        )
    )
    ess = essential_constraints(complex_n2, bc)
    faces = ess["u2"][0]
    mesh = complex_n2.mesh
    centroids = mesh.vertices[mesh.faces[faces]].mean(axis=1)
    assert np.all(centroids[:, 0] <= 0.99)
    want = interpolate(expanding, complex_n2.V2).values[faces]
    np.testing.assert_allclose(ess["u2"][1], want, atol=1e-13)


def test_seam_edges_deduplicated(complex_n2):
    data = constant_field([1.0, 2.0, 3.0])
    bc = BoundaryConditionSpec(
        (
            RegionBC(name="left", vorticity_data=data, where=lambda c: c[:, 0] < 0.5),
            RegionBC(name="rest", vorticity_data=data),
        )
    )
    ess = essential_constraints(complex_n2, bc)
    mesh = complex_n2.mesh
    assert len(ess["u1"][0]) == len(np.unique(ess["u1"][0]))
    np.testing.assert_array_equal(ess["u1"][0], mesh.boundary_edges)


# ---------------------------------------------------------------------------
# natural boundary terms


def test_natural_cache_geometry(complex_n2):
    bc = BoundaryConditionSpec(
        RegionBC(vorticity_mode=NATURAL, vorticity_data=constant_field([1, 0, 0]))
    )
    cache = NaturalBCCache(complex_n2, bc)
    (tab,) = cache.natural
    # The tangential term reads the edge coefficients only, crossed with
    # the normal once per resolution; no basis values.
    assert "C1xn" in tab and "C2n" not in tab
    assert "psi1" not in tab and "psi2" not in tab
    mesh = complex_n2.mesh
    B = len(tab["faces"])
    C1 = complex_n2.whitney[1][tab["cells"]]
    want = np.cross(C1, tab["normal"][:, None, None, :]).reshape(B, 6, 12)
    assert np.array_equal(tab["C1xn"], want)
    areas = mesh.face_areas(tab["faces"])
    np.testing.assert_allclose(
        np.linalg.norm(tab["normal"], axis=1), 2.0 * areas, rtol=1e-13
    )
    nhat = tab["normal"] / np.linalg.norm(tab["normal"], axis=1, keepdims=True)
    for b, face in enumerate(tab["faces"]):
        fc = mesh.vertices[mesh.faces[face]].mean(axis=0)
        tc = mesh.vertices[mesh.tets[tab["cells"][b]]].mean(axis=0)
        assert tab["normal"][b] @ (fc - tc) > 0
        # Quadrature points stay on the face plane of the unit box.
        axis = np.argmax(np.abs(nhat[b]))
        np.testing.assert_allclose(
            tab["points"][b, :, axis], fc[axis], atol=1e-13
        )


def test_natural_cache_face_basis_normal_trace(complex_n2):
    """The face basis has constant unit flux density on its own face."""
    bc = BoundaryConditionSpec(
        RegionBC(vorticity_mode=NATURAL, velocity_mode=NATURAL)
    )
    cache = NaturalBCCache(complex_n2, bc)
    mesh = complex_n2.mesh
    (tab,) = cache.natural
    assert "psi1" not in tab and "psi2" not in tab  # no basis values
    signs = mesh.boundary_face_signs[
        np.searchsorted(mesh.boundary_faces, tab["faces"])
    ]
    areas = mesh.face_areas(tab["faces"])
    lengths = np.linalg.norm(tab["normal"], axis=1)
    # psi2 . nhat at the face points: the face coefficients dotted with the
    # normal, contracted with the unweighted barycentric coordinates.
    lam = tab["lam"] / cache.rule.weights
    for b, face in enumerate(tab["faces"]):
        local = int(np.flatnonzero(tab["fdofs"][b] == face)[0])
        traces = tab["C2n"][b] @ lam[b] / lengths[b]
        np.testing.assert_allclose(traces[local], signs[b] / areas[b], rtol=1e-12)
        for other in range(4):
            if other != local:
                np.testing.assert_allclose(traces[other], 0.0, atol=1e-12)


def test_natural_pressure_term_is_signed_indicator(complex_n1):
    """Unit pressure data loads each boundary face DOF with -outward sign."""
    bc = BoundaryConditionSpec(
        RegionBC(
            vorticity_mode=NATURAL,
            velocity_mode=NATURAL,
            velocity_data=unit_scalar,
        )
    )
    rhs = assemble_natural_bc(complex_n1, bc)
    mesh = complex_n1.mesh
    assert not rhs["u1"].any()
    want = np.zeros(mesh.n_faces)
    want[mesh.boundary_faces] = -mesh.boundary_face_signs
    np.testing.assert_allclose(rhs["u2"], want, atol=1e-13)


def test_natural_tangential_term_matches_rational_oracle(ref_complex):
    """Constant data on the z = 0 face against a closed-form surface integral."""
    c = np.array([1.0, 2.0, 3.0])
    bc = BoundaryConditionSpec(
        (
            RegionBC(
                name="bottom",
                vorticity_mode=NATURAL,
                vorticity_data=constant_field(c),
                where=lambda cent: cent[:, 2] < 1e-9,
            ),
            RegionBC(name="rest"),
        )
    )
    rhs = assemble_natural_bc(ref_complex, bc)
    # Outward normal of the z = 0 face is (0, 0, -1); the face integral of
    # each edge basis follows from integral(lam_i) = area / 3 with the
    # literal barycentric gradients.
    n_cross_c = np.array([c[1], -c[0], 0.0])
    want = np.empty(6)
    for e, (i, j) in enumerate(EDGES):
        mom_i = Fraction(1, 6) if i in (0, 1, 2) else Fraction(0)
        mom_j = Fraction(1, 6) if j in (0, 1, 2) else Fraction(0)
        integral = float(mom_i) * np.array(GRADS[j], float) - float(mom_j) * np.array(
            GRADS[i], float
        )
        want[e] = n_cross_c @ integral
    np.testing.assert_allclose(rhs["u1"], want, atol=1e-14)
    assert not rhs["u2"].any()


def test_natural_terms_match_the_tabulated_oracle():
    """The contracted natural terms equal the ones integrated against the
    basis tabulated at the face points, on a jittered box with a
    natural/natural outlet and natural/essential walls split by a seam."""

    def velocity(points, t=0.0):
        x, y, z = points.T
        return np.stack([np.sin(y + t), x * z, np.cos(x) - t * y], axis=1)

    def swirl(points, t=0.0):
        x, y, z = points.T
        return np.stack([-y, x + z**2, np.exp(x * t)], axis=1)

    def pressure(points, t=0.0):
        x, y, z = points.T
        return y**2 + np.sin(z) + t * x

    outlet = RegionBC(
        name="outlet",
        vorticity_mode=NATURAL,
        vorticity_data=velocity,
        velocity_mode=NATURAL,
        velocity_data=pressure,
        where=lambda c: c[:, 0] > 1.0 - 1e-12,
    )
    left = RegionBC(
        name="left",
        vorticity_mode=NATURAL,
        vorticity_data=swirl,
        velocity_data=swirl,
        where=lambda c: (c[:, 1] < 0.5) & (c[:, 0] < 1.0 - 1e-12),
    )
    rest = RegionBC(
        name="rest", vorticity_mode=NATURAL, vorticity_data=velocity, velocity_data=velocity
    )
    bc = BoundaryConditionSpec((outlet, left, rest))
    complex_ = DeRhamComplex(jittered_box(3, seed=5))
    got = assemble_natural_bc(complex_, bc, t=0.3)
    want = oracles.tabulated_natural_bc(complex_, bc, t=0.3)
    for group in ("u1", "u2"):
        assert np.linalg.norm(want[group]) > 0.1
        err = np.linalg.norm(got[group] - want[group])
        assert err <= 1e-14 * np.linalg.norm(want[group]), group


def _ethier_everywhere():
    u = ethier_velocity(2.0, 1.0)
    return BoundaryConditionSpec(
        RegionBC(vorticity_mode=NATURAL, vorticity_data=u, velocity_data=u)
    )


def _mms_outlet():
    """Essential walls and a natural outlet at x = 1 (the stokes-outlet spec)."""
    fields = stokes_mms_fields(nu=1.0)
    outlet = RegionBC(
        name="outlet",
        vorticity_mode=NATURAL,
        vorticity_data=fields["velocity"],
        velocity_mode=NATURAL,
        velocity_data=fields["pressure"],
        where=lambda c: c[:, 0] > 1.0 - 1e-12,
    )
    walls = RegionBC(
        name="walls", vorticity_data=fields["vorticity"], velocity_data=fields["velocity"]
    )
    return BoundaryConditionSpec((outlet, walls))


@pytest.mark.parametrize("spec", [_ethier_everywhere, _mms_outlet])
def test_folded_tangential_term_matches_the_crossed_one(spec):
    """The tau-row term contracted against the folded table C1 x n equals
    the one that crosses n with every sample, to roundoff."""
    boundary = ResolvedBoundary(DeRhamComplex(jittered_box(3, seed=5)), spec())
    for t in (0.0, 0.3):
        got = boundary.evaluate(t)[0]["u1"]
        want = oracles.crossed_tangential_term(boundary, t)
        assert np.linalg.norm(want) > 0.1
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), t


@pytest.fixture
def cross_calls(monkeypatch):
    """A list that ``numpy.cross`` appends to on every call while the test runs."""
    calls, real = [], np.cross

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "cross", counting)
    return calls


def test_no_cross_product_while_boundary_data_are_evaluated(cross_calls, monkeypatch):
    """A resolution crosses its normals once, when the first evaluation
    builds its tables; later evaluations, and the steps of a run, take no
    cross product."""
    complex_ = DeRhamComplex(jittered_box(3, seed=5))
    for spec in (_ethier_everywhere(), _mms_outlet()):
        boundary = ResolvedBoundary(complex_, spec)
        cross_calls.clear()
        boundary.evaluate(0.0)
        assert cross_calls  # the spy sees the tables' cross products
        cross_calls.clear()
        boundary.evaluate(0.3)
        assert cross_calls == []
    stepping = []
    real_step = solver.step

    def spied_step(*args, **kwargs):
        stepping.append(len(cross_calls))
        out = real_step(*args, **kwargs)
        stepping.append(len(cross_calls))
        return out

    monkeypatch.setattr(solver, "step", spied_step)
    complex_.tabulation().convection_tensor  # cached per complex, built with cross products
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=3e-3)
    run_transient(complex_, _ethier_everywhere(), config, velocity_data=ethier_velocity(2.0, 1.0))
    assert len(stepping) == 6 and len(set(stepping)) == 1


def test_natural_terms_empty_without_natural_regions(complex_n1):
    rhs = assemble_natural_bc(complex_n1, BoundaryConditionSpec(RegionBC()))
    assert not rhs["u1"].any()
    assert not rhs["u2"].any()


# ---------------------------------------------------------------------------
# loads


def test_load_of_in_space_field_is_mass_action(complex_n2):
    c = [0.7, -0.2, 0.4]
    load = assemble_load(complex_n2, constant_field(c))
    want = complex_n2.m2 @ interpolate(constant_field(c), complex_n2.V2).values
    np.testing.assert_allclose(load, want, atol=1e-13)


def test_scalar_load_of_constant_is_constant(complex_n2):
    load = assemble_scalar_load(complex_n2, lambda p, t=0.0: np.full(len(p), 2.5))
    np.testing.assert_allclose(load, 2.5, rtol=1e-13)


# ---------------------------------------------------------------------------
# convection


def test_convection_matches_independent_quadrature_oracle(ref_complex):
    rng = np.random.default_rng(42)
    c_w = rng.normal(size=6)
    c_u = rng.normal(size=4)
    for theta in (0.5, 0.3):
        a3, a5 = scattered_convection(ref_complex, c_w, c_u, theta=theta)
        want3, want5 = oracles.convection_reference(c_w, c_u, theta)
        assert np.abs(a3.toarray() - want3).max() <= 1e-12
        assert np.abs(a5.toarray() - want5).max() <= 1e-12


def test_convection_tensor_matches_pointwise_quadrature():
    """The blocks contracted from the cached tensor K equal the volume-rule
    quadrature of the cross products of the interpolated fields."""
    complex_ = DeRhamComplex(jittered_box(2, seed=11))
    rng = np.random.default_rng(8)
    c_w = rng.normal(size=complex_.V1.ndof)
    c_u = rng.normal(size=complex_.V2.ndof)
    got = assemble_convection(complex_, c_w, c_u, theta=0.3)
    want = oracles.convection_quadrature(complex_, c_w, c_u, theta=0.3)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-14


def test_convection_tensor_is_the_skew_half_of_the_whole_tensor():
    """The stored (T, 6, 6) tensor is the whole tensor's slices (i, :, j),
    i < j, bit for bit, in the order of ``FACE_PAIRS``."""
    complex_ = DeRhamComplex(jittered_box(3, seed=5))
    half = complex_.tabulation().convection_tensor
    whole = oracles.full_convection_tensor(complex_.tabulation())
    assert half.shape == (complex_.mesh.n_tets, 6, 6)
    assert spaces.FACE_PAIRS == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    for p, (i, j) in enumerate(spaces.FACE_PAIRS):
        assert half[:, p].tobytes() == whole[:, i, :, j].tobytes()


@pytest.mark.parametrize(
    "mesh",
    [
        lambda: jittered_box(3, seed=5),
        lambda: build_box_mesh(4, 4, 4),
        lambda: carved_box([(1, 1, k) for k in range(3)]),
    ],
    ids=["jittered-n3", "kuhn-n4", "handle"],
)
def test_convection_from_the_half_tensor_matches_the_einsum_contraction(mesh):
    """Both blocks contracted from the skew half are within 1e-15 relative of
    the two ``einsum`` contractions of the whole tensor, for every theta."""
    complex_ = DeRhamComplex(mesh())
    rng = np.random.default_rng(35)
    c_w = rng.normal(size=complex_.V1.ndof)
    c_u = rng.normal(size=complex_.V2.ndof)
    for theta in (0.0, 0.3, 0.5, 1.0):
        got = assemble_convection(complex_, c_w, c_u, theta)
        want = oracles.convection_by_einsum(complex_, c_w, c_u, theta)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-15 * max(np.abs(w).max(), 1e-300)


def test_vorticity_block_is_antisymmetric(complex_n2):
    """(w x v) . v = 0 pointwise makes the second block skew."""
    rng = np.random.default_rng(3)
    c_w = rng.normal(size=complex_n2.V1.ndof)
    c_u = rng.normal(size=complex_n2.V2.ndof)
    _, a5 = scattered_convection(complex_n2, c_w, c_u, theta=0.0)
    skew = (a5 + a5.T).toarray()
    assert np.abs(skew).max() < 1e-13


# ---------------------------------------------------------------------------
# the coupled system


def test_saddle_system_block_adjointness(complex_n2):
    nu = 3.0
    _, blocks = assemble_B0(complex_n2, nu=nu)
    b12 = blocks[("u1", "u2")].toarray()
    b21 = blocks[("u2", "u1")].toarray()
    np.testing.assert_allclose(b12, -b21.T / nu, atol=1e-13)
    b23 = blocks[("u2", "u3")].toarray()
    b32 = blocks[("u3", "u2")].toarray()
    np.testing.assert_allclose(b23, -b32.T, atol=1e-13)


def test_saddle_system_without_multiplier(complex_n2):
    """The harmonic border is never assembled: the matrix does not see
    the boundary spec, so it has the same three groups whatever dim H is."""
    groups, blocks = assemble_B0(complex_n2)
    assert list(groups) == ["u1", "u2", "u3"]
    assert {name for key in blocks for name in key} == set(groups)


def test_underdetermined_pairing_rejected(complex_n2):
    with pytest.raises(ValueError, match="'outlet' pairs essential vorticity.*singular"):
        RegionBC(name="outlet", vorticity_mode=ESSENTIAL, velocity_mode=NATURAL)
    with pytest.raises(ValueError, match="viscosity"):
        assemble_B0(complex_n2, nu=0.0)
    with pytest.raises(ValueError, match="viscosity must be positive and finite"):
        assemble_B0(complex_n2, nu=np.nan)


def test_loads_enter_the_right_rows(complex_n2):
    bc = BoundaryConditionSpec(RegionBC())
    rhs, _ = assemble_rhs(
        complex_n2,
        bc,
        f2=constant_field([1.0, 0.0, 0.0]),
        f3=lambda p, t=0.0: np.ones(len(p)),
    )
    assert "u2" in rhs
    assert "u3" in rhs
    np.testing.assert_allclose(rhs["u3"], 1.0, rtol=1e-12)


def nan_field(points, t=0.0):
    return np.full((len(points), 3), np.nan)


def planar_field(points, t=0.0):
    return np.ones((len(points), 2))


@pytest.mark.parametrize(
    "data, message",
    [
        (dict(velocity=unit_scalar), "region 'walls' velocity data at t=0.25 has shape"),
        (dict(vorticity=unit_scalar), "region 'walls' vorticity data at t=0.25 has shape"),
        (
            dict(pressure=constant_field([1.0, 0.0, 0.0])),
            "region 'outlet' pressure data at t=0.25 has shape",
        ),
        (dict(velocity=planar_field), "region 'walls' velocity data at t=0.25 has shape"),
        (dict(velocity=nan_field), "region 'walls' velocity data at t=0.25 is not finite"),
        (dict(f2=unit_scalar), "f2 at t=0.25 has shape"),
        (dict(f2=nan_field), "f2 at t=0.25 is not finite"),
        (dict(f3=constant_field([1.0, 0.0, 0.0])), "f3 at t=0.25 has shape"),
        (dict(exact=unit_scalar), "exact at t=0.25 has shape"),
    ],
)
def test_data_of_a_wrong_shape_or_not_finite_is_named(complex_n2, data, message):
    """Every data callable goes through ``spaces.sample``, which rejects a
    wrong shape or a non-finite value with the data's name and t; a scalar
    as essential data must not broadcast to vectors."""
    outlet = RegionBC(
        name="outlet",
        vorticity_mode=NATURAL,
        velocity_mode=NATURAL,
        velocity_data=data.get("pressure"),
        where=lambda c: c[:, 0] > 1.0 - 1e-12,
    )
    walls = RegionBC(
        name="walls", vorticity_data=data.get("vorticity"), velocity_data=data.get("velocity")
    )
    bc = BoundaryConditionSpec((outlet, walls))
    with pytest.raises(ValueError, match=re.escape(message)):
        assemble_rhs(complex_n2, bc, f2=data.get("f2"), f3=data.get("f3"), t=0.25)
        u = FormCoefficients.zeros(complex_n2.V2)
        complex_n2.error_norms(u, data.get("exact"), t=0.25)
