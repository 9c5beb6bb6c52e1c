"""Whitney spaces: duality, incidence, mass matrices, interpolation."""
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vvpflow import linalg, spaces
from vvpflow.fields import stokes_mms_fields
from vvpflow.linalg import m_norm
from vvpflow.mesh import SimplicialMesh3, build_box_mesh
from vvpflow.quadrature import edge_rule, tet_rule, triangle_rule
from vvpflow.spaces import (
    ERROR_DEGREE,
    TRACE_DEGREE,
    VOLUME_DEGREE,
    DeRhamComplex,
    FormCoefficients,
    WhitneyTabulation,
    barycentric_gradients,
    derivative_matrix,
    error_norms,
    form_space,
    interpolate,
    mass_matrix,
    simplex_rule,
    whitney_coefficients,
)

import oracles
from conftest import jittered_box
from oracles import REF_VERTS, evaluate, whitney_values


def single_tet_mesh(perturbation=None):
    verts = REF_VERTS.copy()
    if perturbation is not None:
        verts += np.asarray(perturbation, dtype=float).reshape(4, 3)
    return SimplicialMesh3(verts, [[0, 1, 2, 3]])


# ---------------------------------------------------------------------------
# incidence matrices


@pytest.mark.parametrize("n", [1, 2, 3])
def test_curl_then_div_vanishes_identically(n):
    mesh = build_box_mesh(n, n, n)
    d1 = derivative_matrix(form_space(mesh, 1))
    d2 = derivative_matrix(form_space(mesh, 2))
    assert np.issubdtype(d1.dtype, np.integer)
    assert np.issubdtype(d2.dtype, np.integer)
    assert (d2 @ d1).count_nonzero() == 0


def test_incidence_entries_are_signs():
    mesh = build_box_mesh(2, 2, 2)
    for k in (1, 2):
        d = derivative_matrix(form_space(mesh, k))
        assert set(np.unique(d.data)) <= {-1, 1}


def test_no_derivative_matrix_for_volume_forms():
    mesh = build_box_mesh(1, 1, 1)
    with pytest.raises(ValueError):
        derivative_matrix(form_space(mesh, 3))
    with pytest.raises(ValueError):
        form_space(mesh, 0)


def test_incidence_commutes_with_curl():
    """Interpolate then differentiate equals differentiate then interpolate."""

    def field(p, t=0.0):
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        return np.column_stack([y * z, x * x * z, x + y * y * z])

    def curl_field(p, t=0.0):
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        return np.column_stack([2 * y * z - x * x, y - 1.0, 2 * x * z - z])

    mesh = build_box_mesh(2, 2, 2)
    V1, V2 = form_space(mesh, 1), form_space(mesh, 2)
    left = derivative_matrix(V1) @ interpolate(field, V1).values
    right = interpolate(curl_field, V2).values
    np.testing.assert_allclose(left, right, atol=1e-13)


def test_incidence_commutes_with_divergence():
    def field(p, t=0.0):
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        return np.column_stack([x * y * z, x + y * y, z * z * y])

    def div_field(p, t=0.0):
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        return y * z + 2 * y + 2 * z * y

    mesh = build_box_mesh(2, 2, 2)
    V2, V3 = form_space(mesh, 2), form_space(mesh, 3)
    left = derivative_matrix(V2) @ interpolate(field, V2).values
    right = interpolate(div_field, V3).values
    np.testing.assert_allclose(left, right, atol=1e-13)


# ---------------------------------------------------------------------------
# degree-of-freedom duality on random tets


def _coords():
    return st.lists(
        st.floats(min_value=-0.25, max_value=0.25, allow_nan=False),
        min_size=12,
        max_size=12,
    )


@settings(max_examples=20, deadline=None)
@given(_coords())
def test_edge_basis_circulations_are_kronecker(perturbation):
    verts = REF_VERTS + np.array(perturbation).reshape(4, 3)
    assume(abs(np.linalg.det(verts[1:] - verts[0])) > 1e-2)
    mesh = SimplicialMesh3(verts, [[0, 1, 2, 3]])
    V1 = form_space(mesh, 1)
    rule = edge_rule(5)
    s = rule.points[:, 1]
    for k in range(6):
        coeffs = FormCoefficients(V1, np.eye(6)[k])
        for e, (i, j) in enumerate(mesh.edges):
            a, b = mesh.vertices[i], mesh.vertices[j]
            circ = 0.0
            for q, w in enumerate(rule.weights):
                bary = np.zeros(4)
                bary[i] = 1.0 - s[q]
                bary[j] = s[q]
                circ += w * float(evaluate(coeffs, 0, bary) @ (b - a))
            assert circ == pytest.approx(1.0 if e == k else 0.0, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(_coords())
def test_face_basis_fluxes_are_kronecker(perturbation):
    verts = REF_VERTS + np.array(perturbation).reshape(4, 3)
    assume(abs(np.linalg.det(verts[1:] - verts[0])) > 1e-2)
    mesh = SimplicialMesh3(verts, [[0, 1, 2, 3]])
    V2 = form_space(mesh, 2)
    rule = triangle_rule(5)
    x1, x2 = rule.points[:, 1], rule.points[:, 2]
    for k in range(4):
        coeffs = FormCoefficients(V2, np.eye(4)[k])
        for f, (a, b, c) in enumerate(mesh.faces):
            va, vb, vc = mesh.vertices[[a, b, c]]
            normal = np.cross(vb - va, vc - va)
            flux = 0.0
            for q, w in enumerate(rule.weights):
                bary = np.zeros(4)
                bary[a] = 1.0 - x1[q] - x2[q]
                bary[b] = x1[q]
                bary[c] = x2[q]
                flux += w * float(evaluate(coeffs, 0, bary) @ normal)
            assert flux == pytest.approx(1.0 if f == k else 0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# interpolation reproduces fields inside the spaces


def test_edge_space_reproduces_its_fields():
    a = np.array([0.3, -1.1, 0.7])
    b = np.array([0.9, 0.4, -0.2])

    def field(p, t=0.0):
        return a + np.cross(np.broadcast_to(b, p.shape), p)

    mesh = build_box_mesh(2, 2, 2)
    coeffs = interpolate(field, form_space(mesh, 1))
    rng = np.random.default_rng(7)
    for tet in rng.integers(0, mesh.n_tets, size=5):
        bary = rng.dirichlet(np.ones(4))
        point = bary @ mesh.vertices[mesh.tets[tet]]
        got = evaluate(coeffs, int(tet), bary)
        np.testing.assert_allclose(got, field(point[None])[0], atol=1e-13)


def test_face_space_reproduces_its_fields():
    a = np.array([-0.4, 0.8, 0.1])
    beta = 0.6

    def field(p, t=0.0):
        return a + beta * p

    mesh = build_box_mesh(2, 2, 2)
    coeffs = interpolate(field, form_space(mesh, 2))
    rng = np.random.default_rng(8)
    for tet in rng.integers(0, mesh.n_tets, size=5):
        bary = rng.dirichlet(np.ones(4))
        point = bary @ mesh.vertices[mesh.tets[tet]]
        got = evaluate(coeffs, int(tet), bary)
        np.testing.assert_allclose(got, field(point[None])[0], atol=1e-13)


def test_volume_form_convention_is_cell_integral():
    """Coefficients store cell integrals; evaluation returns densities."""
    mesh = build_box_mesh(2, 2, 2)
    V3 = form_space(mesh, 3)
    rho = 2.5
    coeffs = interpolate(lambda p, t=0.0: np.full(len(p), rho), V3)
    np.testing.assert_allclose(coeffs.values, rho * mesh.tet_volumes, rtol=1e-13)
    assert evaluate(coeffs, 3, np.full(4, 0.25)) == pytest.approx(rho)
    m3 = mass_matrix(V3)
    assert m_norm(m3, coeffs.values) == pytest.approx(
        rho * np.sqrt(mesh.tet_volumes.sum()), rel=1e-13
    )


def test_interpolate_rule_dimension_guards():
    """Interpolation maps its rules through simplex_rule, which rejects a
    rule whose dimension differs from the simplices'."""
    mesh = build_box_mesh(1, 1, 1)
    v = mesh.vertices
    with pytest.raises(ValueError, match="1-simplex needs a rule of dimension 1"):
        simplex_rule(v[mesh.edges], tet_rule(3))
    with pytest.raises(ValueError, match="2-simplex needs a rule of dimension 2"):
        simplex_rule(v[mesh.faces], edge_rule(3))
    with pytest.raises(ValueError, match="3-simplex needs a rule of dimension 3"):
        simplex_rule(v[mesh.tets], triangle_rule(3))


@pytest.mark.parametrize("seed", [1, 2])
def test_simplex_rule_points_and_measures(seed):
    mesh = jittered_box(3, seed)
    v = mesh.vertices
    cases = {
        1: (mesh.edges, edge_rule(3)),
        2: (mesh.faces, triangle_rule(3)),
        3: (mesh.tets, tet_rule(3)),
    }
    measures = {}
    for d, (simplices, rule) in cases.items():
        corners = v[simplices]
        points, measures[d] = simplex_rule(corners, rule)
        want = np.einsum("qi,six->sqx", rule.points, corners)
        assert points.shape == (len(simplices), len(rule), 3)
        np.testing.assert_allclose(points, want, rtol=0, atol=1e-14)
    tangents = v[mesh.edges[:, 1]] - v[mesh.edges[:, 0]]
    np.testing.assert_allclose(measures[1], tangents, rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        np.linalg.norm(measures[2], axis=1), 2.0 * mesh.face_areas(), rtol=1e-14
    )
    # The face measure is the right-hand normal of the ascending vertex order.
    a, b, c = (v[mesh.faces[:, i]] for i in range(3))
    assert np.all(np.einsum("fx,fx->f", measures[2], np.cross(b - a, c - a)) > 0)
    np.testing.assert_allclose(measures[3], 6.0 * mesh.tet_volumes, rtol=1e-14)


# ---------------------------------------------------------------------------
# mass matrices


def test_reference_tet_mass_matrices_match_exact_oracles():
    complex_ = DeRhamComplex(single_tet_mesh())
    np.testing.assert_allclose(
        complex_.m1.toarray(), oracles.mass1_reference(), atol=1e-15
    )
    np.testing.assert_allclose(
        complex_.m2.toarray(), oracles.mass2_reference(), atol=1e-14
    )
    np.testing.assert_allclose(
        complex_.m3.toarray(), oracles.mass3_reference(), atol=1e-14
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_mass_matrices_are_spd(k, complex_n2):
    m = complex_n2.mass(k).toarray()
    np.testing.assert_allclose(m, m.T, atol=1e-14)
    eigs = np.linalg.eigvalsh(m)
    assert eigs.min() > 0


def test_mass_matrix_quadrature_guard():
    complex_ = DeRhamComplex(build_box_mesh(1, 1, 1))
    coarse = complex_.tabulation(1)
    assert coarse.rule.exactness_degree < 2
    with pytest.raises(ValueError, match="degree 2"):
        mass_matrix(complex_.V1, tabulation=coarse)
    with pytest.raises(ValueError, match="degree 2"):
        mass_matrix(complex_.V2)


def test_mass_matrix_scaling_under_dilation():
    s = 2.5
    unit = DeRhamComplex(build_box_mesh(1, 1, 1))
    scaled = DeRhamComplex(build_box_mesh(1, 1, 1, hi=(s, s, s)))
    np.testing.assert_allclose(
        scaled.m1.toarray(), s * unit.m1.toarray(), rtol=1e-12, atol=1e-14
    )
    np.testing.assert_allclose(
        scaled.m2.toarray(), unit.m2.toarray() / s, rtol=1e-12, atol=1e-14
    )
    np.testing.assert_allclose(
        scaled.m3.toarray(), unit.m3.toarray() / s**3, rtol=1e-12, atol=1e-14
    )


def test_volume_mass_matrix_is_inverse_volumes():
    mesh = build_box_mesh(2, 1, 1, hi=(2.0, 1.0, 1.0))
    m3 = mass_matrix(form_space(mesh, 3)).toarray()
    np.testing.assert_allclose(m3, np.diag(1.0 / mesh.tet_volumes), rtol=1e-14)


@pytest.mark.parametrize("k", [1, 2])
def test_moment_mass_matrix_matches_pointwise_quadrature(k):
    """M1 and M2 from the lambda moments equal the pointwise quadrature
    of psi . psi with Piola-mapped reference bases."""
    complex_ = DeRhamComplex(jittered_box(3, seed=5))
    got = complex_.mass(k).toarray()
    want = oracles.mass_quadrature(complex_.mesh, k)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_convection_tensor_quadrature_guard():
    coarse = DeRhamComplex(build_box_mesh(1, 1, 1)).tabulation(1)
    with pytest.raises(ValueError, match="degree 3"):
        coarse.convection_tensor


# ---------------------------------------------------------------------------
# tabulation


def test_tabulation_weights_and_points(complex_n2):
    tab = complex_n2.tabulation(4)
    mesh = complex_n2.mesh
    np.testing.assert_allclose(
        tab.weights.sum(axis=1), mesh.tet_volumes, rtol=1e-13
    )
    want = np.einsum("qi,tix->tqx", tab.rule.points, mesh.vertices[mesh.tets])
    np.testing.assert_allclose(tab.points, want, atol=1e-14)
    assert complex_n2.tabulation(4) is tab


def test_tabulation_needs_volume_rule():
    complex_ = DeRhamComplex(build_box_mesh(1, 1, 1))
    with pytest.raises(ValueError):
        WhitneyTabulation(complex_, triangle_rule(3))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tabulation_field_matches_evaluate(k):
    complex_ = DeRhamComplex(jittered_box(2, seed=3))
    tab = complex_.tabulation(2)
    n_tets, n_points = tab.weights.shape
    coeffs = FormCoefficients(
        complex_.space(k), np.random.default_rng(k).normal(size=complex_.space(k).ndof)
    )
    got = tab.field(k, coeffs.values)
    assert got.shape == (n_tets, n_points, 3 if k < 3 else 1)
    for tet in (0, n_tets // 2, n_tets - 1):
        for q, bary in enumerate(tab.rule.points):
            want = evaluate(coeffs, tet, bary)
            np.testing.assert_allclose(got[tet, q], want, rtol=1e-13, atol=1e-13)


def test_tabulations_shared_per_rule(complex_n1):
    """Degrees that map to one quadrature rule map to one tabulation."""
    assert complex_n1.tabulation(ERROR_DEGREE) is complex_n1.tabulation(TRACE_DEGREE)
    assert complex_n1.tabulation() is complex_n1.tabulation(VOLUME_DEGREE + 1)
    assert complex_n1.tabulation(2) is not complex_n1.tabulation()


# ---------------------------------------------------------------------------
# Whitney basis kernel


def _reference_points(shape, seed):
    """Random barycentric points; on the reference tet x = (lam1, lam2, lam3)."""
    lam = np.random.default_rng(seed).dirichlet(np.ones(4), size=shape)
    return lam, lam[..., 1:]


def test_whitney_values_match_oracles_at_shared_points():
    """One (Q, 4) point set against a stack of tets, as in tabulation."""
    lam, pts = _reference_points(7, seed=0)
    scale = np.array([1.0, 0.5, 2.0])
    grads = barycentric_gradients(REF_VERTS[None] * scale[:, None, None])
    psi1, psi2 = whitney_values(lam, grads, 1), whitney_values(lam, grads, 2)
    assert psi1.shape == (3, 6, 7, 3)
    assert psi2.shape == (3, 4, 7, 3)
    edge, face = oracles.whitney_edge_values(pts), oracles.whitney_face_values(pts)
    for t, s in enumerate(scale):
        # Dilating the tet by s scales edge values by 1/s, face values by 1/s^2.
        np.testing.assert_allclose(psi1[t], edge / s, atol=1e-14)
        np.testing.assert_allclose(psi2[t], face / s**2, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 4),
    n_points=st.integers(1, 6),
)
def test_whitney_coefficients_match_piola_oracle(seed, batch, n_points):
    """lam @ C on jittered tets equals the Piola-mapped reference bases."""
    rng = np.random.default_rng(seed)
    corners = REF_VERTS + rng.uniform(-0.25, 0.25, (batch, 4, 3))
    assume(np.all(np.abs(np.linalg.det(corners[:, 1:] - corners[:, :1])) > 0.1))
    lam = rng.dirichlet(np.ones(4), size=(batch, n_points))
    grads = barycentric_gradients(corners)
    for k, n_basis in ((1, 6), (2, 4)):
        C = whitney_coefficients(grads, k)
        assert C.shape == (batch, n_basis, 4, 3)
        got = np.einsum("bqa,biax->biqx", lam, C)
        np.testing.assert_array_equal(whitney_coefficients(grads[0], k), C[0])
        for b in range(batch):
            want = oracles.piola_whitney_values(corners[b], lam[b, :, 1:])[k - 1]
            np.testing.assert_allclose(got[b], want, rtol=0, atol=1e-13 * np.abs(want).max())


def test_whitney_values_match_oracles_per_batch():
    """(B, Q, 4) points with (B, 4, 3) gradients, as in the face tables."""
    lam, pts = _reference_points((5, 6), seed=1)
    scale = 1.0 + 0.25 * np.arange(5)
    grads = barycentric_gradients(REF_VERTS[None] * scale[:, None, None])
    psi1, psi2 = whitney_values(lam, grads, 1), whitney_values(lam, grads, 2)
    assert psi1.shape == (5, 6, 6, 3)
    assert psi2.shape == (5, 4, 6, 3)
    for b, s in enumerate(scale):
        edge = oracles.whitney_edge_values(pts[b])
        face = oracles.whitney_face_values(pts[b])
        np.testing.assert_allclose(psi1[b], edge / s, atol=1e-14)
        np.testing.assert_allclose(psi2[b], face / s**2, atol=1e-14)


# ---------------------------------------------------------------------------
# error norms


def test_error_norms_vanish_for_reproduced_fields(complex_n2):
    a = np.array([0.2, -0.5, 1.0])

    def field(p, t=0.0):
        return a + 0.3 * p

    def div_field(p, t=0.0):
        return np.full(len(p), 0.9)

    coeffs = complex_n2.interpolate(field, 2)
    err = complex_n2.error_norms(coeffs, field, exact_derivative=div_field)
    assert err.l2 < 1e-13
    assert err.graph < 1e-13
    assert err.rel_l2 < 1e-13
    assert err.rel_graph < 1e-13


def test_error_norms_of_zero_against_constant(complex_n1):
    c = np.array([3.0, 0.0, 4.0])
    zero = FormCoefficients.zeros(complex_n1.V2)
    err = complex_n1.error_norms(zero, lambda p, t=0.0: np.broadcast_to(c, p.shape))
    # |c| = 5 over the unit box; no derivative data means graph == l2.
    assert err.l2 == pytest.approx(5.0, rel=1e-12)
    assert err.graph == pytest.approx(5.0, rel=1e-12)
    assert err.rel_l2 == pytest.approx(1.0, rel=1e-12)
    assert err.exact_l2 == err.exact_graph == err.l2


def test_error_norms_relative_is_absolute_for_zero_exact(complex_n1):
    """Against an identically zero exact field the relative errors are
    the absolute ones, for the L2 and the graph norm alike."""
    values = np.zeros(complex_n1.V2.ndof)
    values[complex_n1.mesh.tet_faces[0]] = [1.0, 0.5, -0.25, 0.75]
    coeffs = FormCoefficients(complex_n1.V2, values)
    err = complex_n1.error_norms(coeffs, lambda p, t=0.0: np.zeros_like(p))
    assert err.exact_l2 == err.exact_graph == 0.0
    assert err.l2 > 0 and err.graph > err.l2
    assert (err.rel_l2, err.rel_graph) == (err.l2, err.graph)
    # Only the zero exact norm switches to absolute: the derivative alone
    # makes the graph norm nonzero and relative, while the L2 stays absolute.
    err = complex_n1.error_norms(
        coeffs, lambda p, t=0.0: np.zeros_like(p), lambda p, t=0.0: np.ones(len(p))
    )
    assert err.exact_l2 == 0.0 < err.exact_graph
    assert err.rel_l2 == err.l2
    assert err.rel_graph == err.graph / err.exact_graph


def test_error_norms_graph_includes_derivative_mismatch(complex_n1):
    """A discrete field with nonzero divergence against exact zero."""
    values = np.zeros(complex_n1.V2.ndof)
    values[complex_n1.mesh.tet_faces[0]] = [1.0, 0.5, -0.25, 0.75]
    coeffs = FormCoefficients(complex_n1.V2, values)
    tab = complex_n1.tabulation(ERROR_DEGREE)
    err = error_norms(tab, coeffs, lambda p, t=0.0: np.zeros_like(p))
    div = derivative_matrix(complex_n1.V2) @ values
    dens = div / complex_n1.mesh.tet_volumes
    want_dl2 = float(np.sqrt(np.sum(div * dens)))
    assert err.graph == pytest.approx(np.sqrt(err.l2**2 + want_dl2**2), rel=1e-12)


def test_volume_form_graph_norm_equals_l2(complex_n1):
    coeffs = complex_n1.interpolate(lambda p, t=0.0: p[:, 2], 3)
    err = complex_n1.error_norms(coeffs, lambda p, t=0.0: np.zeros(len(p)))
    assert err.graph == err.l2


@pytest.fixture(scope="module", params=[6, 3], ids=["shared", "serial"])
def error_complex(request):
    """A jittered box whose error tabulation is above (n=6, 82,944 points)
    or below (n=3, 10,368 points) the size that shares its blocks with the
    worker."""
    complex_ = DeRhamComplex(jittered_box(request.param, 0))
    size = complex_.tabulation(ERROR_DEGREE).weights.size
    assert (size >= spaces._SHARED_POINTS) == (request.param == 6)
    return complex_


def _mms_cases(complex_):
    """(coefficients, exact, exact_derivative) for k = 1, 2, 3."""
    mms = stokes_mms_fields()
    return {
        1: (complex_.interpolate(mms["vorticity"], 1), mms["vorticity"], mms["vorticity_curl"]),
        2: (complex_.interpolate(mms["velocity"], 2), mms["velocity"], None),
        3: (complex_.interpolate(mms["pressure"], 3), mms["pressure"], None),
    }


def _within(seconds, fn, *args):
    """fn(*args) on a daemon thread; fails the test if it takes longer
    than ``seconds``, as a deadlock would."""
    out = {}

    def run():
        try:
            out["value"] = fn(*args)
        except Exception as exc:
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no result within {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_blocked_error_norms_match_the_single_pass(error_complex, k, monkeypatch):
    """The blocked norms equal the one-pass reference to 1e-14, repeat bit
    for bit, and use the worker only above the sharing size."""
    workers = []

    def spy(*args, **kwargs):
        workers.append(threading.current_thread().name)
        return linalg.on_worker(*args, **kwargs)

    monkeypatch.setattr(spaces, "on_worker", spy)
    tab = error_complex.tabulation(ERROR_DEGREE)
    coeffs, exact, derivative = _mms_cases(error_complex)[k]
    got = error_norms(tab, coeffs, exact, derivative)
    want = oracles.error_norms_single_pass(tab, coeffs, exact, derivative)
    for name in ("l2", "graph", "exact_l2", "exact_graph"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-14, abs=0)
    assert error_norms(tab, coeffs, exact, derivative) == got
    shared = tab.weights.size >= spaces._SHARED_POINTS
    assert workers == [threading.current_thread().name] * 2 * shared


def test_error_norms_on_the_worker_run_inline(error_complex):
    """Called on the worker itself, the norms run every block there and
    return what the calling thread gets, bit for bit."""
    coeffs, exact, derivative = _mms_cases(error_complex)[1]
    want = error_complex.error_norms(coeffs, exact, derivative)

    def on_the_worker():
        return linalg.on_worker(error_complex.error_norms, coeffs, exact, derivative).result()

    assert _within(60, on_the_worker) == want


def test_non_finite_exact_values_in_a_worker_block_raise(error_complex):
    """A non-finite exact value met on the worker raises the sampler's
    ValueError naming ``exact`` and t, and the next call succeeds."""
    coeffs, exact, _ = _mms_cases(error_complex)[2]

    def broken(points, t=0.0):
        values = exact(points, t)
        if threading.current_thread().name.startswith("vvpflow-worker"):
            values[0, 1] = np.nan
        return values

    shared = error_complex.tabulation(ERROR_DEGREE).weights.size >= spaces._SHARED_POINTS
    if shared:
        with pytest.raises(ValueError, match=r"exact at t=0.25 is not finite: 1 non-finite"):
            _within(60, error_complex.error_norms, coeffs, broken, None, 0.25)
    else:  # no block reaches the worker
        _within(60, error_complex.error_norms, coeffs, broken, None, 0.25)
    got = _within(60, error_complex.error_norms, coeffs, exact)
    assert got == error_complex.error_norms(coeffs, exact)


# ---------------------------------------------------------------------------
# complex wrapper


def test_complex_helpers(complex_n2):
    mesh = complex_n2.mesh
    assert complex_n2.space(1) is complex_n2.V1
    assert complex_n2.h == pytest.approx(np.sqrt(3.0) / 2.0)
    u = complex_n2.interpolate(lambda p, t=0.0: 0.5 * p, 2)
    # div(0.5 x) = 1.5, constant density.
    assert complex_n2.divergence_max(u.values) == pytest.approx(1.5, rel=1e-12)
    assert complex_n2.norm(u) == pytest.approx(
        m_norm(complex_n2.m2, u.values), rel=1e-14
    )


def test_coefficients_validation(complex_n1):
    with pytest.raises(ValueError, match="shape"):
        FormCoefficients(complex_n1.V2, np.zeros(3))
    c = FormCoefficients.zeros(complex_n1.V1)
    d = c.copy()
    d.values[0] = 1.0
    assert c.values[0] == 0.0
