"""Lowest-order Whitney form spaces on tetrahedral meshes.

The three spaces form a discrete de Rham subcomplex

    V1 --curl--> V2 --div--> V3

* ``k=1``: edge elements.  Basis for edge (a, b), a < b:
  ``psi = lambda_a grad(lambda_b) - lambda_b grad(lambda_a)``.
  The degree of freedom is the tangential circulation along the edge,
  oriented from the low to the high vertex index.
* ``k=2``: face elements.  Basis for face (a, b, c), a < b < c:
  ``psi = 2 (lambda_a grad(lambda_b) x grad(lambda_c) + cyclic)``.
  The degree of freedom is the flux through the face, with the normal
  oriented by the right-hand rule on the ascending vertex order.
* ``k=3``: one degree of freedom per tet storing the cell integral of
  the field; the basis function is the cell indicator scaled by 1/|T|,
  so the mass matrix is diag(1/|T|) and the coefficient of a field p
  is the unsigned integral of p over the cell.

With these conventions the exterior-derivative matrices are integer
incidence matrices: ``D1`` maps circulations to fluxes of the curl
(Stokes), ``D2`` maps fluxes to cell integrals of the divergence
(divergence theorem), and ``D2 @ D1 = 0`` holds exactly in integer
arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import (
    FACE_EDGE_SIGN,
    TET_EDGE_VERTS,
    TET_FACE_PARITY,
    TET_FACE_VERTS,
    SimplicialMesh3,
    mesh_size,
)
from .linalg import m_norm
from .quadrature import edge_rule, points_per_axis, tet_rule, triangle_rule

__all__ = [
    "VOLUME_DEGREE",
    "ERROR_DEGREE",
    "TRACE_DEGREE",
    "FormSpace",
    "FormCoefficients",
    "ErrorNorms",
    "DeRhamComplex",
    "barycentric_gradients",
    "whitney_coefficients",
    "whitney_values",
    "simplex_rule",
    "derivative_matrix",
    "mass_matrix",
    "interpolate",
    "dof_values",
    "error_norms",
]

# Exactness degrees of the quadrature rules, fixed here for the package.
# The volume rule behind the mass matrices, the convection blocks and
# the default loads must be exact to degree 3 (cubic integrands).
VOLUME_DEGREE = 4
# The volume rule behind the error norms.
ERROR_DEGREE = 6
# The edge, face and cell rules that evaluate the DOF functionals of
# analytic data, and the face rule of the natural boundary terms.
TRACE_DEGREE = 7


@dataclass(eq=False, frozen=True)
class FormSpace:
    """A Whitney k-form space tied to one mesh.

    DOF i lives on simplex i of the space's dimension (edge, face or
    tet), so global simplex indices double as DOF indices.
    """

    k: int
    ndof: int
    mesh: SimplicialMesh3

    def __post_init__(self):
        if self.k not in (1, 2, 3):
            raise ValueError("only k in {1, 2, 3} is supported")


@dataclass
class FormCoefficients:
    """Coefficient vector for a form space (see module docstring)."""

    space: FormSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.space.ndof,):
            raise ValueError(
                f"coefficient vector has shape {self.values.shape}, "
                f"space expects ({self.space.ndof},)"
            )

    def copy(self):
        return FormCoefficients(self.space, self.values.copy())

    @classmethod
    def zeros(cls, space):
        return cls(space, np.zeros(space.ndof))


def form_space(mesh, k):
    ndof = {1: mesh.n_edges, 2: mesh.n_faces, 3: mesh.n_tets}.get(k, 0)
    return FormSpace(k, ndof, mesh)


def barycentric_gradients(corners):
    """Gradients of the four barycentric coordinates, shape (..., 4, 3).

    ``corners`` holds the tet vertex coordinates, shape (..., 4, 3).
    """
    jac = corners[..., 1:, :] - corners[..., :1, :]
    grads = np.empty(corners.shape)
    grads[..., 1:, :] = np.swapaxes(np.linalg.inv(jac), -1, -2)
    grads[..., 0, :] = -grads[..., 1:, :].sum(axis=-2)
    return grads


def whitney_coefficients(grads, k):
    """Affine coefficients of the Whitney k-form basis, k in {1, 2}.

    Every basis function is affine in the barycentric coordinates,
    ``psi_i = sum_a lambda_a C[i, a]``.  grads : (..., 4, 3) barycentric
    gradients (see :func:`barycentric_gradients`).  Returns C1
    (..., 6, 4, 3) for k=1 and C2 (..., 4, 4, 3) for k=2, in the local
    edge and face order of :mod:`vvpflow.mesh`.
    """
    g = np.asarray(grads, dtype=float)
    if k == 1:
        C = np.zeros(g.shape[:-2] + (6, 4, 3))
        for e, (i, j) in enumerate(TET_EDGE_VERTS):
            C[..., e, i, :] = g[..., j, :]
            C[..., e, j, :] = -g[..., i, :]
        return C
    C = np.zeros(g.shape[:-2] + (4, 4, 3))
    for f, (a, b, c) in enumerate(TET_FACE_VERTS):
        C[..., f, a, :] = 2.0 * np.cross(g[..., b, :], g[..., c, :])
        C[..., f, b, :] = 2.0 * np.cross(g[..., c, :], g[..., a, :])
        C[..., f, c, :] = 2.0 * np.cross(g[..., a, :], g[..., b, :])
    return C


def whitney_values(lam, grads, k):
    """Whitney k-form basis vectors at barycentric points, k in {1, 2}.

    lam : (..., Q, 4) barycentric coordinates; grads : (..., 4, 3)
    barycentric gradients.  Leading axes broadcast.  Returns
    ``lam @ C`` (see :func:`whitney_coefficients`): psi1 (..., 6, Q, 3)
    for k=1 and psi2 (..., 4, Q, 3) for k=2.
    """
    lam = np.asarray(lam, dtype=float)[..., None, :, :]
    return lam @ whitney_coefficients(grads, k)


def _lambda_moments(rule, order):
    """Reference moments of products of barycentric coordinates.

    ``order`` 2 gives the (4, 4) matrix ``sum_q w_q lam_a lam_b`` and 3
    the (4, 4, 4) tensor ``sum_q w_q lam_a lam_b lam_c``; times 6|T|
    they are the integrals over a tet.  The rule must be exact to
    ``order``, which the callers check.
    """
    lam = rule.points
    if order == 2:
        return np.einsum("q,qa,qb->ab", rule.weights, lam, lam)
    return np.einsum("q,qa,qb,qc->abc", rule.weights, lam, lam, lam)


def simplex_rule(corners, rule):
    """Map a reference rule onto a stack of d-simplices.

    corners : (S, d+1, 3) vertex coordinates; ``rule.dim`` must be d.
    Returns the physical points ``rule.points @ corners`` (S, Q, 3) and
    the measure that scales the reference weights: the edge vector
    (S, 3) for d=1, the right-hand face normal of length 2 area (S, 3)
    for d=2, and 6|T| (S,) for d=3.  The reference weights sum to 1,
    1/2 and 1/6, so ``sum_q w_q f(x_q) * measure`` is the circulation,
    the flux or the cell integral of f.
    """
    corners = np.asarray(corners, dtype=float)
    d = corners.shape[1] - 1
    if rule.dim != d:
        raise ValueError(f"a {d}-simplex needs a rule of dimension {d}, got {rule.dim}")
    points = rule.points @ corners
    spans = corners[:, 1:, :] - corners[:, :1, :]
    if d == 1:
        measure = spans[:, 0]
    elif d == 2:
        measure = np.cross(spans[:, 0], spans[:, 1])
    else:
        measure = np.abs(np.linalg.det(spans))
    return points, measure


class TetGeometry:
    """Per-tet barycentric gradients and affine Whitney coefficients.

    grads : (T, 4, 3)
    whitney : {1: C1 (T, 6, 4, 3), 2: C2 (T, 4, 4, 3)}, see
    :func:`whitney_coefficients`
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.grads = barycentric_gradients(mesh.vertices[mesh.tets])
        self.whitney = {k: whitney_coefficients(self.grads, k) for k in (1, 2)}


class WhitneyTabulation:
    """One volume quadrature rule mapped onto all tets.

    points : (T, Q, 3) physical quadrature points
    weights : (T, Q) physical quadrature weights (sum to |T| per tet)
    convection_tensor : (T, 4, 6, 4), built on first read

    The basis is affine in the barycentric coordinates, so sums over
    the points contract with ``rule.points`` (Q, 4) and the per-tet
    coefficients of :class:`TetGeometry`; no basis values are stored.
    ``psi1`` (T, 6, Q, 3) and ``psi2`` (T, 4, Q, 3), the basis at the
    points, are built on first read for inspection only.
    """

    def __init__(self, geometry, rule):
        self.geometry = geometry
        self.mesh = mesh = geometry.mesh
        self.rule = rule
        self.points, measure = simplex_rule(mesh.vertices[mesh.tets], rule)
        self.weights = measure[:, None] * rule.weights[None, :]

    @cached_property
    def psi1(self):
        return whitney_values(self.rule.points, self.geometry.grads, 1)

    @cached_property
    def psi2(self):
        return whitney_values(self.rule.points, self.geometry.grads, 2)

    @cached_property
    def convection_tensor(self):
        """K[t, i, e, j] = integral of (psi1_e x psi2_j) . psi2_i, (T, 4, 6, 4).

        The integrand is cubic in lambda, so the rule's third lambda
        moments make K exact when the rule is exact to degree 3.  It is
        skew in (i, j), so only the pairs i < j are integrated.
        """
        if self.rule.exactness_degree < 3:
            raise ValueError("convection tensor needs quadrature exact to degree 3")
        C1, C2 = self.geometry.whitney[1], self.geometry.whitney[2]
        moments = _lambda_moments(self.rule, 3).reshape(4, 16)
        vol6 = 6.0 * self.mesh.tet_volumes
        K = np.zeros((len(C2), 4, 6, 4))
        for i in range(4):
            for j in range(i + 1, 4):
                # (C2_jb x C2_ic) summed against the moments over b, c.
                cross = np.cross(C2[:, j, :, None, :], C2[:, i, None, :, :])
                outer = moments @ cross.reshape(-1, 16, 3)
                K[:, i, :, j] = vol6[:, None] * np.einsum("teax,tax->te", C1, outer)
                K[:, j, :, i] = -K[:, i, :, j]
        return K

    def field(self, k, values):
        """The k-form with coefficients ``values`` at the points.

        Returns (T, Q, 3) vectors for k in {1, 2} and (T, Q, 1)
        densities (cell integral / |T|) for k=3.
        """
        if k == 3:
            dens = _form_at(self.mesh, 3, values, slice(None))
            return np.broadcast_to(dens[:, None, None], self.weights.shape + (1,))
        return _form_at(
            self.mesh, k, values, slice(None), self.rule.points, self.geometry.whitney[k]
        )


def _form_at(mesh, k, values, tets, lam=None, coeffs=None):
    """k-form ``values`` of cells ``tets`` at barycentric points ``lam``.

    ``coeffs`` are the cells' Whitney coefficients; the form's own affine
    coefficients ``U = sum_i values_i C_i`` (..., 4, 3) are contracted
    with ``lam`` (Q, 4).  For k=3 ``lam`` and ``coeffs`` are unused and
    the result is the density, cell integral / |T|.
    """
    values = np.asarray(values)
    if k == 3:
        return values[tets] / mesh.tet_volumes[tets]
    dofs = (mesh.tet_edges if k == 1 else mesh.tet_faces)[tets]
    return lam @ np.einsum("...iax,...i->...ax", coeffs, values[dofs])


def _scatter(local, rows, cols, shape):
    """Sum local element matrices into a CSR matrix.

    local : (T, a, b), rows : (T, a), cols : (T, b)
    """
    r = np.broadcast_to(rows[:, :, None], local.shape).ravel()
    c = np.broadcast_to(cols[:, None, :], local.shape).ravel()
    return sp.coo_matrix((local.ravel(), (r, c)), shape=shape).tocsr()


def derivative_matrix(space):
    """Signed integer incidence matrix for the exterior derivative.

    k=1 -> (F, E) curl matrix, k=2 -> (T, F) divergence matrix.  Entries
    are in {-1, 0, +1}; applying the matrix to a coefficient vector
    yields the coefficients of the derivative in the next space.
    """
    mesh = space.mesh
    if space.k == 1:
        rows = np.repeat(np.arange(mesh.n_faces), 3)
        cols = mesh.face_edges.ravel()
        data = np.tile(np.array(FACE_EDGE_SIGN, dtype=np.int64), mesh.n_faces)
        return sp.coo_matrix(
            (data, (rows, cols)), shape=(mesh.n_faces, mesh.n_edges)
        ).tocsr()
    if space.k == 2:
        rows = np.repeat(np.arange(mesh.n_tets), 4)
        cols = mesh.tet_faces.ravel()
        data = np.outer(
            mesh.tet_orientations, np.array(TET_FACE_PARITY, dtype=np.int64)
        ).ravel()
        return sp.coo_matrix(
            (data, (rows, cols)), shape=(mesh.n_tets, mesh.n_faces)
        ).tocsr()
    raise ValueError("exterior derivative of a 3-form is zero; no matrix")


def mass_matrix(space, tabulation=None):
    """L2 Gram matrix of the Whitney basis.

    For k in {1, 2} the entries are integrals of basis products, the
    Whitney coefficients contracted with the second lambda moments of
    ``tabulation``'s rule (default: the VOLUME_DEGREE rule; exactness
    degree >= 2 is required, which makes the result exact since the
    integrands are quadratics).  For k=3 the matrix is diag(1/|T|) in
    closed form.
    """
    mesh = space.mesh
    if space.k == 3:
        return sp.diags(1.0 / mesh.tet_volumes).tocsr()
    if tabulation is None:
        tabulation = WhitneyTabulation(TetGeometry(mesh), tet_rule(VOLUME_DEGREE))
    if tabulation.rule.exactness_degree < 2:
        raise ValueError("mass matrix needs quadrature exact to degree 2")
    C = tabulation.geometry.whitney[space.k]
    idx = mesh.tet_edges if space.k == 1 else mesh.tet_faces
    moments = _lambda_moments(tabulation.rule, 2)
    local = np.einsum("teax,tfax->tef", C, moments @ C)
    local *= 6.0 * mesh.tet_volumes[:, None, None]
    return _scatter(local, idx, idx, (space.ndof, space.ndof))


def interpolate(fielddata, space, t=0.0, only=None):
    """Canonical interpolation: evaluate the defining DOF functionals.

    ``fielddata(points, t)`` takes an (n, 3) array and returns (n, 3)
    vectors for k in {1, 2} or (n,) scalars for k=3.  Circulations
    along the edges, fluxes through the faces and cell integrals are
    computed with the TRACE_DEGREE rule on each simplex by
    :func:`dof_values`.  Given ``only``, an index array of simplices,
    the others are not evaluated and their values are zero.
    """
    mesh = space.mesh
    simplices = (mesh.edges, mesh.faces, mesh.tets)[space.k - 1]
    idx = slice(None) if only is None else only
    rule = (edge_rule, triangle_rule, tet_rule)[space.k - 1](TRACE_DEGREE)
    points, measure = simplex_rule(mesh.vertices[simplices[idx]], rule)
    values = np.zeros(space.ndof)
    values[idx] = dof_values(fielddata, rule, points, measure, t)
    return FormCoefficients(space, values)


def dof_values(fielddata, rule, points, measure, t=0.0):
    """The DOF functional of ``fielddata`` on each simplex that :func:`simplex_rule`
    mapped ``rule`` onto (``points``, ``measure``), shape (S,)."""
    S, Q = points.shape[:2]
    vals = np.asarray(fielddata(points.reshape(-1, 3), t), dtype=float)
    return np.einsum(
        "q,sqx,sx->s", rule.weights, vals.reshape(S, Q, -1), measure.reshape(S, -1)
    )


@dataclass(frozen=True)
class ErrorNorms:
    """Absolute and relative errors; ``graph`` adds the derivative term.

    graph is the H(curl) norm for k=1, H(div) for k=2, and equals the
    L2 norm for k=3 (the derivative of a 3-form vanishes).  ``exact_l2``
    and ``exact_graph`` are the same norms of the exact field itself.
    """

    l2: float
    graph: float
    exact_l2: float
    exact_graph: float
    rel_l2: float | None = None
    rel_graph: float | None = None


def error_norms(
    coeffs,
    exact,
    exact_derivative=None,
    t=0.0,
    relative=True,
    tabulation=None,
    derivative=None,
):
    """L2 and graph-norm errors of a discrete form against analytic fields.

    ``exact(points, t)`` gives the field itself; ``exact_derivative`` the
    curl (k=1) or divergence (k=2).  A missing derivative field is
    treated as zero.  The norms use ``tabulation`` (default: the
    ERROR_DEGREE rule).  ``derivative`` may pass a precomputed incidence
    matrix; otherwise it is rebuilt.  Relative norms divide by the norms
    of the exact field and raise if those vanish.
    """
    space = coeffs.space
    if tabulation is None:
        tabulation = WhitneyTabulation(TetGeometry(space.mesh), tet_rule(ERROR_DEGREE))
    W = tabulation.weights
    pts = tabulation.points.reshape(-1, 3)

    def squared(k, values, exact_field):
        """Squared L2 norms of (exact - discrete) and of exact."""
        uh = tabulation.field(k, values)
        if exact_field is None:
            uex = np.zeros(uh.shape)
        else:
            uex = np.asarray(exact_field(pts, t), dtype=float).reshape(uh.shape)
        return (
            float(np.sum(W * np.sum((uex - uh) ** 2, axis=-1))),
            float(np.sum(W * np.sum(uex**2, axis=-1))),
        )

    err2, ex2 = squared(space.k, coeffs.values, exact)
    derr2 = dex2 = 0.0
    if space.k < 3:
        D = derivative_matrix(space) if derivative is None else derivative
        derr2, dex2 = squared(space.k + 1, D @ coeffs.values, exact_derivative)

    l2 = np.sqrt(err2)
    graph = np.sqrt(err2 + derr2)
    ex_l2 = np.sqrt(ex2)
    ex_graph = np.sqrt(ex2 + dex2)
    if not relative:
        return ErrorNorms(l2, graph, ex_l2, ex_graph)
    if ex_l2 < 1e-300 or ex_graph < 1e-300:
        raise ValueError("relative error undefined: exact field has zero norm")
    return ErrorNorms(l2, graph, ex_l2, ex_graph, l2 / ex_l2, graph / ex_graph)


class DeRhamComplex:
    """The three Whitney spaces plus cached operators for one mesh.

    Builds the per-tet Whitney coefficients (``geometry``), the
    incidence matrices D1, D2 and the mass matrices M1, M2, M3 once;
    the points and weights of volume rules of any degree are cached so
    repeated assembly (convection, loads, error norms) reuses them.
    The default degree is VOLUME_DEGREE.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.geometry = TetGeometry(mesh)
        self.V1 = form_space(mesh, 1)
        self.V2 = form_space(mesh, 2)
        self.V3 = form_space(mesh, 3)
        self._tabs = {}
        self.d1 = derivative_matrix(self.V1)
        self.d2 = derivative_matrix(self.V2)
        self.m1 = mass_matrix(self.V1, tabulation=self.tabulation())
        self.m2 = mass_matrix(self.V2, tabulation=self.tabulation())
        self.m3 = mass_matrix(self.V3)

    def space(self, k):
        return {1: self.V1, 2: self.V2, 3: self.V3}[k]

    def tabulation(self, degree=None):
        degree = VOLUME_DEGREE if degree is None else degree
        # Keyed like the rules, so degrees sharing a rule share a table.
        m = points_per_axis(degree)
        if m not in self._tabs:
            self._tabs[m] = WhitneyTabulation(self.geometry, tet_rule(degree))
        return self._tabs[m]

    def interpolate(self, fielddata, k, t=0.0):
        return interpolate(fielddata, self.space(k), t=t)

    def error_norms(self, coeffs, exact, exact_derivative=None, t=0.0, relative=True):
        return error_norms(
            coeffs,
            exact,
            exact_derivative,
            t=t,
            relative=relative,
            tabulation=self.tabulation(ERROR_DEGREE),
            derivative={1: self.d1, 2: self.d2, 3: None}[coeffs.space.k],
        )

    def divergence_max(self, u_values):
        """Sup norm of the pointwise divergence density of a 2-form."""
        return float(np.max(np.abs(self.d2 @ u_values) / self.mesh.tet_volumes))

    def mass(self, k):
        return {1: self.m1, 2: self.m2, 3: self.m3}[k]

    def norm(self, coeffs):
        """M-norm of a coefficient vector (the discrete L2 norm)."""
        return m_norm(self.mass(coeffs.space.k), coeffs.values)

    @property
    def h(self):
        return mesh_size(self.mesh)
