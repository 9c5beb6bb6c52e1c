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

Every basis function is affine in the barycentric coordinates.  A
:class:`DeRhamComplex` holds each tet's affine coefficients once, and
its :class:`WhitneyTabulation` of a volume rule contracts them with the
rule's points and lambda moments, so no basis values are stored.

:func:`error_norms` measures a discrete form against analytic fields
with the rule of degree ERROR_DEGREE, in blocks of tets that a large
mesh shares between the calling thread and the package's worker thread.
Its :class:`ErrorNorms` holds one relative-error rule: the error over the
exact norm, or the absolute error where the exact field is identically
zero.
"""
from __future__ import annotations

from concurrent.futures import wait
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
from .linalg import m_norm, on_worker
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
    "simplex_rule",
    "derivative_matrix",
    "mass_matrix",
    "sample",
    "interpolate",
    "dof_values",
    "error_norms",
]

# The pairs i < j of a tet's local faces, the rows of
# ``WhitneyTabulation.convection_tensor``.
FACE_PAIRS = tuple((i, j) for i in range(4) for j in range(i + 1, 4))

# Exactness degrees of the quadrature rules, fixed here for the package.
# The volume rule behind the mass matrices, the convection blocks and
# the default loads must be exact to degree 3 (cubic integrands).
VOLUME_DEGREE = 4
# The volume rule behind the error norms.
ERROR_DEGREE = 6
# The error norms sum over blocks of tets of about _BLOCK_POINTS points,
# and share the blocks with the worker thread from _SHARED_POINTS points
# on.  Measured on 2 vCPUs at degree 6 (64 points a tet): two threads
# match one on the n=4 Kuhn box (24,576 points, 4.2 ms) and take 0.55-0.58
# of its time from n=5 (48,000 points) on.  Blocks of 8,192 points keep the
# worker's temporaries small: halves of the mesh instead raised the peak
# RSS of an n=7 run by 7%.
_BLOCK_POINTS = 8192
_SHARED_POINTS = 4 * _BLOCK_POINTS
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


class WhitneyTabulation:
    """One volume quadrature rule mapped onto all tets of a complex.

    points : (T, Q, 3) physical quadrature points
    weights : (T, Q) physical quadrature weights (sum to |T| per tet)
    convection_tensor : (T, 6, 6), face pairs i < j by edges, built on first read

    The basis is affine in the barycentric coordinates, so sums over
    the points contract with ``rule.points`` (Q, 4) and the complex's
    per-tet Whitney coefficients; no basis values are stored.
    """

    def __init__(self, complex_, rule):
        self.complex = complex_
        self.rule = rule
        mesh = complex_.mesh
        self.points, measure = simplex_rule(mesh.vertices[mesh.tets], rule)
        self.weights = measure[:, None] * rule.weights[None, :]

    @cached_property
    def convection_tensor(self):
        """K[t, p, e] = integral of (psi1_e x psi2_j) . psi2_i, (T, 6, 6),
        for the face pairs p = (i, j), i < j, of ``FACE_PAIRS``.

        The integrand is cubic in lambda, so the rule's third lambda
        moments make K exact when the rule is exact to degree 3.  It is
        skew in (i, j), the discrete (omega x u) . u = 0, so the pairs
        i < j hold all of it: 36 entries a tet, where the whole (4, 6, 4)
        tensor would hold 96.
        """
        if self.rule.exactness_degree < 3:
            raise ValueError("convection tensor needs quadrature exact to degree 3")
        C1, C2 = self.complex.whitney[1], self.complex.whitney[2]
        moments = _lambda_moments(self.rule, 3).reshape(4, 16)
        vol6 = 6.0 * self.complex.mesh.tet_volumes
        K = np.empty((len(C2), 6, 6))
        for p, (i, j) in enumerate(FACE_PAIRS):
            # (C2_jb x C2_ic) summed against the moments over b, c.
            cross = np.cross(C2[:, j, :, None, :], C2[:, i, None, :, :])
            outer = moments @ cross.reshape(-1, 16, 3)
            K[:, p] = vol6[:, None] * np.einsum("teax,tax->te", C1, outer)
        return K

    def field(self, k, values, tets=slice(None)):
        """The k-form with coefficients ``values`` at the points of the
        tets ``tets`` (a slice, all of them by default).

        Returns (T, Q, 3) vectors for k in {1, 2}: the form's own affine
        coefficients ``U = sum_i values_i C_i`` (T, 4, 3) of those tets
        contracted with ``rule.points``.  For k=3 it returns (T, Q, 1)
        densities (cell integral / |T|).
        """
        values, mesh = np.asarray(values), self.complex.mesh
        if k == 3:
            dens = values[tets] / mesh.tet_volumes[tets]
            return np.broadcast_to(dens[:, None, None], self.weights[tets].shape + (1,))
        dofs = (mesh.tet_edges if k == 1 else mesh.tet_faces)[tets]
        U = np.einsum("...iax,...i->...ax", self.complex.whitney[k][tets], values[dofs])
        return self.rule.points @ U


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
        signs = np.array(FACE_EDGE_SIGN, dtype=np.int64)
        local = np.broadcast_to(signs, (mesh.n_faces, 1, 3))
        rows = np.arange(mesh.n_faces)[:, None]
        return _scatter(local, rows, mesh.face_edges, (mesh.n_faces, mesh.n_edges))
    if space.k == 2:
        parity = np.array(TET_FACE_PARITY, dtype=np.int64)
        local = np.outer(mesh.tet_orientations, parity)[:, None, :]
        rows = np.arange(mesh.n_tets)[:, None]
        return _scatter(local, rows, mesh.tet_faces, (mesh.n_tets, mesh.n_faces))
    raise ValueError("exterior derivative of a 3-form is zero; no matrix")


def mass_matrix(space, tabulation=None):
    """L2 Gram matrix of the Whitney basis.

    For k in {1, 2} the entries are integrals of basis products, the
    Whitney coefficients of ``tabulation``'s complex contracted with the
    second lambda moments of its rule.  The rule must be exact to degree
    2, which makes the result exact since the integrands are quadratics.
    For k=3 the matrix is diag(1/|T|) in closed form, and ``tabulation``
    is not needed.
    """
    mesh = space.mesh
    if space.k == 3:
        return sp.diags(1.0 / mesh.tet_volumes).tocsr()
    if tabulation is None or tabulation.rule.exactness_degree < 2:
        raise ValueError("mass matrix needs a tabulation exact to degree 2")
    C = tabulation.complex.whitney[space.k]
    idx = mesh.tet_edges if space.k == 1 else mesh.tet_faces
    moments = _lambda_moments(tabulation.rule, 2)
    local = np.einsum("teax,tfax->tef", C, moments @ C)
    local *= 6.0 * mesh.tet_volumes[:, None, None]
    return _scatter(local, idx, idx, (space.ndof, space.ndof))


def sample(data, points, t, vector, what):
    """Values of the analytic field ``data`` at ``points`` (..., 3), time t.

    The one call of a data callable on points, by the convention of
    :mod:`vvpflow.fields`: ``data(points, t)`` takes the (n, 3) points and
    returns (n, 3) vectors if ``vector``, else (n,) scalars.  Returns the
    values shaped ``points.shape[:-1]``, plus (3,) for vectors.  Raises
    ValueError, naming ``what`` and t, for any other shape or a value
    that is not finite.  :func:`error_norms` may sample one callable on
    two threads at once, on disjoint blocks of points, so a callable must
    be a pure function of ``(points, t)``.
    """
    flat = points.reshape(-1, 3)
    values = np.asarray(data(flat, t), dtype=float)
    shape = (len(flat), 3) if vector else (len(flat),)
    if values.shape != shape:
        kind = "vector" if vector else "scalar"
        raise ValueError(
            f"{what} at t={t:g} has shape {values.shape}, not the {shape} "
            f"of a {kind} field on {len(flat)} points"
        )
    if not np.isfinite(values).all():
        bad = np.count_nonzero(~np.isfinite(values))
        raise ValueError(f"{what} at t={t:g} is not finite: {bad} non-finite values")
    return values.reshape(points.shape[:-1] + shape[1:])


def interpolate(fielddata, space, t=0.0):
    """Canonical interpolation: evaluate the defining DOF functionals.

    ``fielddata(points, t)`` takes an (n, 3) array and returns (n, 3)
    vectors for k in {1, 2} or (n,) scalars for k=3.  Circulations
    along the edges, fluxes through the faces and cell integrals are
    computed with the TRACE_DEGREE rule on each simplex by
    :func:`dof_values`.
    """
    mesh = space.mesh
    simplices = (mesh.edges, mesh.faces, mesh.tets)[space.k - 1]
    rule = (edge_rule, triangle_rule, tet_rule)[space.k - 1](TRACE_DEGREE)
    points, measure = simplex_rule(mesh.vertices[simplices], rule)
    vals = sample(fielddata, points, t, space.k != 3, f"V{space.k} data")
    return FormCoefficients(space, dof_values(vals, rule, measure))


def dof_values(vals, rule, measure):
    """The DOF functional on each simplex that :func:`simplex_rule` mapped
    ``rule`` onto, shape (S,), from the data's :func:`sample` at its points:
    vectors (S, Q, 3) on edges and faces (``measure`` (S, 3)), scalars
    (S, Q) on tets (``measure`` (S,))."""
    if measure.ndim == 1:
        vals, measure = vals[..., None], measure[:, None]
    return np.einsum("q,sqx,sx->s", rule.weights, vals, measure)


@dataclass(frozen=True)
class ErrorNorms:
    """Absolute and relative errors; ``graph`` adds the derivative term.

    graph is the H(curl) norm for k=1, H(div) for k=2, and equals the
    L2 norm for k=3 (the derivative of a 3-form vanishes).  ``exact_l2``
    and ``exact_graph`` are the same norms of the exact field itself.
    ``rel_l2`` and ``rel_graph`` divide each error by its exact norm,
    or are the absolute error where that norm is exactly 0 (an
    identically zero exact field, such as the zero total-head pressure
    of the Ethier-Steinman family).
    """

    l2: float
    graph: float
    exact_l2: float
    exact_graph: float

    @property
    def rel_l2(self):
        return self.l2 / self.exact_l2 if self.exact_l2 != 0 else self.l2

    @property
    def rel_graph(self):
        return self.graph / self.exact_graph if self.exact_graph != 0 else self.graph


def error_norms(tabulation, coeffs, exact, exact_derivative=None, t=0.0):
    """L2 and graph-norm errors of a discrete form against analytic fields.

    ``exact(points, t)`` gives the field itself; ``exact_derivative`` the
    curl (k=1) or divergence (k=2).  A missing derivative field is
    treated as zero.  The norms use the points of ``tabulation`` and the
    incidence matrices of its complex.

    The sums run over blocks of about ``_BLOCK_POINTS`` points, one pass
    per block: its slice of the points is sampled, its discrete fields
    are built from its tets' Whitney coefficients, and fused sums reduce
    them.  A tabulation of at least ``_SHARED_POINTS`` points alternates
    its blocks between the calling thread and the package's worker
    (``linalg.on_worker``); the data callables then run on both at once.
    The block partial sums are added in block order, so the norms do not
    depend on which thread ran which block.
    """
    space, complex_ = coeffs.space, tabulation.complex
    W = tabulation.weights
    terms = [(space.k, coeffs.values, exact, "exact")]
    if space.k < 3:
        D = complex_.d1 if space.k == 1 else complex_.d2
        terms.append((space.k + 1, D @ coeffs.values, exact_derivative, "exact_derivative"))
    # Rows: the field, its derivative; columns: squared L2 norms of
    # (exact - discrete) and of exact.  A 3-form with no exact field needs
    # no points: its density is constant on each tet, its exact part 0.
    closed = np.zeros((2, 2))
    pointwise = []
    for i, (k, values, data, what) in enumerate(terms):
        if k == 3 and data is None:
            dens = values / complex_.mesh.tet_volumes
            closed[i, 0] = np.einsum("t,t,t->", dens, dens, W.sum(axis=1))
        else:
            pointwise.append((i, k, values, data, what))

    def block_sums(tets):
        sums = np.zeros((2, 2))
        w = W[tets]
        for i, k, values, data, what in pointwise:
            uh = tabulation.field(k, values, tets)
            if data is None:
                sums[i, 0] = np.einsum("tq,tqx,tqx->", w, uh, uh)
                continue
            uex = sample(data, tabulation.points[tets], t, k < 3, what).reshape(uh.shape)
            d = uex - uh
            sums[i] = np.einsum("tq,tqx,tqx->", w, d, d), np.einsum("tq,tqx,tqx->", w, uex, uex)
        return sums

    size = max(1, _BLOCK_POINTS // W.shape[1])
    blocks = [slice(lo, lo + size) for lo in range(0, len(W), size)] if pointwise else []
    if W.size >= _SHARED_POINTS and blocks:
        partials = [None] * len(blocks)
        pending = on_worker(lambda: [block_sums(b) for b in blocks[1::2]])
        try:
            partials[::2] = [block_sums(b) for b in blocks[::2]]
        finally:
            wait([pending])
        partials[1::2] = pending.result()
    else:
        partials = [block_sums(b) for b in blocks]
    (err2, ex2), (derr2, dex2) = sum(partials, closed)
    return ErrorNorms(
        np.sqrt(err2), np.sqrt(err2 + derr2), np.sqrt(ex2), np.sqrt(ex2 + dex2)
    )


class DeRhamComplex:
    """The three Whitney spaces plus cached operators for one mesh.

    Builds the per-tet barycentric gradients ``grads`` (T, 4, 3) and
    Whitney coefficients ``whitney`` ({1: C1 (T, 6, 4, 3), 2: C2
    (T, 4, 4, 3)}, see :func:`whitney_coefficients`), the incidence
    matrices D1, D2 and the mass matrices M1, M2, M3 once; the
    tabulations of volume rules of any degree are cached so repeated
    assembly (convection, loads, error norms) reuses them.  The default
    degree is VOLUME_DEGREE.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.grads = barycentric_gradients(mesh.vertices[mesh.tets])
        self.whitney = {k: whitney_coefficients(self.grads, k) for k in (1, 2)}
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
            self._tabs[m] = WhitneyTabulation(self, tet_rule(degree))
        return self._tabs[m]

    def interpolate(self, fielddata, k, t=0.0):
        return interpolate(fielddata, self.space(k), t=t)

    def error_norms(self, coeffs, exact, exact_derivative=None, t=0.0):
        tabulation = self.tabulation(ERROR_DEGREE)
        return error_norms(tabulation, coeffs, exact, exact_derivative, t)

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
