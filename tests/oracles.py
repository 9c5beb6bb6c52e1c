"""Independent oracles used by the test suite.

Everything in this module is computed by a different route than the
library code it checks: exact rational arithmetic for the reference-tet
mass matrices, a hand-rolled tensor-product Gauss-Legendre rule on the
collapsed cube for the convection and mass matrices, literal
barycentric-gradient formulas for the Whitney bases, mapped onto
physical tets by the Piola transforms (which also evaluate a discrete
form at a point), a token-level parser for legacy VTK output, the
paper's saddle system (bordered, and as the reference operator that
the solver's stream operator must match, which computes the dense
harmonic multiplier before its factor), a dense rank count of the
harmonic 3-forms, the mesh skeleton by ``np.unique`` of its rows and a
key lookup, the error norms in one pass over every tet with whole-mesh
temporaries, the initial vorticity by a sparse LU instead of conjugate
gradients, a symbolic derivation of the analytic fields, and the
manufactured velocity and forcing and the Ethier velocity and vorticity
as one expression per component, the floating-point operations the
library's in-place evaluation must repeat, and the natural tangential
term with the cross product n x u taken at every sample, as the library
took it before folding the normal into its face tables, and the whole
(T, 4, 6, 4) convection tensor with its two ``einsum`` contractions, as
the library held and contracted it before keeping only its skew half.
"""
from fractions import Fraction
from functools import cache
from math import factorial

import numpy as np
import sympy as sp
from scipy import sparse

from vvpflow.assembly import (
    NATURAL,
    assemble_B0,
    assemble_rhs,
    resolve_boundary,
)
from vvpflow.linalg import (
    FactorHolder,
    eliminate,
    group_offsets,
    solve_reduced,
    stack,
    stack_blocks,
)
from vvpflow.solver import TransientState, _sweep
from vvpflow.spaces import ErrorNorms, FormCoefficients, sample
from vvpflow.quadrature import triangle_rule
from vvpflow.spaces import TRACE_DEGREE, _lambda_moments, simplex_rule, whitney_coefficients

# Reference tetrahedron: vertices (0,0,0), (1,0,0), (0,1,0), (0,0,1).
REF_VERTS = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)
# Barycentric gradients: lam0 = 1-x-y-z, lam1 = x, lam2 = y, lam3 = z.
GRADS = ((-1, -1, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1))
EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def lam_moment(p, q):
    """Exact integral of lam_p * lam_q over the reference tet."""
    powers = [0, 0, 0, 0]
    powers[p] += 1
    powers[q] += 1
    num = 1
    for a in powers:
        num *= factorial(a)
    return Fraction(num, factorial(sum(powers) + 3))


def _dot(u, v):
    return sum(Fraction(a) * Fraction(b) for a, b in zip(u, v))


def _cross_int(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def mass1_reference():
    """Edge-basis Gram matrix on the reference tet, exact rationals."""
    m = np.empty((6, 6))
    for E, (i, j) in enumerate(EDGES):
        for F, (k, l) in enumerate(EDGES):
            val = (
                lam_moment(i, k) * _dot(GRADS[j], GRADS[l])
                - lam_moment(i, l) * _dot(GRADS[j], GRADS[k])
                - lam_moment(j, k) * _dot(GRADS[i], GRADS[l])
                + lam_moment(j, l) * _dot(GRADS[i], GRADS[k])
            )
            m[E, F] = float(val)
    return m


def mass2_reference():
    """Face-basis Gram matrix on the reference tet, exact rationals."""
    terms = []
    for (a, b, c) in FACES:
        terms.append(
            (
                (a, _cross_int(GRADS[b], GRADS[c])),
                (b, _cross_int(GRADS[c], GRADS[a])),
                (c, _cross_int(GRADS[a], GRADS[b])),
            )
        )
    m = np.empty((4, 4))
    for F, tf in enumerate(terms):
        for G, tg in enumerate(terms):
            val = Fraction(0)
            for (p, cp) in tf:
                for (q, cq) in tg:
                    val += lam_moment(p, q) * _dot(cp, cq)
            m[F, G] = float(4 * val)
    return m


def mass3_reference():
    """Cell-basis Gram matrix on the reference tet: 1/volume."""
    return np.array([[6.0]])


def whitney_edge_values(pts):
    """Edge basis vectors at Cartesian points of the reference tet."""
    pts = np.asarray(pts, dtype=float)
    lam = np.column_stack([1.0 - pts.sum(axis=1), pts])
    g = np.array(GRADS, dtype=float)
    out = np.empty((6, len(pts), 3))
    for e, (i, j) in enumerate(EDGES):
        out[e] = lam[:, i, None] * g[j] - lam[:, j, None] * g[i]
    return out


def whitney_face_values(pts):
    """Face basis vectors at Cartesian points of the reference tet."""
    pts = np.asarray(pts, dtype=float)
    lam = np.column_stack([1.0 - pts.sum(axis=1), pts])
    g = np.array(GRADS, dtype=float)
    out = np.empty((4, len(pts), 3))
    for f, (a, b, c) in enumerate(FACES):
        out[f] = 2.0 * (
            lam[:, a, None] * np.cross(g[b], g[c])
            + lam[:, b, None] * np.cross(g[c], g[a])
            + lam[:, c, None] * np.cross(g[a], g[b])
        )
    return out


def piola_whitney_values(corners, pts):
    """Edge and face basis vectors on a physical tet, by the Piola maps.

    corners : (4, 3) vertices; pts : (Q, 3) Cartesian points of the
    reference tet.  With x = v0 + J x_ref, edge values map covariantly,
    J^-T psi1_ref, and face values contravariantly, J psi2_ref / det J.
    Returns psi1 (6, Q, 3) and psi2 (4, Q, 3).
    """
    corners = np.asarray(corners, dtype=float)
    jac = (corners[1:] - corners[0]).T
    psi1 = whitney_edge_values(pts) @ np.linalg.inv(jac)
    psi2 = whitney_face_values(pts) @ jac.T / np.linalg.det(jac)
    return psi1, psi2


def relative_residual(matrix, rhs, x):
    """||rhs - matrix @ x|| / ||rhs||, the residual that linalg.solve checks."""
    return float(np.linalg.norm(rhs - matrix @ x)) / float(np.linalg.norm(rhs))


def whitney_values(lam, grads, k):
    """The library's Whitney k-form basis at barycentric points, lam @ C.

    lam : (..., Q, 4) barycentric coordinates; grads : (..., 4, 3)
    barycentric gradients, leading axes broadcast.  Returns psi1
    (..., 6, Q, 3) for k=1 and psi2 (..., 4, Q, 3) for k=2.  Not an
    independent route: the pointwise quadratures below use it to check
    the library's moment contractions of the same coefficients.
    """
    return np.asarray(lam, dtype=float)[..., None, :, :] @ whitney_coefficients(grads, k)


def evaluate(coeffs, tet, bary):
    """A discrete form inside one tet at barycentric ``bary``, summed over
    its Piola-mapped basis: a 3-vector for k in {1, 2}, and the density
    (cell integral / |T|) for k=3."""
    space, mesh = coeffs.space, coeffs.space.mesh
    if space.k == 3:
        return coeffs.values[tet] / mesh.tet_volumes[tet]
    ref = np.asarray(bary, dtype=float)[None, 1:]  # lam1..lam3 are x, y, z
    psi = piola_whitney_values(mesh.vertices[mesh.tets[tet]], ref)[space.k - 1]
    dofs = (mesh.tet_edges if space.k == 1 else mesh.tet_faces)[tet]
    return coeffs.values[dofs] @ psi[:, 0]


def error_norms_single_pass(tabulation, coeffs, exact, exact_derivative=None, t=0.0):
    """``spaces.error_norms`` in one pass: the discrete field and the
    sampled exact field at every point of the mesh at once, reduced by
    whole-mesh sums."""
    space = coeffs.space
    W = tabulation.weights

    def squared(k, values, exact_field, what):
        """Squared L2 norms of (exact - discrete) and of exact."""
        uh = tabulation.field(k, values)
        if exact_field is None:
            uex = np.zeros(uh.shape)
        else:
            uex = sample(exact_field, tabulation.points, t, k < 3, what).reshape(uh.shape)
        return (
            float(np.sum(W * np.sum((uex - uh) ** 2, axis=-1))),
            float(np.sum(W * np.sum(uex**2, axis=-1))),
        )

    err2, ex2 = squared(space.k, coeffs.values, exact, "exact")
    derr2 = dex2 = 0.0
    if space.k < 3:
        D = tabulation.complex.d1 if space.k == 1 else tabulation.complex.d2
        derr2, dex2 = squared(
            space.k + 1, D @ coeffs.values, exact_derivative, "exact_derivative"
        )
    return ErrorNorms(
        np.sqrt(err2), np.sqrt(err2 + derr2), np.sqrt(ex2), np.sqrt(ex2 + dex2)
    )


def mass_quadrature(mesh, k, m=4):
    """Dense Whitney mass matrix by pointwise quadrature of psi . psi.

    Each tet's basis comes from :func:`piola_whitney_values` at the
    points of the Duffy rule (m points per direction; the integrand is
    quadratic, which m >= 3 integrates exactly).
    """
    pts, wts = duffy_points_weights(m)
    dofs = mesh.tet_edges if k == 1 else mesh.tet_faces
    ndof = mesh.n_edges if k == 1 else mesh.n_faces
    out = np.zeros((ndof, ndof))
    for tet, idx in zip(mesh.tets, dofs):
        corners = mesh.vertices[tet]
        psi = piola_whitney_values(corners, pts)[k - 1]
        volume6 = abs(np.linalg.det(corners[1:] - corners[0]))
        local = volume6 * np.einsum("q,eqx,fqx->ef", wts, psi, psi)
        out[np.ix_(idx, idx)] += local
    return out


def duffy_points_weights(m):
    """Tensor Gauss-Legendre rule on the reference tet.

    The iterated integral over 0 < x, 0 < y < 1-x, 0 < z < 1-x-y is
    mapped to the unit cube by y = (1-x) v, z = (1-x)(1-v) w with
    Jacobian (1-x)^2 (1-v); m points per direction integrate any
    integrand of per-variable degree <= 2m-1 exactly.
    """
    x1, w1 = np.polynomial.legendre.leggauss(m)
    x01 = 0.5 * (x1 + 1.0)
    w01 = 0.5 * w1
    X, V, W = np.meshgrid(x01, x01, x01, indexing="ij")
    WX, WV, WW = np.meshgrid(w01, w01, w01, indexing="ij")
    x = X
    y = (1.0 - X) * V
    z = (1.0 - X) * (1.0 - V) * W
    jac = (1.0 - X) ** 2 * (1.0 - V)
    pts = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    wts = (WX * WV * WW * jac).ravel()
    return pts, wts


def convection_reference(c_w, c_u, theta, m=8):
    """Local convection matrices on the reference tet.

    Returns (a3, a5) with a3[i, j] = theta * integral of
    (psi1_j x u_prev) . psi2_i and a5[i, j] = (1-theta) * integral of
    (w_prev x psi2_j) . psi2_i, where u_prev / w_prev are the fields
    with coefficients c_u / c_w.  Integration uses the Duffy rule, so
    the only shared ingredient with the library is the definition of
    the Whitney bases themselves (re-derived literally above).
    """
    pts, wts = duffy_points_weights(m)
    psi1 = whitney_edge_values(pts)
    psi2 = whitney_face_values(pts)
    u_prev = np.einsum("f,fqx->qx", np.asarray(c_u, dtype=float), psi2)
    w_prev = np.einsum("e,eqx->qx", np.asarray(c_w, dtype=float), psi1)
    a3 = theta * np.einsum(
        "q,jqx,iqx->ij", wts, np.cross(psi1, u_prev[None]), psi2
    )
    a5 = (1.0 - theta) * np.einsum(
        "q,jqx,iqx->ij", wts, np.cross(w_prev[None], psi2), psi2
    )
    return a3, a5


def convection_quadrature(complex_, omega_values, u_values, theta):
    """Per-cell convection blocks (T, 4, 6) and (T, 4, 4) by pointwise
    quadrature: the fields are evaluated at the points of the complex's
    volume rule and crossed with the basis there."""
    tab = complex_.tabulation()
    u_prev = tab.field(2, u_values)
    w_prev = tab.field(1, omega_values)
    psi1 = whitney_values(tab.rule.points, complex_.grads, 1)
    psi2 = whitney_values(tab.rule.points, complex_.grads, 2)
    local3 = theta * np.einsum(
        "tq,tjqx,tiqx->tij", tab.weights, np.cross(psi1, u_prev[:, None, :, :]), psi2
    )
    local5 = (1.0 - theta) * np.einsum(
        "tq,tjqx,tiqx->tij", tab.weights, np.cross(w_prev[:, None, :, :], psi2), psi2
    )
    return local3, local5


def full_convection_tensor(tabulation):
    """K[t, i, e, j] = integral of (psi1_e x psi2_j) . psi2_i, (T, 4, 6, 4):
    the whole tensor, as the library stored it before it kept only the
    pairs i < j.  Each pair is integrated by the library's cross-product
    loop and its negative stored at (j, i); the diagonal stays 0."""
    complex_ = tabulation.complex
    C1, C2 = complex_.whitney[1], complex_.whitney[2]
    moments = _lambda_moments(tabulation.rule, 3).reshape(4, 16)
    vol6 = 6.0 * complex_.mesh.tet_volumes
    K = np.zeros((len(C2), 4, 6, 4))
    for i in range(4):
        for j in range(i + 1, 4):
            cross = np.cross(C2[:, j, :, None, :], C2[:, i, None, :, :])
            outer = moments @ cross.reshape(-1, 16, 3)
            K[:, i, :, j] = vol6[:, None] * np.einsum("teax,tax->te", C1, outer)
            K[:, j, :, i] = -K[:, i, :, j]
    return K


def convection_by_einsum(complex_, omega_values, u_values, theta):
    """The convection blocks (T, 4, 6) and (T, 4, 4) contracted from the
    whole tensor by two ``einsum`` calls, as the library contracted them
    before it kept only the skew half."""
    K, mesh = full_convection_tensor(complex_.tabulation()), complex_.mesh
    local3 = theta * np.einsum("tiej,tj->tie", K, u_values[mesh.tet_faces])
    local5 = (1.0 - theta) * np.einsum("tiej,te->tij", K, omega_values[mesh.tet_edges])
    return local3, local5


def tabulated_natural_bc(complex_, bc, t=0.0):
    """The natural boundary terms with the Whitney basis tabulated at the
    face points (:func:`whitney_values`) and integrated point by point:
    + integral((n x u) . psi1) on the tau-rows and - integral(h psi2 . n)
    on the v-rows, n the outward normal (see ``assemble_natural_bc``)."""
    mesh = complex_.mesh
    rule = triangle_rule(TRACE_DEGREE)
    owner = bc.face_region_map(mesh)
    rhs = {"u1": np.zeros(mesh.n_edges), "u2": np.zeros(mesh.n_faces)}
    for r, region in enumerate(bc.regions):
        on = owner == r
        if region.vorticity_mode != NATURAL or not on.any():
            continue
        faces = mesh.boundary_faces[on]
        B, tets, tri = len(faces), mesh.face_tets[faces, 0], mesh.faces[faces]
        points, normal = simplex_rule(mesh.vertices[tri], rule)
        normal = normal * mesh.boundary_face_signs[on][:, None]
        lam = np.zeros((B, len(rule), 4))
        for i in range(3):
            loc = np.argmax(mesh.tets[tets] == tri[:, i : i + 1], axis=1)
            lam[np.arange(B), :, loc] = rule.points[:, i][None, :]
        grads = complex_.grads[tets]
        pts = points.reshape(-1, 3)
        if region.vorticity_data is not None:
            u = np.asarray(region.vorticity_data(pts, t), dtype=float).reshape(points.shape)
            n_cross_u = np.cross(normal[:, None, :], u)
            psi1 = whitney_values(lam, grads, 1)
            local = np.einsum("q,bqx,beqx->be", rule.weights, n_cross_u, psi1)
            np.add.at(rhs["u1"], mesh.tet_edges[tets], local)
        if region.velocity_mode == NATURAL and region.velocity_data is not None:
            h = np.asarray(region.velocity_data(pts, t), dtype=float).reshape(B, -1)
            psi2 = whitney_values(lam, grads, 2)
            local = -np.einsum("q,bq,bfqx,bx->bf", rule.weights, h, psi2, normal)
            np.add.at(rhs["u2"], mesh.tet_faces[tets], local)
    return rhs


def crossed_tangential_term(boundary, t=0.0):
    """The tau-row natural term of the resolved ``boundary`` at time t,
    + integral((n x u) . psi1): each region's samples u crossed with its
    faces' outward normals n, their rule-weighted barycentric moments
    contracted with the cells' Whitney edge coefficients C1."""
    rhs1 = np.zeros(boundary.mesh.n_edges)
    whitney = boundary.complex.whitney[1]
    for (region, *_), tab in zip(boundary.regions("vorticity", NATURAL), boundary.natural):
        if region.vorticity_data is None:
            continue
        B = len(tab["faces"])
        u = sample(region.vorticity_data, tab["points"], t, True, region.name)
        moments = (tab["lam"] @ np.cross(tab["normal"][:, None, :], u)).reshape(B, 12, 1)
        C1 = whitney[tab["cells"]].reshape(B, 6, 12)
        np.add.at(rhs1, tab["edges"], (C1 @ moments)[..., 0])
    return rhs1


def parse_vtk(text):
    """Parse a legacy ASCII unstructured-grid VTK file written here.

    Returns a dict with points, cells, cell_types, cell_scalars and
    cell_vectors; raises on anything outside the small dialect the
    writer emits.
    """
    lines = text.strip().splitlines()
    if not lines[0].startswith("# vtk DataFile"):
        raise ValueError("missing vtk header")
    out = {"title": lines[1], "cell_scalars": {}, "cell_vectors": {}}
    if lines[2] != "ASCII" or lines[3] != "DATASET UNSTRUCTURED_GRID":
        raise ValueError("unsupported vtk flavor")
    i = 4
    n_cell_data = 0
    while i < len(lines):
        tok = lines[i].split()
        key = tok[0]
        if key == "POINTS":
            n = int(tok[1])
            out["points"] = np.array(
                [[float(v) for v in lines[i + 1 + k].split()] for k in range(n)]
            )
            i += 1 + n
        elif key == "CELLS":
            n = int(tok[1])
            rows = []
            for k in range(n):
                vals = [int(v) for v in lines[i + 1 + k].split()]
                if vals[0] != 4 or len(vals) != 5:
                    raise ValueError("cell line is not a tetrahedron")
                rows.append(vals[1:])
            out["cells"] = np.array(rows)
            i += 1 + n
        elif key == "CELL_TYPES":
            n = int(tok[1])
            out["cell_types"] = np.array([int(lines[i + 1 + k]) for k in range(n)])
            i += 1 + n
        elif key == "CELL_DATA":
            n_cell_data = int(tok[1])
            i += 1
        elif key == "SCALARS":
            name = tok[1]
            if lines[i + 1] != "LOOKUP_TABLE default":
                raise ValueError("missing lookup table line")
            out["cell_scalars"][name] = np.array(
                [float(lines[i + 2 + k]) for k in range(n_cell_data)]
            )
            i += 2 + n_cell_data
        elif key == "VECTORS":
            name = tok[1]
            out["cell_vectors"][name] = np.array(
                [
                    [float(v) for v in lines[i + 1 + k].split()]
                    for k in range(n_cell_data)
                ]
            )
            i += 1 + n_cell_data
        else:
            raise ValueError(f"unexpected vtk line: {lines[i]!r}")
    return out


def saddle_system(complex_, bc, nu=1.0, t=0.0, **loads):
    """The steady saddle system as ``(groups, blocks, rhs, constraints)``:
    the blocks of ``assemble_B0`` and the data of ``assemble_rhs`` at t,
    ready for ``linalg.assemble_blocks``."""
    groups, blocks = assemble_B0(complex_, nu=nu)
    rhs, constraints = assemble_rhs(complex_, bc, t=t, **loads)
    return groups, blocks, rhs, constraints


def bordered_system(groups, blocks, rhs, constraints, basis, m3):
    """The paper's saddle system around one from :func:`saddle_system`.

    Adds the harmonic multiplier group ``phi`` with the column M3 H in
    the q-rows and the chi-row H^T M3 u3 = 0, for the harmonic basis H
    (``basis``, shape (n_tets, dim)).  The given dicts are not changed.
    """
    m3h = sparse.csr_matrix(m3 @ basis)
    bordered = {("u3", "phi"): m3h, ("phi", "u3"): m3h.T}
    return dict(groups, phi=basis.shape[1]), {**blocks, **bordered}, rhs, constraints


class SaddleOperator:
    """The paper's saddle system, the reference of the solver's stream
    operator, with that operator's interface: ``solve(t, loads,
    convection, rhs_u2, previous)`` returns (state, residual).

    Built from the ``assemble_B0`` blocks, plus ``M2/dt`` and room for the
    convection blocks when ``dt`` is given: the CSR pattern of the whole
    system (``linalg.stack_blocks``), whose slots hold the tet-local face x
    edge and face x face convection entries, and ``conv_pos``, where each
    entry of the raveled local blocks of ``assemble_convection`` lands in
    its data; ``reduced``, the pattern without the essential edges and
    faces and the pressure pins (``pins``, the closed components' roots
    in ``mesh.dual_forest``), listed in ``mesh.elimination_order``.  The
    harmonic multiplier is computed before the factorization instead of
    factoring the dense border (see :meth:`solve`).  ``factor`` is float32
    when ``dt`` is given and float64 when steady: the steady saddle system
    does not refine from a float32 factor at n = 12 (backward error 1).
    """

    def __init__(self, complex_, bc, nu, dt=None):
        self.complex, self.boundary = complex_, resolve_boundary(complex_, bc)
        self.harmonic, mesh = self.boundary.harmonic, complex_.mesh
        groups, blocks = assemble_B0(complex_, nu=nu)
        offsets = group_offsets(groups)
        slots = None
        if dt is not None:
            blocks[("u2", "u2")] = complex_.m2 / dt
            faces = offsets["u2"] + mesh.tet_faces
            slots = (
                np.concatenate([np.repeat(faces, 6, 1), np.repeat(faces, 4, 1)], None),
                np.concatenate([np.tile(mesh.tet_edges, 4), np.tile(faces, 4)], None),
            )
        pattern, self.conv_pos = stack_blocks(groups, blocks, slots)
        self.static = pattern.data
        # In the order of assemble_rhs's essential values, then the pins.
        fixed = [offsets[g] + idx for g, (_, idx, _) in self.boundary.essential.items()]
        self.pins = mesh.dual_forest.roots[self.boundary.closed]
        fixed = np.concatenate([*fixed, offsets["u3"] + self.pins])
        self.reduced = eliminate(pattern, groups, fixed, mesh.elimination_order)
        self.m3h = complex_.m3 @ self.harmonic.basis
        self.steady = dt is None
        self.factor = FactorHolder(dtype=np.float64 if self.steady else np.float32)

    def solve(self, t, loads, convection=None, rhs_u2=None, previous=None):
        """Solve at time t; returns (state, residual).

        ``loads`` (``f2``, ``f3``, ``load_degree``) go to :func:`assemble_rhs`,
        ``convection`` (the local blocks of :func:`assemble_convection`) into
        the v-row and ``rhs_u2`` to the v-row's right side.  ``previous``,
        the state the step continues from, is unused: the unknowns are the
        solution itself, and every solve refines from LU^-1 b.

        With dim H > 0 the paper's bordered system adds M3 H phi to the
        q-rows and the chi-row H^T M3 u3 = 0.  H^T M3 H = I and H^T M3 D2
        vanishes on the free faces, so the q-rows summed against H give
        phi = H^T (rhs_u3 - M3 D2 u2_fixed) before the solve, and M3 H phi
        moves to the right-hand side.  Pinning the pressure at each closed
        component's root (``pins``) removes the null modes and
        the q-rows that the phi equations make redundant.  So that no
        root collects its component's divergence roundoff, the q-row
        defects, less their harmonic part (which phi absorbs in the
        bordered system), are then swept from the leaves of
        ``boundary.forest`` to the roots and the outlets through the
        tree-face fluxes, and the pressure is moved to the gauge
        H^T M3 p = 0.
        """
        complex_, h, reduced = self.complex, self.harmonic.basis, self.reduced
        rhs, constraints = assemble_rhs(complex_, self.boundary, t=t, **loads)
        pins = np.zeros(self.harmonic.dim)
        values = np.concatenate([*(v for _, v in constraints.values()), pins])
        b = stack(reduced.groups, rhs)
        offsets = reduced.offsets
        u2, u3 = slice(offsets["u2"], offsets["u3"]), slice(offsets["u3"], len(b))
        if rhs_u2 is not None:
            b[u2] += rhs_u2

        data = self.static
        if convection is not None:
            local = np.concatenate([block.ravel() for block in convection])
            data = data + np.bincount(self.conv_pos, local, minlength=len(data))
        eliminated = reduced.refill(data, b, values)
        shift = self.m3h @ (h.T @ eliminated[u3])  # M3 H phi, to the right-hand side
        eliminated[u3] -= shift
        b[u3] -= shift
        full, residual = solve_reduced(reduced, factor=self.factor)
        parts = reduced.split(full)
        u = parts["u2"].copy()
        if self.harmonic.dim:
            vol = complex_.mesh.tet_volumes
            _sweep(self.boundary.forest, self.harmonic, vol, u, vol * b[u3] - complex_.d2 @ u)
        p = parts["u3"] - h @ (h.T @ (complex_.m3 @ parts["u3"]))
        state = TransientState(
            t=t,
            omega=FormCoefficients(complex_.V1, parts["u1"].copy()),
            u=FormCoefficients(complex_.V2, u),
            p=FormCoefficients(complex_.V3, p),
        )
        return state, residual


def harmonic_rank(complex_, bc, k=3):
    """The dimension of the harmonic k-forms of the saddle system, by dense
    linear algebra, with F the faces off the essential-normal ones.

    k = 3, dim H: the number of cells minus the rank of the divergence
    matrix on F.  k = 2, the velocity nullity that no curl reaches (the
    number of generators): the fluxes on F with zero divergence, less the
    rank of the curls of the edges off F's complement's closure on F.
    """
    mesh = complex_.mesh
    essential = np.array([r.velocity_mode == "essential" for r in bc.regions])
    walls = mesh.boundary_faces[essential[bc.face_region_map(mesh)]]
    keep = np.ones(mesh.n_faces, dtype=bool)
    keep[walls] = False
    rank = np.linalg.matrix_rank(complex_.d2[:, keep].toarray())
    if k == 3:
        return mesh.n_tets - rank
    edges = np.setdiff1d(np.arange(mesh.n_edges), mesh.face_edges[walls])
    curls = np.linalg.matrix_rank(complex_.d1[keep][:, edges].toarray())
    return keep.sum() - rank - curls


def skeleton(tets):
    """The skeleton arrays of ``SimplicialMesh3`` for row-sorted ``tets``,
    built the direct way: ``np.unique(axis=0)`` of the edge and face rows,
    face edges looked up by vertex-pair key, and each face's tets in
    ascending order."""
    edges, edge_inv = np.unique(tets[:, EDGES].reshape(-1, 2), axis=0, return_inverse=True)
    faces, face_inv = np.unique(tets[:, FACES].reshape(-1, 3), axis=0, return_inverse=True)
    n = tets.max() + 1
    pairs = faces[:, [(1, 2), (0, 2), (0, 1)]]
    face_edges = np.searchsorted(edges[:, 0] * n + edges[:, 1], pairs[..., 0] * n + pairs[..., 1])
    tet_faces = face_inv.reshape(-1, 4)
    face_tets = np.full((len(faces), 2), -1)
    for tet, row in enumerate(tet_faces):
        for face in row:
            face_tets[face, int(face_tets[face, 0] >= 0)] = tet
    return {
        "edges": edges,
        "faces": faces,
        "tet_edges": edge_inv.reshape(-1, 6),
        "tet_faces": tet_faces,
        "face_edges": face_edges,
        "face_tets": face_tets,
    }


def initial_vorticity_lu(complex_, bc, u_values, t=0.0):
    """The vorticity of ``initialize_state`` by a sparse LU in the mesh's
    elimination order: M1 w = D1^T M2 u plus the natural tangential term,
    with the essential vorticity values fixed."""
    natural, essential = resolve_boundary(complex_, bc).evaluate(t)
    rhs = complex_.d1.T @ (complex_.m2 @ u_values) + natural["u1"]
    idx, values = essential.get("u1", ([], []))
    mesh, m1 = complex_.mesh, complex_.m1.copy()
    order = mesh.elimination_order[mesh.elimination_order < mesh.n_edges]
    reduced = eliminate(m1, {"u1": mesh.n_edges}, idx, order)
    reduced.refill(m1.data, rhs, values)
    return solve_reduced(reduced)[0]


# ---------------------------------------------------------------------------
# symbolic analytic fields: coordinates x, y, z, time t and the parameters
# a, d (Ethier-Steinman amplitude and decay) and nu (viscosity)

X, Y, Z, T = sp.symbols("x y z t", real=True)
A, D, NU = sp.symbols("a d nu", real=True)


def sympy_curl(F):
    return sp.Matrix(
        [
            sp.diff(F[2], Y) - sp.diff(F[1], Z),
            sp.diff(F[0], Z) - sp.diff(F[2], X),
            sp.diff(F[1], X) - sp.diff(F[0], Y),
        ]
    )


def simplified(expr):
    """Entrywise sympy simplification after expanding products and trig sums."""
    return expr.applyfunc(lambda e: sp.simplify(sp.expand_trig(sp.expand(e))))


@cache
def ethier_expressions():
    """Ethier-Steinman velocity, its curl, and the momentum residual
    u_t + omega x u + nu curl(omega) of the unforced flow."""
    E, S, C = sp.exp, sp.sin, sp.cos
    u = sp.Matrix(
        [
            -A * (E(A * X) * S(A * Y + D * Z) + E(A * Z) * C(A * X + D * Y)),
            -A * (E(A * Y) * S(A * Z + D * X) + E(A * X) * C(A * Y + D * Z)),
            -A * (E(A * Z) * S(A * X + D * Y) + E(A * Y) * C(A * Z + D * X)),
        ]
    ) * E(-(D**2) * T)
    w = sympy_curl(u)
    return {
        "velocity": u,
        "vorticity": w,
        "momentum_residual": u.diff(T) + w.cross(u) + NU * sympy_curl(w),
    }


@cache
def mms_expressions():
    """Manufactured Stokes fields: u the curl of a trigonometric potential,
    p a cosine product and f = nu curl(curl u) + grad p."""
    S, C, pi = sp.sin, sp.cos, sp.pi
    potential = sp.Matrix(
        [S(pi * Y) * S(pi * Z), S(pi * Z) * S(pi * X), S(pi * X) * S(pi * Y)]
    )
    u = sympy_curl(potential)
    w = sympy_curl(u)
    p = C(pi * X) * C(pi * Y) * C(pi * Z)
    grad_p = sp.Matrix([sp.diff(p, X), sp.diff(p, Y), sp.diff(p, Z)])
    return {
        "velocity": u,
        "vorticity": w,
        "vorticity_curl": sympy_curl(w),
        "pressure": p,
        "forcing": NU * sympy_curl(w) + grad_p,
    }


def lambdify_field(expr, **params):
    """A field callable ``f(points, t)`` for a scalar or 3-vector
    expression in x, y, z, t, with the named parameters (a, d, nu) fixed
    at the given values."""
    names = sorted(params)
    symbols = (X, Y, Z, T) + tuple(sp.Symbol(name, real=True) for name in names)
    vector = isinstance(expr, sp.MatrixBase)
    f = sp.lambdify(symbols, list(expr) if vector else expr, modules="numpy")
    values = [float(params[name]) for name in names]

    def field(points, t=0.0):
        points = np.asarray(points, dtype=float)
        n = len(points)
        out = f(points[:, 0], points[:, 1], points[:, 2], t, *values)
        if vector:
            cols = [np.broadcast_to(np.asarray(v, float), (n,)) for v in out]
            return np.stack(cols, axis=1)
        return np.broadcast_to(np.asarray(out, float), (n,)).copy()

    return field


def mms_closed_forms(nu):
    """The manufactured velocity and forcing of ``stokes_mms_fields(nu)``,
    one numpy expression per component: u_i = pi s_i (c_j - c_k) and
    f_i = nu 2 pi^2 u_i - pi s_i c_j c_k, (i, j, k) cyclic."""
    viscous = float(nu) * 2.0 * np.pi**2
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

    def sin_cos(points):
        angle = [np.pi * xi for xi in np.asarray(points, dtype=float).T]
        return [np.sin(q) for q in angle], [np.cos(q) for q in angle]

    def velocity(points, t=0.0):
        s, c = sin_cos(points)
        return np.stack([np.pi * s[i] * (c[j] - c[k]) for i, j, k in cyclic], axis=1)

    def forcing(points, t=0.0):
        s, c = sin_cos(points)
        return np.stack(
            [
                viscous * (np.pi * s[i] * (c[j] - c[k])) - np.pi * s[i] * c[j] * c[k]
                for i, j, k in cyclic
            ],
            axis=1,
        )

    return {"velocity": velocity, "forcing": forcing}


def ethier_closed_forms(a, d):
    """The velocity and vorticity of ``ethier_velocity(a, d)`` and
    ``ethier_vorticity(a, d)``, one numpy expression per component:
    u_i = -a (exp(a x_i) sin(a x_j + d x_k) + exp(a x_k) cos(a x_i + d x_j))
    exp(-d^2 t) and omega = d u, (i, j, k) cyclic."""
    a, d = float(a), float(d)
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

    def velocity(points, t=0.0):
        x = np.asarray(points, dtype=float).T
        growth = [np.exp(a * xi) for xi in x]
        phase = [a * x[j] + d * x[k] for _, j, k in cyclic]
        cos_term = [g * np.cos(p) for g, p in zip(growth, phase)]
        u = np.stack(
            [growth[i] * np.sin(phase[i]) + cos_term[k] for i, _, k in cyclic], axis=1
        )
        return (-a * np.exp(-(d**2) * t)) * u

    def vorticity(points, t=0.0):
        return d * velocity(points, t)

    return {"velocity": velocity, "vorticity": vorticity}
