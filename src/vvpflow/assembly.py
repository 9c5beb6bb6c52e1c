"""Assembly of the vorticity-velocity-pressure saddle system.

Unknown groups: ``u1`` vorticity (edge circulations), ``u2`` velocity
(face fluxes), ``u3`` total-head pressure (cell integrals).

The steady system has rows

    tau-row :  M1 u1 - D1^T M2 u2                  = natural tangential term
    v-row   :  nu M2 D1 u1 - D2^T M3 u3            = load(f2) + natural pressure term
    q-row   :  M3 D2 u2                            = load(f3)

and the transient step adds the mass-over-dt and linearized convection
blocks to the v-row (see :mod:`vvpflow.solver`).  The matrix is fixed
for a run and the data change with time, so they are built apart:
:func:`assemble_B0` returns only the sparse blocks of the left side,
and :func:`assemble_rhs` the right side and the essential values at
one time.

Each closed component of the mesh's dual forest (no boundary face with
natural velocity) carries a harmonic 3-form, and the paper's system has
a multiplier phi per form, which adds M3 H phi to the q-row, and a
chi-row H^T M3 u3 = 0 (H from :attr:`ResolvedBoundary.harmonic`).  Both
are dense, so neither is assembled here: ``solver._SaddleOperator``
computes phi before the solve, pins each component's root and sweeps
its divergence roundoff along the forest afterwards.

Boundary conditions come in two independent channels per region: the
vorticity channel (essential tangential vorticity trace, or natural
tangential velocity) and the velocity/pressure channel (essential normal
velocity, or natural pressure trace).  Essential values are canonical
interpolants of analytic data (``spaces.dof_values``) and are imposed by
elimination.  Natural terms are integrated as the loads are: the data's
rule-weighted barycentric moments on each face, contracted with its
cell's Whitney coefficients.  The entities, the faces and the rules
mapped onto them are decided once per complex and spec by
:class:`ResolvedBoundary`; a function given one as ``bc``
(:func:`resolve_boundary`) only evaluates boundary data and contracts it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quadrature import edge_rule, triangle_rule
from .spaces import TRACE_DEGREE, dof_values, simplex_rule
from .spaces import interpolate  # noqa: F401  (a name the benchmark tracer patches)

__all__ = [
    "RegionBC",
    "BoundaryConditionSpec",
    "HarmonicSpace",
    "resolve_boundary",
    "build_harmonic_space",
    "essential_constraints",
    "assemble_B0",
    "assemble_rhs",
    "assemble_convection",
    "assemble_natural_bc",
    "assemble_load",
    "assemble_scalar_load",
    "NaturalBCCache",
]

ESSENTIAL = "essential"
NATURAL = "natural"


@dataclass(frozen=True)
class RegionBC:
    """Boundary conditions on one region of the boundary.

    vorticity_mode "essential": the tangential vorticity trace is
    prescribed; ``vorticity_data`` is the vorticity as a full vector
    field (only its tangential part enters the edge circulations).
    vorticity_mode "natural": the tangential velocity is prescribed
    weakly; ``vorticity_data`` is the velocity as a full vector field.

    velocity_mode "essential": the normal velocity is prescribed;
    ``velocity_data`` is the velocity as a full vector field (only the
    normal part enters the face fluxes).
    velocity_mode "natural": the pressure trace is prescribed weakly;
    ``velocity_data`` is a scalar field.

    ``where`` is a predicate on face centroids ((n, 3) -> bool mask);
    None marks the catch-all region for faces no other region claims.
    Missing data callables mean homogeneous data.

    Essential vorticity with natural pressure is rejected: it leaves the
    nearby fluxes underdetermined at this order (the tangential-vorticity
    constraints remove exactly the test equations that would pin the
    fluxes the pressure condition leaves free).  Every other pairing is
    fine.
    """

    name: str = "all"
    vorticity_mode: str = ESSENTIAL
    velocity_mode: str = ESSENTIAL
    vorticity_data: object = None
    velocity_data: object = None
    where: object = None

    def __post_init__(self):
        for mode in (self.vorticity_mode, self.velocity_mode):
            if mode not in (ESSENTIAL, NATURAL):
                raise ValueError(f"unknown boundary mode {mode!r}")
        if self.vorticity_mode == ESSENTIAL and self.velocity_mode == NATURAL:
            raise ValueError(
                f"region {self.name!r} pairs essential vorticity with a "
                "natural pressure condition; the discrete system is singular "
                "for that pairing (use a natural tangential-velocity "
                "condition there instead)"
            )


class BoundaryConditionSpec:
    """An ordered set of RegionBC whose regions partition the boundary."""

    def __init__(self, regions):
        if isinstance(regions, RegionBC):
            regions = (regions,)
        self.regions = tuple(regions)
        if not self.regions:
            raise ValueError("at least one boundary region is required")
        if sum(1 for r in self.regions if r.where is None) > 1:
            raise ValueError("at most one catch-all region (where=None) is allowed")

    def face_region_map(self, mesh):
        """Region index per boundary face; raises unless a partition."""
        bf = mesh.boundary_faces
        centroids = mesh.vertices[mesh.faces[bf]].mean(axis=1)
        owner = np.full(len(bf), -1, dtype=np.int64)
        claimed = np.zeros(len(bf), dtype=bool)
        catch_all = -1
        for r, region in enumerate(self.regions):
            if region.where is None:
                catch_all = r
                continue
            mask = np.asarray(region.where(centroids), dtype=bool)
            if mask.shape != (len(bf),):
                raise ValueError(f"region {region.name!r} predicate returned bad shape")
            if np.any(mask & claimed):
                raise ValueError(
                    f"region {region.name!r} overlaps another region; "
                    "regions must partition the boundary"
                )
            owner[mask] = r
            claimed |= mask
        if catch_all >= 0:
            owner[~claimed] = catch_all
        elif not np.all(claimed):
            raise ValueError("boundary faces left unclaimed by the region predicates")
        return owner


class ResolvedBoundary:
    """What the boundary spec ``bc`` decides on one complex (alias ``NaturalBCCache``).

    ``owner``, each boundary face's region, is the only call of the region
    predicates, made on construction.  The closed components, the harmonic
    space, the essential entities and the natural terms' face tables, with
    the TRACE_DEGREE rules mapped onto them, are built on first use and
    kept.  A run resolves its boundary once and passes it as ``bc``, so
    a step only evaluates boundary data and contracts it.
    """

    def __init__(self, complex_, bc):
        self.complex, self.mesh, self.bc = complex_, complex_.mesh, bc
        self.owner = bc.face_region_map(self.mesh)
        self.rule = triangle_rule(TRACE_DEGREE)

    def essential_values(self, group, t):
        """(indices, values) of ``group``'s essential entities at time t:
        each region's data interpolated on its entities (None: zero)."""
        parts, idx, pick = self.essential[group]
        vals = [
            np.zeros(len(points)) if data is None else dof_values(data, rule, points, measure, t)
            for data, rule, points, measure in parts
        ]
        return idx, np.concatenate(vals)[pick]

    def regions(self, channel, mode):
        """(region, faces, outward signs) of each region that claims faces
        and whose ``channel`` ("vorticity" or "velocity") has ``mode``;
        a sign is +1 where the face's right-hand normal points outward.
        """
        faces, signs = self.mesh.boundary_faces, self.mesh.boundary_face_signs
        for r, region in enumerate(self.bc.regions):
            claimed = self.owner == r
            if getattr(region, f"{channel}_mode") == mode and claimed.any():
                yield region, faces[claimed], signs[claimed]

    @cached_property
    def closed(self):
        """Per dual-forest component: True unless a face has natural velocity."""
        labels = self.mesh.dual_forest.labels
        closed = np.ones(labels.max() + 1, dtype=bool)
        for _, faces, _ in self.regions("velocity", NATURAL):
            closed[labels[self.mesh.face_tets[faces, 0]]] = False
        return closed

    @cached_property
    def harmonic(self):
        """The :class:`HarmonicSpace` of the closed components.

        Raises ValueError for the two pairings that are singular on the
        whole boundary of some domains: natural vorticity with natural
        velocity around a cavity (b2 > 0), and essential vorticity with
        essential velocity around a handle (b1 > 0).
        """
        mesh, claiming = self.mesh, [self.bc.regions[r] for r in np.unique(self.owner)]
        pairings = {(region.vorticity_mode, region.velocity_mode) for region in claiming}
        _, b1, b2 = mesh.betti_numbers
        for mode, count, what, fix in (
            (NATURAL, b2, "cavity", "essential velocity"),
            (ESSENTIAL, b1, "handle", "natural vorticity"),
        ):
            if pairings == {(mode, mode)} and count > 0:
                raise ValueError(
                    f"{mode} vorticity with {mode} velocity on the whole boundary is "
                    f"singular on a mesh with a {what} (b1 = {b1}, b2 = {b2}); "
                    f"use {fix} instead"
                )
        closed = np.flatnonzero(self.closed)
        basis = np.zeros((mesh.n_tets, len(closed)))
        for j, label in enumerate(closed):
            cells = mesh.dual_forest.labels == label
            basis[cells, j] = mesh.tet_volumes[cells] / np.sqrt(mesh.tet_volumes[cells].sum())
        return HarmonicSpace(basis, mesh.dual_forest.roots[closed])

    @cached_property
    def essential(self):
        """``{group: (parts, indices, pick)}``: "u1" the edges of the essential
        vorticity faces, "u2" the essential velocity faces.  ``parts`` holds
        (data, rule, points, measure) per region: the TRACE_DEGREE edge or
        face rule mapped onto its entities by ``simplex_rule``, as
        ``spaces.interpolate`` maps it.  ``pick`` takes the sorted, read-only
        ``indices`` from the concatenated entities, so a seam edge is kept
        by the first region."""
        mesh, out = self.mesh, {}
        for group, channel, simplices, rule in (
            ("u1", "vorticity", mesh.edges, edge_rule(TRACE_DEGREE)),
            ("u2", "velocity", mesh.faces, self.rule),
        ):
            parts, entities = [], []
            for region, faces, _ in self.regions(channel, ESSENTIAL):
                e = np.unique(mesh.face_edges[faces]) if group == "u1" else faces
                mapped = simplex_rule(mesh.vertices[simplices[e]], rule)
                parts.append((getattr(region, f"{channel}_data"), rule, *mapped))
                entities.append(e)
            if parts:
                idx, pick = np.unique(np.concatenate(entities), return_index=True)
                idx.flags.writeable = False
                out[group] = (parts, idx, pick)
        return out

    @cached_property
    def flux_shift(self):
        """(positions among the essential faces, outward signs, areas) of
        each closed component's boundary faces."""
        mesh = self.mesh
        idx = self.essential["u2"][1] if "u2" in self.essential else np.empty(0, int)
        signs = mesh.boundary_face_signs[np.searchsorted(mesh.boundary_faces, idx)]
        labels = mesh.dual_forest.labels[mesh.face_tets[idx, 0]]
        return [
            (on, signs[on].astype(float), mesh.face_areas(idx[on]))
            for on in (labels == label for label in np.flatnonzero(self.closed))
        ]

    @cached_property
    def natural(self):
        """A table per region with natural vorticity (so every natural
        pressure region): its B ``faces``, their ``cells``, the rule's
        ``points`` (B, Q, 3), outward ``normal`` (length 2 area), ``lam``
        (B, 4, Q) the rule weights times the points' barycentric coordinates
        in the cell, and the cells' ``edges`` with their Whitney coefficients
        ``C1`` (B, 6, 4, 3); with natural pressure also the cells' ``fdofs``
        and their face coefficients dotted with the normal, ``C2n`` (B, 4, 4)."""
        mesh, rule, whitney = self.mesh, self.rule, self.complex.geometry.whitney
        tables = []
        for region, faces, sign in self.regions("vorticity", NATURAL):
            B = len(faces)
            cells, tri = mesh.face_tets[faces, 0], mesh.faces[faces]
            points, normal = simplex_rule(mesh.vertices[tri], rule)
            normal = normal * sign[:, None].astype(float)
            loc = np.argmax(mesh.tets[cells][:, None, :] == tri[:, :, None], axis=2)
            lam = np.zeros((B, 4, len(rule)))
            lam[np.arange(B)[:, None], loc] = rule.weights * rule.points[:, :3].T
            table = {
                "region": region,
                "faces": faces,
                "cells": cells,
                "points": points,
                "normal": normal,
                "lam": lam,
                "C1": whitney[1][cells],
                "edges": mesh.tet_edges[cells],
            }
            if region.velocity_mode == NATURAL:
                table["C2n"] = np.einsum("bfax,bx->bfa", whitney[2][cells], normal)
                table["fdofs"] = mesh.tet_faces[cells]
            tables.append(table)
        return tables


NaturalBCCache = ResolvedBoundary  # the old name, kept for the benchmark (ROADMAP item 1)


def resolve_boundary(complex_, bc):
    """``bc`` if it is a :class:`ResolvedBoundary` (of ``complex_``, else
    ValueError), and otherwise the spec's new resolution on ``complex_``."""
    if isinstance(bc, ResolvedBoundary) and bc.complex is not complex_:
        raise ValueError("boundary was resolved on another complex")
    return bc if isinstance(bc, ResolvedBoundary) else ResolvedBoundary(complex_, bc)


@dataclass(frozen=True)
class HarmonicSpace:
    """M3-orthonormal basis of the harmonic 3-form space.

    One column per closed component (:attr:`ResolvedBoundary.closed`):
    its volume indicator scaled so that H^T M3 H = I.  H^T M3 D2 vanishes
    on unconstrained faces, so the solver computes the multiplier phi
    from the q-rows before the solve and pins the pressure at ``pins``,
    the components' roots in ``mesh.dual_forest``.
    """

    basis: np.ndarray
    pins: np.ndarray

    @property
    def dim(self):
        return self.basis.shape[1]


def build_harmonic_space(complex_, bc):
    """Harmonic 3-forms for the given boundary conditions: the
    :attr:`ResolvedBoundary.harmonic` of their resolution (which raises
    for the singular pairings)."""
    return resolve_boundary(complex_, bc).harmonic


def essential_constraints(complex_, bc, t=0.0, f3_given=False):
    """Interpolated essential boundary values.

    Returns {"u1": (edge_indices, values), "u2": (face_indices, values)}
    with sorted indices and empty entries dropped, on the entities of
    ``bc``'s resolution.  Unless a 3-form source is given, each
    closed component's face values (see :class:`HarmonicSpace`) are
    shifted by an area-weighted constant so that its total boundary flux
    vanishes exactly.  The solver computes the harmonic multiplier from
    that flux (phi = H^T (load(f3) - M3 D2 u2_fixed)), so without the
    shift the quadrature-level compatibility defect of the interpolated
    data would become a nonzero phi and a spurious constant divergence.
    """
    boundary = resolve_boundary(complex_, bc)
    out = {group: boundary.essential_values(group, t) for group in boundary.essential}
    for on, signs, areas in [] if f3_given else boundary.flux_shift:
        vals = out["u2"][1]
        defect = float(signs @ vals[on])
        vals[on] = vals[on] - signs * defect * areas / areas.sum()
    return out


def assemble_natural_bc(complex_, bc, t=0.0):
    """Right-hand-side contributions of the natural boundary terms.

    Returns {"u1": vec, "u2": vec} (zero vectors when a channel has no
    natural regions).  The tangential-velocity data u enters the tau-row
    as + integral((n x u) . psi1), the boundary term of the weak curl;
    the pressure data h enters the v-row as - integral(h psi2 . n), the
    boundary term of the weak gradient; n is the outward unit normal.
    """
    mesh = complex_.mesh
    rhs1 = np.zeros(mesh.n_edges)
    rhs2 = np.zeros(mesh.n_faces)
    for tab in resolve_boundary(complex_, bc).natural:
        region, pts, lam = tab["region"], tab["points"], tab["lam"]
        B = len(pts)
        if region.vorticity_data is not None:
            u = np.asarray(region.vorticity_data(pts.reshape(-1, 3), t), dtype=float)
            n_cross_u = np.cross(tab["normal"][:, None, :], u.reshape(pts.shape))
            moments = (lam @ n_cross_u).reshape(B, 12, 1)
            np.add.at(rhs1, tab["edges"], (tab["C1"].reshape(B, 6, 12) @ moments)[..., 0])
        if "C2n" in tab and region.velocity_data is not None:
            h = np.asarray(region.velocity_data(pts.reshape(-1, 3), t), dtype=float)
            moments = lam @ h.reshape(B, -1, 1)
            np.add.at(rhs2, tab["fdofs"], -(tab["C2n"] @ moments)[..., 0])
    return {"u1": rhs1, "u2": rhs2}


def assemble_load(complex_, f2, t=0.0, degree=None):
    """Load vector <f2, psi2> over the velocity test space."""
    tab = complex_.tabulation(degree)
    mesh = complex_.mesh
    T, Q = tab.points.shape[0], tab.points.shape[1]
    vals = np.asarray(f2(tab.points.reshape(-1, 3), t), dtype=float).reshape(T, Q, 3)
    local = np.einsum(
        "tfax,tax->tf",
        complex_.geometry.whitney[2],
        tab.rule.points.T @ (tab.weights[..., None] * vals),
    )
    vec = np.zeros(mesh.n_faces)
    np.add.at(vec, mesh.tet_faces, local)
    return vec


def assemble_scalar_load(complex_, f3, t=0.0, degree=None):
    """Load vector <f3, psi3>, i.e. cell averages of the scalar source."""
    tab = complex_.tabulation(degree)
    mesh = complex_.mesh
    T, Q = tab.points.shape[0], tab.points.shape[1]
    vals = np.asarray(f3(tab.points.reshape(-1, 3), t), dtype=float).reshape(T, Q)
    return np.sum(tab.weights * vals, axis=1) / mesh.tet_volumes


def assemble_convection(complex_, omega_values, u_values, theta=0.5):
    """Per-cell linearized convection blocks of the v-row.

    A3[i, j] = theta    * integral((psi1_j x u_prev)   . psi2_i)
    A5[i, j] = (1-theta) * integral((omega_prev x psi2_j) . psi2_i)

    where u_prev / omega_prev are the discrete fields given by the
    coefficient vectors.  Both contract the cell's coefficients with
    the cached tensor ``K`` of the volume tabulation
    (``WhitneyTabulation.convection_tensor``): A3 sums u_prev over its
    faces j, A5 sums omega_prev over its edges e.  Returns the local
    blocks, (T, 4, 6) rows ``mesh.tet_faces`` by columns
    ``mesh.tet_edges``, and (T, 4, 4) rows and columns
    ``mesh.tet_faces``.
    """
    K = complex_.tabulation().convection_tensor
    mesh = complex_.mesh
    local3 = theta * np.einsum("tiej,tj->tie", K, u_values[mesh.tet_faces])
    local5 = (1.0 - theta) * np.einsum("tiej,te->tij", K, omega_values[mesh.tet_edges])
    return local3, local5


def assemble_B0(complex_, nu=1.0):
    """The blocks of the steady saddle matrix (see module docstring).

    Returns ``(groups, blocks)``: the group sizes in order and
    ``{(row, col): matrix}`` of the five nonzero blocks.  The right-hand
    side and the essential values come from :func:`assemble_rhs`.
    """
    if nu <= 0:
        raise ValueError("viscosity must be positive")
    mesh = complex_.mesh
    m2d1 = complex_.m2 @ complex_.d1
    m3d2 = complex_.m3 @ complex_.d2
    groups = {"u1": mesh.n_edges, "u2": mesh.n_faces, "u3": mesh.n_tets}
    blocks = {
        ("u1", "u1"): complex_.m1,
        ("u1", "u2"): -m2d1.T,
        ("u2", "u1"): nu * m2d1,
        ("u2", "u3"): -m3d2.T,
        ("u3", "u2"): m3d2,
    }
    return groups, blocks


def assemble_rhs(complex_, bc, f2=None, f3=None, t=0.0, load_degree=None):
    """Right-hand side and essential values of the saddle system at time t.

    Returns ``({group: vector}, {group: (indices, values)})``: the loads
    and the nonzero natural terms, and the essential values of
    :func:`essential_constraints`.  ``load_degree`` overrides the volume
    rule for the f2/f3 loads (gradient loads must be integrated exactly
    for pressure-robustness to hold discretely).  Each solve of a run
    evaluates these; the matrix of :func:`assemble_B0` stays.
    """
    rhs = {}
    if f2 is not None:
        rhs["u2"] = assemble_load(complex_, f2, t=t, degree=load_degree)
    if f3 is not None:
        rhs["u3"] = assemble_scalar_load(complex_, f3, t=t, degree=load_degree)
    boundary = resolve_boundary(complex_, bc)
    natural = assemble_natural_bc(complex_, boundary, t=t)
    for group in ("u1", "u2"):
        if np.any(natural[group]):
            rhs[group] = rhs.get(group, 0.0) + natural[group]
    constraints = essential_constraints(complex_, boundary, t=t, f3_given=f3 is not None)
    return rhs, constraints
