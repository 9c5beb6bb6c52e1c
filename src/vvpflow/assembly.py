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
are dense, so neither is assembled here.  The solver never factors this
system: it solves in the divergence-free subspace, spanned by the curls
of :attr:`ResolvedBoundary.cotree` and the fields of
:attr:`ResolvedBoundary.generators` (see :mod:`vvpflow.solver`); the
test suite keeps the saddle system as its reference.

Boundary conditions come in two independent channels per region: the
vorticity channel (essential tangential vorticity trace, or natural
tangential velocity) and the velocity/pressure channel (essential normal
velocity, or natural pressure trace).  Essential values are canonical
interpolants of analytic data (``spaces.dof_values``) and are imposed by
elimination.  Natural terms are integrated as the loads are: the data's
rule-weighted barycentric moments on each face, contracted with its
cell's Whitney coefficients, into which the face's outward normal is
folded once per resolution.  The entities, the faces and the rules
mapped onto them are decided once per complex and spec by
:class:`ResolvedBoundary`, one record per region that claims faces
(:attr:`ResolvedBoundary.claims`), and all of one solve's boundary data
are evaluated by :meth:`ResolvedBoundary.evaluate` in one pass over them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import peel
from .quadrature import edge_rule, triangle_rule
from .spaces import FACE_PAIRS, TRACE_DEGREE, dof_values, sample, simplex_rule
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
            mask = np.asarray(region.where(centroids))
            if mask.shape != (len(bf),) or mask.dtype != bool:
                raise ValueError(
                    f"region {region.name!r} predicate returned bad shape or dtype: "
                    f"{mask.shape} {mask.dtype}, not ({len(bf)},) bool"
                )
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
    predicates, made on construction.  The claims (one record per region
    that claims faces, with the TRACE_DEGREE face rule mapped onto its
    faces), the outlet faces, the closed components, the harmonic space,
    the forest that carries divergence, the stream function's cotree and
    the generator faces, the essential entities and the natural terms'
    face tables are built on first use and kept.  :meth:`evaluate` is the
    only code that samples boundary data: a run resolves its boundary once
    and passes it as ``bc``, so a solve only evaluates boundary data and
    contracts it.
    """

    def __init__(self, complex_, bc):
        self.complex, self.mesh, self.bc = complex_, complex_.mesh, bc
        self.owner = bc.face_region_map(self.mesh)
        self.rule = triangle_rule(TRACE_DEGREE)

    @cached_property
    def claims(self):
        """(region, faces, outward signs, points, right-hand normals) of each
        region that claims faces, in the spec's order: a sign is +1 where the
        face's right-hand normal points outward, and the points (B, Q, 3) and
        normals (length 2 area) are the face rule mapped by ``simplex_rule``."""
        mesh, out = self.mesh, []
        faces, signs = mesh.boundary_faces, mesh.boundary_face_signs
        for r, region in enumerate(self.bc.regions):
            claimed = self.owner == r
            if claimed.any():
                mapped = simplex_rule(mesh.vertices[mesh.faces[faces[claimed]]], self.rule)
                out.append((region, faces[claimed], signs[claimed], *mapped))
        return out

    def regions(self, channel, mode):
        """The :attr:`claims` whose ``channel`` ("vorticity" or "velocity") has ``mode``."""
        return [c for c in self.claims if getattr(c[0], f"{channel}_mode") == mode]

    @cached_property
    def outlet_faces(self):
        """The sorted boundary faces with natural velocity (the outlets)."""
        faces = [faces for _, faces, *_ in self.regions("velocity", NATURAL)]
        return np.sort(np.concatenate(faces)) if faces else np.empty(0, np.int64)

    @cached_property
    def closed(self):
        """Per dual-forest component: True unless a face has natural velocity."""
        labels = self.mesh.dual_forest.labels
        closed = np.ones(labels.max() + 1, dtype=bool)
        closed[labels[self.mesh.face_tets[self.outlet_faces, 0]]] = False
        return closed

    @cached_property
    def forest(self):
        """The dual forest that carries divergence: ``mesh.dual_forest`` when
        no face has natural velocity, and otherwise the forest rooted at the
        outlets (``SimplicialMesh3.forest_through``), in which every cell of
        a component with an outlet reaches the outside through the tree."""
        if not len(self.outlet_faces):
            return self.mesh.dual_forest
        return self.mesh.forest_through(self.outlet_faces)

    @cached_property
    def _peeled(self):
        """(cotree, generators), from one :func:`vvpflow.linalg.peel`."""
        mesh = self.mesh
        walls = np.setdiff1d(mesh.boundary_faces, self.outlet_faces)
        cotree = mesh.relative_cotree(walls) if len(self.outlet_faces) else mesh.cotree
        free = np.ones(mesh.n_faces, dtype=bool)
        free[walls] = False
        free[self.forest.parent_face[self.forest.tree]] = False
        faces = np.flatnonzero(free)
        rows, dependent = peel(self.complex.d1[faces][:, cotree])
        return (np.delete(cotree, dependent) if len(dependent) else cotree), faces[rows]

    @property
    def cotree(self):
        """The edges of the stream function: the cotree relative to the
        essential-velocity faces (``SimplicialMesh3.relative_cotree``;
        ``mesh.cotree`` itself when every boundary face is one), less the
        edges whose curls depend on the others (:attr:`generators`).  Their
        curls are independent, leave the essential fluxes alone and reach
        the outlets."""
        return self._peeled[0]

    @property
    def generators(self):
        """The sorted generator faces: the divergence-free face fluxes that
        vanish on the essential-velocity faces are the curls of
        :attr:`cotree` plus one field per generator face, its unit flux
        with its divergence carried along :attr:`forest`.

        Such a flux is fixed by its values on the faces off the walls and
        off the forest's tree, N, so with A = D1[N][:, relative cotree] the
        missing directions number |N| - rank A and the dependent curls
        |cotree| - rank A.  :func:`vvpflow.linalg.peel` pairs rows of A
        with columns: its unpaired rows are the generator faces and its
        unpaired columns the dependent curls, which :attr:`cotree` drops.
        On a box with one outlet disk, or none, both are empty; the flow
        from one natural-velocity piece to another, or around a handle,
        is a generator.  Peeling that leaves a core raises ValueError.
        """
        return self._peeled[1]

    def check_steady(self):
        """Raise ValueError where a steady solve cannot determine the flux:
        on a component with :attr:`generators` and no face of natural
        vorticity with essential velocity to hold them, the steady rows
        miss the generators' fluxes (the flow from one natural-velocity
        piece to another, or around a handle), and the system is singular."""
        labels, face_tets = self.mesh.dual_forest.labels, self.mesh.face_tets
        held = np.zeros(len(self.closed), dtype=bool)  # a tangential-velocity wall
        for region, faces, *_ in self.regions("velocity", ESSENTIAL):
            if region.vorticity_mode == NATURAL:
                held[labels[face_tets[faces, 0]]] = True
        count = np.bincount(labels[face_tets[self.generators, 0]], minlength=len(held))
        for c in np.flatnonzero((count > 0) & ~held):
            names = [
                region.name
                for region, faces, *_ in self.regions("velocity", NATURAL)
                if np.any(labels[face_tets[faces, 0]] == c)
            ]
            raise ValueError(
                f"component {c} has {count[c]} divergence-free flux direction(s) that no "
                f"curl reaches (between its natural-velocity regions "
                f"{', '.join(map(repr, names)) or 'none'}, or around a handle) and no wall "
                "of natural vorticity with essential velocity: the flux is not determined "
                "by a steady solve; give natural vorticity on a wall, give all but one "
                "natural-velocity piece essential velocity, or march in time with t_end"
            )

    @cached_property
    def harmonic(self):
        """The :class:`HarmonicSpace` of the closed components.

        Raises ValueError for the two pairings that are singular on the
        whole boundary of some domains: natural vorticity with natural
        velocity around a cavity (b2 > 0), and essential vorticity with
        essential velocity around a handle (b1 > 0).
        """
        mesh = self.mesh
        pairings = {(region.vorticity_mode, region.velocity_mode) for region, *_ in self.claims}
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
        return HarmonicSpace(basis)

    @cached_property
    def essential(self):
        """``{group: (parts, indices, pick)}``: "u1" the edges of the essential
        vorticity faces, "u2" the essential velocity faces.  ``parts`` holds
        (rule, points, measure) per region, in the order of :attr:`claims`:
        the TRACE_DEGREE edge or face rule mapped onto its entities by
        ``simplex_rule``, as ``spaces.interpolate`` maps it (the faces'
        are their claim's).  ``pick`` takes the sorted, read-only
        ``indices`` from the concatenated entities, so a seam edge is kept
        by the first region."""
        mesh, out = self.mesh, {}
        for group, channel, rule in (
            ("u1", "vorticity", edge_rule(TRACE_DEGREE)),
            ("u2", "velocity", self.rule),
        ):
            parts, entities = [], []
            for _, faces, _, points, normal in self.regions(channel, ESSENTIAL):
                if group == "u1":
                    e = np.unique(mesh.face_edges[faces])
                    mapped = simplex_rule(mesh.vertices[mesh.edges[e]], rule)
                else:
                    e, mapped = faces, (points, normal)
                parts.append((rule, *mapped))
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
        pressure region), in the order of :attr:`claims`: its B ``faces``,
        their ``cells``, the claim's ``points`` (B, Q, 3), outward ``normal``
        (length 2 area), ``lam``
        (B, 4, Q) the rule weights times the points' barycentric coordinates
        in the cell, and the cells' ``edges`` with their Whitney coefficients
        crossed with the normal, ``C1xn`` (B, 6, 12), rows the edges and
        columns (vertex, component): since C1 . (n x u) = u . (C1 x n), the
        tangential term is this table times the moments ``lam @ u``, with
        no cross product per solve; with natural pressure also the cells'
        ``fdofs`` and their face coefficients dotted with the normal, ``C2n``
        (B, 4, 4)."""
        mesh, rule, whitney = self.mesh, self.rule, self.complex.whitney
        tables = []
        for region, faces, sign, points, normal in self.regions("vorticity", NATURAL):
            B = len(faces)
            cells, tri = mesh.face_tets[faces, 0], mesh.faces[faces]
            normal = normal * sign[:, None].astype(float)
            loc = np.argmax(mesh.tets[cells][:, None, :] == tri[:, :, None], axis=2)
            lam = np.zeros((B, 4, len(rule)))
            lam[np.arange(B)[:, None], loc] = rule.weights * rule.points[:, :3].T
            table = {
                "faces": faces,
                "cells": cells,
                "points": points,
                "normal": normal,
                "lam": lam,
                "C1xn": np.cross(whitney[1][cells], normal[:, None, None, :]).reshape(B, 6, 12),
                "edges": mesh.tet_edges[cells],
            }
            if region.velocity_mode == NATURAL:
                table["C2n"] = np.einsum("bfax,bx->bfa", whitney[2][cells], normal)
                table["fdofs"] = mesh.tet_faces[cells]
            tables.append(table)
        return tables

    def evaluate(self, t, f3_given=False):
        """All of one solve's boundary data at time t, in one pass over
        :attr:`claims`: ``({"u1": rhs1, "u2": rhs2}, {group: (indices, values)})``.

        The natural terms are zero vectors where no region is natural.  The
        tangential-velocity data u enters the tau-row as + integral((n x u) .
        psi1), the boundary term of the weak curl, and the pressure data h the
        v-row as - integral(h psi2 . n), that of the weak gradient (n the
        outward unit normal), both contracted with the tables of
        :attr:`natural`, which hold the normal.  The essential values are
        each region's data interpolated on its entities (None: zero), a seam
        edge taking the first region's.  Unless ``f3_given``, each closed component's face
        values are shifted by an area-weighted constant so that its boundary
        flux vanishes exactly: the solver computes the harmonic multiplier
        from that flux (phi = H^T (load(f3) - M3 D2 u2_fixed)), so the
        quadrature-level defect of the interpolated data would otherwise
        become a nonzero phi and a spurious constant divergence.

        Each callable is sampled once per set of points: a region's fluxes
        read its natural tangential term's samples where one callable gives
        both (the Ethier velocity).  Nothing sampled outlives the call.
        """
        mesh = self.mesh
        rhs1, rhs2 = np.zeros(mesh.n_edges), np.zeros(mesh.n_faces)
        # The tables and the parts list their regions in the order of the claims.
        tables, values = iter(self.natural), {g: [] for g in self.essential}
        parts = {g: iter(p) for g, (p, _, _) in self.essential.items()}
        for region, _, _, points, _ in self.claims:
            name, u = f"region {region.name!r}", None
            if region.vorticity_mode == NATURAL:
                tab = next(tables)
                B, lam = len(points), tab["lam"]
                if region.vorticity_data is not None:
                    what = f"{name} tangential velocity data"
                    u = sample(region.vorticity_data, points, t, True, what)
                    moments = (lam @ u).reshape(B, 12, 1)
                    np.add.at(rhs1, tab["edges"], (tab["C1xn"] @ moments)[..., 0])
                if "C2n" in tab and region.velocity_data is not None:
                    h = sample(region.velocity_data, points, t, False, f"{name} pressure data")
                    moments = lam @ h[..., None]
                    np.add.at(rhs2, tab["fdofs"], -(tab["C2n"] @ moments)[..., 0])
            for group, channel in (("u1", "vorticity"), ("u2", "velocity")):
                if getattr(region, f"{channel}_mode") != ESSENTIAL:
                    continue
                rule, pts, measure = next(parts[group])
                data = getattr(region, f"{channel}_data")
                if data is None:
                    values[group].append(np.zeros(len(pts)))
                    continue
                shared = u is not None and data is region.vorticity_data
                vals = u if shared else sample(data, pts, t, True, f"{name} {channel} data")
                values[group].append(dof_values(vals, rule, measure))
        essential = {
            g: (idx, np.concatenate(values[g])[pick])
            for g, (_, idx, pick) in self.essential.items()
        }
        for on, signs, areas in [] if f3_given else self.flux_shift:
            vals = essential["u2"][1]
            defect = float(signs @ vals[on])
            vals[on] = vals[on] - signs * defect * areas / areas.sum()
        return {"u1": rhs1, "u2": rhs2}, essential


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
    its volume indicator scaled so that H^T M3 H = I.  The solver takes
    the harmonic part off each divergence it sweeps and gauges the
    pressure to H^T M3 p = 0.
    """

    basis: np.ndarray

    @property
    def dim(self):
        return self.basis.shape[1]


def build_harmonic_space(complex_, bc):
    """Harmonic 3-forms for the given boundary conditions: the
    :attr:`ResolvedBoundary.harmonic` of their resolution (which raises
    for the singular pairings)."""
    return resolve_boundary(complex_, bc).harmonic


def essential_constraints(complex_, bc, t=0.0, f3_given=False):
    """Interpolated essential boundary values, {"u1": (edge_indices, values),
    "u2": (face_indices, values)} with sorted indices and empty entries
    dropped: the second half of :meth:`ResolvedBoundary.evaluate` on ``bc``'s
    resolution (see :class:`HarmonicSpace` for the closed components)."""
    return resolve_boundary(complex_, bc).evaluate(t, f3_given)[1]


def assemble_natural_bc(complex_, bc, t=0.0):
    """Right-hand-side contributions of the natural boundary terms,
    {"u1": vec, "u2": vec}: the first half of :meth:`ResolvedBoundary.evaluate`
    on ``bc``'s resolution."""
    return resolve_boundary(complex_, bc).evaluate(t)[0]


def assemble_load(complex_, f2, t=0.0, degree=None):
    """Load vector <f2, psi2> over the velocity test space."""
    tab = complex_.tabulation(degree)
    mesh = complex_.mesh
    vals = sample(f2, tab.points, t, True, "f2")
    local = np.einsum(
        "tfax,tax->tf",
        complex_.whitney[2],
        tab.rule.points.T @ (tab.weights[..., None] * vals),
    )
    vec = np.zeros(mesh.n_faces)
    np.add.at(vec, mesh.tet_faces, local)
    return vec


def assemble_scalar_load(complex_, f3, t=0.0, degree=None):
    """Load vector <f3, psi3>, i.e. cell averages of the scalar source."""
    tab = complex_.tabulation(degree)
    vals = sample(f3, tab.points, t, False, "f3")
    return np.sum(tab.weights * vals, axis=1) / complex_.mesh.tet_volumes


# The face pairs p = (i, j) of ``FACE_PAIRS`` spread to a tet's faces:
# ``_PAIR_SKEW`` puts pair p at (i, j) and its negative at (j, i) of the
# raveled 4x4 block, ``_PAIR_SPREAD`` u_j at row i and -u_i at row j of
# the raveled (4, 6) face-by-pair block.
_PAIR_SKEW = np.zeros((6, 16))
_PAIR_SPREAD = np.zeros((4, 24))
for _p, (_i, _j) in enumerate(FACE_PAIRS):
    _PAIR_SKEW[_p, [4 * _i + _j, 4 * _j + _i]] = 1.0, -1.0
    _PAIR_SPREAD[[_j, _i], [6 * _i + _p, 6 * _j + _p]] = 1.0, -1.0


def assemble_convection(complex_, omega_values, u_values, theta=0.5):
    """Per-cell linearized convection blocks of the v-row.

    A3[i, j] = theta    * integral((psi1_j x u_prev)   . psi2_i)
    A5[i, j] = (1-theta) * integral((omega_prev x psi2_j) . psi2_i)

    where u_prev / omega_prev are the discrete fields given by the
    coefficient vectors.  Both contract the cell's coefficients with
    the cached skew half ``K`` (face pairs p = (i < j) by edges) of the
    volume tabulation (``WhitneyTabulation.convection_tensor``): A5's
    pairs are one batched ``K @ omega_loc``, spread to the skew 4x4
    block by ``_PAIR_SKEW``; A3 is ``u_loc @ _PAIR_SPREAD`` (face i's
    row holds u_j at its pairs (i, j) and -u_j at (j, i)) times ``K``.
    Returns the local blocks, (T, 4, 6) rows ``mesh.tet_faces`` by
    columns ``mesh.tet_edges``, and (T, 4, 4) rows and columns
    ``mesh.tet_faces``.
    """
    K = complex_.tabulation().convection_tensor
    mesh = complex_.mesh
    spread = (u_values[mesh.tet_faces] @ _PAIR_SPREAD).reshape(-1, 4, 6)
    local3 = theta * (spread @ K)
    pairs = (K @ omega_values[mesh.tet_edges][:, :, None])[:, :, 0]
    local5 = ((1.0 - theta) * pairs) @ _PAIR_SKEW
    return local3, local5.reshape(-1, 4, 4)


def assemble_B0(complex_, nu=1.0):
    """The blocks of the steady saddle matrix (see module docstring).

    Returns ``(groups, blocks)``: the group sizes in order and
    ``{(row, col): matrix}`` of the five nonzero blocks.  The right-hand
    side and the essential values come from :func:`assemble_rhs`.
    """
    if not 0 < nu < np.inf:
        raise ValueError("viscosity must be positive and finite")
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

    The boundary data come from one :meth:`ResolvedBoundary.evaluate`,
    which samples each callable once per set of points.
    """
    rhs = {}
    if f2 is not None:
        rhs["u2"] = assemble_load(complex_, f2, t=t, degree=load_degree)
    if f3 is not None:
        rhs["u3"] = assemble_scalar_load(complex_, f3, t=t, degree=load_degree)
    natural, constraints = resolve_boundary(complex_, bc).evaluate(t, f3 is not None)
    for group in ("u1", "u2"):
        if np.any(natural[group]):
            rhs[group] = rhs.get(group, 0.0) + natural[group]
    return rhs, constraints
