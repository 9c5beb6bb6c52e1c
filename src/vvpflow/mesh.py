"""Conforming tetrahedral meshes with oriented skeletons.

Conventions used throughout the package:

* every simplex is stored with its vertex indices sorted ascending, and
  that ascending order is the canonical orientation of the simplex;
* edge tangents run from the low to the high vertex index;
* face normals follow the right-hand rule on the ascending vertex order;
* ``tet_volumes`` are positive, with the geometric orientation of the
  ascending vertex order kept separately in ``tet_orientations`` (+1 when
  the ascending order is right-handed, -1 otherwise).

Local numbering inside a tetrahedron (vertices 0 < 1 < 2 < 3 after the
global sort) lists edges as (0,1), (0,2), (0,3), (1,2), (1,3), (2,3) and
faces as (0,1,2), (0,1,3), (0,2,3), (1,2,3).  Because the global vertex
order is ascending inside every simplex, local-to-global DOF maps carry
no extra signs; all orientation bookkeeping lives in the incidence
matrices assembled by :mod:`vvpflow.spaces`.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csgraph

__all__ = [
    "SimplicialMesh3",
    "DualForest",
    "build_box_mesh",
    "mesh_size",
    "euler_characteristic",
    "read_tetmesh",
    "write_tetmesh",
]

TET_EDGE_VERTS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
TET_FACE_VERTS = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
# (-1)**(position of the omitted vertex): faces above omit vertex 3,2,1,0.
TET_FACE_PARITY = (-1, 1, -1, 1)
FACE_EDGE_VERTS = ((1, 2), (0, 2), (0, 1))
FACE_EDGE_SIGN = (1, -1, 1)
# Local edge of each local face edge: [[3, 1, 0], [4, 2, 0], [5, 2, 1], [5, 4, 3]].
TET_FACE_EDGES = tuple(
    tuple(TET_EDGE_VERTS.index((face[i], face[j])) for i, j in FACE_EDGE_VERTS)
    for face in TET_FACE_VERTS
)
# Cells per leaf of the bisection behind SimplicialMesh3.elimination_order,
# and the least share of a node's cells that each side of its cut keeps.
# Three is the smallest leaf for this balance: a node of 3 cells has no cut
# that leaves ceil(0.4 * 3) = 2 cells on each side, and every larger node has one.
LEAF_CELLS = 3
CUT_BALANCE = 0.4


@dataclass(frozen=True)
class DualForest:
    """Breadth-first spanning forest of the dual graph (cells joined by
    interior faces), one tree per connected component of cells."""

    labels: np.ndarray  # (T,) component of each cell
    roots: np.ndarray  # (C,) largest cell of each component, lowest index on ties
    levels: list  # the cells in breadth-first order split by depth, roots first
    parent: np.ndarray  # (T,) parent cell, -1 at roots
    parent_face: np.ndarray  # (T,) face shared with the parent, -1 at roots
    parent_sign: np.ndarray  # (T,) its divergence-matrix entry D2[cell, face], 0 at roots


class SimplicialMesh3:
    """Tetrahedral mesh with deduplicated edge/face skeletons.

    Parameters
    ----------
    vertices : (V, 3) float array
    tets : (T, 4) int array of vertex indices; rows are sorted ascending
        on construction.

    Attributes (all read-only by convention)
    ----------
    edges : (E, 2) ascending vertex pairs, lexicographically sorted
    faces : (F, 3) ascending vertex triples, lexicographically sorted
    tet_edges : (T, 6) global edge index per local edge
    tet_faces : (T, 4) global face index per local face
    face_edges : (F, 3) global edge index per local face edge
    face_tets : (F, 2) incident tets, -1 padding for boundary faces
    tet_volumes : (T,) positive volumes
    tet_orientations : (T,) +1 / -1 geometric orientation signs
    boundary_faces, boundary_edges, boundary_vertices : sorted index arrays
    boundary_face_signs : (n_bdry_faces,) +1 when the canonical face
        normal points out of the single incident tet, else -1
    """

    def __init__(self, vertices, tets):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        tets = np.ascontiguousarray(tets, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError("vertices must be an (V, 3) array")
        bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
        if len(bad):
            raise ValueError(f"non-finite coordinate of vertex {bad[0]}: {vertices[bad[0]]}")
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise ValueError("tets must be a (T, 4) array")
        if not len(tets):
            raise ValueError("a mesh needs at least one tet")
        if tets.min() < 0 or tets.max() >= len(vertices):
            raise ValueError("tet vertex index out of range")
        tets = np.sort(tets, axis=1)
        if np.any(np.diff(tets, axis=1) == 0):
            raise ValueError("degenerate tet with repeated vertex")
        first, inverse = _unique_rows(tets)
        if len(first) < len(tets):
            repeated = first[np.argmax(np.bincount(inverse) > 1)]
            raise ValueError(f"duplicate tet: vertices {tets[repeated].tolist()} listed twice")

        self.vertices = vertices
        self.tets = tets
        self.n_vertices = len(vertices)
        self.n_tets = len(tets)

        jac = vertices[tets[:, 1:]] - vertices[tets[:, :1]]
        dets = np.linalg.det(jac)
        if np.any(np.abs(dets) < 1e-300):
            raise ValueError("degenerate tet with zero volume")
        self.tet_volumes = np.abs(dets) / 6.0
        self.tet_orientations = np.sign(dets).astype(np.int64)

        edge_rows = tets[:, TET_EDGE_VERTS].reshape(-1, 2)
        first, edge_inv = _unique_rows(edge_rows)
        self.edges = edge_rows[first]
        self.tet_edges = edge_inv.reshape(self.n_tets, 6)
        self.n_edges = len(self.edges)

        face_rows = tets[:, TET_FACE_VERTS].reshape(-1, 3)
        first, face_inv = _unique_rows(face_rows)
        self.faces = face_rows[first]
        self.tet_faces = face_inv.reshape(self.n_tets, 4)
        self.n_faces = len(self.faces)

        self.face_edges = self.tet_edges[:, TET_FACE_EDGES].reshape(-1, 3)[first]
        self.face_tets, counts = self._face_incidence()
        if np.any(counts > 2):
            raise ValueError("non-manifold mesh: face shared by > 2 tets")
        self._check_vertex_stars()

        self.boundary_faces = np.flatnonzero(counts == 1)
        self.boundary_edges = np.unique(self.face_edges[self.boundary_faces])
        self.boundary_vertices = np.unique(self.faces[self.boundary_faces])
        bf = self.boundary_faces
        self.boundary_face_signs = self._face_signs(self.face_tets[bf, 0], bf)

    def _face_incidence(self):
        flat_faces = self.tet_faces.ravel()
        flat_tets = np.repeat(np.arange(self.n_tets), 4)
        order = np.argsort(flat_faces, kind="stable")
        counts = np.bincount(flat_faces, minlength=self.n_faces)
        starts = np.concatenate([[0], np.cumsum(counts)])
        face_tets = np.full((self.n_faces, 2), -1, dtype=np.int64)
        sorted_tets = flat_tets[order]
        face_tets[:, 0] = sorted_tets[starts[:-1]]
        interior = counts == 2
        face_tets[interior, 1] = sorted_tets[starts[:-1][interior] + 1]
        return face_tets, counts

    def _check_vertex_stars(self):
        """Raise unless the cells around each vertex are joined through faces.

        Cells that meet only at a vertex or along an edge would read as
        separate components in ``dual_forest`` and ``betti_numbers``.  One
        node per (cell, vertex) pair; each interior face joins the nodes
        of its two cells at its three vertices, and every vertex must end
        with one component.
        """
        interior = self.face_tets[:, 1] >= 0
        verts = self.faces[interior]

        def nodes(cells):
            return 4 * cells[:, None] + np.argmax(self.tets[cells, None] == verts[..., None], 2)

        rows, cols = (nodes(c).ravel() for c in self.face_tets[interior].T)
        graph = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(self.tets.size,) * 2)
        labels = csgraph.connected_components(graph, directed=False)[1]
        vertex = self.tets.ravel()
        label_of = np.empty(self.n_vertices, np.int64)
        label_of[vertex] = labels
        split = vertex[labels != label_of[vertex]]
        if len(split):
            raise ValueError(
                f"non-manifold mesh: the cells at vertex {split.min()} are not joined "
                f"through faces (they meet only at that vertex or along an edge)"
            )

    def _face_signs(self, tets, faces):
        """D2[tets, faces]: +1 where the face's normal points out of the tet."""
        local = np.argmax(self.tet_faces[tets] == faces[:, None], axis=1)
        return np.array(TET_FACE_PARITY, dtype=np.int64)[local] * self.tet_orientations[tets]

    @functools.cached_property
    def dual_forest(self):
        """The mesh's :class:`DualForest`, built on first use."""
        T = self.n_tets
        a, b = self.face_tets[self.face_tets[:, 1] >= 0].T
        adjacency = coo_matrix((np.ones(len(a)), (a, b)), shape=(T, T))
        n_comp, labels = csgraph.connected_components(adjacency, directed=False)
        by_size = np.lexsort((-self.tet_volumes, labels))
        roots = by_size[np.searchsorted(labels[by_size], np.arange(n_comp))]
        # A virtual cell T joined to every root: one search spans the forest.
        rows, cols = np.r_[a, np.full(n_comp, T)], np.r_[b, roots]
        graph = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(T + 1, T + 1))
        order, pred = csgraph.breadth_first_order(graph, T, directed=False)
        depth = csgraph.shortest_path(graph, directed=False, unweighted=True, indices=T)
        levels = np.split(order[1:], np.flatnonzero(np.diff(depth[order[1:]])) + 1)
        child = order[1 + n_comp :]
        shared = self.tet_faces[child][:, :, None] == self.tet_faces[pred[child]][:, None]
        local = np.argmax(shared.any(axis=2), axis=1)
        parent, face, sign = np.full((3, T), [[-1], [-1], [0]], dtype=np.int64)
        parent[child], face[child] = pred[child], self.tet_faces[child, local]
        sign[child] = self._face_signs(child, face[child])
        return DualForest(labels, roots, levels, parent, face, sign)

    @functools.cached_property
    def betti_numbers(self):
        """(b0, b1, b2): components, handles and cavities, built on first use.

        b2 counts the boundary surfaces (faces joined by shared edges)
        beyond one per component, and b1 follows from the Euler
        characteristic b0 - b1 + b2.  The components of ``dual_forest``
        are the mesh's because the mesh rejects cells that meet only at a
        vertex or along an edge.
        """
        b0 = len(self.dual_forest.roots)
        B = len(self.boundary_faces)
        edges = self.face_edges[self.boundary_faces].ravel()
        incidence = coo_matrix((np.ones(3 * B), (np.repeat(np.arange(B), 3), edges)))
        b2 = csgraph.connected_components(incidence @ incidence.T)[0] - b0
        return b0, b0 + b2 - euler_characteristic(self), b2

    @functools.cached_property
    def elimination_order(self):
        """Nested-dissection order of all E+F+T entities, built on first use.

        Entities are numbered edges, then faces, then cells, as the
        unknowns u1, u2, u3 of ``assembly.assemble_B0``.  The cells are
        bisected recursively.  Each node sorts its cells by centroid along
        its longest extent (ties by the next longest) and cuts that
        sequence where the fewest of its edges and faces (those whose
        cells all lie in the node) have cells on both sides, among the
        cuts that leave at least CUT_BALANCE of its cells on each side;
        ties go to the median.  On a Kuhn box of odd n the exact median
        falls inside the middle layer of cubes, while this cut lands on a
        vertex plane: the L+U of an Ethier step's factor falls from 3.65M
        to 1.92M at n=7, and from 18.66M to 18.61M at n=12, whose top cuts
        were already planes (with 16-cell leaves).  Bisection stops at
        leaves of at most LEAF_CELLS = 3 cells, the smallest leaf that
        window allows: a node of 3 cells has no cut that leaves 2 on each
        side.  Against 16-cell leaves, whose edges and faces were listed
        undissected, the step's L+U falls from 3.38M to 3.05M at n=8 and
        from 18.61M to 17.80M at n=12.  The tree is built a level at a
        time, with work linear in the cells and entities per level.
        Each edge and face goes to the lowest tree node that holds all of
        its cells, and the nodes follow in postorder.  Inside a node come
        its edges, then its faces, each non-root cell of ``dual_forest``
        right after its parent face, whose pivot it pairs with; the roots
        go last.  Every matrix entry of the saddle system couples two
        entities of one cell, so every node separates its two subtrees.
        """
        E, F, T = self.n_edges, self.n_faces, self.n_tets
        centroids = self.vertices[self.tets].mean(axis=1)
        incidence = np.hstack([self.tet_edges, E + self.tet_faces])  # edges, then faces
        cells = np.arange(T)  # permuted so that each tree node holds a range
        pos = np.arange(T)  # position of each cell in cells

        def spread():
            """Lowest and highest position of the cells of each edge and face."""
            at, entity = np.repeat(pos, incidence.shape[1]), incidence.ravel()
            low, high = np.full(E + F, T), np.full(E + F, -1)
            np.minimum.at(low, entity, at)
            np.maximum.at(high, entity, at)
            return low, high

        # The tree, one level at a time: each node's range [lo, hi), parent and depth.
        lo, hi, up, depth = (np.array([v]) for v in (0, T, -1, 0))
        level = np.flatnonzero(hi - lo > LEAF_CELLS)
        while len(level):
            first, m = lo[level], hi[level] - lo[level]
            S, P = len(level), m.sum()
            start = np.cumsum(m) - m  # of each node among the level's P cells
            node = np.repeat(np.arange(S), m)
            at = np.arange(P) + np.repeat(first - start, m)
            # Sort each node's cells along its longest extent, the next breaking ties.
            x = centroids[cells[at]]
            extent = np.maximum.reduceat(x, start) - np.minimum.reduceat(x, start)
            axis = np.argsort(-extent, axis=1, kind="stable")[node]
            rows = np.arange(P)
            order = np.lexsort((x[rows, axis[:, 1]], x[rows, axis[:, 0]], node))
            cells[at] = part = cells[at][order]
            pos[part] = at
            # The edges and faces whose cells all lie in one node.
            node_at = np.full(T, -1)
            node_at[at] = node
            low, high = spread()
            of = node_at[low]
            inside = (of >= 0) & (of == node_at[high])
            low, high, of = low[inside], high[inside], of[inside]
            # Slot start + s + k of node s counts the entities with lowest < k <= highest.
            shift = (start - first + np.arange(S) + 1)[of]
            cuts = np.cumsum(np.bincount(low + shift, minlength=P + S)
                             - np.bincount(high + shift, minlength=P + S))
            # The cheapest k in each window, nearest the median on ties.
            k_min = np.ceil(CUT_BALANCE * m).astype(np.int64)
            choices = m - 2 * k_min + 1
            offset = np.cumsum(choices) - choices
            s = np.repeat(np.arange(S), choices)
            k = np.arange(choices.sum()) - offset[s] + k_min[s]
            best = np.lexsort((np.abs(k - m[s] // 2), cuts[start[s] + s + k], s))[offset]
            mid, n = first + k[best], len(lo)
            lo, hi = np.r_[lo, first, mid], np.r_[hi, mid, first + m]
            up, depth = np.r_[up, level, level], np.r_[depth, depth[level] + 1, depth[level] + 1]
            level = n + np.flatnonzero(hi[n:] - lo[n:] > LEAF_CELLS)
        # Number the nodes in postorder: by right end, the deeper of nested nodes first.
        post = np.lexsort((-depth, hi))
        spans = np.stack([lo, hi], axis=1)[post]
        parent = np.append(np.argsort(post), -1)[up[post]]  # the root's -1 stays
        is_leaf = np.diff(spans, axis=1).ravel() <= LEAF_CELLS
        leaf = np.repeat(np.flatnonzero(is_leaf), np.diff(spans[is_leaf], axis=1).ravel())

        # Each edge and face goes to the lowest node that holds all of its cells.
        low, high = spread()
        node = leaf[low]
        while (climb := spans[node, 1] <= high).any():
            node[climb] = parent[node[climb]]
        face = self.dual_forest.parent_face
        cell_node = np.where(face >= 0, node[E + face], len(spans))  # roots last
        node = np.concatenate([node, cell_node])
        # Within a node: edges, then faces, each followed by the cell it is parent face of.
        key = np.concatenate([np.arange(E), E + 2 * np.arange(F), E + 2 * face + 1])
        return np.lexsort((key, node))

    def face_areas(self, faces=None):
        faces = self.faces if faces is None else self.faces[faces]
        a, b, c = (self.vertices[faces[:, i]] for i in range(3))
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    def __repr__(self):
        return (
            f"SimplicialMesh3(V={self.n_vertices}, E={self.n_edges}, "
            f"F={self.n_faces}, T={self.n_tets})"
        )


def _unique_rows(rows):
    """The distinct rows of an int array in lexicographic order, as (first,
    inverse): ``rows[first]`` lists them and ``rows[first][inverse]`` equals ``rows``."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.r_[True, np.any(ranked[1:] != ranked[:-1], axis=1)]
    inverse = np.empty(len(rows), np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def build_box_mesh(nx, ny, nz, lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)):
    """Kuhn triangulation of an axis-aligned box.

    Each of the nx*ny*nz hexahedral cells is split into the six
    tetrahedra spanned by the monotone vertex chains from its low corner
    to its high corner, which keeps shared cell faces conforming.
    """
    for n in (nx, ny, nz):
        if int(n) != n or n < 1:
            raise ValueError("cell counts must be positive integers")
    nx, ny, nz = int(nx), int(ny), int(nz)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != (3,) or hi.shape != (3,) or np.any(hi <= lo):
        raise ValueError("box corners must satisfy hi > lo componentwise")

    xs = np.linspace(lo[0], hi[0], nx + 1)
    ys = np.linspace(lo[1], hi[1], ny + 1)
    zs = np.linspace(lo[2], hi[2], nz + 1)
    verts = np.empty(((nx + 1) * (ny + 1) * (nz + 1), 3))
    verts[:, 0] = np.tile(xs, (ny + 1) * (nz + 1))
    verts[:, 1] = np.tile(np.repeat(ys, nx + 1), nz + 1)
    verts[:, 2] = np.repeat(zs, (nx + 1) * (ny + 1))

    def vid(i, j, k):
        return i + (nx + 1) * (j + (ny + 1) * k)

    ii, jj, kk = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    ii, jj, kk = ii.ravel(), jj.ravel(), kk.ravel()
    unit = np.eye(3, dtype=np.int64)
    chunks = []
    for perm in itertools.permutations(range(3)):
        steps = np.cumsum(unit[list(perm)], axis=0)
        chain = [vid(ii, jj, kk)]
        for s in steps:
            chain.append(vid(ii + s[0], jj + s[1], kk + s[2]))
        chunks.append(np.stack(chain, axis=1))
    tets = np.concatenate(chunks, axis=0)
    return SimplicialMesh3(verts, tets)


def mesh_size(mesh):
    """Longest edge length, the mesh-size parameter for convergence plots."""
    vec = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    return float(np.linalg.norm(vec, axis=1).max())


def euler_characteristic(mesh):
    """V - E + F - T, counting only the vertices that some tet uses."""
    used = np.unique(mesh.tets).size
    return used - mesh.n_edges + mesh.n_faces - mesh.n_tets


def write_tetmesh(path, mesh):
    """Write the plain-text format: header, vertex lines, tet lines."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"tetmesh {mesh.n_vertices} {mesh.n_tets}\n")
        for x, y, z in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")
        for row in mesh.tets:
            fh.write(f"{row[0]} {row[1]} {row[2]} {row[3]}\n")


def read_tetmesh(path):
    """Read the plain-text format written by :func:`write_tetmesh`.

    The format is one header line ``tetmesh <V> <T>``, then V lines of
    vertex coordinates and T lines of 0-based tet connectivity.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty mesh file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "tetmesh":
        raise ValueError(f"{path}: expected header 'tetmesh <V> <T>'")
    try:
        nv, nt = int(head[1]), int(head[2])
    except ValueError as exc:
        raise ValueError(f"{path}: bad counts in header") from exc
    if len(lines) != 1 + nv + nt:
        raise ValueError(
            f"{path}: expected {1 + nv + nt} lines for V={nv} T={nt}, "
            f"found {len(lines)}"
        )
    try:
        verts = np.array([[float(v) for v in ln.split()] for ln in lines[1 : 1 + nv]])
        tets = np.array(
            [[int(v) for v in ln.split()] for ln in lines[1 + nv :]], dtype=np.int64
        )
    except ValueError as exc:
        raise ValueError(f"{path}: malformed vertex or tet line") from exc
    if nv and verts.shape != (nv, 3):
        raise ValueError(f"{path}: vertex lines must hold 3 coordinates")
    if nt and tets.shape != (nt, 4):
        raise ValueError(f"{path}: tet lines must hold 4 vertex indices")
    return SimplicialMesh3(verts, tets)
