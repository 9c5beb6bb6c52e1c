"""Stacked block systems, constraint elimination, direct and conjugate-gradient solves.

Storage and factorization are delegated to scipy.sparse; this module
owns the contracts: a square system is named groups of unknowns with
``{(row, col): matrix}`` blocks, essential constraints are applied by
elimination (never by penalties or Lagrange multipliers), and every
solve checks its relative residual against ``RESIDUAL_TOL``.

Blocks become one CSR matrix only in :func:`stack_blocks`, which can
join explicit-zero slots to the pattern and says where they sit.
Elimination has one path: :func:`eliminate` reduces the CSR pattern of
a whole system (explicit zeros keep their slots) to its free unknowns
once, listed in an elimination order, and :meth:`ReducedSystem.refill`
reduces each fill of the pattern, with the right-hand side
``(b - A x_fixed)[free]``.  :func:`assemble_blocks` stacks, eliminates
and fills a system once.

The order is applied there and nowhere else.  The solver reduces its
system in the mesh's nested-dissection order
(``SimplicialMesh3.elimination_order``), in which every pressure cell
follows the face it pairs with, and :func:`solve` factors the reduced
matrix as given: SuperLU eliminates in index order, in symmetric mode,
and leaves the diagonal only for a pivot below ``diag_pivot_thresh`` of
its column.  That threshold, not static pivoting, is what keeps the zero
pressure and Stokes velocity diagonals from breaking the factor, and it
keeps the fill of the order.  A :class:`FactorHolder` lets a sequence of
nearby systems, such as the steps of one run, share one factor through
iterative refinement, and each refinement may start from the previous
system's solution.  The factor may be float32, as the time steps' is: refinement, its residual
and the residual contract stay float64, so the precision of the factor
moves how many passes a solve takes, not what it returns (mixed-precision
refinement: Buttari et al., ACM TOMS 2008; Carson & Higham, SIAM J. Sci.
Comput. 2018).  :func:`solve_spd` solves a symmetric positive definite
system, such as the edge mass matrix of the initial vorticity, by
conjugate gradients under the same residual contract, with no factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "ReducedSystem",
    "FactorHolder",
    "SolverError",
    "SingularSystemError",
    "assemble_blocks",
    "eliminate",
    "group_offsets",
    "stack",
    "solve",
    "solve_reduced",
    "solve_spd",
    "m_norm",
]

RESIDUAL_TOL = 1e-10
# SuperLU keeps a diagonal pivot unless it is below this share of the
# largest entry in its column.  Near a cliff: at n=7, 1e-3 leaves the
# Navier-Stokes fill nearly unchanged and 3e-3 triples it.
diag_pivot_thresh = 1e-6
# Refinement continues while each pass multiplies the relative residual
# by at most REFINE_RATE, for at most REFINE_MAX_PASSES passes, and stops
# at ROUNDOFF_RESIDUAL.  A held factor whose refinement ends above
# ROUNDOFF_RESIDUAL is replaced, unless it is the factor of this matrix.
REFINE_RATE = 0.5
REFINE_MAX_PASSES = 10
ROUNDOFF_RESIDUAL = 1e-15


class SolverError(RuntimeError):
    pass


class SingularSystemError(SolverError):
    pass


def group_offsets(groups):
    """Where each named group starts in the stacked unknowns."""
    return dict(zip(groups, np.cumsum([0, *groups.values()]).tolist()))


def stack(groups, vectors):
    """One vector of all unknowns from ``{group: vector}``; missing groups are zero."""
    parts = [np.broadcast_to(vectors.get(g, 0.0), (n,)) for g, n in groups.items()]
    return np.concatenate(parts)


@dataclass
class ReducedSystem:
    """The free x free part of a square CSR system, built by :func:`eliminate`.

    ``positions`` holds where each entry of ``matrix`` sits in the data
    of ``pattern``, the whole system; :meth:`refill` fills both.
    """

    pattern: sp.csr_matrix
    matrix: sp.csr_matrix
    positions: np.ndarray
    free: np.ndarray
    fixed: np.ndarray
    groups: dict
    offsets: dict
    x_fixed: np.ndarray = None
    eliminated: np.ndarray = None

    def refill(self, data, b, fixed_values):
        """Reduce new pattern ``data``, right-hand side ``b`` and fixed values.

        Returns ``b - A x_fixed`` over all unknowns, where ``x_fixed``
        holds the fixed values and zeros elsewhere; ``rhs`` is its free
        part, so a change to the returned vector reaches ``rhs``.
        """
        self.pattern.data = data
        self.matrix.data = data[self.positions]
        self.x_fixed = np.zeros(len(b))
        self.x_fixed[self.fixed] = fixed_values
        self.eliminated = b - self.pattern @ self.x_fixed if len(self.fixed) else b.copy()
        return self.eliminated

    @property
    def rhs(self):
        return self.eliminated[self.free]

    def expand(self, x_reduced):
        full = self.x_fixed.copy()
        full[self.free] = x_reduced
        return full

    def split(self, full):
        return {
            name: full[off : off + self.groups[name]]
            for name, off in self.offsets.items()
        }


def eliminate(pattern, groups, fixed, order=None):
    """Reduce a square CSR system to its free unknowns, once per pattern.

    ``pattern`` keeps its explicit zeros as slots, ``groups`` names the
    sizes of its groups and ``fixed`` holds the stacked indices of its
    fixed unknowns.  ``order``, which lists every unknown exactly once
    (index order when None), is the elimination order: ``free`` lists the
    free unknowns in it, and the reduced matrix, its right-hand side and
    solution follow ``free``.  One fancy index of a CSR whose data are
    the pattern's entry positions plus one (so that none is zero) yields
    the free x free matrix and where each of its entries comes from;
    within each row the entries keep the pattern's order.
    """
    n = pattern.shape[0]
    order = np.arange(n) if order is None else np.asarray(order)
    if not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError(f"order must list each of the {n} unknowns exactly once")
    is_free = np.ones(n, dtype=bool)
    is_free[fixed] = False
    free = order[is_free[order]]
    entries = np.arange(1, pattern.nnz + 1)
    matrix = sp.csr_matrix((entries, pattern.indices, pattern.indptr), shape=pattern.shape)
    matrix = matrix[free][:, free]
    positions = matrix.data - 1
    matrix.data = pattern.data[positions]
    offsets = group_offsets(groups)
    return ReducedSystem(pattern, matrix, positions, free, fixed, groups, offsets)


def stack_blocks(groups, blocks, slots=None):
    """One CSR matrix of all unknowns from ``{(row, col): block}``.

    ``groups`` maps each group to its size, in order; missing blocks are
    zero.  ``slots``, a pair of stacked row and column index arrays,
    joins those entries to the pattern, as explicit zeros where no block
    has one.  Returns the matrix and where each slot sits in its data.
    """
    grid = [[blocks.get((r, c)) for c in groups] for r in groups]
    a = sp.bmat(grid, format="csr" if slots is None else "coo")
    if a.shape != (sum(groups.values()),) * 2:
        raise ValueError("block grid does not cover the system")
    if slots is None:
        return a, np.empty(0, np.int64)
    i, j = slots
    data = np.concatenate([a.data, np.zeros(len(i))])
    a = sp.coo_matrix(
        (data, (np.concatenate([a.row, i]), np.concatenate([a.col, j]))), shape=a.shape
    ).tocsr()
    entries = sp.csr_matrix((np.arange(1, a.nnz + 1), a.indices, a.indptr), shape=a.shape)
    return a, np.asarray(entries[i, j]).ravel() - 1


def assemble_blocks(groups, blocks, rhs=None, constraints=None):
    """Stack blocks into one CSR matrix and eliminate constraints.

    ``groups`` maps each group to its size, in order; ``blocks`` maps
    ``(row, col)`` to a sparse matrix (missing blocks are zero), ``rhs``
    maps groups to vectors (missing ones are zero) and ``constraints``
    maps groups to the ``(indices, values)`` they fix.  Constrained
    columns are moved to the right-hand side and the corresponding rows
    dropped (:func:`eliminate`, filled once); the returned ReducedSystem
    restores the fixed values on expansion.
    """
    a, _ = stack_blocks(groups, blocks)
    constraints, offsets = constraints or {}, group_offsets(groups)
    fixed = [np.empty(0, np.int64), *(offsets[g] + i for g, (i, _) in constraints.items())]
    values = [np.empty(0), *(v for _, v in constraints.values())]
    reduced = eliminate(a, groups, np.concatenate(fixed))
    reduced.refill(a.data, stack(groups, rhs or {}), np.concatenate(values))
    return reduced


def _residual(matrix, rhs, x):
    """(rhs - matrix @ x, its norm relative to that of rhs)."""
    r = rhs - matrix @ x
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    return r, float(np.linalg.norm(r)) / scale


@dataclass
class FactorHolder:
    """One held LU factor, which :func:`solve` reuses while it refines.

    ``matrix`` is a copy of the matrix it factors and ``dtype`` the
    precision of its factor: float64, or float32 for a factor that only
    preconditions the float64 refinement.  A float32 factor that breaks
    down or does not refine to roundoff sets ``dtype`` to float64 for
    good.  ``reused`` and ``passes`` describe the holder's last solve:
    whether it kept the factor it found, and its refinement passes.
    """

    lu: object = None
    matrix: sp.csr_matrix = None
    reused: bool = False
    passes: int = 0
    dtype: type = np.float64


def solve(matrix, rhs, factor=None, x0=None, whole_norm=None):
    """Sparse LU solve in the matrix's own order, with a checked residual.

    SuperLU factors the matrix as given, eliminating its unknowns in
    index order (NATURAL, symmetric mode): each pivot stays on the
    diagonal unless it is below ``diag_pivot_thresh`` times its column's
    largest entry.  Static pivots (threshold 0) are not used: the
    pressure diagonal of the saddle systems is structurally zero, and so
    is the velocity diagonal of a Stokes system, so a factor that never
    leaves the diagonal breaks down there (relative residual 1e25 at n=8).

    Iterative refinement on the same system follows the
    back-substitution while the relative residual is above
    ``ROUNDOFF_RESIDUAL`` and each pass at least halves it
    (``REFINE_RATE``), for at most ``REFINE_MAX_PASSES`` passes.  Given
    ``x0``, an initial iterate such as the solution of the previous
    step, refinement starts from it instead of from the
    back-substitution.  A pass is one correction: a solve from LU^-1 b
    makes passes + 1 triangular solves, one from ``x0`` makes passes,
    and an ``x0`` already at ``ROUNDOFF_RESIDUAL`` makes 0 passes and
    none.

    ``factor``, a :class:`FactorHolder`, lends the factor of an earlier
    matrix of the same size and order.  Refinement against it converges
    while the two matrices are close; the factor is kept if the residual
    ends at roundoff (at most ``ROUNDOFF_RESIDUAL``) or if this matrix
    equals the one it factors, and otherwise this matrix is factored,
    refined the same way, and its factor held.  A fresh factor runs the
    same loop, and without a holder every call factors, in float64.

    The holder's ``dtype`` sets the precision of the factor
    (``csc_matrix(a, dtype=...)``); refinement is float64 either way, on
    the right-hand side (and ``x0``) scaled by a power of two that brings
    the right-hand side to unit size.  A fresh float32 factor must refine
    to roundoff, and a held one of this matrix to ``RESIDUAL_TOL``: one
    that breaks down in SuperLU, gives non-finite values or ends above
    that is replaced by a float64 factor of this matrix, and the holder
    stays float64.  The passes of every factor tried count in the
    holder's ``passes``.

    ``whole_norm``, when ``rhs`` is only the residual that an earlier
    state leaves of a larger right-hand side (the stream operator's
    increments), returns that right-hand side's norm; it is called only
    when a refinement ends above ``ROUNDOFF_RESIDUAL``.  Roundoff is then
    judged against it: a factor counts as at roundoff where the residual
    is at most ``ROUNDOFF_RESIDUAL`` of the larger norm, as it would for
    the whole system.  Refinement still runs while it halves the residual,
    and the residual returned and checked stays relative to ``rhs``.
    Returns the solution and its relative residual, checked against
    ``RESIDUAL_TOL``.  Raises SingularSystemError when factorization
    hits an exactly singular pivot, SolverError when the residual
    contract is violated, both only from a float64 factor.
    """
    a = sp.csr_matrix(matrix)
    if a.shape[0] != a.shape[1]:
        raise ValueError("solve needs a square matrix")
    rhs = given = np.asarray(rhs, dtype=float)

    def at_roundoff(res):
        if res <= ROUNDOFF_RESIDUAL:
            return True
        if whole_norm is None:
            return False
        return res * np.linalg.norm(given) <= ROUNDOFF_RESIDUAL * whole_norm()

    # A power of two brings the right-hand side to unit size, exactly: the
    # residuals of late passes stay inside float32's range, norms inside float64's.
    scale = math.ldexp(1.0, -math.frexp(float(np.abs(rhs).max(initial=0.0)))[1])
    rhs = rhs * scale
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float) * scale
    holder = FactorHolder() if factor is None else factor
    holder.reused = holder.lu is not None
    holder.passes = 0
    while True:
        if holder.lu is None:
            try:
                holder.lu, holder.matrix = _factor(a, holder.dtype), a.copy()
            except SingularSystemError:
                if holder.dtype == np.float64:
                    raise
                holder.dtype = np.float64
                continue
        x, res, passes = _refine(holder.lu, a, rhs, holder.dtype, x0)
        holder.passes += passes
        if at_roundoff(res):
            break
        if not holder.reused or (a != holder.matrix).nnz == 0:  # the factor of this matrix
            if holder.dtype == np.float64 or (holder.reused and res <= RESIDUAL_TOL):
                break
            holder.dtype = np.float64
        holder.lu, holder.reused = None, False
    if not np.all(np.isfinite(x)):
        holder.lu = None
        raise SingularSystemError(
            "sparse LU produced non-finite values in the back-substitution stage"
        )
    if res > RESIDUAL_TOL:
        raise SolverError(
            f"direct solve violated the residual contract: "
            f"relative residual {res:.3e} > {RESIDUAL_TOL:.1e}"
        )
    return x / scale, res


def _factor(a, dtype):
    try:
        return spla.splu(
            sp.csc_matrix(a, dtype=dtype),
            permc_spec="NATURAL",
            diag_pivot_thresh=diag_pivot_thresh,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SingularSystemError(
            f"sparse LU factorization failed at the numeric pivot stage: {exc}"
        ) from exc


def _refine(lu, a, rhs, dtype, x0):
    """Refinement from ``x0``, or from the back-substitution when it is
    None; returns (x, residual, passes).

    Each right-hand side is cast to the factor's ``dtype`` for its
    triangular solves; the iterate and its residual against the float64
    matrix ``a`` stay float64.
    """

    def lu_solve(b):
        return lu.solve(b.astype(dtype, copy=False)).astype(float, copy=False)

    x = lu_solve(rhs) if x0 is None else x0
    if not np.all(np.isfinite(x)):
        return x, np.inf, 0
    r, res = _residual(a, rhs, x)
    passes = 0
    while res > ROUNDOFF_RESIDUAL and passes < REFINE_MAX_PASSES:
        y = x + lu_solve(r)
        r_y, res_y = _residual(a, rhs, y)
        passes += 1
        converging = res_y <= REFINE_RATE * res
        if res_y < res:
            x, r, res = y, r_y, res_y
        if not converging:
            break
    return x, res, passes


def solve_reduced(reduced, factor=None, x0=None, whole_norm=None):
    """Solve a ReducedSystem; returns the full DOF vector and the residual.

    The reduced matrix is factored in the order :func:`eliminate` gave
    it.  ``factor``, ``x0``, an initial iterate of the free unknowns in
    that order (``full[reduced.free]``), and ``whole_norm`` are passed on
    to :func:`solve`.
    """
    x, res = solve(reduced.matrix, reduced.rhs, factor=factor, x0=x0, whole_norm=whole_norm)
    return reduced.expand(x), res


def solve_spd(matrix, rhs):
    """Jacobi-preconditioned conjugate gradients for a symmetric positive
    definite matrix, such as a mass matrix; returns the solution and its
    relative residual.

    No factor is built.  CG stops once its updated residual falls to
    ``ROUNDOFF_RESIDUAL`` times the norm of the right-hand side; the
    residual, computed anew, is then checked against ``RESIDUAL_TOL``,
    and SolverError is raised when it is above.  On a
    shape-regular mesh a mass matrix is spectrally equivalent to its
    diagonal (Wathen, IMA J. Numer. Anal. 1987), so the edge mass matrix
    takes about 40 iterations at every size.
    """
    a = sp.csr_matrix(matrix)
    rhs = np.asarray(rhs, dtype=float)
    x, _ = spla.cg(a, rhs, rtol=ROUNDOFF_RESIDUAL, M=sp.diags(1.0 / a.diagonal()))
    _, res = _residual(a, rhs, x)
    if not res <= RESIDUAL_TOL:
        raise SolverError(
            f"conjugate gradients violated the residual contract: "
            f"relative residual {res:.3e} > {RESIDUAL_TOL:.1e}"
        )
    return x, res


def m_norm(mass, values):
    """Norm induced by an SPD mass matrix."""
    return float(np.sqrt(np.maximum(values @ (mass @ values), 0.0)))
