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
system in the edge order of the mesh's nested dissection
(``SimplicialMesh3.elimination_order``, in which every pressure cell
follows the face it pairs with, for the tests' saddle reference), and
:func:`solve` factors the reduced matrix as given: SuperLU eliminates in
index order, in symmetric mode, and leaves the diagonal only for a pivot
below ``diag_pivot_thresh`` of its column.  That threshold, not static
pivoting, is what keeps the zero diagonals of Stokes systems from
breaking the factor, and it keeps the fill of the order.  A
:class:`FactorHolder` lets a sequence of nearby systems, such as the
steps of one run, share one factor through iterative refinement, and
each refinement may start from the previous system's solution.  The
factor may be float32, as the solver's is: refinement, its residual and
the residual contract stay float64, and a solve may count as at roundoff
by its componentwise backward error, so the precision of the factor
moves how many passes a solve takes, not what it returns
(mixed-precision refinement: Buttari et al., ACM TOMS 2008; Carson &
Higham, SIAM J. Sci. Comput. 2018).  :func:`solve_spd` solves a symmetric positive definite
system, such as the edge mass matrix of the initial vorticity, by
conjugate gradients under the same residual contract, with no factor.

:meth:`FactorHolder.factor_now` factors a matrix ahead of its solve, and
:func:`on_worker` runs a function on the package's one worker thread,
made on first use.  Two jobs run there: the right-hand side of a steady
operator's first solve, while the calling thread factors its matrix
(``solver``), and every other block of the error norms of a mesh with at
least ``spaces._SHARED_POINTS`` quadrature points, while the calling
thread sums the rest.  Time steps never use it.  Every SuperLU factor is
built, and so freed, on the calling thread, never on the worker: in
scipy 1.17.1 a factor built on one thread and freed on another is never
freed.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
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
    "peel",
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
# ROUNDOFF_RESIDUAL is replaced, unless it is the factor of this matrix
# or the componentwise backward error is at most ROUNDOFF_BACKWARD_ERROR
# (see solve): on the steady outlet stream systems of n = 3..8, jittered
# or not, it ends at 1.3-2.2e-16 from a float32 or a float64 factor.
REFINE_RATE = 0.5
REFINE_MAX_PASSES = 10
ROUNDOFF_RESIDUAL = 1e-15
ROUNDOFF_BACKWARD_ERROR = 4 * np.finfo(np.float64).eps


_worker = None
_worker_ident = None
_worker_lock = threading.Lock()


def _mark_worker():
    global _worker_ident
    _worker_ident = threading.get_ident()


def on_worker(fn, *args, **kwargs):
    """Start ``fn(*args, **kwargs)`` on the package's one worker thread,
    made on first use and named ``vvpflow-worker_0``; returns its Future.

    Called on the worker itself, it runs ``fn`` there at once and returns
    the done Future, so work that hands more work on never waits for
    itself.  The package runs only SuperLU-free work there (see the module
    docstring).  A forked child makes its own worker.
    """
    global _worker
    if threading.get_ident() == _worker_ident:
        done = Future()
        try:
            done.set_result(fn(*args, **kwargs))
        except Exception as exc:
            done.set_exception(exc)
        return done
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(
                1, thread_name_prefix="vvpflow-worker", initializer=_mark_worker
            )
        return _worker.submit(fn, *args, **kwargs)


def _forget_worker():
    global _worker, _worker_ident, _worker_lock
    _worker, _worker_ident, _worker_lock = None, None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


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


def peel(matrix):
    """The rows and columns of a sparse matrix that peeling leaves unpaired:
    ``(rows, columns)``, sorted.

    A live row with exactly one entry among the live columns pairs with
    that column, and a live column with exactly one among the live rows
    with that row; both retire.  Each pairing lowers the rank of the live
    part by exactly one, so no pairing is ever wrong: the pairs are a
    nonsingular square submatrix, and the rank is their number.  Each
    round pairs every such row, then every such column whose row is still
    live, the first of any that share a partner.  ValueError if live rows
    with live entries remain (a core), whose rank peeling cannot tell.
    """
    a = sp.csr_matrix(matrix, copy=True)
    a.eliminate_zeros()
    a.data[:] = 1.0
    sides = (a, a.T.tocsr())  # the rows, then the columns
    live = [np.ones(side.shape[0], dtype=bool) for side in sides]
    count = [np.diff(side.indptr) for side in sides]  # live entries of each
    while True:
        retired = [np.zeros_like(v) for v in live]
        for k in (0, 1):
            one = np.flatnonzero(live[k] & (count[k] == 1))
            cols = sides[k][one].indices
            partner = cols[live[1 - k][cols]]
            keep = ~retired[k][one] & ~retired[1 - k][partner]
            partner, first = np.unique(partner[keep], return_index=True)
            retired[k][one[keep][first]] = True
            retired[1 - k][partner] = True
        if not retired[0].any():
            break
        for k in (0, 1):
            live[k] &= ~retired[k]
            count[k] = count[k] - (sides[k] @ retired[1 - k].astype(float)).astype(np.int64)
    if (count[0][live[0]] > 0).any():
        raise ValueError(
            f"peeling left a core of {np.count_nonzero(count[0][live[0]])} rows and "
            f"{np.count_nonzero(count[1][live[1]])} columns of {a.shape[0]} x {a.shape[1]}"
        )
    return np.flatnonzero(live[0]), np.flatnonzero(live[1])


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


def _backward_error(matrix, rhs, x):
    """The componentwise backward error max_i |r_i| / (|A||x| + |b|)_i of x,
    with r = b - A x: the smallest relative change of each entry of A and
    b for which x is exact (Oettli & Prager 1964; Arioli, Demmel & Duff
    1989).  A row whose denominator is 0 counts 0 if its residual is 0 and
    inf otherwise; inf unless r and |A||x| are finite.

    |A| is built from ``np.abs`` of the CSR data on the matrix's own
    index arrays, so that the caller's matrix, which may share them, is
    left as it was (``abs()`` of a CSR matrix sorts unsorted indices in
    place).
    """
    r = np.abs(rhs - matrix @ x)
    magnitude = sp.csr_matrix((np.abs(matrix.data), matrix.indices, matrix.indptr), matrix.shape)
    ax = magnitude @ np.abs(x)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(ax))):
        return np.inf
    denominator = ax + np.abs(rhs)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(r == 0.0, 0.0, r / denominator)
    return float(ratio.max(initial=0.0))


@dataclass
class FactorHolder:
    """One held LU factor, which :func:`solve` reuses while it refines.

    ``matrix`` is a copy of the matrix it factors and ``dtype`` the
    precision of its factor: float64, or float32 for a factor that only
    preconditions the float64 refinement.  A float32 factor that breaks
    down or does not refine to roundoff sets ``dtype`` to float64 for
    good.  ``reused`` and ``passes`` describe the holder's last solve:
    whether it kept the factor it found, and its refinement passes.
    ``fresh`` marks a factor of :meth:`factor_now` that no solve has used
    yet; the solve that uses it counts it as its own, not as reused.
    """

    lu: object = None
    matrix: sp.csr_matrix = None
    reused: bool = False
    passes: int = 0
    dtype: type = np.float64
    fresh: bool = False

    def factor_now(self, matrix):
        """Factor ``matrix`` now, for the next :func:`solve`, which is given
        the same matrix and counts this factor as its own fresh one.

        It breaks down as :func:`solve`'s fresh factors do: a float32
        factor that SuperLU finds singular is replaced by a float64 one,
        and SingularSystemError is raised only from float64.
        """
        self._factor(sp.csr_matrix(matrix))
        self.fresh = True

    def _factor(self, a):
        while True:
            try:
                self.lu, self.matrix = _factor(a, self.dtype), a.copy()
                return
            except SingularSystemError:
                if self.dtype == np.float64:
                    raise
                self.dtype = np.float64


def solve(matrix, rhs, factor=None, x0=None, whole_norm=None):
    """Sparse LU solve in the matrix's own order, with a checked residual.

    SuperLU factors the matrix as given, eliminating its unknowns in
    index order (NATURAL, symmetric mode): each pivot stays on the
    diagonal unless it is below ``diag_pivot_thresh`` times its column's
    largest entry.  Static pivots (threshold 0) are not used: the
    stream function's diagonal of a steady stream system is structurally
    zero, and so are the pressure and velocity diagonals of the tests'
    saddle reference, where a factor that never leaves the diagonal breaks
    down (relative residual 1e25 at n=8).

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
    while the two matrices are close; the factor is kept if the solve
    ends at roundoff (below) or if this matrix equals the one it
    factors, and otherwise this matrix is factored, refined the same
    way, and its factor held.  A fresh factor runs the same loop, and
    without a holder every call factors, in float64.

    A solve is at roundoff when one of three tests holds, tried in this
    order, each only when those before it fail:

    1. the relative residual is at most ``ROUNDOFF_RESIDUAL``;
    2. ``whole_norm`` (below) is given and the residual is at most
       ``ROUNDOFF_RESIDUAL`` of the norm it returns;
    3. the relative residual is within ``RESIDUAL_TOL``, the residual and
       |A||x| are finite, and the componentwise backward error
       max_i |r_i| / (|A||x| + |b|)_i is at most
       ``ROUNDOFF_BACKWARD_ERROR``: x then solves exactly a system whose
       every entry is within a few roundoffs of this one's, as a float64
       factor's solution does (Arioli, Demmel & Duff, SIAM J. Matrix
       Anal. Appl. 1989).  The normwise floor of a float64 factor grows
       with the mesh (8e-15 on the steady outlet stream system at n=8);
       this one does not.  Its ``RESIDUAL_TOL`` condition refuses an
       iterate of a stale factor that is large along a near-null
       direction of the matrix: its |A||x| makes every row's ratio small
       while its residual is not.

    The holder's ``dtype`` sets the precision of the factor
    (``csc_matrix(a, dtype=...)``); refinement is float64 either way, on
    the right-hand side (and ``x0``) scaled by a power of two that brings
    the right-hand side to unit size.  A fresh float32 factor must refine
    to roundoff, and a held one of this matrix to ``RESIDUAL_TOL``: one
    that breaks down in SuperLU, gives non-finite values or ends above
    that is replaced by a float64 factor of this matrix, and the holder
    stays float64.  The passes of every factor tried count in the
    holder's ``passes``.  ``matrix`` is read, never written: |A| is
    built on its own index arrays (:func:`_backward_error`).

    ``whole_norm``, when ``rhs`` is only the residual that an earlier
    state leaves of a larger right-hand side (the stream operator's
    increments), returns that right-hand side's norm; it is called only
    when a refinement ends above ``ROUNDOFF_RESIDUAL``.  Roundoff is then
    judged against it too (test 2): a factor counts as at roundoff where
    the residual is at most ``ROUNDOFF_RESIDUAL`` of the larger norm, as
    it would for the whole system.  Refinement still runs while it halves
    the residual, and the residual returned and checked stays relative to
    ``rhs``.
    Returns the solution and its relative residual, checked against
    ``RESIDUAL_TOL``.  Raises SingularSystemError when factorization
    hits an exactly singular pivot, SolverError when the residual
    contract is violated, both only from a float64 factor.
    """
    a = sp.csr_matrix(matrix)
    if a.shape[0] != a.shape[1]:
        raise ValueError("solve needs a square matrix")
    rhs = given = np.asarray(rhs, dtype=float)

    def at_roundoff(x, res):
        if res <= ROUNDOFF_RESIDUAL:
            return True
        if whole_norm is not None and (
            res * np.linalg.norm(given) <= ROUNDOFF_RESIDUAL * whole_norm()
        ):
            return True
        return res <= RESIDUAL_TOL and _backward_error(a, rhs, x) <= ROUNDOFF_BACKWARD_ERROR

    # A power of two brings the right-hand side to unit size, exactly: the
    # residuals of late passes stay inside float32's range, norms inside float64's.
    scale = math.ldexp(1.0, -math.frexp(float(np.abs(rhs).max(initial=0.0)))[1])
    rhs = rhs * scale
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float) * scale
    holder = FactorHolder() if factor is None else factor
    holder.reused, holder.fresh = holder.lu is not None and not holder.fresh, False
    holder.passes = 0
    while True:
        if holder.lu is None:
            holder._factor(a)
        x, res, passes = _refine(holder.lu, a, rhs, holder.dtype, x0)
        holder.passes += passes
        if at_roundoff(x, res):
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
