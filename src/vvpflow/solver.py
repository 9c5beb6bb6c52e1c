"""Steady solves and implicit time stepping of the vorticity-velocity-pressure system.

One implicit step from state (omega^n, u^n) to time t^{n+1} solves the
steady system (the blocks of :func:`vvpflow.assembly.assemble_B0`, the
data of :func:`vvpflow.assembly.assemble_rhs`) augmented on the v-row
with the discrete time derivative and the linearized convection blocks:

    (1/dt) M2 u2 + A3(u^n) u1 + A5(omega^n) u2   added to the left side,
    (1/dt) M2 u^n + <f(t^{n+1}), psi2>           on the right side.

Boundary data is evaluated at the new time level.  The convection
splitting weight theta interpolates between the two equivalent forms of
the rotational convection term; theta = 1/2 gives the symmetric
average used throughout the experiments.

Steady solves and steps build their operator through one function,
:func:`make_operator`, and there is one operator, :class:`_StreamOperator`.
It solves in the exactly divergence-free subspace that D2 D1 = 0
provides: the vorticity, a stream function on the cotree relative to the
essential-velocity faces (``ResolvedBoundary.cotree``) and one
coefficient per generator (``ResolvedBoundary.generators``), a
divergence-free flux that no curl reaches, such as the flow around a
handle or from one outlet to another; about half the saddle system's
unknowns.  Its matrix is the congruence of the :func:`assemble_B0`
blocks with Z = diag(I, [D1[:, cotree] | H]), H the generators' fields,
so the pressure leaves the solve; the divergence and the pressure are
recovered on the tree faces of the forest rooted at the outlets
(``ResolvedBoundary.forest``).  The saddle system with its harmonic
multiplier stays in the test suite as the reference the operator is
checked against.

A steady solve whose generators no wall of natural vorticity with
essential velocity holds fails at setup
(``ResolvedBoundary.check_steady``).

The operator holds only its matrix, built once: the harmonic space, the
resolved boundary (``assembly.ResolvedBoundary``), the :func:`assemble_B0`
blocks and ``M2/dt``, their congruence's CSR pattern with the convection
slots and its reduction to the free unknowns, listed in the mesh's
nested-dissection order (``linalg.eliminate``), which every factor keeps.
Each solve is given its loads, adds the per-cell convection blocks into
that pattern, evaluates the right-hand side (:func:`assemble_rhs`, whose
boundary data come from one ``ResolvedBoundary.evaluate``) and refills
the reduction.  :func:`run_transient` builds one operator per run,
``experiments.run_noflow`` one for all its exponents, and
:func:`solve_stokes` and a standalone :func:`step` one per call.  ``bc``
is a spec or its resolution (``assembly.resolve_boundary``), made once
per run.  The benchmark's ``natural_cache`` and ``harmonic`` keywords
and the names bound here only for its tracer stay until ROADMAP item 1.

The operator keeps one LU factor for its whole life.  Each solve refines
against it while every pass at least halves the relative residual; the
factor is kept if the solve ends at roundoff (``linalg.ROUNDOFF_RESIDUAL``,
or the componentwise backward error ``linalg.ROUNDOFF_BACKWARD_ERROR``),
and otherwise the current matrix is factored (see
:func:`vvpflow.linalg.solve`).  A solve that continues
from the state the operator last returned (``step`` passes its state)
starts its refinement from that solve's reduced solution; any other
state, such as ``run_noflow``'s rest state for each exponent, starts
from LU^-1 b.  The warm start saves little: on the benchmark's
``ns-sweep`` (seed 0) a step averaged 4.65 triangular solves and 5.63
residual products with it, against 4.98 and 4.98 from LU^-1 b, and an
``ns-large`` step 4.0 and 4.0 either way.  A factor never outlives the
call that built its operator.  The operator factors in float32 and refines in float64; a
fresh float32 factor that does not refine to roundoff is replaced by a
float64 one, which the operator keeps from then on.  A steady solve
refines from its float32 factor to the componentwise roundoff of a
float64 one in 3-5 passes (n = 3..10).
:func:`initialize_state` builds no factor: its edge mass-matrix system
is solved by conjugate gradients (:func:`vvpflow.linalg.solve_spd`).

A steady operator's first solve, which holds no factor, runs its two
independent jobs side by side: :func:`assemble_rhs` (the loads, mostly
the sampling of the forcing, and the boundary data) on the package's one
worker thread (``linalg.on_worker``), while the calling thread factors
the reduced matrix, whose data are final once the operator is built
(``FactorHolder.factor_now``); SuperLU releases the GIL while it factors.
The worker is joined before the lift, the refill and the refinement.
The data callables run on the worker, each once as before, and an error
they raise reaches the caller as before.  The factor stays on the
calling thread: in scipy 1.17.1 a SuperLU factor built on one thread and
freed on another is never freed (30 factors of a 16^3 Laplacian took the
peak RSS from 75 to 440 MB).  Time-step operators assemble on the
calling thread, where overlapping the first step's factor hid only one
step's boundary data.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import (
    NaturalBCCache,  # noqa: F401  (names the benchmark tracer patches)
    assemble_B0,
    assemble_convection,
    assemble_natural_bc,  # noqa: F401
    assemble_rhs,
    build_harmonic_space,  # noqa: F401
    essential_constraints,  # noqa: F401
    resolve_boundary,
)
from .linalg import (
    FactorHolder,
    SolverError,
    assemble_blocks,
    eliminate,
    m_norm,
    on_worker,
    solve_reduced,
    solve_spd,
    stack,
    stack_blocks,
)
from .mesh import FACE_EDGE_SIGN, TET_FACE_EDGES
from .spaces import FormCoefficients

__all__ = [
    "SolverConfig",
    "TransientState",
    "StepDiagnostics",
    "TrajectorySummary",
    "SteadyStateNotReached",
    "solve_stokes",
    "initialize_state",
    "step",
    "run_transient",
    "make_operator",
]


class SteadyStateNotReached(SolverError):
    """Pseudo-time iteration hit max_steps before the update stalled."""


def whole_number(name, value):
    """``value`` as an int; ValueError naming ``name`` if it is not whole (2.5, NaN, inf)."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def check_t_end(config, t0=0.0):
    """ValueError unless ``config.t_end`` is a positive, whole number of
    steps ``config.dt`` after t0 (within 1e-9 relative), and at most
    ``config.max_steps`` of them."""
    steps = (config.t_end - t0) / config.dt
    if not steps > 0:
        raise ValueError(f"t_end={config.t_end:g} is not after the initial time {t0:g}")
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ValueError(
            f"t_end={config.t_end:g} is not a whole number of steps "
            f"dt={config.dt:g} after the initial time {t0:g}"
        )
    if round(steps) > config.max_steps:
        raise ValueError(
            f"t_end={config.t_end:g} is {round(steps)} steps dt={config.dt:g} after "
            f"the initial time {t0:g}, more than max_steps={config.max_steps}"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the implicit stepper.

    ``t_end = None`` means pseudo-time marching to steady state, detected
    when the relative velocity update per unit time drops below
    ``steady_tol``; otherwise the stepper runs to t_end and steady
    detection is off.
    """

    nu: float = 1.0
    dt: float = 1e-2
    theta: float = 0.5
    t_end: float | None = None
    steady_tol: float = 1e-10
    max_steps: int = 10000
    load_degree: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "max_steps", whole_number("max_steps", self.max_steps))
        if self.load_degree is not None:
            object.__setattr__(self, "load_degree", whole_number("load_degree", self.load_degree))
        # Chained comparisons, so that NaN fails them too.
        if not 0 < self.nu < np.inf:
            raise ValueError("viscosity must be positive and finite")
        if not 0 < self.dt < np.inf:
            raise ValueError("time step must be positive and finite")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("convection weight theta must lie in [0, 1]")
        if not 0 < self.steady_tol < np.inf:
            raise ValueError("steady tolerance must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.t_end is not None and not 0 < self.t_end < np.inf:
            raise ValueError("t_end must be positive and finite when given")
        if self.load_degree is not None and self.load_degree < 0:
            raise ValueError("load_degree must be nonnegative when given")


@dataclass
class TransientState:
    """Discrete fields at one time level."""

    t: float
    omega: FormCoefficients
    u: FormCoefficients
    p: FormCoefficients


@dataclass(frozen=True)
class StepDiagnostics:
    """One step's health.  ``factor_reused`` is True when the step's solve
    kept the run's LU factor, ``refine_passes`` counts its refinement
    corrections (see :func:`vvpflow.linalg.solve`): the run's first step
    starts from LU^-1 b and makes passes + 1 triangular solves, a later
    one starts from the previous solution and makes passes, and 0 passes
    mean the start was already at roundoff.  ``unknowns`` is the size of
    the factored stream system (see :func:`make_operator`) and
    ``factor_dtype`` the precision of the factor held after the step
    (``linalg.FactorHolder.dtype``)."""

    step: int
    t: float
    residual: float
    div_max: float
    kinetic_energy: float
    update_rel: float
    factor_reused: bool
    refine_passes: int
    unknowns: int
    factor_dtype: type


@dataclass
class TrajectorySummary:
    final: TransientState
    history: list = field(default_factory=list)
    steady: bool = False
    n_steps: int = 0


# D1 of one tet: row a is its local face a, column e its local edge e
# (``mesh.TET_FACE_EDGES``); the ascending vertex order makes it the same
# in every tet.
_TET_D1 = np.zeros((4, 6))
for _face, _edges in enumerate(TET_FACE_EDGES):
    _TET_D1[_face, list(_edges)] = FACE_EDGE_SIGN


class _StreamOperator:
    """The system of one run in the divergence-free subspace (see
    :func:`make_operator`).

    Every velocity with the essential fluxes and the divergence the q-rows
    ask for is u = u_g + D1 psi + H alpha, with psi on ``boundary.cotree``,
    the edges off the closure of the essential-velocity faces less a
    forest and less the dependent curls, and alpha one coefficient per
    generator face (``boundary.generators``).  H holds the generators'
    fields: each face's unit flux with its divergence carried along
    ``boundary.forest`` (:func:`_sweep`).  D2 D1 = 0 exactly, the curls and
    H leave the essential fluxes alone, and together they span the rest,
    outlet fluxes included.  With W = [D1[:, cotree] | H] (``w``) the
    unknowns are the free vorticity and (psi, alpha), alpha last, and the
    matrix is the congruence Z^T A Z, with A the tau- and v-rows'
    vorticity and velocity blocks of :func:`assemble_B0` (``a``, plus
    ``M2/dt`` when ``dt`` is given) and Z = diag(I, W), formed block by
    block: the v-rows are tested with the columns of W only, so the
    pressure drops out ((D2 W)^T = 0) and the natural pressure data enter
    through the outlet rows, and the q-rows hold by construction.  The
    per-cell convection blocks enter as W_loc^T A3_loc and
    W_loc^T A5_loc W_loc, with W_loc the tet's D1 (``_TET_D1``) and the
    values of H on its faces (``h_loc``), in fixed slots of the pattern:
    ``conv_pos``, where each kept entry (``conv_on``) of the raveled local
    blocks lands in its data.  ``reduced`` is the pattern without the
    essential vorticity edges, reduced once in ``mesh.elimination_order``'s
    edge order with each psi_e right after omega_e and alpha last, so one
    sparse factor holds all.  ``factor`` holds the LU that
    :func:`vvpflow.linalg.solve` reuses across the operator's solves,
    float32 with the float64 fallback, and ``last`` the state its last
    solve returned with that solve's reduced solution.

    A solve is made about the state it continues from (zero without one):
    the unknowns are the change of the vorticity, psi and alpha, so that
    the velocity is not the small difference of a large lift and a large
    curl.  Roundoff is judged against the whole right-hand side before that
    state's rows are taken off (``whole_norm`` of :func:`linalg.solve`).
    The lift u_g is that state's velocity with the new essential fluxes,
    whose divergence defect (against the particular divergence of ``f3``,
    less its harmonic part) is carried from the leaves of
    ``boundary.forest`` to the roots of the closed components and out
    through the outlet faces (:func:`_sweep`); the same sweep takes the
    roundoff divergence off u_g + W (psi, alpha).  The pressure is then
    recovered from the v-rows on the tree faces, where D2^T M3 p is the
    residual of the other terms, from the roots and the outlets down
    (``DualForest.paths``): on an outlet face that residual holds the
    pressure data, so an open component's pressure needs no gauge, and a
    closed one's is moved to the harmonic 3-forms' gauge (``harmonic``,
    basis^T M3 p = 0).
    """

    def __init__(self, complex_, bc, nu, dt=None):
        self.complex, self.boundary = complex_, resolve_boundary(complex_, bc)
        self.harmonic, mesh = self.boundary.harmonic, complex_.mesh
        if dt is None:
            self.boundary.check_steady()
        E, cotree, generators = mesh.n_edges, self.boundary.cotree, self.boundary.generators
        self.forest = forest = self.boundary.forest
        k = len(generators)
        self.w = complex_.d1[:, cotree].tocsr()
        if k:
            h = np.zeros((mesh.n_faces, k))
            h[generators, np.arange(k)] = 1.0
            for column in h.T:
                _sweep(forest, self.harmonic, mesh.tet_volumes, column, -(complex_.d2 @ column))
            self.w = sp.hstack([self.w, sp.csr_matrix(h)], format="csr")
            self.h_loc = h[mesh.tet_faces]  # (T, 4, k)
        self.wt = self.w.T.tocsr()
        _, blocks = assemble_B0(complex_, nu=nu)
        if dt is not None:
            blocks[("u2", "u2")] = complex_.m2 / dt
        a = {key: v for key, v in blocks.items() if "u3" not in key}
        self.a, _ = stack_blocks({"u1": E, "u2": mesh.n_faces}, a)
        stream = {  # Z^T A Z block by block
            ("u1", "u1"): a["u1", "u1"],
            ("u1", "psi"): a["u1", "u2"] @ self.w,
            ("psi", "u1"): self.wt @ a["u2", "u1"],
        }
        if ("u2", "u2") in a:
            stream["psi", "psi"] = self.wt @ a["u2", "u2"] @ self.w
        slots = None
        if dt is not None:
            # The rows and columns of a tet's local blocks, raveled side by
            # side: D1_loc^T A3_loc (psi x omega) and D1_loc^T A5_loc D1_loc
            # (psi x psi), then with H the alpha x omega, alpha x psi,
            # psi x alpha and alpha x alpha ones; ``conv_on`` drops the
            # entries off the cotree and those of generators off the tet.
            psi = np.full(E, -1)
            psi[cotree] = E + np.arange(len(cotree))
            edges, psi = mesh.tet_edges, psi[mesh.tet_edges]
            rows = [np.repeat(psi, 6, 1)] * 2
            cols = [np.tile(edges, 6), np.tile(psi, 6)]
            if k:
                touched = np.abs(self.h_loc).sum(axis=1) > 0
                alpha = np.where(touched, E + len(cotree) + np.arange(k), -1)  # (T, k)
                rows += [np.repeat(alpha, 6, 1)] * 2
                cols += [np.tile(edges, k), np.tile(psi, k)]
                rows += [np.repeat(psi, k, 1), np.repeat(alpha, k, 1)]
                cols += [np.tile(alpha, 6), np.tile(alpha, k)]
            rows, cols = np.concatenate(rows, None), np.concatenate(cols, None)
            self.conv_on = (rows >= 0) & (cols >= 0)
            slots = (rows[self.conv_on], cols[self.conv_on])
        groups = {"u1": E, "psi": len(cotree) + k}
        pattern, self.conv_pos = stack_blocks(groups, stream, slots)
        self.static = pattern.data
        essential = self.boundary.essential
        fixed = essential["u1"][1] if "u1" in essential else np.empty(0, np.int64)
        # mesh.elimination_order's edges, each psi_e right after omega_e, alpha last.
        order = mesh.elimination_order
        rank = np.empty(E, np.int64)
        rank[order[order < E]] = np.arange(E)
        order = np.argsort(np.concatenate([2 * rank, 2 * rank[cotree] + 1, 2 * E + np.arange(k)]))
        self.reduced = eliminate(pattern, groups, fixed, order)
        self.m3h = complex_.m3 @ self.harmonic.basis
        self.tree_faces = forest.parent_face[forest.tree]
        self.steady = dt is None
        self.factor = FactorHolder(dtype=np.float32)
        self.last = (None, None)

    def _rows(self, convection, omega, u):
        """A (omega, u) plus the convection A3 omega + A5 u on the v-rows."""
        mesh = self.complex.mesh
        out = self.a @ np.concatenate([omega, u])
        if convection is not None:
            local3, local5 = convection
            local = np.einsum("tfe,te->tf", local3, omega[mesh.tet_edges])
            local += np.einsum("tfg,tg->tf", local5, u[mesh.tet_faces])
            out[mesh.n_edges :] += np.bincount(
                mesh.tet_faces.ravel(), local.ravel(), minlength=mesh.n_faces
            )
        return out

    def solve(self, t, loads, convection=None, rhs_u2=None, previous=None):
        """Solve at time t; returns (state, residual).

        ``loads`` (``f2``, ``f3``, ``load_degree``) go to :func:`assemble_rhs`,
        ``convection`` (the local blocks of :func:`assemble_convection`) into
        the v-rows and ``rhs_u2`` to the v-rows' right side.  ``previous``,
        when given, is the state the solve is made about; when it is the
        state this operator's last solve returned, refinement starts from
        that solve's reduced solution, and any other state starts from
        LU^-1 b.
        """
        complex_, h, reduced = self.complex, self.harmonic.basis, self.reduced
        mesh = complex_.mesh
        E, vol = mesh.n_edges, mesh.tet_volumes
        rhs, constraints = _assemble_rhs(self, t, loads)
        b = stack({"u1": E, "u2": mesh.n_faces}, rhs)
        if rhs_u2 is not None:
            b[E:] += rhs_u2
        b3 = rhs.get("u3", np.zeros(mesh.n_tets))
        if previous is None:
            omega, u = np.zeros(E), np.zeros(mesh.n_faces)
        else:
            omega, u = previous.omega.values, previous.u.values.copy()
        if "u2" in constraints:
            faces, fluxes = constraints["u2"]
            u[faces] = fluxes
        d2u = complex_.d2 @ u
        target = vol * (b3 - self.m3h @ (h.T @ (b3 - d2u / vol)))  # D2 u as the q-rows ask
        _sweep(self.forest, self.harmonic, vol, u, target - d2u)  # u is now u_g

        data = self.static
        if convection is not None:
            local3, local5 = convection
            local = [_TET_D1.T @ local3, _TET_D1.T @ local5 @ _TET_D1]
            if len(self.boundary.generators):
                w, wt = self.h_loc, np.swapaxes(self.h_loc, 1, 2)
                w5 = wt @ local5
                local += [wt @ local3, w5 @ _TET_D1, _TET_D1.T @ local5 @ w, w5 @ w]
            local = np.concatenate(local, None)
            data = data + np.bincount(self.conv_pos, local[self.conv_on], minlength=len(data))
        if "u1" in constraints:
            edges, values = constraints["u1"]
            values = values - omega[edges]
        else:
            values = np.empty(0)
        r = b - self._rows(convection, omega, u)
        reduced.refill(data, np.concatenate([r[:E], self.wt @ r[E:]]), values)
        returned, x0 = self.last
        x0 = x0 if previous is returned else None  # both None before a first solve
        full, residual = solve_reduced(
            reduced,
            factor=self.factor,
            x0=x0,
            whole_norm=lambda: np.linalg.norm(
                np.concatenate([b[:E], self.wt @ b[E:]])[reduced.free]
            ),
        )
        parts = reduced.split(full)
        omega = omega + parts["u1"]
        u += self.w @ parts["psi"]
        _sweep(self.forest, self.harmonic, vol, u, target - complex_.d2 @ u)
        # The v-rows on the tree faces give D2^T (M3 p), from the roots down.
        g = (self._rows(convection, omega, u) - b)[E + self.tree_faces]
        forest = self.forest
        jumps = np.zeros(mesh.n_tets)
        jumps[forest.tree] = forest.parent_sign[forest.tree] * g
        p = vol * (forest.paths @ jumps)
        p -= h @ (h.T @ (p / vol))
        state = TransientState(
            t=t,
            omega=FormCoefficients(complex_.V1, omega),
            u=FormCoefficients(complex_.V2, u),
            p=FormCoefficients(complex_.V3, p),
        )
        self.last = (state, full[reduced.free])
        return state, residual


def _assemble_rhs(operator, t, loads):
    """:func:`assemble_rhs` of an operator's solve at t.

    A steady operator that holds no factor runs it on the worker thread
    (``linalg.on_worker``) while this thread factors its reduced matrix,
    which holds its final data once the operator is built
    (``FactorHolder.factor_now``); the worker is joined, and an error
    of the right-hand side raised before one of the factor, before this
    returns.  The factor is never made on the worker (see the module
    docstring).  Every other solve assembles here, on this thread.
    """
    args = (operator.complex, operator.boundary)
    if not operator.steady or operator.factor.lu is not None:
        return assemble_rhs(*args, t=t, **loads)
    pending = on_worker(assemble_rhs, *args, t=t, **loads)
    try:
        operator.factor.factor_now(operator.reduced.matrix)
    finally:
        rhs = pending.result()
    return rhs


def _sweep(forest, harmonic, volumes, u, defect):
    """Add to ``u``, in place, the fluxes on the tree faces of ``forest``
    (``ResolvedBoundary.forest``) that carry the divergence ``defect``, less
    its harmonic part, from the leaves to the roots and the outlets.  D2 u
    then gains ``defect`` on every cell but the root of each closed
    component, which is left with the component's total, zero up to
    roundoff; a component with an outlet passes its total out through it.
    One product with ``DualForest.subtree`` sums every subtree at once."""
    h = harmonic.basis
    defect = defect - h @ (h.T @ (defect / volumes))
    tree = forest.tree
    u[forest.parent_face[tree]] += forest.parent_sign[tree] * (forest.subtree @ defect)[tree]


def make_operator(complex_, bc, nu, dt=None):
    """The operator of a run, :class:`_StreamOperator`: a steady one without
    ``dt``, a time-step one with it.  Without ``dt`` the spec must
    determine every flux (``ResolvedBoundary.check_steady``, checked after
    the singular pairings of ``ResolvedBoundary.harmonic``)."""
    return _StreamOperator(complex_, bc, nu, dt)


def _boundary(complex_, bc, space, resolution):
    """``bc`` resolved, for which a given ``resolution`` of its spec stands;
    a given harmonic ``space`` must hold the resolution's basis."""
    if resolution is not None and resolution.bc is not getattr(bc, "bc", bc):
        raise ValueError("natural_cache was resolved for another boundary spec")
    boundary = resolve_boundary(complex_, bc if resolution is None else resolution)
    own = boundary.harmonic if space is not None else None
    if own and not all(map(np.array_equal, vars(own).values(), vars(space).values())):
        raise ValueError("harmonic is not the harmonic space of the boundary")
    return boundary


def solve_stokes(
    complex_,
    bc,
    nu=1.0,
    f2=None,
    f3=None,
    t=0.0,
    load_degree=None,
    harmonic=None,
    natural_cache=None,
):
    """One linear steady solve (no convection, no time derivative).

    Returns ``(state, diagnostics)`` where diagnostics carries the
    relative linear residual, the max divergence density,
    ``unknowns``, the size of the factored stream system (see
    :func:`make_operator`), ``factor_dtype``, the precision of the factor
    that solved it (float32 unless it fell back to float64), and
    ``refine_passes``, its refinement corrections, as in
    :class:`StepDiagnostics`: the solve starts from LU^-1 b and makes
    passes + 1 triangular solves.
    """
    operator = make_operator(complex_, _boundary(complex_, bc, harmonic, natural_cache), nu)
    state, residual = operator.solve(t, {"f2": f2, "f3": f3, "load_degree": load_degree})
    diagnostics = {
        "residual": residual,
        "div_max": complex_.divergence_max(state.u.values),
        "unknowns": operator.reduced.matrix.shape[0],
        "factor_dtype": operator.factor.dtype,
        "refine_passes": operator.factor.passes,
    }
    return state, diagnostics


def initialize_state(complex_, bc, velocity_data, t=0.0):
    """Initial state from analytic velocity data.

    The velocity is the canonical face interpolant; the vorticity is its
    weak-curl partner, recovered from the same constitutive row the
    stepper uses (M1 w = D1^T M2 u plus the natural tangential boundary
    term) with any essential tangential-vorticity values imposed, both
    from one ``ResolvedBoundary.evaluate``.  The
    reduced M1 is a principal submatrix of the SPD edge mass matrix, so
    conjugate gradients solve it (:func:`vvpflow.linalg.solve_spd`) and
    no LU factor is built.  Pressure starts at zero (it is recomputed by
    the first step anyway).
    """
    u = complex_.interpolate(velocity_data, 2, t=t)
    natural, essential = resolve_boundary(complex_, bc).evaluate(t)
    rhs = complex_.d1.T @ (complex_.m2 @ u.values) + natural["u1"]
    fixed = {g: essential[g] for g in essential if g == "u1"}
    groups, blocks = {"u1": complex_.mesh.n_edges}, {("u1", "u1"): complex_.m1}
    reduced = assemble_blocks(groups, blocks, {"u1": rhs}, fixed)
    omega, _ = solve_spd(reduced.matrix, reduced.rhs)
    return TransientState(
        t=t,
        omega=FormCoefficients(complex_.V1, reduced.expand(omega)),
        u=u,
        p=FormCoefficients.zeros(complex_.V3),
    )


def step(complex_, bc, config, state, f=None, operator=None):
    """Advance one implicit step; returns (new_state, residual).

    ``operator`` is an operator for this ``config``'s nu and dt
    (:func:`make_operator`), such as the one :func:`run_transient` builds
    per run; the step gives it its loads and ``state``, so a step from the
    state the operator last returned refines from that solution.  Without
    it the step builds a one-shot one.
    """
    t_new = state.t + config.dt
    if operator is None:
        operator = make_operator(complex_, bc, config.nu, config.dt)
    convection = assemble_convection(
        complex_, state.omega.values, state.u.values, config.theta
    )
    loads = {"f2": f, "load_degree": config.load_degree}
    rhs_u2 = complex_.m2 @ state.u.values / config.dt
    return operator.solve(t_new, loads, convection, rhs_u2, previous=state)


def run_transient(
    complex_,
    bc,
    config,
    state=None,
    velocity_data=None,
    f=None,
    observers=(),
    harmonic=None,
    natural_cache=None,
):
    """March the implicit stepper from an initial state.

    Exactly one of ``state`` or analytic ``velocity_data`` (at t0 = 0)
    must be given.  With ``config.t_end`` set the run covers [t0,
    t_end], which must be a whole number of steps long (within 1e-9
    relative) and at most max_steps of them, or ValueError is raised
    before any work (:func:`check_t_end`); otherwise it is a
    pseudo-time iteration that stops once the relative update per unit
    time falls below ``config.steady_tol`` and raises
    SteadyStateNotReached if max_steps pass first.  Observers are called
    as observer(state, diag) after every step.
    """
    if state is None and velocity_data is None:
        raise ValueError("either an initial state or velocity data is required")
    if state is not None and velocity_data is not None:
        raise ValueError("give an initial state or velocity data, not both")
    t0 = 0.0 if state is None else state.t
    to_steady = config.t_end is None
    if not to_steady:
        check_t_end(config, t0)
    bc = _boundary(complex_, bc, harmonic, natural_cache)
    if state is None:
        state = initialize_state(complex_, bc, velocity_data, t=0.0)
    operator = make_operator(complex_, bc, config.nu, config.dt)
    summary = TrajectorySummary(final=state)
    m2 = complex_.m2
    for n in range(1, config.max_steps + 1):
        new_state, residual = step(complex_, bc, config, state, f=f, operator=operator)
        new_state.t = t0 + n * config.dt
        u = new_state.u.values
        unorm2 = float(u @ (m2 @ u))
        unorm = np.sqrt(max(unorm2, 0.0))
        dnorm = m_norm(m2, u - state.u.values)
        if unorm > 0.0:
            update_rel = dnorm / (config.dt * unorm)
        else:
            update_rel = 0.0 if dnorm == 0.0 else np.inf
        diag = StepDiagnostics(
            step=n,
            t=new_state.t,
            residual=residual,
            div_max=complex_.divergence_max(new_state.u.values),
            kinetic_energy=0.5 * unorm2,
            update_rel=update_rel,
            factor_reused=operator.factor.reused,
            refine_passes=operator.factor.passes,
            unknowns=operator.reduced.matrix.shape[0],
            factor_dtype=operator.factor.dtype,
        )
        summary.history.append(diag)
        state = new_state
        for observer in observers:
            observer(state, diag)
        if to_steady and update_rel < config.steady_tol:
            summary.steady = True
            break
        if not to_steady and state.t >= config.t_end - 0.5 * config.dt:
            break
    else:  # only a pseudo-time run ends here: check_t_end bounds a timed run's steps
        last = summary.history[-1].update_rel if summary.history else np.inf
        raise SteadyStateNotReached(
            f"no steady state within {config.max_steps} steps: relative "
            f"update {last:.3e} has not dropped below {config.steady_tol:.3e}"
        )
    summary.final = state
    summary.n_steps = len(summary.history)
    return summary
