"""Steady solves and implicit time stepping for the saddle system.

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

Steady solves and steps share one operator, :class:`_SaddleOperator`,
the only code that knows the harmonic multiplier: it computes it before
the factorization instead of factoring the dense border of the paper's
saddle matrix.  It holds only the matrix, built once: the harmonic
space, the resolved boundary (``assembly.ResolvedBoundary``), the
:func:`assemble_B0` blocks and ``M2/dt``, their CSR pattern with the
convection slots (``linalg.stack_blocks``) and its reduction to the free
unknowns (``linalg.eliminate``).  Each solve is given its loads, adds the
per-cell convection blocks into that pattern, evaluates the right-hand
side (:func:`assemble_rhs`) and refills the reduction.
:func:`run_transient` builds one operator per run,
``experiments.run_noflow`` one for all its exponents, and
:func:`solve_stokes` and a standalone :func:`step` one per call.  ``bc``
is a spec or its resolution (``assembly.resolve_boundary``), made once
per run.  The benchmark's ``natural_cache`` and ``harmonic`` keywords
and the names bound here only for its tracer stay until ROADMAP item 1.

The operator keeps one LU factor for its whole life.  Each solve refines
against it while every pass at least halves the relative residual; the
factor is kept if the residual ends at roundoff
(``linalg.ROUNDOFF_RESIDUAL``), and otherwise the current matrix is
factored (see :func:`vvpflow.linalg.solve`).  A solve that continues
from the state the operator last returned (``step`` passes its state)
starts its refinement from that solve's reduced solution, so the steps
of a run after the first make one triangular solve fewer; any other
state, such as ``run_noflow``'s rest state for each exponent, starts
from LU^-1 b.  A factor never outlives the call that built its
operator.  An operator built with ``dt``
factors in float32 and refines in float64; a fresh float32 factor that
does not refine to roundoff is replaced by a float64 one, which the
operator keeps from then on.  A steady operator factors in float64: the
steady Stokes system diverges from a float32 factor at n=12.
:func:`initialize_state` builds no factor: its edge mass-matrix system
is solved by conjugate gradients (:func:`vvpflow.linalg.solve_spd`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    NaturalBCCache,  # noqa: F401  (names the benchmark tracer patches)
    assemble_B0,
    assemble_convection,
    assemble_natural_bc,
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
    group_offsets,
    m_norm,
    solve_reduced,
    solve_spd,
    stack,
    stack_blocks,
)
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
    steps ``config.dt`` after t0 (within 1e-9 relative)."""
    steps = (config.t_end - t0) / config.dt
    if not steps > 0:
        raise ValueError(f"t_end={config.t_end:g} is not after the initial time {t0:g}")
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ValueError(
            f"t_end={config.t_end:g} is not a whole number of steps "
            f"dt={config.dt:g} after the initial time {t0:g}"
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
    mean the start was already at roundoff."""

    step: int
    t: float
    residual: float
    div_max: float
    kinetic_energy: float
    update_rel: float
    factor_reused: bool
    refine_passes: int


@dataclass
class TrajectorySummary:
    final: TransientState
    history: list = field(default_factory=list)
    steady: bool = False
    n_steps: int = 0


class _SaddleOperator:
    """The saddle matrix of one run, reduced once and solved per time level.

    Built from the :func:`assemble_B0` blocks, plus ``M2/dt`` and room
    for the convection blocks when ``dt`` is given:

    * the CSR pattern of the whole system (:func:`vvpflow.linalg.stack_blocks`),
      whose slots hold the tet-local face x edge and face x face
      convection entries, and ``conv_pos``, where each entry of the
      raveled local blocks of :func:`assemble_convection` lands in its data;
    * ``reduced``, the pattern's :class:`vvpflow.linalg.ReducedSystem`
      without the fixed unknowns (the essential edges and faces of
      ``boundary.essential`` and the pressure pins of ``harmonic``),
      which each solve refills with the data of :func:`assemble_rhs`.

    ``boundary``, the resolution of ``bc``, fixes the entities here and
    reaches every right-hand side, so every solve fixes the same ones, and
    ``harmonic`` is its harmonic space.  ``factor`` holds the LU that
    :func:`vvpflow.linalg.solve` reuses across the operator's solves, which
    are given their loads: ``experiments.run_noflow`` shares one.  It is
    float32 when ``dt`` is given (see the module docstring).  ``last``
    holds the state its last solve returned and that solve's reduced
    solution, the start of a solve that continues from that state.
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
        fixed = np.concatenate([*fixed, offsets["u3"] + self.harmonic.pins])
        self.reduced = eliminate(pattern, groups, fixed)
        self.m3h = complex_.m3 @ self.harmonic.basis
        self.factor = FactorHolder(dtype=np.float64 if dt is None else np.float32)
        self.last = (None, None)

    def solve(self, t, loads, convection=None, rhs_u2=None, previous=None):
        """Solve at time t; returns (state, residual).

        ``loads`` (``f2``, ``f3``, ``load_degree``) go to :func:`assemble_rhs`,
        ``convection`` (the local blocks of :func:`assemble_convection`) into
        the v-row and ``rhs_u2`` to the v-row's right side.  When
        ``previous``, the state the step continues from, is the state this
        operator's last solve returned, refinement starts from that solve's
        reduced solution; any other state starts from LU^-1 b.

        With dim H > 0 the paper's bordered system adds M3 H phi to the
        q-rows and the chi-row H^T M3 u3 = 0.  H^T M3 H = I and H^T M3 D2
        vanishes on the free faces, so the q-rows summed against H give
        phi = H^T (rhs_u3 - M3 D2 u2_fixed) before the solve, and M3 H phi
        moves to the right-hand side.  Pinning the pressure at each closed
        component's root (``harmonic.pins``) removes the null modes and
        the q-rows that the phi equations make redundant.  So that no
        root collects its component's divergence roundoff, the q-row
        defects, less their harmonic part (which phi absorbs in the
        bordered system), are then swept from the leaves of
        ``mesh.dual_forest`` to the roots through the tree-face fluxes,
        and the pressure is moved to the gauge H^T M3 p = 0.
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
        returned, x0 = self.last
        x0 = x0 if previous is returned else None  # both None before a first solve
        full, residual = solve_reduced(
            reduced, order=complex_.mesh.elimination_order, factor=self.factor, x0=x0
        )
        parts = reduced.split(full)
        u = parts["u2"].copy()
        if self.harmonic.dim:
            forest = complex_.mesh.dual_forest
            defect = complex_.mesh.tet_volumes * b[u3] - complex_.d2 @ u
            acc = np.where(h.any(axis=1), defect, 0.0)  # closed components only
            acc -= h @ (h.T @ (complex_.m3 @ acc))
            for cells in forest.levels[:0:-1]:
                np.add.at(acc, forest.parent[cells], acc[cells])
            tree = forest.parent >= 0
            u[forest.parent_face[tree]] += forest.parent_sign[tree] * acc[tree]
        p = parts["u3"] - h @ (h.T @ (complex_.m3 @ parts["u3"]))
        state = TransientState(
            t=t,
            omega=FormCoefficients(complex_.V1, parts["u1"].copy()),
            u=FormCoefficients(complex_.V2, u),
            p=FormCoefficients(complex_.V3, p),
        )
        self.last = (state, full[reduced.free])
        return state, residual


def _boundary(complex_, bc, space, resolution):
    """``bc`` resolved, for which a given ``resolution`` of its spec stands;
    a given harmonic ``space`` must hold the resolution's basis and pins."""
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
    relative linear residual and the max divergence density.
    """
    operator = _SaddleOperator(complex_, _boundary(complex_, bc, harmonic, natural_cache), nu)
    state, residual = operator.solve(t, {"f2": f2, "f3": f3, "load_degree": load_degree})
    diagnostics = {
        "residual": residual,
        "div_max": complex_.divergence_max(state.u.values),
    }
    return state, diagnostics


def initialize_state(complex_, bc, velocity_data, t=0.0):
    """Initial state from analytic velocity data.

    The velocity is the canonical face interpolant; the vorticity is its
    weak-curl partner, recovered from the same constitutive row the
    stepper uses (M1 w = D1^T M2 u plus the natural tangential boundary
    term) with any essential tangential-vorticity values imposed.  The
    reduced M1 is a principal submatrix of the SPD edge mass matrix, so
    conjugate gradients solve it (:func:`vvpflow.linalg.solve_spd`) and
    no LU factor is built.  Pressure starts at zero (it is recomputed by
    the first step anyway).
    """
    u = complex_.interpolate(velocity_data, 2, t=t)
    boundary = resolve_boundary(complex_, bc)
    natural = assemble_natural_bc(complex_, boundary, t=t)
    rhs = complex_.d1.T @ (complex_.m2 @ u.values) + natural["u1"]
    fixed = {g: boundary.essential_values(g, t) for g in boundary.essential if g == "u1"}
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

    ``operator`` is a saddle operator for this ``config``'s nu and dt, such
    as the one :func:`run_transient` builds per run; the step gives it its
    loads and ``state``, so a step from the state the operator last
    returned refines from that solution.  Without it the step builds a
    one-shot one.
    """
    t_new = state.t + config.dt
    if operator is None:
        operator = _SaddleOperator(complex_, bc, config.nu, config.dt)
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

    Either ``state`` or analytic ``velocity_data`` (at t0 = 0) must be
    given.  With ``config.t_end`` set the run covers [t0, t_end], which
    must be a whole number of steps long (within 1e-9 relative), or
    ValueError is raised before any work; otherwise it is a
    pseudo-time iteration that stops once the relative update per unit
    time falls below ``config.steady_tol`` and raises
    SteadyStateNotReached if max_steps pass first.  Observers are called
    as observer(state, diag) after every step.
    """
    if state is None and velocity_data is None:
        raise ValueError("either an initial state or velocity data is required")
    t0 = 0.0 if state is None else state.t
    to_steady = config.t_end is None
    if not to_steady:
        check_t_end(config, t0)
    bc = _boundary(complex_, bc, harmonic, natural_cache)
    if state is None:
        state = initialize_state(complex_, bc, velocity_data, t=0.0)
    operator = _SaddleOperator(complex_, bc, config.nu, config.dt)
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
    else:
        if to_steady:
            last = summary.history[-1].update_rel if summary.history else np.inf
            raise SteadyStateNotReached(
                f"no steady state within {config.max_steps} steps: relative "
                f"update {last:.3e} has not dropped below {config.steady_tol:.3e}"
            )
        raise SolverError(
            f"t_end={config.t_end} not reached within max_steps={config.max_steps}"
        )
    summary.final = state
    summary.n_steps = len(summary.history)
    return summary
