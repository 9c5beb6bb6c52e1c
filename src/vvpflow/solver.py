"""Steady solves and implicit time stepping for the saddle system.

One implicit step from state (omega^n, u^n) to time t^{n+1} solves the
steady block form of :func:`vvpflow.assembly.assemble_B0` augmented on
the v-row with the discrete time derivative and the linearized
convection blocks:

    (1/dt) M2 u2 + A3(u^n) u1 + A5(omega^n) u2   added to the left side,
    (1/dt) M2 u^n + <f(t^{n+1}), psi2>           on the right side.

Boundary data is evaluated at the new time level.  The convection
splitting weight theta interpolates between the two equivalent forms of
the rotational convection term; theta = 1/2 gives the symmetric
average used throughout the experiments.

Steady solves and steps share :func:`_solve_saddle`, the only code that
knows the harmonic multiplier: it computes it before the factorization
instead of factoring the dense border of the paper's saddle matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    NaturalBCCache,
    assemble_B0,
    assemble_convection,
    assemble_natural_bc,
    build_harmonic_space,
    essential_constraints,
)
from .linalg import BlockSystem, SolverError, assemble_blocks, m_norm, solve_reduced
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
        if self.nu <= 0:
            raise ValueError("viscosity must be positive")
        if self.dt <= 0:
            raise ValueError("time step must be positive")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("convection weight theta must lie in [0, 1]")
        if self.steady_tol <= 0:
            raise ValueError("steady tolerance must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.t_end is not None and self.t_end <= 0:
            raise ValueError("t_end must be positive when given")


@dataclass
class TransientState:
    """Discrete fields at one time level."""

    t: float
    omega: FormCoefficients
    u: FormCoefficients
    p: FormCoefficients


@dataclass(frozen=True)
class StepDiagnostics:
    step: int
    t: float
    residual: float
    div_max: float
    kinetic_energy: float
    update_rel: float


@dataclass
class TrajectorySummary:
    final: TransientState
    history: list = field(default_factory=list)
    steady: bool = False
    n_steps: int = 0


def _solve_saddle(complex_, system, harmonic, t):
    """Solve a system from assemble_B0 with the paper's harmonic border.

    That border adds M3 H phi to the q-rows and the chi-row H^T M3 u3 = 0.
    H^T M3 H = I and H^T M3 D2 vanishes on the free faces, so the q-rows
    summed against H give phi = H^T (rhs_u3 - M3 D2 u2_fixed) before the
    solve, and M3 H phi moves to the right-hand side.  Pinning the
    pressure at each closed component's root (``harmonic.pins``) removes
    the null modes and the q-rows that the phi equations make redundant.
    So that no root collects its component's divergence roundoff, the
    q-row defects, less their harmonic part (which phi absorbs in the
    bordered system), are then swept from the leaves of
    ``mesh.dual_forest`` to the roots through the tree-face fluxes, and
    the pressure is moved to the gauge H^T M3 p = 0.  Returns (state,
    residual).
    """
    h = harmonic.basis
    if harmonic.dim:
        idx, vals = system.constraints["u2"]
        rhs3 = system.rhs.get("u3", 0.0) - system.blocks[("u3", "u2")][:, idx] @ vals
        system.add_rhs("u3", -(complex_.m3 @ h) @ (h.T @ rhs3))
        system.constrain("u3", harmonic.pins, np.zeros(harmonic.dim))
    reduced = assemble_blocks(system)
    full, residual = solve_reduced(reduced, order=complex_.mesh.elimination_order)
    parts = reduced.split(full)
    u = parts["u2"].copy()
    if harmonic.dim:
        forest = complex_.mesh.dual_forest
        defect = complex_.mesh.tet_volumes * system.rhs["u3"] - complex_.d2 @ u
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
    return state, residual


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
    if harmonic is None:
        harmonic = build_harmonic_space(complex_, bc)
    system = assemble_B0(
        complex_,
        bc,
        nu=nu,
        f2=f2,
        f3=f3,
        t=t,
        load_degree=load_degree,
        natural_cache=natural_cache,
    )
    state, residual = _solve_saddle(complex_, system, harmonic, t)
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
    term) with any essential tangential-vorticity values imposed.
    Pressure starts at zero (it is recomputed by the first step anyway).
    """
    u = complex_.interpolate(velocity_data, 2, t=t)
    system = BlockSystem({"u1": complex_.mesh.n_edges})
    system.add_block("u1", "u1", complex_.m1)
    system.add_rhs("u1", complex_.d1.T @ (complex_.m2 @ u.values))
    natural = assemble_natural_bc(complex_, bc, t=t)
    if np.any(natural["u1"]):
        system.add_rhs("u1", natural["u1"])
    ess = essential_constraints(complex_, bc, t=t)
    if "u1" in ess:
        system.constrain("u1", *ess["u1"])
    full, _ = solve_reduced(assemble_blocks(system), order=complex_.mesh.elimination_order)
    return TransientState(
        t=t,
        omega=FormCoefficients(complex_.V1, full),
        u=u,
        p=FormCoefficients.zeros(complex_.V3),
    )


def step(complex_, bc, config, state, f=None, harmonic=None, natural_cache=None):
    """Advance one implicit step; returns (new_state, residual)."""
    t_new = state.t + config.dt
    if harmonic is None:
        harmonic = build_harmonic_space(complex_, bc)
    system = assemble_B0(
        complex_,
        bc,
        nu=config.nu,
        f2=f,
        t=t_new,
        load_degree=config.load_degree,
        natural_cache=natural_cache,
    )
    a3, a5 = assemble_convection(
        complex_, state.omega.values, state.u.values, config.theta
    )
    system.add_block("u2", "u1", a3)
    system.add_block("u2", "u2", a5 + complex_.m2 / config.dt)
    system.add_rhs("u2", (complex_.m2 @ state.u.values) / config.dt)
    return _solve_saddle(complex_, system, harmonic, t_new)


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

    Either ``state`` or analytic ``velocity_data`` must be given.  With
    ``config.t_end`` set the run covers [t0, t_end]; otherwise it is a
    pseudo-time iteration that stops once the relative update per unit
    time falls below ``config.steady_tol`` and raises
    SteadyStateNotReached if max_steps pass first.  Observers are called
    as observer(state, diag) after every step.
    """
    if state is None:
        if velocity_data is None:
            raise ValueError("either an initial state or velocity data is required")
        state = initialize_state(complex_, bc, velocity_data, t=0.0)
    if harmonic is None:
        harmonic = build_harmonic_space(complex_, bc)
    if natural_cache is None:
        natural_cache = NaturalBCCache(complex_, bc)

    t0 = state.t
    to_steady = config.t_end is None
    summary = TrajectorySummary(final=state)
    m2 = complex_.m2
    for n in range(1, config.max_steps + 1):
        new_state, residual = step(
            complex_,
            bc,
            config,
            state,
            f=f,
            harmonic=harmonic,
            natural_cache=natural_cache,
        )
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
