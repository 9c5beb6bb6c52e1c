"""Steady solves, state initialization, and the implicit time stepper."""
import dataclasses
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from vvpflow import assembly, linalg, solver, spaces
from vvpflow.assembly import (
    NATURAL,
    BoundaryConditionSpec,
    NaturalBCCache,
    RegionBC,
    ResolvedBoundary,
    build_harmonic_space,
    essential_constraints,
)
from vvpflow.fields import ethier_velocity, ethier_vorticity, stokes_mms_fields
from vvpflow.linalg import RESIDUAL_TOL, ROUNDOFF_RESIDUAL, SolverError, assemble_blocks
from vvpflow.solver import (
    SolverConfig,
    SteadyStateNotReached,
    initialize_state,
    run_transient,
    solve_stokes,
    step,
)
from vvpflow.mesh import build_box_mesh
from vvpflow.spaces import DeRhamComplex, interpolate

import oracles
from conftest import jittered_box, scattered_convection, side_by_side


def both_essential(fields):
    return BoundaryConditionSpec(
        RegionBC(
            vorticity_data=fields["vorticity"],
            velocity_data=fields["velocity"],
        )
    )


def ethier_bc(a, d):
    """Normal velocity strongly, tangential velocity data weakly."""
    return ethier_bc_of(ethier_velocity(a, d))


def ethier_two_ends(u):
    """Natural ends at x = 0 and x = 1 (zero pressure, the tangential part
    of the velocity ``u`` weakly) and natural-vorticity walls: one
    generator, the flow from end to end."""
    ends = RegionBC(
        name="ends",
        vorticity_mode=NATURAL,
        velocity_mode=NATURAL,
        vorticity_data=u,
        where=lambda c: np.abs(c[:, 0] - 0.5) > 0.5 - 1e-9,
    )
    walls = RegionBC(name="walls", vorticity_mode=NATURAL, vorticity_data=u, velocity_data=u)
    return BoundaryConditionSpec((ends, walls))


def ethier_bc_of(u):
    return BoundaryConditionSpec(
        RegionBC(
            vorticity_mode=NATURAL,
            vorticity_data=u,
            velocity_data=u,
        )
    )


def counted(field, calls):
    """``field``, recording the number of points of each call in ``calls``."""

    def wrapper(points, t=0.0):
        calls.append(len(points))
        return field(points, t)

    return wrapper


# ---------------------------------------------------------------------------
# configuration


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(nu=0.0), "viscosity"),
        (dict(nu=-1.0), "viscosity"),
        (dict(dt=0.0), "time step"),
        (dict(theta=1.5), "theta"),
        (dict(theta=-0.1), "theta"),
        (dict(steady_tol=0.0), "steady tolerance"),
        (dict(max_steps=0), "max_steps"),
        (dict(t_end=0.0), "t_end"),
        (dict(t_end=-2.0), "t_end"),
        (dict(load_degree=-1), "load_degree"),
        (dict(nu=np.nan), "viscosity"),
        (dict(nu=np.inf), "viscosity"),
        (dict(dt=np.nan), "time step"),
        (dict(dt=np.inf), "time step"),
        (dict(steady_tol=np.nan), "steady tolerance"),
        (dict(t_end=np.nan), "t_end"),
        (dict(t_end=np.inf), "t_end"),
        (dict(load_degree=2.5), "load_degree must be a whole number, got 2.5"),
        (dict(max_steps=2.5), "max_steps must be a whole number, got 2.5"),
    ],
)
def test_config_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SolverConfig(**kwargs)


def test_config_defaults():
    config = SolverConfig()
    assert config.t_end is None
    assert config.theta == 0.5


# ---------------------------------------------------------------------------
# steady Stokes


def test_stokes_solve_accuracy(complex_n2):
    fields = stokes_mms_fields(nu=1.0)
    state, info = solve_stokes(
        complex_n2,
        both_essential(fields),
        nu=1.0,
        f2=fields["forcing"],
        load_degree=8,
    )
    assert info["residual"] <= 1e-10
    assert info["div_max"] <= 1e-12 * (1.0 + complex_n2.norm(state.u))
    err_u = complex_n2.error_norms(state.u, fields["velocity"])
    err_w = complex_n2.error_norms(state.omega, fields["vorticity"])
    # Lowest order on a coarse mesh: just sanity scale, convergence is
    # measured in the experiment suite.
    assert 0 < err_u.rel_l2 < 0.8
    assert 0 < err_w.rel_l2 < 0.8
    assert state.p.values.shape == (complex_n2.mesh.n_tets,)


def test_stokes_rest_state(complex_n2):
    """Zero data and zero force produce the zero solution."""
    bc = BoundaryConditionSpec(RegionBC())
    state, info = solve_stokes(complex_n2, bc, nu=1.0)
    assert complex_n2.norm(state.u) <= 1e-10
    assert info["residual"] <= 1e-10


# ---------------------------------------------------------------------------
# initialization


def test_initialize_state_interpolates_velocity(complex_n2):
    u_exact = ethier_velocity(2.0, 1.0)
    bc = ethier_bc(2.0, 1.0)
    state = initialize_state(complex_n2, bc, u_exact, t=0.0)
    want = interpolate(u_exact, complex_n2.V2, t=0.0).values
    np.testing.assert_allclose(state.u.values, want, atol=1e-14)
    assert state.t == 0.0
    assert not state.p.values.any()


def test_initialize_state_vorticity_is_weak_curl(complex_n2):
    """The recovered vorticity satisfies the discrete constitutive law."""
    bc = ethier_bc(2.0, 1.0)
    state = initialize_state(complex_n2, bc, ethier_velocity(2.0, 1.0))
    from vvpflow.assembly import assemble_natural_bc

    nat = assemble_natural_bc(complex_n2, bc, t=0.0)
    residual = (
        complex_n2.m1 @ state.omega.values
        - complex_n2.d1.T @ (complex_n2.m2 @ state.u.values)
        - nat["u1"]
    )
    assert np.abs(residual).max() < 1e-12


def test_initialize_state_essential_vorticity_rows(complex_n2):
    bc = BoundaryConditionSpec(
        RegionBC(
            vorticity_data=ethier_vorticity(2.0, 1.0),
            velocity_data=ethier_velocity(2.0, 1.0),
        )
    )
    state = initialize_state(complex_n2, bc, ethier_velocity(2.0, 1.0))
    edges = complex_n2.mesh.boundary_edges
    want = interpolate(ethier_vorticity(2.0, 1.0), complex_n2.V1, t=0.0).values[edges]
    np.testing.assert_allclose(state.omega.values[edges], want, atol=1e-13)


def test_initialize_state_interpolates_only_vorticity_essential_values(complex_n2):
    """The velocity is interpolated on all 120 faces and evaluated once on
    the 48 boundary faces for the natural term, 16 points each; the
    essential face values, which the vorticity solve does not use, read
    those samples and evaluate it no more."""
    calls = []
    u = counted(ethier_velocity(2.0, 1.0), calls)
    initialize_state(complex_n2, ethier_bc_of(u), u)
    assert calls == [1920, 768]


@pytest.mark.parametrize("vorticity", ["natural", "essential"])
def test_initial_vorticity_by_cg_matches_lu(complex_j3, vorticity, monkeypatch):
    """initialize_state builds no LU factor, and its conjugate-gradient
    vorticity is the LU solution's to roundoff."""
    u = ethier_velocity(2.0, 1.0)
    bc = ethier_bc(2.0, 1.0)
    if vorticity == "essential":
        vorticity = ethier_vorticity(2.0, 1.0)
        bc = BoundaryConditionSpec(RegionBC(vorticity_data=vorticity, velocity_data=u))
    factors = []
    real = linalg.spla.splu
    monkeypatch.setattr(linalg.spla, "splu", lambda *a, **k: factors.append(a) or real(*a, **k))
    state = initialize_state(complex_j3, bc, u)
    assert factors == []
    want = oracles.initial_vorticity_lu(complex_j3, bc, state.u.values)
    assert len(factors) == 1
    assert np.linalg.norm(state.omega.values - want) <= 1e-14 * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# stepping


def test_transient_step_count_and_time(complex_n2):
    config = SolverConfig(nu=1.0, dt=0.01, t_end=0.05)
    seen = []
    summary = run_transient(
        complex_n2,
        ethier_bc(2.0, 1.0),
        config,
        velocity_data=ethier_velocity(2.0, 1.0),
        observers=(lambda st, diag: seen.append((st.t, diag.residual)),),
    )
    assert summary.n_steps == 5
    assert summary.final.t == pytest.approx(0.05, abs=1e-14)
    assert len(seen) == 5
    np.testing.assert_allclose(
        [t for t, _ in seen], 0.01 * np.arange(1, 6), atol=1e-14
    )
    assert max(r for _, r in seen) <= 1e-10
    assert not summary.steady


def test_single_step_matches_run(complex_n2):
    """One manual step agrees with a one-step trajectory."""
    bc = ethier_bc(2.0, 0.0)
    u_exact = ethier_velocity(2.0, 0.0)
    config = SolverConfig(nu=1.0, dt=0.01, t_end=0.01)
    state0 = initialize_state(complex_n2, bc, u_exact)
    manual, residual = step(complex_n2, bc, config, state0)
    summary = run_transient(
        complex_n2, bc, config, state=initialize_state(complex_n2, bc, u_exact)
    )
    np.testing.assert_allclose(manual.u.values, summary.final.u.values, atol=1e-14)
    np.testing.assert_allclose(manual.omega.values, summary.final.omega.values, atol=1e-14)
    assert residual <= 1e-10
    assert manual.t == pytest.approx(0.01)


def test_unforced_flow_dissipates_energy(complex_n2):
    """With no-slip walls and no force the kinetic energy decays."""
    fields = stokes_mms_fields(nu=1.0)
    bc = BoundaryConditionSpec(RegionBC())
    state = initialize_state(complex_n2, bc, fields["velocity"])
    config = SolverConfig(nu=1.0, dt=0.02, t_end=0.1)
    energies = [complex_n2.norm(state.u)]
    run_transient(
        complex_n2,
        bc,
        config,
        state=state,
        observers=(lambda st, diag: energies.append(complex_n2.norm(st.u)),),
    )
    energies = np.array(energies)
    assert energies[0] > 1e-3
    assert np.all(np.diff(energies) < 0)


def test_runs_tabulate_no_basis_values():
    """Loads, error norms and convection contract the per-tet Whitney
    coefficients; no run stores the basis at the quadrature points."""
    complex_ = DeRhamComplex(build_box_mesh(2, 2, 2))
    fields = stokes_mms_fields(nu=1.0)
    state, _ = solve_stokes(
        complex_, both_essential(fields), nu=1.0, f2=fields["forcing"], load_degree=8
    )
    complex_.error_norms(state.u, fields["velocity"])
    complex_.error_norms(state.omega, fields["vorticity"], fields["vorticity_curl"])
    u = ethier_velocity(2.0, 1.0)
    bc = ethier_bc_of(u)
    boundary = NaturalBCCache(complex_, bc)
    config = SolverConfig(nu=1.0, dt=0.01, t_end=0.02, theta=0.5)
    summary = run_transient(complex_, bc, config, velocity_data=u, natural_cache=boundary)
    assert summary.n_steps == 2
    assert "convection_tensor" in vars(complex_.tabulation())
    tabs = list(complex_._tabs.values())
    assert len(tabs) == 3  # the volume, error and degree-8 load rules
    for tab in tabs:  # no (cells, functions, points, 3) array of basis values
        arrays = [a for a in vars(tab).values() if isinstance(a, np.ndarray)]
        assert not [a.shape for a in arrays if a.ndim == 4 and a.shape[-2:] == (len(tab.rule), 3)]
    # Nor does the run's resolved boundary: no table key names a basis,
    # and no array has the (faces, functions, points, 3) shape of basis values.
    keys, arrays = [], []

    def walk(value):
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, dict):
            keys.extend(value)
            for item in value.values():
                walk(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    walk(list(vars(boundary).values()))
    assert "essential" in vars(boundary) and "points" in keys  # the face tables are built
    assert not [key for key in keys if str(key).startswith("psi")]
    points = len(boundary.rule)
    assert not [a.shape for a in arrays if a.ndim == 4 and a.shape[-2:] == (points, 3)]


def test_pseudo_time_reaches_steady_state(complex_n2):
    config = SolverConfig(nu=1.0, dt=0.1, steady_tol=1e-10, max_steps=100)
    summary = run_transient(
        complex_n2,
        ethier_bc(2.0, 0.0),
        config,
        velocity_data=lambda p, t=0.0: np.zeros((len(p), 3)),
    )
    assert summary.steady
    assert summary.n_steps < 100
    # The terminal update rate satisfies the declared tolerance.
    assert summary.history[-1].update_rel <= 1e-10
    err = complex_n2.error_norms(
        summary.final.u, ethier_velocity(2.0, 0.0), t=0.0
    )
    assert err.rel_l2 < 0.5


def test_steady_failure_raises(complex_n2):
    config = SolverConfig(nu=1.0, dt=0.1, steady_tol=1e-10, max_steps=2)
    with pytest.raises(SteadyStateNotReached, match="2 steps"):
        run_transient(
            complex_n2,
            ethier_bc(2.0, 0.0),
            config,
            velocity_data=lambda p, t=0.0: np.zeros((len(p), 3)),
        )


def test_run_requires_state_or_data(complex_n2):
    config = SolverConfig(t_end=0.01)
    bc = BoundaryConditionSpec(RegionBC())
    with pytest.raises(ValueError, match="initial state or velocity data"):
        run_transient(complex_n2, bc, config)
    # Velocity data next to a state would be ignored: refused before any step.
    rest = lambda p, t=0.0: np.zeros((len(p), 3))  # noqa: E731
    state = initialize_state(complex_n2, bc, rest)
    with pytest.raises(ValueError, match="not both"):
        run_transient(complex_n2, bc, config, state=state, velocity_data=rest)


def test_t_end_beyond_max_steps_raises(complex_n2):
    """A t_end more than max_steps steps away is refused before any step."""
    config = SolverConfig(dt=0.01, t_end=1.0, max_steps=3)
    calls = []
    with pytest.raises(ValueError, match="t_end=1 is 100 steps .* more than max_steps=3"):
        run_transient(
            complex_n2,
            BoundaryConditionSpec(RegionBC()),
            config,
            velocity_data=lambda p, t=0.0: np.zeros((len(p), 3)),
            observers=(lambda state, diag: calls.append(diag.step),),
        )
    assert calls == []


@pytest.mark.parametrize(
    "t0,dt,t_end,match",
    [
        (1.0, 0.1, 0.5, "not after the initial time"),
        (1.0, 0.1, 1.0, "not after the initial time"),
        (0.0, 0.1, 0.25, "whole number of steps"),
        (0.0, 0.1, 0.26, "whole number of steps"),
        (0.0, 0.1, 0.01, "whole number of steps"),
        (1.0, 0.1, 1.25, "whole number of steps"),
    ],
)
def test_run_rejects_an_end_time_off_the_step_grid(complex_n2, monkeypatch, t0, dt, t_end, match):
    """t_end must lie a whole number of steps after the initial time; the
    check comes before any step."""
    bc = BoundaryConditionSpec(RegionBC())
    state = initialize_state(complex_n2, bc, lambda p, t=0.0: 0 * p, t=t0)
    calls = []
    monkeypatch.setattr(solver, "step", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match=match):
        run_transient(complex_n2, bc, SolverConfig(dt=dt, t_end=t_end), state=state)
    assert calls == []


def test_times_free_of_accumulated_drift(complex_n2):
    """Step times are t0 + n dt to machine precision, not a running sum."""
    config = SolverConfig(dt=0.1, t_end=3.0)
    times = []
    run_transient(
        complex_n2,
        BoundaryConditionSpec(RegionBC()),
        config,
        velocity_data=lambda p, t=0.0: np.zeros((len(p), 3)),
        observers=(lambda st, diag: times.append(st.t),),
    )
    assert len(times) == 30
    np.testing.assert_array_equal(times, 0.1 * np.arange(1, 31))


# ---------------------------------------------------------------------------
# the harmonic multiplier is eliminated before the factorization


@pytest.fixture(scope="module")
def complex_j3():
    return DeRhamComplex(jittered_box(3, seed=5))


def _bordered_solution(system, harmonic, m3):
    """Direct solve of the paper's system with phi and the chi-row kept."""
    reduced = assemble_blocks(*oracles.bordered_system(*system, harmonic.basis, m3))
    x, _ = linalg.solve(reduced.matrix, reduced.rhs)
    return reduced, reduced.split(reduced.expand(x))


def _solve_watching_matrices(monkeypatch, run):
    """Run a solve and return its result plus every matrix handed to solve."""
    seen = []
    real = linalg.solve

    def watch(matrix, rhs, **kwargs):
        seen.append(sp.csr_matrix(matrix))
        return real(matrix, rhs, **kwargs)

    monkeypatch.setattr(linalg, "solve", watch)
    out = run()
    monkeypatch.undo()
    return out, seen


def _stream_unknowns(complex_, bc):
    """The free edges, the cotree and the generators: the size of the
    stream system."""
    boundary = assembly.resolve_boundary(complex_, bc)
    essential = boundary.essential
    fixed = len(essential["u1"][1]) if "u1" in essential else 0
    return complex_.mesh.n_edges - fixed + len(boundary.cotree) + len(boundary.generators)


def _check_matches_bordered(complex_, bc, system, state, residual, seen, saddle):
    """The eliminated solve reproduces the bordered one; returns phi.  The
    saddle reference factors the bordered system without phi and the
    pins, the stream operator the smaller system of :func:`_stream_unknowns`."""
    harmonic = build_harmonic_space(complex_, bc)
    assert harmonic.dim == 1
    reduced, want = _bordered_solution(system, harmonic, complex_.m3)
    for got, key in ((state.omega, "u1"), (state.u, "u2"), (state.p, "u3")):
        ref = want[key]
        assert np.linalg.norm(got.values - ref) <= 1e-12 * np.linalg.norm(ref)
    h = harmonic.basis
    assert np.abs(h.T @ (complex_.m3 @ state.p.values)).max() <= 1e-14
    # Every q-row and the chi-row of the bordered system hold.
    _, blocks, rhs, _ = system
    rhs3 = rhs.get("u3", 0.0) - blocks[("u3", "u2")] @ state.u.values
    phi = h.T @ rhs3
    full = np.concatenate([state.omega.values, state.u.values, state.p.values, phi])
    free = full[reduced.free]
    assert oracles.relative_residual(reduced.matrix, reduced.rhs, free) <= RESIDUAL_TOL
    assert residual <= RESIDUAL_TOL
    # No dense row or column reaches the factorization.
    (matrix,) = seen
    want = reduced.matrix.shape[0] - 2 if saddle else _stream_unknowns(complex_, bc)
    assert matrix.shape[0] == want
    assert np.diff(matrix.indptr).max() <= 64
    assert np.diff(matrix.tocsc().indptr).max() <= 64
    return phi


def test_step_eliminates_harmonic_multiplier(complex_j3, monkeypatch):
    """The step of the closed box, by the stream operator it builds and by
    the saddle reference, reproduces the bordered system."""
    bc = ethier_bc(2.0, 1.0)
    config = SolverConfig(nu=1.0, dt=0.01, t_end=0.01)
    state0 = initialize_state(complex_j3, bc, ethier_velocity(2.0, 1.0))
    for saddle in (False, True):
        operator = oracles.SaddleOperator(complex_j3, bc, config.nu, config.dt) if saddle else None
        (state, residual), seen = _solve_watching_matrices(
            monkeypatch, lambda: step(complex_j3, bc, config, state0, operator=operator)
        )
        system = oracles.saddle_system(complex_j3, bc, nu=config.nu, t=state.t)
        _, blocks, rhs, _ = system
        a3, a5 = scattered_convection(
            complex_j3, state0.omega.values, state0.u.values, config.theta
        )
        m2 = complex_j3.m2
        blocks[("u2", "u1")] = blocks[("u2", "u1")] + a3
        blocks[("u2", "u2")] = a5 + m2 / config.dt
        rhs["u2"] = rhs.get("u2", 0.0) + (m2 @ state0.u.values) / config.dt
        _check_matches_bordered(complex_j3, bc, system, state, residual, seen, saddle)


def _steady_by_both_operators(monkeypatch, complex_, bc, **kwargs):
    """``solve_stokes`` (the stream operator on a closed box) and the saddle
    reference on the same data: [(saddle, (state, residual), seen)]."""
    loads = {k: kwargs.get(k) for k in ("f2", "f3", "load_degree")}
    runs = []
    for saddle in (False, True):
        if saddle:
            operator = oracles.SaddleOperator(complex_, bc, kwargs["nu"])
            run = lambda: operator.solve(0.0, loads)  # noqa: E731
        else:
            run = lambda: solve_stokes(complex_, bc, **kwargs)  # noqa: E731
        (state, info), seen = _solve_watching_matrices(monkeypatch, run)
        residual = info if saddle else info["residual"]
        runs.append((saddle, (state, residual), seen))
    return runs


def test_stokes_eliminates_harmonic_multiplier(complex_j3, monkeypatch):
    fields = stokes_mms_fields(nu=1.0)
    bc = both_essential(fields)
    kwargs = dict(nu=1.0, f2=fields["forcing"], load_degree=8)
    for saddle, (state, residual), seen in _steady_by_both_operators(
        monkeypatch, complex_j3, bc, **kwargs
    ):
        system = oracles.saddle_system(complex_j3, bc, **kwargs)
        phi = _check_matches_bordered(complex_j3, bc, system, state, residual, seen, saddle)
        assert np.abs(phi).max() <= 1e-14


def test_stokes_with_net_source_sets_multiplier(complex_j3, monkeypatch):
    """A 3-form source with nonzero integral makes phi nonzero."""
    fields = stokes_mms_fields(nu=1.0)
    bc = both_essential(fields)

    def source(p, t=0.0):
        return 1.0 + p[:, 0]

    kwargs = dict(nu=1.0, f2=fields["forcing"], f3=source, load_degree=8)
    for saddle, (state, residual), seen in _steady_by_both_operators(
        monkeypatch, complex_j3, bc, **kwargs
    ):
        system = oracles.saddle_system(complex_j3, bc, **kwargs)
        phi = _check_matches_bordered(complex_j3, bc, system, state, residual, seen, saddle)
        assert np.abs(phi).max() > 0.1


def test_step_on_small_box_keeps_divergence_gate():
    """A box of side 0.1: each cell is 1000x smaller than in the unit box,
    so a pinned cell holding its neighbours' roundoff would fail the gate."""
    complex_ = DeRhamComplex(build_box_mesh(4, 4, 4, hi=(0.1, 0.1, 0.1)))
    bc = ethier_bc(2.0, 1.0)
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=1e-3)
    state0 = initialize_state(complex_, bc, ethier_velocity(2.0, 1.0))
    state, residual = step(complex_, bc, config, state0)
    assert residual <= RESIDUAL_TOL
    unorm = complex_.norm(state.u)
    assert complex_.divergence_max(state.u.values) <= 1e-12 * (1.0 + unorm)


def test_step_keeps_structure_at_n6():
    """One step on a jittered n=6 box: divergence-free and residual-checked."""
    complex_ = DeRhamComplex(jittered_box(6, seed=2))
    bc = ethier_bc(2.0, 1.0)
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=1e-3)
    state0 = initialize_state(complex_, bc, ethier_velocity(2.0, 1.0))
    state, residual = step(complex_, bc, config, state0)
    assert residual <= RESIDUAL_TOL
    unorm = complex_.norm(state.u)
    assert complex_.divergence_max(state.u.values) <= 1e-12 * (1.0 + unorm)


def _at_x1(c):
    return c[:, 0] > 1.0 - 1e-12


def _outlet_bc(fields, where=_at_x1):
    """Essential walls, natural outlet where ``where`` (at x = 1: the
    stokes-outlet benchmark)."""
    return BoundaryConditionSpec(
        (
            RegionBC(
                name="outlet",
                vorticity_mode=NATURAL,
                vorticity_data=fields["velocity"],
                velocity_mode=NATURAL,
                velocity_data=fields["pressure"],
                where=where,
            ),
            RegionBC(
                name="walls",
                vorticity_data=fields["vorticity"],
                velocity_data=fields["velocity"],
            ),
        )
    )


def _ns_step(complex_, saddle=False):
    """One Ethier step: by the stream operator it builds, or by the saddle reference."""
    bc = ethier_bc(2.0, 1.0)
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=1e-3)
    state0 = initialize_state(complex_, bc, ethier_velocity(2.0, 1.0))
    operator = oracles.SaddleOperator(complex_, bc, config.nu, config.dt) if saddle else None
    state, residual = step(complex_, bc, config, state0, operator=operator)
    return state, residual


def _outlet_solve(complex_):
    fields = stokes_mms_fields(nu=1.0)
    bc = _outlet_bc(fields)
    assert build_harmonic_space(complex_, bc).dim == 0
    state, info = solve_stokes(complex_, bc, f2=fields["forcing"], load_degree=8)
    return state, info["residual"]


@pytest.mark.parametrize(
    "mesh, run",
    [(lambda: jittered_box(6, seed=4), _ns_step), (lambda: build_box_mesh(6, 6, 6), _outlet_solve)],
    ids=["ns-step", "stokes-outlet"],
)
def test_nested_dissection_factor_has_less_fill(mesh, run, monkeypatch):
    """The paired nested-dissection factor beats SuperLU's default (COLAMD,
    partial pivoting) on the same matrix, and the gates still hold."""
    real = linalg.spla.splu
    fills = []

    def spy(a, **kwargs):
        lu = real(a, **kwargs)
        default = real(a)
        fills.append((lu.L.nnz + lu.U.nnz, default.L.nnz + default.U.nnz))
        return lu

    complex_ = DeRhamComplex(mesh())
    monkeypatch.setattr(linalg.spla, "splu", spy)
    state, residual = run(complex_)
    assert residual <= RESIDUAL_TOL
    unorm = complex_.norm(state.u)
    assert complex_.divergence_max(state.u.values) <= 1e-12 * (1.0 + unorm)
    ours, default = fills[-1]
    assert ours <= 0.7 * default


# L+U of one Ethier step's factor on the Kuhn box when every bisection cuts
# at the exact median of the centroids, which on odd n falls inside the
# middle layer of cubes.
MEDIAN_CUT_FILL = {5: 761_354, 7: 3_653_759}
# The same when the bisection stops at leaves of 16 cells, not 3.
LEAF16_FILL = {4: 211_753, 5: 554_194, 7: 1_921_857}


def _step_fill(n, monkeypatch):
    """L+U of one Ethier step's factor of the saddle reference on the
    n x n x n Kuhn box, the system whose orders the fills above were
    measured on."""
    real = linalg.spla.splu
    fills = []

    def spy(a, **kwargs):
        lu = real(a, **kwargs)
        fills.append(lu.L.nnz + lu.U.nnz)
        return lu

    complex_ = DeRhamComplex(build_box_mesh(n, n, n))
    monkeypatch.setattr(linalg.spla, "splu", spy)
    _ns_step(complex_, saddle=True)
    return fills[-1]


@pytest.mark.parametrize("n", sorted(MEDIAN_CUT_FILL))
def test_cheapest_cut_shrinks_the_factor_on_odd_boxes(n, monkeypatch):
    """The cut with the fewest cut edges and faces in the balance window
    lands on a vertex plane, beside the middle layer, not inside it."""
    assert _step_fill(n, monkeypatch) <= 0.8 * MEDIAN_CUT_FILL[n]


@pytest.mark.parametrize("n", sorted(LEAF16_FILL))
def test_three_cell_leaves_shrink_the_factor(n, monkeypatch):
    """Bisecting down to 3 cells dissects the edges and faces that a
    16-cell leaf listed whole."""
    assert _step_fill(n, monkeypatch) <= 0.9 * LEAF16_FILL[n]


def test_outlet_claiming_no_face_keeps_harmonic_form():
    """dim H comes from the faces the regions claim, not from their modes.

    The natural outlet's predicate claims no face of the unit box, so the
    normal velocity is essential on the whole boundary: the mean-pressure
    mode exists and needs the multiplier, or the LU meets a singular pivot.
    """
    complex_ = DeRhamComplex(build_box_mesh(3, 3, 3))
    fields = stokes_mms_fields(nu=1.0)

    def regions(velocity):
        outlet = RegionBC(
            name="outlet",
            vorticity_mode=NATURAL,
            velocity_mode=NATURAL,
            where=lambda c: c[:, 0] > 2.0,
        )
        walls = RegionBC(
            name="walls", vorticity_data=fields["vorticity"], velocity_data=velocity
        )
        return BoundaryConditionSpec((outlet, walls))

    bc = regions(fields["velocity"])
    assert build_harmonic_space(complex_, bc).dim == 1
    assert oracles.harmonic_rank(complex_, bc) == 1

    # The walls' normal data is shifted to zero net flux.
    def expanding(points, t=0.0):
        return points.copy()

    idx, vals = essential_constraints(complex_, regions(expanding))["u2"]
    mesh = complex_.mesh
    np.testing.assert_array_equal(idx, mesh.boundary_faces)
    signs = mesh.boundary_face_signs.astype(float)
    raw = interpolate(expanding, complex_.V2).values[idx]
    assert signs @ raw == pytest.approx(3.0, rel=1e-12)
    assert abs(signs @ vals) < 1e-13

    state, info = solve_stokes(
        complex_, bc, nu=1.0, f2=fields["forcing"], load_degree=8
    )
    assert info["residual"] <= RESIDUAL_TOL
    assert info["div_max"] <= 1e-12 * (1.0 + complex_.norm(state.u))


# ---------------------------------------------------------------------------
# one operator and one factor per run


def _count_factors(monkeypatch):
    """The dtype of every matrix SuperLU factors, in call order."""
    calls = []
    real = linalg.spla.splu

    def spy(a, **kwargs):
        calls.append(a.dtype)
        return real(a, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", spy)
    return calls


def _check_gates(complex_, state, diag):
    assert diag.residual <= RESIDUAL_TOL
    unorm = complex_.norm(state.u)
    assert diag.div_max <= 1e-12 * (1.0 + unorm)


def test_run_reuses_one_factor_and_matches_fresh_steps(complex_j3, monkeypatch):
    """Ten steps of a run factor once and agree with ten one-shot steps."""
    bc = ethier_bc(2.0, 1.0)
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=1e-2)
    state0 = initialize_state(complex_j3, bc, ethier_velocity(2.0, 1.0))
    fresh, state = [], state0
    for n in range(1, 11):
        state, _ = step(complex_j3, bc, config, state)
        state.t = state0.t + n * config.dt
        fresh.append(state)

    calls = _count_factors(monkeypatch)
    seen = []
    summary = run_transient(
        complex_j3,
        bc,
        config,
        state=state0,
        observers=(lambda st, diag: seen.append((st, diag)),),
    )
    monkeypatch.undo()
    assert summary.n_steps == 10
    assert len(calls) == 1
    for (got, diag), want in zip(seen, fresh):
        assert diag.factor_reused == (diag.step > 1)
        assert diag.refine_passes >= diag.factor_reused
        _check_gates(complex_j3, got, diag)
        for a, b in ((got.u, want.u), (got.omega, want.omega), (got.p, want.p)):
            assert np.linalg.norm(a.values - b.values) <= 1e-12 * np.linalg.norm(b.values)


def test_steps_and_steady_solves_factor_in_float32(complex_j3, monkeypatch):
    """A run's operator holds a float32 factor, refined in float64 to the
    gates, and so does a steady solve, which factors once: with no
    generator (the closed box) and with one (two natural ends)."""
    bc = ethier_bc(2.0, 1.0)
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=5e-3)
    state0 = initialize_state(complex_j3, bc, ethier_velocity(2.0, 1.0))
    calls = _count_factors(monkeypatch)
    seen = []
    run_transient(
        complex_j3,
        bc,
        config,
        state=state0,
        observers=(lambda st, diag: seen.append((st, diag)),),
    )
    assert calls == [np.float32]
    assert len(seen) == 5
    for state, diag in seen:
        _check_gates(complex_j3, state, diag)

    fields = stokes_mms_fields(nu=1.0)
    for bc in (both_essential(fields), _two_ends(fields)):
        calls.clear()
        state, info = solve_stokes(complex_j3, bc, f2=fields["forcing"])
        assert calls == [np.float32]
        assert info["factor_dtype"] == np.float32
        assert info["residual"] <= RESIDUAL_TOL
        assert info["div_max"] <= 1e-12 * (1.0 + complex_j3.norm(state.u))


def test_a_steady_outlet_solve_keeps_one_float32_factor_at_n10(monkeypatch):
    """On the jittered n = 10 outlet box a steady solve makes one float32
    factor and refines it to the componentwise roundoff of a float64 one:
    the gates hold, and the state matches a float64 factor's to 1e-12."""
    complex_ = DeRhamComplex(jittered_box(10, seed=3))
    fields = stokes_mms_fields(nu=1.0)
    bc, loads = _outlet_bc(fields), {"f2": fields["forcing"], "load_degree": 8}
    calls = _count_factors(monkeypatch)
    state, info = solve_stokes(complex_, bc, **loads)
    assert calls == [np.float32]
    assert info["factor_dtype"] == np.float32
    assert info["residual"] <= RESIDUAL_TOL
    assert info["div_max"] <= 1e-13 * (1.0 + complex_.norm(state.u))
    operator = solver.make_operator(complex_, bc, 1.0)
    operator.factor = linalg.FactorHolder(dtype=np.float64)
    want, _ = operator.solve(0.0, loads)
    assert calls == [np.float32, np.float64]
    for got, ref in ((state.omega, want.omega), (state.u, want.u), (state.p, want.p)):
        assert np.linalg.norm(got.values - ref.values) <= 1e-12 * np.linalg.norm(ref.values)


@pytest.mark.parametrize("kind", ["steady", "step"])
def test_a_solve_leaves_the_operators_matrix_as_it_was(complex_j3, kind, monkeypatch):
    """``linalg.solve`` reads the reduced matrix, whose CSR indices are not
    sorted, and writes none of its three arrays: sorting them in place
    (as ``abs()`` of the matrix does) would break the operator's next
    solve.  The steady solve evaluates the componentwise backward error."""
    fields = stokes_mms_fields(nu=1.0)
    bc, dt = _outlet_bc(fields), (None if kind == "steady" else 1e-3)
    operator = solver.make_operator(complex_j3, bc, 1.0, dt)
    matrix = operator.reduced.matrix
    assert not matrix.has_sorted_indices
    errors = []
    real_solve, real_error = linalg.solve, linalg._backward_error

    def watched(a, rhs, **kwargs):
        before = [v.copy() for v in (a.data, a.indices, a.indptr)]
        out = real_solve(a, rhs, **kwargs)
        after = (a.data, a.indices, a.indptr)
        assert all(u.tobytes() == v.tobytes() for u, v in zip(before, after))
        return out

    def counted_error(*args):
        errors.append(real_error(*args))
        return errors[-1]

    monkeypatch.setattr(linalg, "solve", watched)
    monkeypatch.setattr(linalg, "_backward_error", counted_error)
    state = initialize_state(complex_j3, bc, fields["velocity"])
    config = SolverConfig(nu=1.0, dt=1e-3)
    for _ in range(3):
        if dt is None:
            _, residual = operator.solve(0.0, {"f2": fields["forcing"], "load_degree": None})
        else:
            state, residual = step(complex_j3, bc, config, state, operator=operator)
        assert residual <= RESIDUAL_TOL
    if kind == "steady":
        assert errors


def test_psi_block_from_the_face_pairs_is_the_congruence_of_the_vorticity_block(complex_j3):
    """D1^T A5 D1 of every tet, taken from A5's six face pairs by one
    constant (6, 36) product, is within 1e-15 of the two matrix products."""
    rng = np.random.default_rng(35)
    _, local5 = solver.assemble_convection(
        complex_j3, rng.normal(size=complex_j3.V1.ndof), rng.normal(size=complex_j3.V2.ndof)
    )
    pairs = local5.reshape(-1, 16)[:, solver._PAIR_INDEX]
    got = (pairs @ solver._PAIR_D1).reshape(-1, 6, 6)
    want = solver._TET_D1.T @ local5 @ solver._TET_D1
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("generators", [0, 1])
def test_convection_slots_gathered_by_index_add_up_as_by_mask(complex_j3, generators, monkeypatch):
    """The pattern data a step refills are, bit for bit, the static data plus
    the kept entries of the raveled local blocks picked by a boolean mask
    and summed into their slots; the static data stay as they were."""
    velocity = ethier_velocity(2.0, 1.0)
    bc = ethier_two_ends(velocity) if generators else ethier_bc(2.0, 1.0)
    config = SolverConfig(nu=1.0, dt=1e-3)
    operator = solver.make_operator(complex_j3, bc, config.nu, config.dt)
    assert len(operator.boundary.generators) == generators
    static = operator.static.copy()
    refilled = []
    real_refill = operator.reduced.refill

    def spied(data, *args):
        refilled.append(data.copy())
        return real_refill(data, *args)

    monkeypatch.setattr(operator.reduced, "refill", spied)
    state = initialize_state(complex_j3, bc, velocity)
    local3, local5 = solver.assemble_convection(
        complex_j3, state.omega.values, state.u.values, config.theta
    )
    step(complex_j3, bc, config, state, operator=operator)
    pairs = local5.reshape(-1, 16)[:, solver._PAIR_INDEX]
    local = [solver._TET_D1.T @ local3, pairs @ solver._PAIR_D1]
    if generators:
        w, wt = operator.h_loc, np.swapaxes(operator.h_loc, 1, 2)
        w5 = wt @ local5
        local += [wt @ local3, w5 @ solver._TET_D1, solver._TET_D1.T @ local5 @ w, w5 @ w]
    local = np.concatenate(local, None)
    on = np.zeros(local.size, bool)
    on[operator.conv_take] = True
    want = static + np.bincount(operator.conv_pos, local[on], minlength=len(static))
    assert len(refilled) == 1 and refilled[0].tobytes() == want.tobytes()
    assert operator.static.tobytes() == static.tobytes()


def test_steady_diagnostics_report_the_factor_and_its_passes(complex_j3, monkeypatch):
    """``solve_stokes`` reports the precision of the factor that solved and
    its refinement passes, one fewer than its triangular solves: float32,
    which needs passes, with and without a generator."""
    fields = stokes_mms_fields(nu=1.0)
    for kind in STEADY_SPECS:
        calls = _count_trisolves(monkeypatch)
        _, info = solve_stokes(complex_j3, STEADY_SPECS[kind](fields), f2=fields["forcing"])
        monkeypatch.undo()
        assert info["factor_dtype"] == np.float32
        assert info["refine_passes"] == len(calls) - 1
        assert info["refine_passes"] >= 1


def test_run_falls_back_to_one_float64_factor(complex_j3, monkeypatch):
    """A float32 factor that does not refine to roundoff is replaced by a
    float64 factor of the same matrix, which the later steps reuse.  The
    first step reports the passes of both factors and no reuse."""
    real = linalg._refine
    passes = []

    def stalled_in_float32(lu, a, rhs, dtype, x0):
        x, res, n = real(lu, a, rhs, dtype, x0)
        passes.append(n)
        return x, (np.inf if dtype == np.float32 else res), n

    monkeypatch.setattr(linalg, "_refine", stalled_in_float32)
    bc = ethier_bc(2.0, 1.0)
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=5e-3)
    state0 = initialize_state(complex_j3, bc, ethier_velocity(2.0, 1.0))
    calls = _count_factors(monkeypatch)
    seen, marks = [], []

    def observe(state, diag):
        seen.append((state, diag))
        marks.append(len(passes))

    passes.clear()
    run_transient(complex_j3, bc, config, state=state0, observers=(observe,))
    assert calls == [np.float32, np.float64]
    assert [diag.factor_reused for _, diag in seen] == [False, True, True, True, True]
    per_step = [sum(passes[a:b]) for a, b in zip([0, *marks], marks)]
    assert [diag.refine_passes for _, diag in seen] == per_step
    assert marks[0] == 2 and passes[0] >= 1  # the float32 factor's passes count too
    for state, diag in seen:
        _check_gates(complex_j3, state, diag)


def test_pseudo_time_run_refactors_when_refinement_stalls(complex_n2, monkeypatch):
    """Large pseudo-time steps from rest move the convection blocks too far
    for the held factor: the run refactors and every step keeps the gates."""
    config = SolverConfig(nu=1.0, dt=0.1, steady_tol=1e-10, max_steps=100)
    state0 = initialize_state(
        complex_n2, ethier_bc(2.0, 0.0), lambda p, t=0.0: np.zeros((len(p), 3))
    )
    calls = _count_factors(monkeypatch)
    seen = []
    summary = run_transient(
        complex_n2,
        ethier_bc(2.0, 0.0),
        config,
        state=state0,
        observers=(lambda st, diag: seen.append((st, diag)),),
    )
    monkeypatch.undo()
    assert summary.steady
    assert 1 < len(calls) < summary.n_steps
    assert any(not diag.factor_reused for _, diag in seen[1:])
    for state, diag in seen:
        _check_gates(complex_n2, state, diag)


def test_reused_factor_keeps_divergence_gate_with_natural_outlet(monkeypatch):
    """With a natural outlet dim H = 0, so no sweep repairs the divergence:
    the refined solve alone must keep it at roundoff."""
    complex_ = DeRhamComplex(jittered_box(4, seed=6))
    fields = stokes_mms_fields(nu=1.0)
    bc = _outlet_bc(fields)
    assert build_harmonic_space(complex_, bc).dim == 0
    config = SolverConfig(nu=1.0, dt=1e-2, t_end=0.1)
    state0 = initialize_state(complex_, bc, fields["velocity"])
    calls = _count_factors(monkeypatch)
    seen = []
    run_transient(
        complex_,
        bc,
        config,
        state=state0,
        f=fields["forcing"],
        observers=(lambda st, diag: seen.append((st, diag)),),
    )
    monkeypatch.undo()
    assert len(seen) == 10
    assert len(calls) < len(seen)
    assert sum(diag.factor_reused for _, diag in seen) >= len(seen) // 2
    for state, diag in seen:
        _check_gates(complex_, state, diag)


@pytest.mark.parametrize("outlet", [False, True], ids=["closed", "outlet"])
def test_stream_run_keeps_its_float32_factor_near_steady_state(monkeypatch, outlet):
    """The stream operator solves for the change from the previous state.
    As a run nears the steady state that change shrinks faster than the
    terms that cancel in it, and its relative residual floors above
    ROUNDOFF_RESIDUAL (2.6e-15 by the tenth step here).  Judged against the
    whole right-hand side, as the saddle reference's is, the run keeps its
    first float32 factor; judged against the change alone, it fell back to
    float64 and refactored every step from the third (outlet) or the
    seventh (closed box) on."""
    complex_ = DeRhamComplex(jittered_box(4, seed=6))
    fields = stokes_mms_fields(nu=1.0)
    bc = _outlet_bc(fields) if outlet else both_essential(fields)
    config = SolverConfig(nu=1.0, dt=1e-2, t_end=0.1)
    calls = _count_factors(monkeypatch)
    seen = []
    run_transient(
        complex_, bc, config, velocity_data=fields["velocity"], f=fields["forcing"],
        observers=(lambda st, diag: seen.append((st, diag)),),
    )
    monkeypatch.undo()
    assert calls == [np.float32]
    assert max(diag.residual for _, diag in seen) > ROUNDOFF_RESIDUAL
    for state, diag in seen:
        _check_gates(complex_, state, diag)


@pytest.mark.parametrize("case", ["outlet", "closed", "steady"])
def test_operator_reduction_matches_assemble_blocks(complex_j3, monkeypatch, case):
    """One step with convection, or one steady solve (no dt, so no
    convection slots): the saddle reference's refilled reduction, taken
    from its elimination order back to index order through ``free``,
    equals assemble_blocks on the same system with the pins fixed at zero.
    The right-hand sides agree only without the harmonic shift (dim H = 0)."""
    fields = stokes_mms_fields(nu=1.0)
    outlet = case != "closed"
    bc = _outlet_bc(fields) if outlet else both_essential(fields)
    harmonic = build_harmonic_space(complex_j3, bc)
    assert harmonic.dim == (0 if outlet else 1)
    config = SolverConfig(nu=1.0, dt=0.01, theta=0.3, t_end=0.01)
    state0 = initialize_state(complex_j3, bc, fields["velocity"])
    seen = []
    real = oracles.solve_reduced

    def watch(reduced, **kwargs):
        seen.append((reduced.free, reduced.matrix.copy(), reduced.rhs))
        return real(reduced, **kwargs)

    monkeypatch.setattr(oracles, "solve_reduced", watch)
    if case == "steady":
        operator = oracles.SaddleOperator(complex_j3, bc, config.nu)
        loads = {"f2": fields["forcing"], "f3": None, "load_degree": None}
        state, _ = operator.solve(0.0, loads)
    else:
        operator = oracles.SaddleOperator(complex_j3, bc, config.nu, config.dt)
        state, _ = step(complex_j3, bc, config, state0, f=fields["forcing"], operator=operator)
    monkeypatch.undo()

    groups, blocks, rhs, constraints = oracles.saddle_system(
        complex_j3, bc, nu=config.nu, t=state.t, f2=fields["forcing"]
    )
    if case != "steady":
        a3, a5 = scattered_convection(
            complex_j3, state0.omega.values, state0.u.values, config.theta
        )
        m2 = complex_j3.m2
        blocks[("u2", "u1")] = blocks[("u2", "u1")] + a3
        blocks[("u2", "u2")] = a5 + m2 / config.dt
        rhs["u2"] = rhs.get("u2", 0.0) + (m2 @ state0.u.values) / config.dt
    constraints["u3"] = (operator.pins, np.zeros(harmonic.dim))
    want = assemble_blocks(groups, blocks, rhs, constraints)
    ((free, matrix, rhs),) = seen
    back = np.argsort(free)  # the operator's elimination order back to index order
    np.testing.assert_array_equal(free[back], want.free)
    np.testing.assert_array_equal(matrix[back][:, back].toarray(), want.matrix.toarray())
    if outlet:
        assert np.linalg.norm(rhs[back] - want.rhs) <= 1e-14 * np.linalg.norm(want.rhs)


# ---------------------------------------------------------------------------
# one resolved boundary per run


@pytest.mark.parametrize("other", ["complex", "boundary spec"])
def test_natural_cache_resolved_for_another_solve_is_rejected(complex_n2, other):
    """A cache of another complex would scatter its entity indices into
    this complex's vectors, and one of another spec would disagree with
    the harmonic space; either raises instead of solving."""
    fields = stokes_mms_fields(nu=1.0)
    complex_, bc = DeRhamComplex(build_box_mesh(3, 3, 3)), _outlet_bc(fields)
    if other == "complex":
        cache = NaturalBCCache(complex_n2, bc)
    else:
        cache = NaturalBCCache(complex_, _outlet_bc(fields))
    with pytest.raises(ValueError, match=f"another {other}"):
        solve_stokes(complex_, bc, f2=fields["forcing"], natural_cache=cache)


def test_boundary_resolved_on_another_complex_is_rejected(complex_n2):
    """Given as ``bc``, a resolution of another complex raises wherever a
    spec is accepted, before any of its indices are used."""
    fields = stokes_mms_fields(nu=1.0)
    complex_ = DeRhamComplex(build_box_mesh(3, 3, 3))
    boundary = ResolvedBoundary(complex_n2, _outlet_bc(fields))
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=1e-3)
    for call in (
        lambda: solve_stokes(complex_, boundary, f2=fields["forcing"]),
        lambda: run_transient(complex_, boundary, config, velocity_data=fields["velocity"]),
        lambda: initialize_state(complex_, boundary, fields["velocity"]),
        lambda: essential_constraints(complex_, boundary),
        lambda: assembly.assemble_natural_bc(complex_, boundary),
        lambda: build_harmonic_space(complex_, boundary),
    ):
        with pytest.raises(ValueError, match="resolved on another complex"):
            call()


def test_harmonic_space_of_another_boundary_is_rejected(complex_n2):
    """A ``harmonic`` given beside ``bc`` must be the boundary's own: the
    closed box has one harmonic form, an outlet leaves none."""
    fields = stokes_mms_fields(nu=1.0)
    closed, outlet = both_essential(fields), _outlet_bc(fields)
    own = build_harmonic_space(complex_n2, closed)
    scaled = assembly.HarmonicSpace(2.0 * own.basis)
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=1e-3)
    for bc, harmonic in (
        (closed, build_harmonic_space(complex_n2, outlet)),
        (closed, scaled),
        (outlet, own),
    ):
        with pytest.raises(ValueError, match="not the harmonic space"):
            solve_stokes(complex_n2, bc, f2=fields["forcing"], harmonic=harmonic)
        with pytest.raises(ValueError, match="not the harmonic space"):
            run_transient(
                complex_n2, bc, config, velocity_data=fields["velocity"], harmonic=harmonic
            )
    # An equal space resolved apart, as the benchmark passes it, is accepted.
    _, diag = solve_stokes(complex_n2, closed, f2=fields["forcing"], harmonic=own)
    assert diag["residual"] <= RESIDUAL_TOL


def test_run_resolves_its_boundary_a_fixed_number_of_times(complex_n2, region_map_calls):
    """The region predicates run once while a run is set up, never per
    step: initialize_state and the operator share one resolution."""
    bc, velocity = ethier_bc(2.0, 1.0), ethier_velocity(2.0, 1.0)
    for steps in (2, 5):
        region_map_calls.clear()
        config = SolverConfig(nu=1.0, dt=1e-3, t_end=steps * 1e-3)
        summary = run_transient(complex_n2, bc, config, velocity_data=velocity)
        assert summary.n_steps == steps
        assert len(region_map_calls) == 1


def test_steady_solve_resolves_its_boundary_once(complex_n2, region_map_calls):
    """The operator takes its harmonic space from its resolved boundary
    instead of resolving the spec a second time."""
    fields = stokes_mms_fields(nu=1.0)
    solve_stokes(complex_n2, _outlet_bc(fields), f2=fields["forcing"])
    assert len(region_map_calls) == 1


def test_steps_after_the_first_map_no_rule(complex_n2, monkeypatch):
    """The trace rules are mapped onto the boundary edges and faces once
    per run: steps 2 to 4 of a run with essential walls and a natural
    outlet call ``simplex_rule`` neither in ``assembly`` nor in ``spaces``."""
    calls, counting = [], []
    for module in (assembly, spaces):
        real = module.simplex_rule

        def spy(*args, real=real):
            if counting:
                calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, "simplex_rule", spy)
    u = ethier_velocity(2.0, 1.0)
    outlet = RegionBC(
        name="outlet",
        vorticity_mode=NATURAL,
        vorticity_data=u,
        velocity_mode=NATURAL,
        velocity_data=lambda p, t=0.0: np.zeros(len(p)),
        where=lambda c: c[:, 0] > 1.0 - 1e-12,
    )
    walls = RegionBC(name="walls", vorticity_mode=NATURAL, vorticity_data=u, velocity_data=u)
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=4e-3)

    def after_the_first_step(state, diag):
        counting.append(diag.step)

    summary = run_transient(
        complex_n2,
        BoundaryConditionSpec((outlet, walls)),
        config,
        velocity_data=u,
        observers=(after_the_first_step,),
    )
    assert summary.n_steps == 4
    assert calls == []


def test_run_evaluates_its_data_once_per_step(complex_n2):
    """Building the operator evaluates no data; each step of a run
    evaluates the forcing once and the boundary velocity once per face
    set: on the walls the essential fluxes and the natural tangential term
    read the same values, sampled at the same points of the same faces,
    and natural ends (a generator) are a second set."""
    for spec, sets in ((ethier_bc_of, 1), (ethier_two_ends, 2)):
        velocity_calls, forcing_calls = [], []
        bc = spec(counted(ethier_velocity(2.0, 1.0), velocity_calls))
        f = counted(lambda p, t=0.0: np.zeros((len(p), 3)), forcing_calls)
        config = SolverConfig(nu=1.0, dt=1e-3, t_end=5e-3)
        state0 = initialize_state(complex_n2, bc, ethier_velocity(2.0, 1.0))
        velocity_calls.clear()
        operator = solver.make_operator(complex_n2, bc, config.nu, config.dt)
        assert len(operator.boundary.generators) == sets - 1
        assert (len(forcing_calls), len(velocity_calls)) == (0, 0)
        summary = run_transient(complex_n2, bc, config, state=state0, f=f)
        assert summary.n_steps == 5
        assert (len(forcing_calls), len(velocity_calls)) == (5, 5 * sets)


def test_each_callable_is_sampled_once_per_face_set_and_solve(complex_n2):
    """With essential walls and a natural outlet the velocity is the walls'
    essential data and the outlet's tangential data: two face sets, so two
    evaluations per solve, one on each.  Every other callable is sampled
    once per solve, and building the operator samples nothing."""
    fields = stokes_mms_fields(nu=1.0)
    calls = {name: [] for name in ("velocity", "vorticity", "pressure")}
    counted_fields = {**fields, **{k: counted(fields[k], v) for k, v in calls.items()}}
    bc = ResolvedBoundary(complex_n2, _outlet_bc(counted_fields))
    config = SolverConfig(nu=1.0, dt=1e-2, t_end=3e-2)
    state0 = initialize_state(complex_n2, bc, fields["velocity"])
    for v in calls.values():
        v.clear()
    solver.make_operator(complex_n2, bc, config.nu, config.dt)
    assert all(v == [] for v in calls.values())
    run_transient(complex_n2, bc, config, state=state0)
    ((_, outlet, *_),) = bc.regions("velocity", NATURAL)
    ((_, walls, *_),) = bc.regions("velocity", assembly.ESSENTIAL)
    outlet, walls = len(outlet) * len(bc.rule), len(walls) * len(bc.rule)
    assert sorted(calls["velocity"]) == sorted([outlet, walls] * 3)
    assert calls["pressure"] == [outlet] * 3
    assert len(calls["vorticity"]) == 3


def test_operator_solves_with_the_loads_of_each_step(complex_n2):
    """An operator holds no data: solving with one forcing and then with
    another gives what a one-shot step with the second forcing gives
    (natural ends, so with a generator)."""
    fields = stokes_mms_fields(nu=1.0)
    bc = _two_ends(fields)
    config = SolverConfig(nu=1.0, dt=1e-2, t_end=1e-2)
    state0 = initialize_state(complex_n2, bc, fields["velocity"])
    f_a = fields["forcing"]

    def f_b(points, t=0.0):
        return 3.0 * f_a(points, t) + np.array([0.0, 1.0, 0.0])

    operator = solver.make_operator(complex_n2, bc, config.nu, config.dt)
    assert len(operator.boundary.generators) == 1
    step(complex_n2, bc, config, state0, f=f_a, operator=operator)
    held, _ = step(complex_n2, bc, config, state0, f=f_b, operator=operator)
    fresh, _ = step(complex_n2, bc, config, state0, f=f_b)
    for name in ("omega", "u", "p"):
        got, want = getattr(held, name).values, getattr(fresh, name).values
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# refinement from the previous step's solution


def _count_trisolves(monkeypatch):
    """A list whose length is the number of SuperLU triangular solves."""
    calls = []
    real = linalg.spla.splu

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            calls.append(len(b))
            return self.lu.solve(b)

    monkeypatch.setattr(linalg.spla, "splu", lambda *a, **k: Counted(real(*a, **k)))
    return calls


def _copy(state):
    """The same state in a new object, which no operator returned."""
    return dataclasses.replace(state)


def _full(state):
    return np.concatenate([state.omega.values, state.u.values, state.p.values])


def test_steps_after_the_first_refine_from_the_previous_solution(complex_j3, monkeypatch):
    """Two operators step in lockstep from the same states: one from its own
    last state, so from its last reduced solution, the other from a copy,
    so from LU^-1 b.  After the first step the warm solve makes one
    triangular solve per pass and the cold one a pass more; both agree to
    1e-14 relative.  The ends are natural, so the stream system carries a
    generator.  The saddle reference's unknowns are the solution, which
    its warm steps start from, so they make as many passes as its cold
    ones and one triangular solve fewer; the stream operator's are the
    change from the previous state, and its warm steps start from the
    previous change."""
    bc = ethier_two_ends(ethier_velocity(2.0, 1.0))
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=1e-2)
    calls = _count_trisolves(monkeypatch)
    for kind in (oracles.SaddleOperator, solver.make_operator):
        state = initialize_state(complex_j3, bc, ethier_velocity(2.0, 1.0))
        warm, cold = (kind(complex_j3, bc, config.nu, config.dt) for _ in "ab")
        assert len(warm.boundary.generators) == 1
        fewer = 0
        for n in range(1, 11):
            calls.clear()
            got, _ = step(complex_j3, bc, config, state, operator=warm)
            warm_solves = len(calls)
            calls.clear()
            want, _ = step(complex_j3, bc, config, _copy(state), operator=cold)
            assert len(calls) == cold.factor.passes + 1
            assert warm_solves == warm.factor.passes + (n == 1)
            fewer += warm.factor.passes == cold.factor.passes and warm_solves == len(calls) - 1
            assert np.linalg.norm(_full(got) - _full(want)) <= 1e-14 * np.linalg.norm(_full(want))
            state = got
        if kind is oracles.SaddleOperator:
            assert fewer >= 8


def test_a_state_the_operator_did_not_return_starts_cold(complex_j3):
    """Stepping from an equal copy of the operator's last state, or from a
    state another operator returned, is bitwise the solve about that state
    from LU^-1 b (with a generator)."""
    bc = ethier_two_ends(ethier_velocity(2.0, 1.0))
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=1e-2)
    state0 = initialize_state(complex_j3, bc, ethier_velocity(2.0, 1.0))
    ops = [solver.make_operator(complex_j3, bc, config.nu, config.dt) for _ in range(3)]
    first = [step(complex_j3, bc, config, state0, operator=op)[0] for op in ops]
    omega, u = first[0].omega.values, first[0].u.values
    reference, _ = ops[0].solve(
        first[0].t + config.dt,
        {"f2": None, "load_degree": None},
        solver.assemble_convection(complex_j3, omega, u, config.theta),
        complex_j3.m2 @ u / config.dt,
        previous=_copy(first[0]),
    )
    for op, start in ((ops[1], _copy(first[1])), (ops[2], first[0])):
        got, _ = step(complex_j3, bc, config, start, operator=op)
        assert _full(got).tobytes() == _full(reference).tobytes()


def test_warm_started_run_keeps_the_gates_at_roundoff(monkeypatch):
    """Twenty steps at n = 4 from the previous solutions: every residual and
    every divergence stays at roundoff."""
    complex_ = DeRhamComplex(build_box_mesh(4, 4, 4))
    bc = ethier_bc(2.0, 1.0)
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=2e-2)
    calls = _count_trisolves(monkeypatch)
    seen = []
    summary = run_transient(
        complex_,
        bc,
        config,
        velocity_data=ethier_velocity(2.0, 1.0),
        observers=(lambda st, diag: seen.append((st, diag, len(calls))),),
    )
    assert summary.n_steps == 20
    for (state, diag, solves), before in zip(seen, [0, *(s for _, _, s in seen)]):
        assert diag.residual <= linalg.ROUNDOFF_RESIDUAL
        assert diag.div_max <= 1e-13 * (1.0 + complex_.norm(state.u))
        if diag.step > 1 and diag.factor_reused:
            assert solves - before == diag.refine_passes


def test_a_start_at_roundoff_makes_no_pass_and_no_trisolve(complex_n2, monkeypatch):
    """The same steady system solved twice by one operator, the second time
    from the first solve's state: the start is already the solution, so the
    second solve makes 0 passes and no triangular solve, and returns it
    (the saddle reference, whose unknowns are the solution itself)."""
    fields = stokes_mms_fields(nu=1.0)
    operator = oracles.SaddleOperator(complex_n2, _outlet_bc(fields), nu=1.0)
    loads = {"f2": fields["forcing"], "load_degree": None}
    first, residual = operator.solve(0.0, loads)
    assert residual <= linalg.ROUNDOFF_RESIDUAL
    calls = _count_trisolves(monkeypatch)
    again, residual_again = operator.solve(0.0, loads, previous=first)
    assert (calls, operator.factor.passes, operator.factor.reused) == ([], 0, True)
    assert residual_again == residual
    assert _full(again).tobytes() == _full(first).tobytes()


# ---------------------------------------------------------------------------
# the stream operator against the saddle reference


def _net_source(points, t=0.0):
    return 1.0 + points[:, 0]


WITH_F3 = {"f2": "forcing", "f3": _net_source}


def _noflow_load(points, t=0.0):
    """grad(x z^2): a gradient, which the no-flow spec turns into pressure."""
    x, _, z = points.T
    return np.stack([z**2, 0.0 * x, 2.0 * x * z], axis=1)


def _two_boxes():
    """A disconnected mesh: two boxes that do not touch."""
    return side_by_side([jittered_box(2, 1), build_box_mesh(3, 2, 2)])


STREAM_CASES = {
    # (mesh, spec, loads, transient)
    "step-n2": (lambda: jittered_box(2, 3), "ethier", {}, True),
    "step-n3": (lambda: jittered_box(3, 5), "ethier", {}, True),
    "step-n4": (lambda: jittered_box(4, 1), "ethier", {}, True),
    "steady-n2": (lambda: jittered_box(2, 3), "mms", {"f2": "forcing"}, False),
    "steady-n3": (lambda: jittered_box(3, 5), "mms", {"f2": "forcing"}, False),
    "steady-n4": (lambda: jittered_box(4, 1), "mms", {"f2": "forcing"}, False),
    "step-f2-f3": (lambda: jittered_box(3, 2), "ethier", WITH_F3, True),
    "steady-f3": (lambda: jittered_box(3, 2), "mms", WITH_F3, False),
    "noflow-step": (lambda: jittered_box(3, 6), "noflow", {"f2": _noflow_load}, True),
    "noflow-steady": (lambda: jittered_box(3, 6), "noflow", {"f2": _noflow_load}, False),
    "two-boxes-step": (lambda: _two_boxes(), "ethier", {}, True),
    "two-boxes-steady": (lambda: _two_boxes(), "mms", {"f2": "forcing"}, False),
    # A natural outlet: the cotree relative to the walls, the forest rooted at the outlet.
    "outlet-step-n2": (lambda: jittered_box(2, 3), "outlet", {"f2": "forcing"}, True),
    "outlet-step-n3": (lambda: jittered_box(3, 5), "outlet", {"f2": "forcing"}, True),
    "outlet-step-n4": (lambda: jittered_box(4, 1), "outlet", {"f2": "forcing"}, True),
    "outlet-steady-n2": (lambda: jittered_box(2, 3), "outlet", {"f2": "forcing"}, False),
    "outlet-steady-n3": (lambda: jittered_box(3, 5), "outlet", {"f2": "forcing"}, False),
    "outlet-steady-n4": (lambda: jittered_box(4, 1), "outlet", {"f2": "forcing"}, False),
    "outlet-f3-step": (lambda: jittered_box(3, 2), "outlet", WITH_F3, True),
    # The closed box keeps its root and harmonic form beside the open one.
    "outlet-beside-closed-step": (lambda: _two_boxes(), "outlet-x3", {"f2": "forcing"}, True),
    "outlet-beside-closed-steady": (lambda: _two_boxes(), "outlet-x3", WITH_F3, False),
}


@pytest.mark.parametrize("case", STREAM_CASES.values(), ids=STREAM_CASES.keys())
def test_stream_operator_matches_the_saddle_reference(case):
    """Every spec on a mesh with b1 = b2 = 0 whose natural-velocity faces
    form at most one disk per component gets the stream operator, whose
    omega, u and p match the saddle reference's to 1e-12
    relative, with the divergence at roundoff."""
    mesh, spec, loads, transient = case
    complex_ = DeRhamComplex(mesh())
    fields = stokes_mms_fields(nu=1.0)
    bc = {
        "ethier": ethier_bc(2.0, 1.0),
        "mms": both_essential(fields),
        "noflow": BoundaryConditionSpec(RegionBC()),
        "outlet": _outlet_bc(fields),
        "outlet-x3": _outlet_bc(fields, lambda c: c[:, 0] > 3.0 - 1e-12),
    }[spec]
    loads = {k: fields[v] if isinstance(v, str) else v for k, v in loads.items()}
    loads = {"f2": None, **loads, "load_degree": 4}
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=1e-3)
    dt = config.dt if transient else None
    stream = solver.make_operator(complex_, bc, config.nu, dt)
    assert not len(stream.boundary.generators)
    saddle = oracles.SaddleOperator(complex_, bc, config.nu, dt)
    if spec == "noflow":  # from rest, as experiments.run_noflow steps
        state0 = solver.TransientState(
            0.0, *(spaces.FormCoefficients.zeros(complex_.space(k)) for k in (1, 2, 3))
        )
    else:
        state0 = initialize_state(complex_, bc, ethier_velocity(2.0, 1.0))
    states = []
    for operator in (stream, saddle):
        if transient:
            convection = solver.assemble_convection(
                complex_, state0.omega.values, state0.u.values, config.theta
            )
            rhs_u2 = complex_.m2 @ state0.u.values / config.dt
            state, residual = operator.solve(config.dt, loads, convection, rhs_u2, previous=state0)
        else:
            state, residual = operator.solve(0.0, loads)
        assert residual <= RESIDUAL_TOL
        states.append(state)
    got, want = states
    # A gradient load leaves no flow: omega and u are roundoff, p carries the load.
    compared = ("p",) if spec == "noflow" else ("omega", "u", "p")
    for name in compared:
        a, b = getattr(got, name).values, getattr(want, name).values
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b), name
    if spec == "noflow":
        assert complex_.norm(got.u) <= 1e-15 and complex_.norm(want.u) <= 1e-15
        assert np.linalg.norm(got.omega.values) <= 1e-13
    unorm = complex_.norm(got.u)
    d2u = complex_.d2 @ got.u.values
    target = complex_.d2 @ want.u.values  # the divergence the q-rows ask for
    assert np.max(np.abs(d2u - target) / complex_.mesh.tet_volumes) <= 1e-12 * (1.0 + unorm)
    if "f3" not in loads:
        assert complex_.divergence_max(got.u.values) <= 1e-12 * (1.0 + unorm)


@pytest.mark.parametrize("seed", [2, 3])
def test_stream_step_sweeps_its_divergence_to_the_saddle_level(seed):
    """After its solve the stream operator sweeps the roundoff divergence of
    u_g + D1 psi from the leaves of the dual forest to its roots.  On a
    jittered n = 7 box the root mean square of D2 u / vol over the cells is
    then the saddle step's (0.97 and 1.06 times it for these seeds), and
    unswept it is 1.28 and 1.44 times it.  The largest cell is too noisy a
    witness: swept, it reaches 1.4 times the saddle's on some boxes, and
    unswept it stays below it on others."""
    complex_ = DeRhamComplex(jittered_box(7, seed))
    rms = []
    for saddle in (False, True):
        state, residual = _ns_step(complex_, saddle)
        assert residual <= RESIDUAL_TOL
        density = complex_.d2 @ state.u.values / complex_.mesh.tet_volumes
        rms.append(np.sqrt(np.mean(density**2)))
    assert rms[0] <= 1.15 * rms[1]


@pytest.mark.parametrize("transient", [True, False], ids=["step", "steady"])
def test_stream_matrix_is_the_congruence_of_the_saddle_blocks(complex_j3, monkeypatch, transient):
    """The refilled stream matrix, taken back to index order, is Z^T A Z on
    the free unknowns: A the tau- and v-rows' vorticity and velocity blocks
    with the step's mass and convection, Z = diag(I, D1[:, cotree])."""
    fields = stokes_mms_fields(nu=1.0)
    bc = both_essential(fields)
    config = SolverConfig(nu=1.0, dt=0.01, theta=0.3, t_end=0.01)
    state0 = initialize_state(complex_j3, bc, fields["velocity"])
    seen = []
    real = solver.solve_reduced

    def watch(reduced, **kwargs):
        seen.append((reduced.free, reduced.matrix.copy()))
        return real(reduced, **kwargs)

    monkeypatch.setattr(solver, "solve_reduced", watch)
    if transient:
        step(complex_j3, bc, config, state0, f=fields["forcing"])
    else:
        solve_stokes(complex_j3, bc, nu=config.nu, f2=fields["forcing"])
    monkeypatch.undo()
    ((free, matrix),) = seen

    groups, blocks, _, constraints = oracles.saddle_system(complex_j3, bc, nu=config.nu)
    if transient:
        a3, a5 = scattered_convection(
            complex_j3, state0.omega.values, state0.u.values, config.theta
        )
        blocks[("u2", "u1")] = blocks[("u2", "u1")] + a3
        blocks[("u2", "u2")] = a5 + complex_j3.m2 / config.dt
    a = sp.bmat([[blocks.get((r, c)) for c in ("u1", "u2")] for r in ("u1", "u2")])
    mesh = complex_j3.mesh
    z = sp.block_diag((sp.identity(mesh.n_edges), complex_j3.d1[:, mesh.cotree]))
    want = (z.T @ a @ z).tocsr()
    fixed = constraints["u1"][0]
    keep = np.setdiff1d(np.arange(want.shape[0]), fixed)
    back = np.argsort(free)  # the elimination order back to index order
    np.testing.assert_array_equal(free[back], keep)
    got = matrix[back][:, back].toarray()
    expected = want[keep][:, keep].toarray()
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_step_diagnostics_report_the_factored_system(complex_j3):
    """An Ethier run, an outlet run and a run with natural ends at x = 0 and
    x = 1 factor the stream system in float32 on every step, with one
    unknown more for the generator of the two ends: ``unknowns`` and
    ``factor_dtype`` say so, and so does ``solve_stokes``'s ``unknowns``."""
    mesh = complex_j3.mesh
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=3e-3)
    seen = []
    run_transient(
        complex_j3,
        ethier_bc(2.0, 1.0),
        config,
        velocity_data=ethier_velocity(2.0, 1.0),
        observers=(lambda st, diag: seen.append(diag),),
    )
    stream = mesh.n_edges + len(mesh.cotree)  # natural vorticity: every edge is free
    assert [(d.unknowns, d.factor_dtype) for d in seen] == [(stream, np.float32)] * 3

    fields = stokes_mms_fields(nu=1.0)
    two_ended = _outlet_bc(fields, lambda c: np.abs(c[:, 0] - 0.5) > 0.5 - 1e-12)
    for bc in (_outlet_bc(fields), two_ended):
        boundary = ResolvedBoundary(complex_j3, bc)
        want = _stream_unknowns(complex_j3, boundary)
        assert len(boundary.generators) == (bc is two_ended)
        if bc is not two_ended:  # steady, two natural ends need natural-vorticity walls
            _, info = solve_stokes(complex_j3, boundary, f2=fields["forcing"])
            assert info["unknowns"] == want
        seen.clear()
        run_transient(
            complex_j3, boundary, config, velocity_data=fields["velocity"],
            observers=(lambda st, diag: seen.append(diag),),
        )
        assert [(d.unknowns, d.factor_dtype) for d in seen] == [(want, np.float32)] * 3


# ---------------------------------------------------------------------------
# the steady solve's right-hand side on the worker thread


def _two_ends(fields):
    """Natural ends at x = 0 and x = 1 with natural-vorticity walls: a steady
    spec with one generator, the flow from end to end, which the walls
    hold.  ``STEADY_SPECS`` keys it "saddle": the saddle reference was the
    only system that solved such specs before the stream system carried
    generators."""
    return BoundaryConditionSpec(
        (
            RegionBC(
                name="ends",
                vorticity_mode=NATURAL,
                velocity_mode=NATURAL,
                velocity_data=fields["pressure"],
                where=lambda c: np.abs(c[:, 0] - 0.5) > 0.5 - 1e-9,
            ),
            RegionBC(name="walls", vorticity_mode=NATURAL, velocity_data=fields["velocity"]),
        )
    )


STEADY_SPECS = {"stream": _outlet_bc, "saddle": _two_ends}


def _threads_of(monkeypatch):
    """Record the thread of every SuperLU factor and every right-hand side,
    and every call into the worker."""
    seen = {"factor": [], "rhs": [], "worker": []}
    factor, rhs, on_worker = linalg.spla.splu, solver.assemble_rhs, solver.on_worker

    def spy_factor(*args, **kwargs):
        seen["factor"].append(threading.get_ident())
        return factor(*args, **kwargs)

    def spy_rhs(*args, **kwargs):
        seen["rhs"].append(threading.current_thread().name)
        return rhs(*args, **kwargs)

    def spy_worker(*args, **kwargs):
        seen["worker"].append(args[0])
        return on_worker(*args, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", spy_factor)
    monkeypatch.setattr(solver, "assemble_rhs", spy_rhs)
    monkeypatch.setattr(solver, "on_worker", spy_worker)
    return seen


@pytest.mark.parametrize("kind", STEADY_SPECS)
def test_a_steady_solve_factors_on_the_calling_thread(complex_n2, kind, monkeypatch):
    """SuperLU factors are made (and so freed) only on the caller's thread;
    the first solve of a steady operator assembles its right-hand side on
    the worker, and once, as before."""
    fields = stokes_mms_fields(nu=1.0)
    bc = STEADY_SPECS[kind](fields)
    operator = solver.make_operator(complex_n2, bc, 1.0)
    assert len(operator.boundary.generators) == (kind == "saddle")
    seen = _threads_of(monkeypatch)
    state, info = solve_stokes(complex_n2, bc, f2=fields["forcing"])
    assert info["residual"] <= RESIDUAL_TOL
    assert seen["factor"] == [threading.get_ident()]
    assert len(seen["rhs"]) == 1 and seen["rhs"][0].startswith("vvpflow-")
    assert seen["worker"] == [solver.assemble_rhs]


def test_a_held_factor_and_time_steps_keep_to_one_thread(complex_n2, monkeypatch):
    """A steady operator's solve with a factor held, and every step of a
    run, assemble on the calling thread and make no call into the worker."""
    fields = stokes_mms_fields(nu=1.0)
    operator = solver.make_operator(complex_n2, _two_ends(fields), nu=1.0)
    loads = {"f2": fields["forcing"], "load_degree": None}
    operator.solve(0.0, loads)
    seen = _threads_of(monkeypatch)
    operator.solve(0.0, loads)
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=3e-3)
    for bc in (_outlet_bc(fields), ethier_bc(2.0, 1.0)):
        run_transient(complex_n2, bc, config, velocity_data=fields["velocity"], f=fields["forcing"])
    caller = threading.current_thread().name
    assert seen["worker"] == []
    assert seen["rhs"] == [caller] * 7
    assert set(seen["factor"]) == {threading.get_ident()}


@pytest.mark.parametrize("kind", STEADY_SPECS)
def test_non_finite_data_on_the_worker_raises_as_before(complex_n2, kind):
    """The sampling error of a load assembled on the worker reaches the
    caller unchanged, and the next solve succeeds."""
    fields = stokes_mms_fields(nu=1.0)
    bc = STEADY_SPECS[kind](fields)

    def broken(points, t=0.0):
        return np.full((len(points), 3), np.nan)

    with pytest.raises(ValueError, match=r"f2 at t=0.25 is not finite"):
        solve_stokes(complex_n2, bc, f2=broken, t=0.25)
    _, info = solve_stokes(complex_n2, bc, f2=fields["forcing"])
    assert info["residual"] <= RESIDUAL_TOL


def _slow_rhs(monkeypatch):
    """assemble_rhs that takes 50 ms longer; returns the times it ended."""
    ended, real = [], solver.assemble_rhs

    def slow(*args, **kwargs):
        time.sleep(0.05)
        out = real(*args, **kwargs)
        ended.append(time.perf_counter())
        return out

    monkeypatch.setattr(solver, "assemble_rhs", slow)
    return ended


def test_a_singular_steady_system_still_raises(complex_n2, monkeypatch):
    """A factor that cannot meet the residual contract (refinement ends at
    relative residual 1, from the float32 factor and from its float64
    fallback): the steady solve still raises SolverError, after the
    right-hand side is in, and the next solve succeeds."""
    fields = stokes_mms_fields(nu=1.0)
    bc = _two_ends(fields)
    ended = _slow_rhs(monkeypatch)
    real = linalg._refine

    def stalled(*args):
        x, _, passes = real(*args)
        return x, 1.0, passes

    monkeypatch.setattr(linalg, "_refine", stalled)
    with pytest.raises(SolverError, match="residual contract"):
        solve_stokes(complex_n2, bc, f2=fields["forcing"])
    assert len(ended) == 1
    monkeypatch.setattr(linalg, "_refine", real)
    _, info = solve_stokes(complex_n2, bc, f2=fields["forcing"])
    assert info["residual"] <= RESIDUAL_TOL


@pytest.mark.parametrize("kind", STEADY_SPECS)
def test_a_factor_failing_during_the_overlap_waits_for_the_worker(complex_n2, kind, monkeypatch):
    """SuperLU's error on an exactly singular pivot, raised while the worker
    still assembles, surfaces as SingularSystemError only once the worker is
    done; the next solve succeeds and factors afresh."""
    fields = stokes_mms_fields(nu=1.0)
    bc = STEADY_SPECS[kind](fields)
    ended = _slow_rhs(monkeypatch)
    real = linalg.spla.splu

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(linalg.spla, "splu", singular)
    with pytest.raises(linalg.SingularSystemError, match="exactly singular"):
        solve_stokes(complex_n2, bc, f2=fields["forcing"])
    raised = time.perf_counter()
    assert len(ended) == 1 and ended[0] <= raised
    monkeypatch.setattr(linalg.spla, "splu", real)
    _, info = solve_stokes(complex_n2, bc, f2=fields["forcing"])
    assert info["residual"] <= RESIDUAL_TOL


def test_steady_solves_from_many_threads_share_one_worker(complex_n2):
    """Six threads solve at once, with the interpreter switching threads
    every microsecond: each gets the bits of a serial solve, and the lazily
    made worker is made once."""
    fields = stokes_mms_fields(nu=1.0)
    specs = [STEADY_SPECS[kind](fields) for kind in sorted(STEADY_SPECS)] * 3
    want = [_full(solve_stokes(complex_n2, bc, f2=fields["forcing"])[0]) for bc in specs]
    got = [None] * len(specs)

    def run(i):
        got[i] = _full(solve_stokes(complex_n2, specs[i], f2=fields["forcing"])[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(specs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(g is not None and g.tobytes() == w.tobytes() for g, w in zip(got, want))
    workers = [t for t in threading.enumerate() if t.name.startswith("vvpflow-")]
    assert len(workers) == 1
