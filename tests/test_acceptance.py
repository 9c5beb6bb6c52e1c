"""End-to-end acceptance checks, one pass/fail verdict per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict
lines; each test also fails loudly through its assertion.  The
experiment fixtures execute the full protocol sizes once per session,
so this module is the slow part of the suite (a few minutes).
"""
import csv
import glob
import os
import time

import numpy as np
import pytest

import oracles
from conftest import jittered_box
from vvpflow import linalg
from vvpflow.assembly import (
    NATURAL,
    BoundaryConditionSpec,
    RegionBC,
    build_harmonic_space,
)
from vvpflow.experiments import ExperimentSpec, run_experiment
from vvpflow.fields import ethier_velocity
from vvpflow.linalg import RESIDUAL_TOL
from vvpflow.mesh import build_box_mesh
from vvpflow.solver import (
    SolverConfig,
    initialize_state,
    run_transient,
    solve_stokes,
)
from vvpflow.spaces import DeRhamComplex, FormCoefficients, interpolate


def _verdict(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _timed(spec):
    start = time.perf_counter()
    report = run_experiment(spec)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def outroot(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def noflow_run(outroot):
    spec = ExperimentSpec(
        kind="noflow", n=(2,), gamma=(1, 2, 4, 7), outdir=str(outroot / "noflow")
    )
    return _timed(spec)


@pytest.fixture(scope="module")
def ethier_steady_run(outroot):
    spec = ExperimentSpec(
        kind="ethier", n=(2, 3, 4), a=2.0, d=0.0, outdir=str(outroot / "steady")
    )
    return _timed(spec)


@pytest.fixture(scope="module")
def ethier_transient_run(outroot):
    spec = ExperimentSpec(
        kind="ethier",
        n=(2, 3, 4),
        a=2.0,
        d=1.0,
        t_end=0.25,
        outdir=str(outroot / "transient"),
    )
    return _timed(spec)


@pytest.fixture(scope="module")
def dtsweep_run(outroot):
    spec = ExperimentSpec(
        kind="dtsweep",
        n=(2,),
        dts=(1e-1, 1e-2, 1e-3, 1e-4),
        outdir=str(outroot / "dtsweep"),
    )
    return _timed(spec)


@pytest.fixture(scope="module")
def mms_run(outroot):
    spec = ExperimentSpec(
        kind="stokes-mms", n=(2, 3), outdir=str(outroot / "mms")
    )
    return _timed(spec)


@pytest.fixture(scope="module")
def instrumented_solves():
    """Per-solve (residual, div_max, velocity_norm) across solver paths."""
    records = []

    uex = ethier_velocity(2.0, 1.0)
    complex2 = DeRhamComplex(build_box_mesh(2, 2, 2))
    bc = BoundaryConditionSpec(
        RegionBC(
            vorticity_mode="natural",
            vorticity_data=uex,
            velocity_data=uex,
        )
    )

    def record(complex_):
        def observer(state, diag):
            records.append(
                (diag.residual, diag.div_max, complex_.norm(state.u))
            )

        return observer

    run_transient(
        complex2,
        bc,
        SolverConfig(nu=1.0, dt=1e-3, t_end=0.05),
        state=initialize_state(complex2, bc, uex),
        observers=(record(complex2),),
    )

    u0 = ethier_velocity(2.0, 0.0)
    bc0 = BoundaryConditionSpec(
        RegionBC(
            vorticity_mode="natural",
            vorticity_data=u0,
            velocity_data=u0,
        )
    )
    run_transient(
        complex2,
        bc0,
        SolverConfig(nu=1.0, dt=0.1, steady_tol=1e-10),
        velocity_data=lambda p, t=0.0: np.zeros((len(p), 3)),
        observers=(record(complex2),),
    )

    from vvpflow.fields import stokes_mms_fields

    fields = stokes_mms_fields(nu=1.0)
    for n in (2, 3):
        complex_ = DeRhamComplex(build_box_mesh(n, n, n))
        mms_bc = BoundaryConditionSpec(
            RegionBC(
                vorticity_data=fields["vorticity"],
                velocity_data=fields["velocity"],
            )
        )
        state, info = solve_stokes(
            complex_, mms_bc, nu=1.0, f2=fields["forcing"], load_degree=8
        )
        records.append(
            (info["residual"], info["div_max"], complex_.norm(state.u))
        )
    return records


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_complex_identity():
    start = time.perf_counter()
    worst = 0
    for n in (1, 2, 3, 4):
        complex_ = DeRhamComplex(build_box_mesh(n, n, n))
        product = (complex_.d2 @ complex_.d1).toarray()
        assert product.dtype.kind == "i" or np.all(product == product.astype(int))
        worst = max(worst, int(np.abs(product).max()))
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 1 (curl-then-divergence vanishes)",
        worst == 0 and elapsed < 1.0,
        f"max |D2 D1| entry = {worst} over n=1..4 in {elapsed:.2f}s",
    )


# L+U of the step factor at n = 10 below, as measured when the test was
# written: an elimination order that grows the fill fails here.
N10_STEP_FILL = 7_225_383
# The same for the stream system the step factors since it replaced the saddle
# system there (13,331 unknowns, omega_e and psi_e interleaved in the
# nested-dissection order): an interleaving that grows the fill fails here.
N10_STREAM_STEP_FILL = 5_794_446


def test_structure_guarantees_at_n10(tmp_path, monkeypatch):
    """Beyond the sizes of the other tests: on a jittered n = 10 box the
    curl of the divergence is exactly zero, 3 transient Ethier steps keep
    the velocity divergence-free and meet the residual contract with a
    step factor no fuller than ``N10_STEP_FILL`` and
    ``N10_STREAM_STEP_FILL``, and the n = 10 no-flow test keeps the
    velocity at roundoff."""
    complex_ = DeRhamComplex(jittered_box(10, 0))
    assert (complex_.d2 @ complex_.d1).nnz == 0

    fills = []
    real = linalg.spla.splu

    def spy(a, **kwargs):
        lu = real(a, **kwargs)
        fills.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(linalg.spla, "splu", spy)
    u = ethier_velocity(2.0, 1.0)
    bc = BoundaryConditionSpec(RegionBC(vorticity_mode=NATURAL, vorticity_data=u, velocity_data=u))
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=3e-3)
    seen = []
    run_transient(
        complex_,
        bc,
        config,
        state=initialize_state(complex_, bc, u),
        observers=(lambda state, diag: seen.append((state, diag)),),
    )
    monkeypatch.undo()
    assert len(seen) == 3
    for state, diag in seen:
        assert diag.residual <= RESIDUAL_TOL
        assert diag.div_max <= 1e-12 * (1.0 + complex_.norm(state.u))
    assert fills and max(fills) <= N10_STEP_FILL
    assert max(fills) <= N10_STREAM_STEP_FILL

    report = run_experiment(ExperimentSpec(kind="noflow", n=(10,), outdir=str(tmp_path)))
    assert report.max_velocity_norm <= 1e-15


def test_criterion_2_divergence_free(instrumented_solves, noflow_run, dtsweep_run):
    worst = 0.0
    for residual, div_max, unorm in instrumented_solves:
        worst = max(worst, div_max / (1e-12 * (1.0 + unorm)))
    for row in noflow_run[0].rows:
        worst = max(
            worst, row["div_max"] / (1e-12 * (1.0 + row["unorm_m2"]))
        )
    for row in dtsweep_run[0].rows:
        worst = max(worst, row["div_max"] / 1e-12)
    _verdict(
        "criterion 2 (exact divergence-free velocity)",
        worst <= 1.0,
        f"worst div_max relative to 1e-12 (1 + |u|) = {worst:.3e}",
    )


def test_criterion_3_no_flow(noflow_run):
    report, elapsed = noflow_run
    gammas = [row["gamma"] for row in report.rows]
    peak = report.max_velocity_norm
    _verdict(
        "criterion 3 (gradient forcing produces no flow)",
        gammas == [1, 2, 4, 7] and peak <= 1e-10 and elapsed < 60.0,
        f"max |u|_M2 = {peak:.3e} over gamma={gammas} in {elapsed:.1f}s",
    )


def test_criterion_4_pressure_gauge_invariance():
    """Shifting the force by a gradient moves only the pressure."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    monomials = [
        (i, j, k)
        for i in range(4)
        for j in range(4)
        for k in range(4)
        if i + j + k <= 3
    ]
    coeffs = rng.uniform(-1.0, 1.0, size=len(monomials))

    def s(points, t=0.0):
        x, y, z = points.T
        return sum(
            c * x**i * y**j * z**k for c, (i, j, k) in zip(coeffs, monomials)
        )

    def grad_s(points, t=0.0):
        x, y, z = points.T
        out = np.zeros_like(points)
        for c, (i, j, k) in zip(coeffs, monomials):
            if i:
                out[:, 0] += c * i * x ** (i - 1) * y**j * z**k
            if j:
                out[:, 1] += c * j * x**i * y ** (j - 1) * z**k
            if k:
                out[:, 2] += c * k * x**i * y**j * z ** (k - 1)
        return out

    def f_base(points, t=0.0):
        x, y, z = points.T
        return np.column_stack((np.sin(y) + 0.3 * t, np.sin(z), np.cos(x)))

    def f_shifted(points, t=0.0):
        return f_base(points, t) + grad_s(points, t)

    complex_ = DeRhamComplex(build_box_mesh(2, 2, 2))
    bc = BoundaryConditionSpec(RegionBC())
    config = SolverConfig(nu=1.0, dt=0.01, t_end=0.1, load_degree=6)

    def final(force):
        return run_transient(
            complex_,
            bc,
            config,
            velocity_data=lambda p, t=0.0: np.zeros((len(p), 3)),
            f=force,
        ).final

    base = final(f_base)
    shifted = final(f_shifted)

    du = complex_.norm(
        FormCoefficients(complex_.V2, shifted.u.values - base.u.values)
    )
    dw = complex_.norm(
        FormCoefficients(complex_.V1, shifted.omega.values - base.omega.values)
    )

    harmonic = build_harmonic_space(complex_, bc)
    s_int = interpolate(s, complex_.V3).values
    expected_dp = s_int - harmonic.basis @ (
        harmonic.basis.T @ (complex_.m3 @ s_int)
    )
    dp = shifted.p.values - base.p.values
    dp_mismatch = complex_.norm(FormCoefficients(complex_.V3, dp - expected_dp))
    dp_norm = complex_.norm(FormCoefficients(complex_.V3, expected_dp))
    elapsed = time.perf_counter() - start

    ok = du <= 1e-9 and dw <= 1e-9 and dp_mismatch <= 1e-9 and dp_norm > 1e-3
    _verdict(
        "criterion 4 (pressure absorbs gradient forcing)",
        ok and elapsed < 120.0,
        f"|du| = {du:.2e}, |dw| = {dw:.2e}, pressure shift = {dp_norm:.3f} "
        f"(mismatch {dp_mismatch:.2e}) in {elapsed:.1f}s",
    )


def _check_convergence(report, label):
    hdiv = report.column("err_hdiv_u")
    slope = report.slopes.get("err_hdiv_u")
    monotone = bool(np.all(np.diff(hdiv) < 0))
    ok = slope is not None and abs(slope - 1.0) <= 0.25 and monotone
    detail = (
        f"{label}: H(div) errors {np.array2string(hdiv, precision=3)} "
        f"slope {slope:.3f}" if slope is not None else f"{label}: no slope"
    )
    return ok, detail


def test_criterion_5_exact_solution_convergence(
    ethier_steady_run, ethier_transient_run
):
    steady, t_steady = ethier_steady_run
    transient, t_transient = ethier_transient_run
    ok_s, detail_s = _check_convergence(steady, "steady")
    ok_t, detail_t = _check_convergence(transient, "transient")
    elapsed = t_steady + t_transient
    _verdict(
        "criterion 5 (first-order flux convergence)",
        ok_s and ok_t and elapsed < 1200.0,
        f"{detail_s}; {detail_t}; total {elapsed:.0f}s",
    )


def test_criterion_6_one_step_error_bounded(dtsweep_run):
    report, elapsed = dtsweep_run
    errs = [row["err_l2_u"] for row in report.rows]
    bound = report.growth_bound
    _verdict(
        "criterion 6 (one-step errors stay bounded as dt shrinks)",
        report.bounded and len(errs) == 4 and elapsed < 300.0,
        f"errors {['%.3e' % e for e in errs]} vs bound {bound:.3e} "
        f"in {elapsed:.1f}s",
    )


def test_criterion_7_reference_element_matrices(ref_complex):
    m1 = ref_complex.m1.toarray()
    m2 = ref_complex.m2.toarray()
    m3 = ref_complex.m3.toarray()
    d1 = np.abs(m1 - oracles.mass1_reference()).max()
    d2 = np.abs(m2 - oracles.mass2_reference()).max()
    d3 = np.abs(m3 - oracles.mass3_reference()).max()

    rng = np.random.default_rng(7)
    c_w = rng.normal(size=6)
    c_u = rng.normal(size=4)
    from conftest import scattered_convection

    a3, a5 = scattered_convection(ref_complex, c_w, c_u, theta=0.5)
    want3, want5 = oracles.convection_reference(c_w, c_u, 0.5)
    d4 = np.abs(a3.toarray() - want3).max()
    d5 = np.abs(a5.toarray() - want5).max()
    worst = max(d1, d2, d3, d4, d5)
    _verdict(
        "criterion 7 (reference-element matrices match oracles)",
        worst <= 1e-12,
        f"max entrywise deviation = {worst:.2e}",
    )


def test_criterion_8_harmonic_space_dimension():
    start = time.perf_counter()
    complex_ = DeRhamComplex(build_box_mesh(2, 2, 2))
    natural = BoundaryConditionSpec(
        RegionBC(vorticity_mode="natural", velocity_mode="natural")
    )
    h_nat = build_harmonic_space(complex_, natural)
    essential = BoundaryConditionSpec(RegionBC())
    h_ess = build_harmonic_space(complex_, essential)
    ranks = [oracles.harmonic_rank(complex_, bc) for bc in (natural, essential)]
    vols = complex_.mesh.tet_volumes
    want = vols / np.sqrt(vols.sum())
    basis_dev = (
        np.abs(h_ess.basis[:, 0] - want).max() if h_ess.dim == 1 else np.inf
    )
    elapsed = time.perf_counter() - start
    ok = h_nat.dim == 0 and h_ess.dim == 1 and basis_dev < 1e-12
    ok = ok and ranks == [h_nat.dim, h_ess.dim]
    _verdict(
        "criterion 8 (pressure-multiplier dimensions)",
        ok and elapsed < 30.0,
        f"natural dim = {h_nat.dim}, essential dim = {h_ess.dim}, "
        f"basis deviation = {basis_dev:.2e} in {elapsed:.1f}s",
    )


def test_criterion_9_solver_residuals(instrumented_solves):
    worst = max(rec[0] for rec in instrumented_solves)
    count = len(instrumented_solves)
    _verdict(
        "criterion 9 (linear solves converge to tolerance)",
        worst <= RESIDUAL_TOL and count > 50,
        f"max relative residual = {worst:.2e} over {count} solves "
        f"(library tolerance {RESIDUAL_TOL:.0e})",
    )


# ---------------------------------------------------------------------------
# report file requirements


def _all_csv_paths(outroot):
    return sorted(glob.glob(os.path.join(outroot, "**", "*.csv"), recursive=True))


def test_report_divergence_columns(
    outroot,
    noflow_run,
    ethier_steady_run,
    ethier_transient_run,
    dtsweep_run,
    mms_run,
):
    paths = _all_csv_paths(str(outroot))
    assert len(paths) >= 5
    worst = 0.0
    for path in paths:
        with open(path) as fh:
            for row in csv.DictReader(fh):
                worst = max(worst, float(row["div_max"]))
    _verdict(
        "report files (divergence column at machine zero)",
        worst <= 1e-12,
        f"max div_max over {len(paths)} CSV files = {worst:.3e}",
    )


def test_report_reruns_are_deterministic(outroot):
    specs = [
        ExperimentSpec(kind="noflow", n=(2,), gamma=(1, 2), outdir=""),
        ExperimentSpec(kind="dtsweep", n=(2,), dts=(1e-1, 1e-2), outdir=""),
        ExperimentSpec(kind="ethier", n=(2,), a=2.0, d=0.0, outdir=""),
        ExperimentSpec(kind="stokes-mms", n=(2,), outdir=""),
    ]
    import dataclasses

    mismatches = []
    for spec in specs:
        texts = []
        for attempt in ("first", "second"):
            outdir = outroot / f"repeat_{spec.kind}_{attempt}"
            run_experiment(dataclasses.replace(spec, outdir=str(outdir)))
            (csv_path,) = glob.glob(str(outdir / "*.csv"))
            texts.append(open(csv_path).read())
        if texts[0] != texts[1]:
            mismatches.append(spec.kind)
    _verdict(
        "report files (bitwise deterministic reruns)",
        not mismatches,
        f"kinds compared: {[s.kind for s in specs]}, mismatches: {mismatches}",
    )
