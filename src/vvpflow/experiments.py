"""Packaged experiment drivers with CSV/VTK/summary outputs.

Four experiment kinds run on unit-box meshes:

* ``noflow``: gradient forcings must produce machine-zero velocity; one
  implicit step from rest per exponent with homogeneous essential
  conditions on both channels.
* ``ethier``: convergence sweep against the exact exponential-decay
  flow family; steady (d = 0) via pseudo-time from rest, transient
  (d != 0) from exact initial data.
* ``dtsweep``: one implicit step from exact initial data for a list of
  time steps; the velocity error must not grow as the step shrinks.
* ``stokes-mms``: steady manufactured-solution sweep with essential
  conditions on both channels.

Every driver writes ``<kind>.csv`` (stable formatting, deterministic
reruns) plus ``<kind>_summary.txt`` into the output directory.
Convergence CSVs share the column layout of CSV_HEADER; the slope of
each error column is fitted by least squares on (log h, log err).
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .assembly import BoundaryConditionSpec, RegionBC, resolve_boundary
from .fields import (
    ethier_velocity,
    ethier_vorticity,
    gradient_of_power,
    stokes_mms_fields,
)
from .mesh import build_box_mesh
from .solver import (
    SolverConfig,
    TransientState,
    _SaddleOperator,
    initialize_state,
    run_transient,
    solve_stokes,
    step,
)
from .spaces import DeRhamComplex, FormCoefficients
from .vtk_io import write_vtk_fields

__all__ = [
    "CSV_HEADER",
    "ExperimentSpec",
    "ConvergenceReport",
    "NoFlowReport",
    "DtSweepReport",
    "least_squares_slope",
    "run_noflow",
    "run_ethier",
    "run_dt_sweep",
    "run_stokes_mms",
    "run_experiment",
    "parse_config",
    "spec_from_options",
    "write_csv",
]

CSV_HEADER = (
    "h",
    "ndof_u",
    "err_l2_u",
    "err_hdiv_u",
    "err_l2_w",
    "err_hcurl_w",
    "err_l2_p",
    "div_max",
)

KINDS = ("noflow", "ethier", "dtsweep", "stokes-mms")


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of one experiment run (see module docstring).

    ``dt = None`` picks a kind-appropriate default: 1.0 for the no-flow
    step, 0.1 for pseudo-time steady runs, 1e-3 for transient runs.
    ``n`` lists the per-axis box subdivisions of the sweep; single-mesh
    kinds (noflow, dtsweep) use its first entry.
    """

    kind: str
    n: tuple = (2, 3, 4)
    nu: float = 1.0
    theta: float = 0.5
    dt: float | None = None
    t_end: float = 0.25
    a: float = 2.0
    d: float = 0.0
    gamma: tuple = (1, 2, 4, 7)
    dts: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    outdir: str = "results"
    load_degree: int | None = None
    steady_tol: float = 1e-10
    max_steps: int = 10000
    write_vtk: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; pick from {KINDS}")
        n = tuple(int(v) for v in self.n)
        if not n or any(v < 1 for v in n):
            raise ValueError("mesh subdivision list must hold positive integers")
        if list(n) != sorted(set(n)):
            raise ValueError("mesh subdivision list must be strictly increasing")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gamma", tuple(int(g) for g in self.gamma))
        object.__setattr__(self, "dts", tuple(float(v) for v in self.dts))
        if any(g < 1 for g in self.gamma):
            raise ValueError("exponents must be positive integers")
        if any(v <= 0 for v in self.dts):
            raise ValueError("time steps must be positive")
        if self.kind == "noflow" and not self.gamma:
            raise ValueError("noflow needs a nonempty exponent list")
        if self.kind == "dtsweep":
            if not self.dts:
                raise ValueError("dtsweep needs a nonempty time-step list")
            if list(self.dts) != sorted(self.dts, reverse=True):
                raise ValueError("time-step list must decrease")
        if self.kind == "ethier" and self.d != 0.0 and len(self.n) < 2:
            raise ValueError("convergence sweeps need at least two meshes")
        # The stepper's own checks, made before any mesh is built.
        SolverConfig(
            nu=self.nu,
            dt=self.resolved_dt(),
            theta=self.theta,
            t_end=self.t_end,
            steady_tol=self.steady_tol,
            max_steps=self.max_steps,
            load_degree=self.load_degree,
        )

    def resolved_dt(self):
        if self.dt is not None:
            return float(self.dt)
        if self.kind == "noflow":
            return 1.0
        if self.kind == "ethier" and self.d == 0.0:
            return 0.1
        return 1e-3


@dataclass
class ConvergenceReport:
    """Sweep rows in CSV column order plus fitted log-log slopes."""

    rows: list = field(default_factory=list)
    slopes: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def column(self, name):
        return np.array([row[name] for row in self.rows], dtype=float)

    def fit_slopes(self, columns=("err_l2_u", "err_hdiv_u")):
        if len(self.rows) < 2:
            return self.slopes
        h = self.column("h")
        for name in columns:
            err = self.column(name)
            if np.all(err > 0):
                self.slopes[name] = least_squares_slope(h, err)
        return self.slopes


@dataclass
class NoFlowReport:
    rows: list = field(default_factory=list)

    @property
    def max_velocity_norm(self):
        return max(row["unorm_m2"] for row in self.rows)


@dataclass
class DtSweepReport:
    rows: list = field(default_factory=list)

    @property
    def growth_bound(self):
        """2x the max of the two largest-step errors."""
        errs = [row["err_l2_u"] for row in self.rows]
        return 2.0 * max(errs[: min(2, len(errs))])

    @property
    def bounded(self):
        if len(self.rows) < 2:
            return True
        bound = self.growth_bound
        return all(row["err_l2_u"] <= bound for row in self.rows)


def least_squares_slope(h, err):
    """Least-squares slope of log(err) against log(h)."""
    h = np.asarray(h, dtype=float)
    err = np.asarray(err, dtype=float)
    if len(h) < 2:
        raise ValueError("slope fit needs at least two points")
    return float(np.polyfit(np.log(h), np.log(err), 1)[0])


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".16e")


def write_csv(path, header, rows):
    """Rows of dicts -> CSV with a fixed float format (deterministic)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[name]) for name in header))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_summary(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _ensure_outdir(spec):
    os.makedirs(spec.outdir, exist_ok=True)


def _error_pair(complex_, coeffs, exact, exact_derivative, t):
    """(L2, graph) errors, relative when the exact norm is nonzero.

    Fields that are identically zero (the irrotational steady case, the
    zero total-head pressure of the exact flow family) get absolute
    norms instead; mixing the two in one CSV column is the documented
    convention for those columns.
    """
    err = complex_.error_norms(
        coeffs, exact, exact_derivative=exact_derivative, t=t, relative=False
    )
    l2 = err.l2 / err.exact_l2 if err.exact_l2 > 1e-14 else err.l2
    graph = err.graph / err.exact_graph if err.exact_graph > 1e-14 else err.graph
    return l2, graph


def _report_row(complex_, state, exact_u, exact_w, exact_p, exact_wcurl, t):
    ul2, uhdiv = _error_pair(complex_, state.u, exact_u, None, t)
    wl2, whcurl = _error_pair(complex_, state.omega, exact_w, exact_wcurl, t)
    pl2, _ = _error_pair(complex_, state.p, exact_p, None, t)
    return {
        "h": complex_.h,
        "ndof_u": complex_.V2.ndof,
        "err_l2_u": ul2,
        "err_hdiv_u": uhdiv,
        "err_l2_w": wl2,
        "err_hcurl_w": whcurl,
        "err_l2_p": pl2,
        "div_max": complex_.divergence_max(state.u.values),
    }


def _rest_state(complex_):
    return TransientState(
        t=0.0,
        omega=FormCoefficients.zeros(complex_.V1),
        u=FormCoefficients.zeros(complex_.V2),
        p=FormCoefficients.zeros(complex_.V3),
    )


def _maybe_vtk(spec, tag, complex_, state):
    if spec.write_vtk:
        path = os.path.join(spec.outdir, f"{tag}.vtk")
        write_vtk_fields(path, complex_, state)


def run_noflow(spec):
    """Gradient forcings on the box: velocity must vanish to roundoff.

    One implicit step from rest per exponent g with f = grad(z^g)
    normalized by the box integral of z^g, homogeneous essential
    conditions on both channels.  The load quadrature degree defaults
    to one above the largest exponent so the loads are exact discrete
    gradients.  Every step solves the same matrix, so the exponents
    share one resolved boundary, one saddle operator and its factor.
    """
    _ensure_outdir(spec)
    n = spec.n[0]
    complex_ = DeRhamComplex(build_box_mesh(n, n, n))
    bc = resolve_boundary(complex_, BoundaryConditionSpec(RegionBC()))
    degree = spec.load_degree if spec.load_degree is not None else max(spec.gamma) + 1
    config = SolverConfig(
        nu=spec.nu, dt=spec.resolved_dt(), theta=spec.theta, load_degree=degree
    )
    report = NoFlowReport()
    operator = _SaddleOperator(complex_, bc, config.nu, config.dt)
    for g in spec.gamma:
        f = gradient_of_power(g, 1.0 / (g + 1.0))
        state, _ = step(complex_, bc, config, _rest_state(complex_), f=f, operator=operator)
        unorm = complex_.norm(state.u)
        report.rows.append(
            {
                "gamma": g,
                "h": complex_.h,
                "ndof_u": complex_.V2.ndof,
                "unorm_m2": unorm,
                "div_max": complex_.divergence_max(state.u.values),
            }
        )
        _maybe_vtk(spec, f"noflow_gamma{g}", complex_, state)
    header = ("gamma", "h", "ndof_u", "unorm_m2", "div_max")
    write_csv(os.path.join(spec.outdir, "noflow.csv"), header, report.rows)
    lines = [
        "no-flow test: gradient forcing, velocity should vanish",
        f"mesh n={n}, h={complex_.h:.4f}, velocity dofs={complex_.V2.ndof}",
    ]
    for row in report.rows:
        lines.append(
            f"gamma={row['gamma']}: |u|_M2 = {row['unorm_m2']:.3e}, "
            f"max divergence = {row['div_max']:.3e}"
        )
    lines.append(f"max over gamma: {report.max_velocity_norm:.3e}")
    _write_summary(os.path.join(spec.outdir, "noflow_summary.txt"), lines)
    return report


def _ethier_bc(complex_, uex):
    """Exact normal velocity (essential) and tangential velocity (natural),
    resolved on ``complex_``."""
    region = RegionBC(vorticity_mode="natural", vorticity_data=uex, velocity_data=uex)
    return resolve_boundary(complex_, BoundaryConditionSpec(region))


def run_ethier(spec):
    """Convergence sweep against the exact exponential-decay flow.

    Boundary data: exact normal velocity (essential) and exact
    tangential velocity (natural); no vorticity condition.  d = 0 runs
    pseudo-time from rest to the steady state; d != 0 starts from the
    exact initial fields and integrates to t_end.
    """
    _ensure_outdir(spec)
    uex = ethier_velocity(spec.a, spec.d)
    wex = ethier_vorticity(spec.a, spec.d)
    d2 = float(spec.d) ** 2

    def wcurl(points, t=0.0):
        return d2 * uex(points, t)

    def pex(points, t=0.0):
        return np.zeros(len(points))

    steady = spec.d == 0.0
    report = ConvergenceReport()
    for n in spec.n:
        mesh = build_box_mesh(n, n, n)
        complex_ = DeRhamComplex(mesh)
        bc = _ethier_bc(complex_, uex)
        config = SolverConfig(
            nu=spec.nu,
            dt=spec.resolved_dt(),
            theta=spec.theta,
            t_end=None if steady else spec.t_end,
            steady_tol=spec.steady_tol,
            max_steps=spec.max_steps,
            load_degree=spec.load_degree,
        )
        if steady:
            summary = run_transient(
                complex_, bc, config, state=_rest_state(complex_)
            )
            report.notes.append(
                f"n={n}: steady after {summary.n_steps} pseudo-time steps"
            )
        else:
            init = initialize_state(complex_, bc, uex, t=0.0)
            summary = run_transient(complex_, bc, config, state=init)
            report.notes.append(f"n={n}: {summary.n_steps} steps to t={summary.final.t:g}")
        state = summary.final
        t_eval = 0.0 if steady else state.t
        report.rows.append(
            _report_row(complex_, state, uex, wex, pex, wcurl, t_eval)
        )
        _maybe_vtk(spec, f"ethier_n{n}", complex_, state)
    report.fit_slopes(("err_l2_u", "err_hdiv_u"))
    write_csv(os.path.join(spec.outdir, "ethier.csv"), CSV_HEADER, report.rows)
    label = "steady" if steady else f"transient to t={spec.t_end:g}"
    lines = [f"exact-solution sweep: a={spec.a:g}, d={spec.d:g} ({label})"]
    lines += report.notes
    for name, slope in report.slopes.items():
        lines.append(f"fitted slope of {name}: {slope:.3f}")
    _write_summary(os.path.join(spec.outdir, "ethier_summary.txt"), lines)
    return report


def run_dt_sweep(spec, f=None):
    """One implicit step per time step size; errors must stay bounded.

    The error of each one-step solve is measured against the exact
    field at t = dt.  The acceptance rule mirrors the stability bound:
    no error in the list may exceed twice the max of the two
    largest-step errors.
    """
    _ensure_outdir(spec)
    d = spec.d if spec.d != 0.0 else 1.0
    uex = ethier_velocity(spec.a, d)
    n = spec.n[0]
    mesh = build_box_mesh(n, n, n)
    complex_ = DeRhamComplex(mesh)
    bc = _ethier_bc(complex_, uex)
    init = initialize_state(complex_, bc, uex, t=0.0)
    report = DtSweepReport()
    for dt in spec.dts:
        config = SolverConfig(
            nu=spec.nu, dt=dt, theta=spec.theta, load_degree=spec.load_degree
        )
        state, _ = step(complex_, bc, config, init, f=f)
        l2, hdiv = _error_pair(complex_, state.u, uex, None, state.t)
        report.rows.append(
            {
                "dt": dt,
                "h": complex_.h,
                "err_l2_u": l2,
                "err_hdiv_u": hdiv,
                "div_max": complex_.divergence_max(state.u.values),
            }
        )
    header = ("dt", "h", "err_l2_u", "err_hdiv_u", "div_max")
    write_csv(os.path.join(spec.outdir, "dtsweep.csv"), header, report.rows)
    lines = [f"time-step sweep: one step from exact data, mesh n={n}"]
    for row in report.rows:
        lines.append(f"dt={row['dt']:.1e}: err_l2_u={row['err_l2_u']:.6e}")
    lines.append(
        f"bounded: {report.bounded} (threshold {report.growth_bound:.6e})"
    )
    _write_summary(os.path.join(spec.outdir, "dtsweep_summary.txt"), lines)
    return report


def run_stokes_mms(spec):
    """Steady manufactured-solution sweep with essential conditions.

    Both channels essential (exact tangential vorticity, exact normal
    velocity); the forcing comes from the symbolic momentum balance of
    the manufactured fields.
    """
    _ensure_outdir(spec)
    fields = stokes_mms_fields(spec.nu)
    report = ConvergenceReport()
    for n in spec.n:
        mesh = build_box_mesh(n, n, n)
        complex_ = DeRhamComplex(mesh)
        region = RegionBC(vorticity_data=fields["vorticity"], velocity_data=fields["velocity"])
        bc = BoundaryConditionSpec(region)
        state, _ = solve_stokes(
            complex_,
            bc,
            nu=spec.nu,
            f2=fields["forcing"],
            load_degree=spec.load_degree if spec.load_degree is not None else 8,
        )
        report.rows.append(
            _report_row(
                complex_,
                state,
                fields["velocity"],
                fields["vorticity"],
                fields["pressure"],
                fields["vorticity_curl"],
                0.0,
            )
        )
        _maybe_vtk(spec, f"stokes_mms_n{n}", complex_, state)
    report.fit_slopes(("err_l2_u", "err_hdiv_u", "err_l2_w", "err_l2_p"))
    write_csv(os.path.join(spec.outdir, "stokes-mms.csv"), CSV_HEADER, report.rows)
    lines = ["steady manufactured-solution sweep"]
    for name, slope in report.slopes.items():
        lines.append(f"fitted slope of {name}: {slope:.3f}")
    _write_summary(os.path.join(spec.outdir, "stokes-mms_summary.txt"), lines)
    return report


_RUNNERS = {
    "noflow": run_noflow,
    "ethier": run_ethier,
    "dtsweep": run_dt_sweep,
    "stokes-mms": run_stokes_mms,
}


def run_experiment(spec):
    return _RUNNERS[spec.kind](spec)


# ---------------------------------------------------------------------------
# configuration files


def parse_config(text):
    """Flat ``key = value`` lines with ``#`` comments -> dict of strings."""
    options = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"config line {lineno}: empty key")
        options[key] = value.strip()
    return options


_INT_TUPLE_KEYS = {"n", "gamma"}
_FLOAT_TUPLE_KEYS = {"dts"}
_FLOAT_KEYS = {"nu", "theta", "dt", "t_end", "a", "d", "steady_tol"}
_INT_KEYS = {"load_degree", "max_steps"}
_BOOL_KEYS = {"write_vtk"}
_STR_KEYS = {"outdir"}


def spec_from_options(kind, options):
    """Typed ExperimentSpec from string options (config file / --set)."""
    kwargs = {}
    for key, value in options.items():
        if key in _INT_TUPLE_KEYS:
            kwargs[key] = tuple(int(v) for v in value.split(",") if v.strip())
        elif key in _FLOAT_TUPLE_KEYS:
            kwargs[key] = tuple(float(v) for v in value.split(",") if v.strip())
        elif key in _FLOAT_KEYS:
            kwargs[key] = float(value)
        elif key in _INT_KEYS:
            kwargs[key] = int(value)
        elif key in _BOOL_KEYS:
            lowered = value.lower()
            if lowered not in ("true", "false", "1", "0", "yes", "no"):
                raise ValueError(f"option {key}: expected a boolean, got {value!r}")
            kwargs[key] = lowered in ("true", "1", "yes")
        elif key in _STR_KEYS:
            kwargs[key] = value
        else:
            raise ValueError(f"unknown option {key!r}")
    return ExperimentSpec(kind=kind, **kwargs)
