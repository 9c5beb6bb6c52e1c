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

Every driver returns through one writer, :func:`_write_outputs`, which
creates the output directory and writes ``<kind>.csv`` (stable
formatting, deterministic reruns) and ``<kind>_summary.txt``; optional
VTK snapshots go to the same directory.  ``ethier`` and ``stokes-mms``
share one convergence sweep, :func:`_convergence_sweep`, and pass it only
their per-mesh solve, exact fields, slope columns and title.  Its CSVs
have the columns of CSV_HEADER; the slope of each error column is fitted
by least squares on (log h, log err).  Every error column is a
``rel_l2`` or ``rel_graph`` of :class:`vvpflow.spaces.ErrorNorms`:
relative, or absolute for an identically zero exact field.

An :class:`ExperimentSpec` states each option once, as a typed field.
:func:`spec_from_options` parses the string options of a config file or
``--set`` by those types, and :meth:`ExperimentSpec.solver_config` hands
every :class:`vvpflow.solver.SolverConfig` field to the stepper by name.
"""
from __future__ import annotations

import os
import typing
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .assembly import BoundaryConditionSpec, RegionBC, resolve_boundary
from .fields import (
    ethier_velocity,
    ethier_vorticity,
    gradient_of_power,
    stokes_mms_fields,
    zero_scalar_field,
)
from .mesh import build_box_mesh
from .solver import (
    SolverConfig,
    TransientState,
    check_t_end,
    initialize_state,
    make_operator,
    run_transient,
    solve_stokes,
    step,
    whole_number,
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
    "parse_number",
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
    n: tuple[int, ...] = (2, 3, 4)
    nu: float = SolverConfig.nu
    theta: float = SolverConfig.theta
    dt: float | None = None
    t_end: float = 0.25
    a: float = 2.0
    d: float = 0.0
    gamma: tuple[int, ...] = (1, 2, 4, 7)
    dts: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4)
    outdir: str = "results"
    load_degree: int | None = SolverConfig.load_degree
    steady_tol: float = SolverConfig.steady_tol
    max_steps: int = SolverConfig.max_steps
    write_vtk: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; pick from {KINDS}")
        n = tuple(whole_number("n", v) for v in self.n)
        if not n or any(v < 1 for v in n):
            raise ValueError("mesh subdivision list must hold positive integers")
        if list(n) != sorted(set(n)):
            raise ValueError("mesh subdivision list must be strictly increasing")
        object.__setattr__(self, "n", n)
        for name in ("a", "d"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"Ethier parameter {name} must be finite")
        object.__setattr__(self, "gamma", tuple(whole_number("gamma", g) for g in self.gamma))
        object.__setattr__(self, "dts", tuple(float(v) for v in self.dts))
        if any(g < 1 for g in self.gamma):
            raise ValueError("exponents must be positive integers")
        if not all(0 < v < np.inf for v in self.dts):
            raise ValueError("time steps must be positive and finite")
        if self.kind == "noflow" and not self.gamma:
            raise ValueError("noflow needs a nonempty exponent list")
        if self.kind == "dtsweep":
            if not self.dts:
                raise ValueError("dtsweep needs a nonempty time-step list")
            if list(self.dts) != sorted(set(self.dts), reverse=True):
                raise ValueError("time-step list must decrease strictly")
        if self.kind == "ethier" and self.d != 0.0 and len(self.n) < 2:
            raise ValueError("convergence sweeps need at least two meshes")
        config = self.solver_config()  # the stepper's own checks, before any mesh is built
        if self.kind == "ethier" and self.d != 0.0:
            check_t_end(config)  # run_transient's end-time check, from t = 0
        for f in fields(SolverConfig):  # the stepper's normalized values (whole-number ints)
            if f.name != "dt":
                object.__setattr__(self, f.name, getattr(config, f.name))

    def solver_config(self):
        """The stepper settings of this spec: every SolverConfig field
        by name, with dt resolved.  A run that steps differently (noflow's
        load degree, the sweep's dt, steady ethier's t_end=None) derives
        its own with ``dataclasses.replace``."""
        settings = {f.name: getattr(self, f.name) for f in fields(SolverConfig)}
        return SolverConfig(**{**settings, "dt": self.resolved_dt()})

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
    """Least-squares slope of log(err) against log(h).

    Every h and err must be positive and finite; ValueError names the
    first entry that is not.
    """
    h = np.asarray(h, dtype=float)
    err = np.asarray(err, dtype=float)
    if len(h) < 2:
        raise ValueError("slope fit needs at least two points")
    for name, values in (("h", h), ("err", err)):
        bad = np.flatnonzero(~((values > 0) & (values < np.inf)))
        if len(bad):
            i = bad[0]
            raise ValueError(f"slope fit needs positive, finite {name}; {name}[{i}] = {values[i]}")
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


def _output_path(spec, name):
    """Path of output file ``name``; creates ``spec.outdir`` on first use."""
    os.makedirs(spec.outdir, exist_ok=True)
    return os.path.join(spec.outdir, name)


def _write_outputs(spec, report, header, lines):
    """Write ``<kind>.csv`` and ``<kind>_summary.txt``; return ``report``."""
    write_csv(_output_path(spec, f"{spec.kind}.csv"), header, report.rows)
    with open(_output_path(spec, f"{spec.kind}_summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return report


def _box_complex(n):
    return DeRhamComplex(build_box_mesh(n, n, n))


def _report_row(complex_, state, exact, t):
    """One CSV_HEADER row against ``exact`` = (u, omega, p, curl omega)."""
    exact_u, exact_w, exact_p, exact_wcurl = exact
    u = complex_.error_norms(state.u, exact_u, t=t)
    w = complex_.error_norms(state.omega, exact_w, exact_wcurl, t=t)
    p = complex_.error_norms(state.p, exact_p, t=t)
    return {
        "h": complex_.h,
        "ndof_u": complex_.V2.ndof,
        "err_l2_u": u.rel_l2,
        "err_hdiv_u": u.rel_graph,
        "err_l2_w": w.rel_l2,
        "err_hcurl_w": w.rel_graph,
        "err_l2_p": p.rel_l2,
        "div_max": complex_.divergence_max(state.u.values),
    }


def _rest_state(complex_):
    zeros = FormCoefficients.zeros
    return TransientState(0.0, zeros(complex_.V1), zeros(complex_.V2), zeros(complex_.V3))


def _maybe_vtk(spec, tag, complex_, state):
    if spec.write_vtk:
        write_vtk_fields(_output_path(spec, f"{tag}.vtk"), complex_, state)


def _convergence_sweep(spec, title, solve, exact, columns):
    """The mesh loop of the convergence experiments.

    ``solve(complex_)`` returns the final state, the time its errors are
    measured at and a summary note (or None).  Each mesh of ``spec.n``
    adds a CSV_HEADER row against ``exact`` (see :func:`_report_row`) and
    a VTK snapshot when asked; the summary is ``title``, the notes and
    the fitted slopes of ``columns``.
    """
    report = ConvergenceReport()
    for n in spec.n:
        complex_ = _box_complex(n)
        state, t, note = solve(complex_)
        if note is not None:
            report.notes.append(f"n={n}: {note}")
        report.rows.append(_report_row(complex_, state, exact, t))
        _maybe_vtk(spec, f"{spec.kind.replace('-', '_')}_n{n}", complex_, state)
    lines = [title, *report.notes]
    for name, slope in report.fit_slopes(columns).items():
        lines.append(f"fitted slope of {name}: {slope:.3f}")
    return _write_outputs(spec, report, CSV_HEADER, lines)


def run_noflow(spec):
    """Gradient forcings on the box: velocity must vanish to roundoff.

    One implicit step from rest per exponent g with f = grad(z^g)
    normalized by the box integral of z^g, homogeneous essential
    conditions on both channels.  The load quadrature degree defaults
    to one above the largest exponent so the loads are exact discrete
    gradients.  Every step solves the same matrix, so the exponents
    share one resolved boundary, one operator and its factor.
    """
    n = spec.n[0]
    complex_ = _box_complex(n)
    bc = resolve_boundary(complex_, BoundaryConditionSpec(RegionBC()))
    degree = spec.load_degree if spec.load_degree is not None else max(spec.gamma) + 1
    config = replace(spec.solver_config(), load_degree=degree)
    report = NoFlowReport()
    operator = make_operator(complex_, bc, config.nu, config.dt)
    lines = [
        "no-flow test: gradient forcing, velocity should vanish",
        f"mesh n={n}, h={complex_.h:.4f}, velocity dofs={complex_.V2.ndof}",
    ]
    for g in spec.gamma:
        f = gradient_of_power(g, 1.0 / (g + 1.0))
        state, _ = step(complex_, bc, config, _rest_state(complex_), f=f, operator=operator)
        unorm = complex_.norm(state.u)
        div_max = complex_.divergence_max(state.u.values)
        report.rows.append(
            dict(gamma=g, h=complex_.h, ndof_u=complex_.V2.ndof, unorm_m2=unorm, div_max=div_max)
        )
        lines.append(f"gamma={g}: |u|_M2 = {unorm:.3e}, max divergence = {div_max:.3e}")
        _maybe_vtk(spec, f"noflow_gamma{g}", complex_, state)
    lines.append(f"max over gamma: {report.max_velocity_norm:.3e}")
    return _write_outputs(spec, report, ("gamma", "h", "ndof_u", "unorm_m2", "div_max"), lines)


def _ethier_bc(complex_, uex):
    """Exact normal (essential) and tangential (natural) velocity on ``complex_``."""
    region = RegionBC(vorticity_mode="natural", vorticity_data=uex, velocity_data=uex)
    return resolve_boundary(complex_, BoundaryConditionSpec(region))


def run_ethier(spec):
    """Convergence sweep against the exact exponential-decay flow.

    Boundary data: exact normal velocity (essential) and exact
    tangential velocity (natural); no vorticity condition.  d = 0 runs
    pseudo-time from rest to the steady state; d != 0 starts from the
    exact initial fields and integrates to t_end.
    """
    uex = ethier_velocity(spec.a, spec.d)
    d2 = float(spec.d) ** 2

    def wcurl(points, t=0.0):
        return d2 * uex(points, t)

    steady = spec.d == 0.0
    config = replace(spec.solver_config(), t_end=None) if steady else spec.solver_config()

    def solve(complex_):
        bc = _ethier_bc(complex_, uex)
        start = _rest_state(complex_) if steady else initialize_state(complex_, bc, uex, t=0.0)
        summary = run_transient(complex_, bc, config, state=start)
        if steady:
            return summary.final, 0.0, f"steady after {summary.n_steps} pseudo-time steps"
        t = summary.final.t
        return summary.final, t, f"{summary.n_steps} steps to t={t:g}"

    label = "steady" if steady else f"transient to t={spec.t_end:g}"
    title = f"exact-solution sweep: a={spec.a:g}, d={spec.d:g} ({label})"
    exact = (uex, ethier_vorticity(spec.a, spec.d), zero_scalar_field, wcurl)
    return _convergence_sweep(spec, title, solve, exact, ("err_l2_u", "err_hdiv_u"))


def run_dt_sweep(spec, f=None):
    """One implicit step per time step size; errors must stay bounded.

    The error of each one-step solve is measured against the exact
    field at t = dt.  The acceptance rule mirrors the stability bound:
    no error in the list may exceed twice the max of the two
    largest-step errors.
    """
    uex = ethier_velocity(spec.a, spec.d or 1.0)
    n = spec.n[0]
    complex_ = _box_complex(n)
    bc = _ethier_bc(complex_, uex)
    init = initialize_state(complex_, bc, uex, t=0.0)
    report = DtSweepReport()
    lines = [f"time-step sweep: one step from exact data, mesh n={n}"]
    for dt in spec.dts:
        config = replace(spec.solver_config(), dt=dt)
        state, _ = step(complex_, bc, config, init, f=f)
        err = complex_.error_norms(state.u, uex, t=state.t)
        report.rows.append(
            {
                "dt": dt,
                "h": complex_.h,
                "err_l2_u": err.rel_l2,
                "err_hdiv_u": err.rel_graph,
                "div_max": complex_.divergence_max(state.u.values),
            }
        )
        lines.append(f"dt={dt:.1e}: err_l2_u={err.rel_l2:.6e}")
        _maybe_vtk(spec, f"dtsweep_dt{dt:g}", complex_, state)
    lines.append(f"bounded: {report.bounded} (threshold {report.growth_bound:.6e})")
    return _write_outputs(spec, report, ("dt", "h", "err_l2_u", "err_hdiv_u", "div_max"), lines)


def run_stokes_mms(spec):
    """Steady manufactured-solution sweep with essential conditions.

    Both channels essential (exact tangential vorticity, exact normal
    velocity); the forcing comes from the symbolic momentum balance of
    the manufactured fields.
    """
    fields = stokes_mms_fields(spec.nu)
    region = RegionBC(vorticity_data=fields["vorticity"], velocity_data=fields["velocity"])
    bc = BoundaryConditionSpec(region)
    degree = spec.load_degree if spec.load_degree is not None else 8

    def solve(complex_):
        state, _ = solve_stokes(complex_, bc, nu=spec.nu, f2=fields["forcing"], load_degree=degree)
        return state, 0.0, None

    exact = tuple(fields[k] for k in ("velocity", "vorticity", "pressure", "vorticity_curl"))
    columns = ("err_l2_u", "err_hdiv_u", "err_l2_w", "err_l2_p")
    return _convergence_sweep(spec, "steady manufactured-solution sweep", solve, exact, columns)


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


def parse_number(key, value, cast):
    """``cast(value)`` (int or float) for option ``key``, naming the
    option when the value does not parse."""
    try:
        return cast(value)
    except ValueError:
        expected = "an integer" if cast is int else "a number"
        raise ValueError(f"option {key}: expected {expected}, got {value!r}") from None


def _parse_option(key, value, hint):
    """One string option as the type ``hint`` of its ExperimentSpec field."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]: comma-separated
        return tuple(parse_number(key, v, args[0]) for v in value.split(",") if v.strip())
    cast = args[0] if args else hint  # X | None parses as X
    if cast is bool:
        lowered = value.lower()
        if lowered not in ("true", "false", "1", "0", "yes", "no"):
            raise ValueError(f"option {key}: expected a boolean, got {value!r}")
        return lowered in ("true", "1", "yes")
    if cast is str:
        return value
    return parse_number(key, value, cast)


def spec_from_options(kind, options):
    """Typed ExperimentSpec from string options (config file / --set);
    each option parses as the type of the ExperimentSpec field it names."""
    hints = typing.get_type_hints(ExperimentSpec)
    kwargs = {}
    for key, value in options.items():
        if key == "kind" or key not in hints:
            raise ValueError(f"unknown option {key!r}")
        kwargs[key] = _parse_option(key, value, hints[key])
    return ExperimentSpec(kind=kind, **kwargs)
