"""Experiment drivers, config parsing, CSV/VTK output, and the CLI."""
import dataclasses
import os
import warnings

import numpy as np
import pytest

from vvpflow import experiments, linalg
from vvpflow.assembly import BoundaryConditionSpec, RegionBC
from vvpflow.cli import main
from vvpflow.experiments import (
    CSV_HEADER,
    ConvergenceReport,
    DtSweepReport,
    ExperimentSpec,
    NoFlowReport,
    least_squares_slope,
    parse_config,
    run_dt_sweep,
    run_ethier,
    run_experiment,
    run_noflow,
    run_stokes_mms,
    spec_from_options,
    write_csv,
)
from vvpflow.fields import gradient_of_power
from vvpflow.mesh import build_box_mesh, write_tetmesh
from vvpflow.solver import SolverConfig, initialize_state, step
from vvpflow.spaces import DeRhamComplex
from vvpflow.vtk_io import write_vtk_fields

import oracles
from conftest import carved_box


# ---------------------------------------------------------------------------
# spec validation and defaults


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(kind="vortex"), "unknown experiment kind"),
        (dict(kind="ethier", n=(3, 2)), "strictly increasing"),
        (dict(kind="ethier", n=(2, 2, 3)), "strictly increasing"),
        (dict(kind="ethier", n=(0,)), "positive integers"),
        (dict(kind="noflow", gamma=()), "nonempty exponent"),
        (dict(kind="dtsweep", dts=()), "nonempty time-step"),
        (dict(kind="dtsweep", dts=(1e-3, 1e-2)), "must decrease"),
        (dict(kind="ethier", d=1.0, n=(2,)), "at least two meshes"),
        (dict(kind="ethier", nu=0.0), "viscosity"),
        (dict(kind="noflow", gamma=(1, 0)), "exponents must be positive"),
        (dict(kind="noflow", gamma=(-1,)), "exponents must be positive"),
        (dict(kind="dtsweep", dts=(1e-2, 0.0)), "time steps must be positive"),
        (dict(kind="dtsweep", dts=(1e-2, -1e-3)), "time steps must be positive"),
        (dict(kind="noflow", dt=0.0), "time step must be positive"),
        (dict(kind="ethier", dt=-0.1), "time step must be positive"),
        (dict(kind="dtsweep", theta=2.0), "theta must lie in"),
        (dict(kind="ethier", theta=-0.5), "theta must lie in"),
        (dict(kind="ethier", max_steps=0), "max_steps must be at least 1"),
        (dict(kind="ethier", d=1.0, t_end=0.0), "t_end must be positive"),
        (dict(kind="ethier", steady_tol=0.0), "steady tolerance must be positive"),
        (dict(kind="noflow", n=(2.7,)), "n must be a whole number, got 2.7"),
        (dict(kind="noflow", gamma=(1.5,)), "gamma must be a whole number, got 1.5"),
        (dict(kind="noflow", n=(1,), load_degree=2.5), "load_degree must be a whole number"),
        (dict(kind="ethier", d=1.0, t_end=0.0025), "not a whole number of steps dt=0.001"),
        (dict(kind="dtsweep", dts=(0.1, 0.1)), "must decrease strictly"),
    ],
)
def test_spec_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ExperimentSpec(**kwargs)


def test_spec_stores_whole_numbers_as_int():
    spec = ExperimentSpec(
        kind="noflow", n=(2.0, np.int64(3)), gamma=(1.0,), load_degree=4.0, max_steps=5.0
    )
    assert spec.n == (2, 3) and spec.gamma == (1,)
    assert (spec.load_degree, spec.max_steps) == (4, 5)
    assert all(type(v) is int for v in (*spec.n, *spec.gamma, spec.load_degree, spec.max_steps))


def test_resolved_dt_defaults():
    assert ExperimentSpec(kind="noflow").resolved_dt() == 1.0
    assert ExperimentSpec(kind="ethier", d=0.0).resolved_dt() == 0.1
    assert ExperimentSpec(kind="ethier", d=1.0).resolved_dt() == 1e-3
    assert ExperimentSpec(kind="dtsweep").resolved_dt() == 1e-3
    assert ExperimentSpec(kind="stokes-mms").resolved_dt() == 1e-3
    assert ExperimentSpec(kind="noflow", dt=0.05).resolved_dt() == 0.05


def test_least_squares_slope_recovers_exact_power():
    h = np.array([0.5, 0.25, 0.125, 0.0625])
    assert least_squares_slope(h, 3.0 * h**2) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="two points"):
        least_squares_slope([0.5], [1.0])
    # A zero, negative or non-finite entry has no logarithm: the fit names
    # it instead of returning nan with a numpy warning.
    bad = [
        ([0.5, 0.25], [0.1, 0.0], r"err\[1\] = 0.0"),
        ([0.5, 0.25], [-0.1, 0.05], r"err\[0\] = -0.1"),
        ([0.5, np.nan], [0.1, 0.05], r"h\[1\] = nan"),
        ([np.inf, 0.25], [0.1, 0.05], r"h\[0\] = inf"),
    ]
    for h, err, match in bad:
        with warnings.catch_warnings(), pytest.raises(ValueError, match=match):
            warnings.simplefilter("error")
            least_squares_slope(h, err)


def test_convergence_report_helpers():
    report = ConvergenceReport()
    report.rows.append({"h": 0.5, "err_l2_u": 0.2, "err_hdiv_u": 0.8})
    assert report.fit_slopes() == {}
    report.rows.append({"h": 0.25, "err_l2_u": 0.1, "err_hdiv_u": 0.4})
    slopes = report.fit_slopes()
    assert slopes["err_l2_u"] == pytest.approx(1.0)
    np.testing.assert_allclose(report.column("h"), [0.5, 0.25])
    # A column with a zero entry is left out of the fit.
    report.rows[0]["err_l2_u"] = 0.0
    report.slopes = {}
    assert "err_l2_u" not in report.fit_slopes()
    assert "err_hdiv_u" in report.slopes


def test_dt_sweep_report_bound():
    report = DtSweepReport()
    for err in (0.1, 0.05, 0.04, 0.03):
        report.rows.append({"err_l2_u": err})
    assert report.growth_bound == pytest.approx(0.2)
    assert report.bounded
    report.rows.append({"err_l2_u": 0.25})
    assert not report.bounded


def test_noflow_report_max():
    report = NoFlowReport()
    report.rows.append({"unorm_m2": 1e-13})
    report.rows.append({"unorm_m2": 3e-12})
    assert report.max_velocity_norm == 3e-12


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_basics():
    text = """
    # comment line
    n = 2, 3
    nu = 0.7   # trailing comment

    outdir = /tmp/run
    """
    options = parse_config(text)
    assert options == {"n": "2, 3", "nu": "0.7", "outdir": "/tmp/run"}


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2: expected 'key = value'"):
        parse_config("a = 1\nbroken line\n")
    with pytest.raises(ValueError, match="line 1: empty key"):
        parse_config("= 3\n")


def test_spec_from_options_typing():
    spec = spec_from_options(
        "ethier",
        {
            "n": "2,3",
            "nu": "0.5",
            "load_degree": "6",
            "write_vtk": "yes",
            "outdir": "out",
            "dts": "0.1,0.01",
        },
    )
    assert spec.n == (2, 3)
    assert spec.nu == 0.5
    assert spec.load_degree == 6
    assert spec.write_vtk is True
    assert spec.outdir == "out"
    assert spec.dts == (0.1, 0.01)


def test_every_spec_field_round_trips_through_options():
    """Each ExperimentSpec field but ``kind`` parses from the string of
    its value, with its type kept, so no field can be left unparseable."""
    base = ExperimentSpec(kind="ethier", dt=0.05, load_degree=5, write_vtk=True)
    for f in dataclasses.fields(ExperimentSpec):
        if f.name == "kind":
            continue
        value = getattr(base, f.name)
        text = ",".join(map(repr, value)) if isinstance(value, tuple) else str(value)
        parsed = getattr(spec_from_options("ethier", {f.name: text}), f.name)
        assert parsed == value, f.name
        assert type(parsed) is type(value), f.name
        if isinstance(value, tuple):
            assert [type(v) for v in parsed] == [type(v) for v in value], f.name
    with pytest.raises(ValueError, match="unknown option 'kind'"):
        spec_from_options("ethier", {"kind": "noflow"})


def test_spec_from_options_rejects_unknown_and_bad_bool():
    with pytest.raises(ValueError, match="unknown option"):
        spec_from_options("noflow", {"mesh": "2"})
    with pytest.raises(ValueError, match="expected a boolean"):
        spec_from_options("noflow", {"write_vtk": "maybe"})


def test_csv_format_is_deterministic(tmp_path):
    rows = [{"a": 3, "b": 0.1}, {"a": 4, "b": 2.0 / 3.0}]
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), rows)
    text = path.read_text()
    assert text.splitlines()[0] == "a,b"
    assert text.splitlines()[1] == "3,1.0000000000000001e-01"
    write_csv(path, ("a", "b"), rows)
    assert path.read_text() == text


# ---------------------------------------------------------------------------
# experiment drivers (small instances; the acceptance suite runs the
# full protocol sizes)


def test_run_noflow_produces_tiny_velocity(tmp_path):
    spec = ExperimentSpec(kind="noflow", n=(2,), gamma=(1, 2), outdir=str(tmp_path))
    report = run_noflow(spec)
    assert [row["gamma"] for row in report.rows] == [1, 2]
    assert report.max_velocity_norm <= 1e-10
    for row in report.rows:
        assert row["div_max"] <= 1e-12
    text = (tmp_path / "noflow.csv").read_text()
    assert text.splitlines()[0] == "gamma,h,ndof_u,unorm_m2,div_max"
    assert (tmp_path / "noflow_summary.txt").exists()
    run_noflow(spec)
    assert (tmp_path / "noflow.csv").read_text() == text


def test_run_noflow_factors_once_for_all_exponents(monkeypatch, tmp_path):
    """Every exponent solves the same matrix, so the run factors it once;
    its rows are bitwise those of one fresh step per exponent."""
    factors = []
    real = linalg.spla.splu

    def spy(a, **kwargs):
        factors.append(a.shape)
        return real(a, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", spy)
    gamma = (1, 2, 4, 7)
    spec = ExperimentSpec(kind="noflow", n=(2,), gamma=gamma, outdir=str(tmp_path))
    report = run_noflow(spec)
    assert len(factors) == 1
    complex_ = DeRhamComplex(build_box_mesh(2, 2, 2))
    bc = BoundaryConditionSpec(RegionBC())
    config = SolverConfig(dt=spec.resolved_dt(), load_degree=max(gamma) + 1)
    for g, row in zip(gamma, report.rows):
        f = gradient_of_power(g, 1.0 / (g + 1.0))
        state, _ = step(complex_, bc, config, experiments._rest_state(complex_), f=f)
        assert row["unorm_m2"] == complex_.norm(state.u)
        assert row["div_max"] == complex_.divergence_max(state.u.values)


def test_run_noflow_keeps_the_factor_of_its_unchanged_matrix(monkeypatch, tmp_path):
    """At n = 6 one exponent's refinement ends just above ROUNDOFF_RESIDUAL;
    the matrix is bitwise the one the shared factor factors, so no exponent
    factors it again."""
    factors = []
    real = linalg.spla.splu

    def spy(a, **kwargs):
        factors.append(a.shape)
        return real(a, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", spy)
    report = run_noflow(ExperimentSpec(kind="noflow", n=(6,), outdir=str(tmp_path)))
    assert len(factors) == 1
    assert report.max_velocity_norm <= 1e-10


def test_run_dt_sweep_bounded(tmp_path):
    spec = ExperimentSpec(
        kind="dtsweep", n=(2,), dts=(1e-1, 1e-2), outdir=str(tmp_path)
    )
    report = run_dt_sweep(spec)
    assert len(report.rows) == 2
    assert report.bounded
    text = (tmp_path / "dtsweep.csv").read_text()
    assert text.splitlines()[0] == "dt,h,err_l2_u,err_hdiv_u,div_max"


def test_dt_sweep_velocity_ignores_gradient_forcing(tmp_path):
    """Adding a gradient load must not move the discrete velocity."""
    spec = ExperimentSpec(
        kind="dtsweep", n=(2,), dts=(1e-1, 1e-2), outdir=str(tmp_path / "a")
    )
    base = run_dt_sweep(spec)
    spec2 = ExperimentSpec(
        kind="dtsweep", n=(2,), dts=(1e-1, 1e-2), outdir=str(tmp_path / "b")
    )
    grad = gradient_of_power(3, 0.25)
    shifted = run_dt_sweep(spec2, f=grad)
    for row_a, row_b in zip(base.rows, shifted.rows):
        assert row_b["err_l2_u"] == pytest.approx(row_a["err_l2_u"], abs=1e-9)
        assert row_b["err_hdiv_u"] == pytest.approx(row_a["err_hdiv_u"], abs=1e-9)


@pytest.mark.parametrize(
    "kind, kwargs, meshes",
    [
        ("noflow", dict(n=(2,), gamma=(1, 2)), 1),
        ("dtsweep", dict(n=(2,), dts=(1e-1, 1e-2, 1e-3, 1e-4)), 1),
        ("ethier", dict(n=(2, 3), d=1.0, t_end=2e-3), 2),
    ],
)
def test_runs_resolve_their_boundary_once_per_mesh(
    tmp_path, region_map_calls, kind, kwargs, meshes
):
    """Every step size of a dtsweep, and the initial state and the steps
    of a transient ethier mesh, share one resolved boundary."""
    run_experiment(ExperimentSpec(kind=kind, outdir=str(tmp_path), **kwargs))
    assert len(region_map_calls) == len({id(mesh) for mesh in region_map_calls}) == meshes


def test_run_ethier_steady_single_mesh(tmp_path):
    spec = ExperimentSpec(
        kind="ethier", n=(2,), a=2.0, d=0.0, outdir=str(tmp_path)
    )
    report = run_ethier(spec)
    assert len(report.rows) == 1
    assert report.slopes == {}
    row = report.rows[0]
    assert row["err_l2_u"] > 0
    assert row["div_max"] <= 1e-12 * (1.0 + 20.0)
    text = (tmp_path / "ethier.csv").read_text()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    assert (tmp_path / "ethier_summary.txt").exists()


def test_run_stokes_mms_single_mesh(tmp_path):
    spec = ExperimentSpec(kind="stokes-mms", n=(2,), outdir=str(tmp_path))
    report = run_stokes_mms(spec)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert 0 < row["err_l2_p"]
    assert 0 < row["err_l2_u"]
    text = (tmp_path / "stokes-mms.csv").read_text()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)


def test_run_experiment_dispatch(tmp_path):
    spec = ExperimentSpec(kind="noflow", n=(2,), gamma=(1,), outdir=str(tmp_path))
    report = run_experiment(spec)
    assert isinstance(report, NoFlowReport)


@pytest.mark.parametrize(
    "kind, kwargs",
    [
        ("noflow", dict(gamma=(1,))),
        ("ethier", dict()),
        ("dtsweep", dict(dts=(1e-1,))),
        ("stokes-mms", dict()),
    ],
)
def test_runs_write_into_a_missing_nested_outdir(tmp_path, kind, kwargs):
    """Every kind creates its output directory, even a nested one, before
    its first file, and writes its CSV, summary and VTK snapshots there."""
    outdir = tmp_path / "a" / "b"
    spec = ExperimentSpec(kind=kind, n=(1,), outdir=str(outdir), write_vtk=True, **kwargs)
    run_experiment(spec)
    assert (outdir / f"{kind}.csv").read_text().count("\n") == 2
    assert (outdir / f"{kind}_summary.txt").read_text()
    assert sorted(outdir.glob("*.vtk"))


@pytest.mark.parametrize("kind", ["stokes-mms", "ethier", "noflow", "dtsweep"])
def test_reruns_write_byte_identical_csvs(kind, tmp_path):
    """Rerunning an experiment reproduces its CSV byte for byte (noflow
    and dtsweep run on the first mesh, n=2)."""
    written = []
    for run in ("first", "second"):
        run_experiment(ExperimentSpec(kind=kind, n=(2, 3), outdir=str(tmp_path / run)))
        written.append((tmp_path / run / f"{kind}.csv").read_bytes())
    assert written[0] == written[1]


# ---------------------------------------------------------------------------
# command line


def test_cli_mesh_info(capsys):
    main(["mesh-info", "--set", "n=2"])
    out = capsys.readouterr().out
    counts = {
        line.split(":")[0]: line.split(":")[1].strip()
        for line in out.splitlines()
        if ":" in line
    }
    assert counts["vertices"] == "27"
    assert counts["edges"] == "98"
    assert counts["faces"] == "120"
    assert counts["tets"] == "48"
    assert counts["boundary faces"] == "48"


def test_cli_mesh_info_prints_betti_numbers(tmp_path, capsys):
    main(["mesh-info", "--set", "n=2"])
    assert "betti numbers (b0, b1, b2): 1, 0, 0\n" in capsys.readouterr().out
    path = tmp_path / "handle.mesh"
    write_tetmesh(path, carved_box([(1, 1, k) for k in range(3)]))
    main(["mesh-info", "--set", f"mesh={path}"])
    out = capsys.readouterr().out
    assert "euler characteristic: 0\n" in out
    assert "betti numbers (b0, b1, b2): 1, 1, 0\n" in out


def test_cli_runs_noflow_with_config_and_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"n = 2\ngamma = 1\noutdir = {tmp_path / 'from_config'}\n"
    )
    override = tmp_path / "from_set"
    main(
        [
            "noflow",
            "--config",
            str(config),
            "--set",
            f"outdir={override}",
        ]
    )
    out = capsys.readouterr().out
    assert "no-flow test" in out
    assert override.joinpath("noflow.csv").exists()
    assert not (tmp_path / "from_config").exists()


def test_cli_bad_set_and_unknown_option(tmp_path):
    with pytest.raises(SystemExit, match="--set expects key=value"):
        main(["noflow", "--set", "oops"])
    with pytest.raises(SystemExit, match="error: unknown option"):
        main(["noflow", "--set", "bogus=1"])
    with pytest.raises(SystemExit, match="error:"):
        main(["noflow", "--config", str(tmp_path / "missing.cfg")])


def test_cli_rejects_bad_exponent_before_building_a_mesh(monkeypatch):
    def no_mesh(*args, **kwargs):
        raise AssertionError("mesh built for an invalid spec")

    monkeypatch.setattr(experiments, "build_box_mesh", no_mesh)
    with pytest.raises(SystemExit, match="error: exponents must be positive"):
        main(["noflow", "--set", "gamma=-1"])
    with pytest.raises(SystemExit, match="error: exponents must be positive"):
        main(["noflow", "--set", "gamma=0"])


SOLVER_SETTINGS = [
    ("noflow", "dt=0", "time step must be positive"),
    ("dtsweep", "theta=2", "convection weight theta must lie in"),
    ("ethier", "max_steps=0", "max_steps must be at least 1"),
    ("noflow", "load_degree=-1", "load_degree must be nonnegative"),
    ("stokes-mms", "load_degree=-1", "load_degree must be nonnegative"),
    ("noflow", "nu=nan", "viscosity must be positive and finite"),
    ("ethier", "t_end=inf", "t_end must be positive and finite"),
    ("ethier", "steady_tol=nan", "steady tolerance must be positive and finite"),
    ("dtsweep", "dts=nan", "time steps must be positive and finite"),
    ("dtsweep", "dts=1e-2,inf", "time steps must be positive and finite"),
    ("ethier", "a=nan", "Ethier parameter a must be finite"),
    ("ethier", "d=nan", "Ethier parameter d must be finite"),
    ("dtsweep", "a=inf", "Ethier parameter a must be finite"),
]


@pytest.mark.parametrize("kind, setting, match", SOLVER_SETTINGS)
def test_spec_rejects_solver_settings_before_building_a_mesh(
    monkeypatch, kind, setting, match
):
    calls = []
    monkeypatch.setattr(experiments, "build_box_mesh", lambda *a, **k: calls.append(a))
    key, value = setting.split("=")
    with pytest.raises(ValueError, match=match):
        run_experiment(spec_from_options(kind, {key: value}))
    assert calls == []


def test_transient_end_time_is_checked_before_building_a_mesh(monkeypatch):
    """A transient ``ethier`` whose t_end is not a whole number of steps, or
    is more than max_steps of them, is refused by the spec, as
    run_transient would refuse it, but before the first mesh, its complex
    and the initial state are built.  The steady case marches to a steady
    state and takes no t_end."""
    calls = []
    monkeypatch.setattr(experiments, "_box_complex", lambda n: calls.append(n))
    with pytest.raises(ValueError, match="t_end=0.0025 is not a whole number of steps"):
        run_experiment(spec_from_options("ethier", {"d": "1", "t_end": "0.0025"}))
    with pytest.raises(SystemExit, match="^error: t_end=0.0025 is not a whole number"):
        main(["ethier", "--set", "d=1", "--set", "t_end=0.0025"])
    with pytest.raises(SystemExit, match="^error: t_end=1 is 1000 steps .* max_steps=5$"):
        main(["ethier", "--set", "d=1", "--set", "t_end=1", "--set", "max_steps=5"])
    assert calls == []
    assert ExperimentSpec(kind="ethier", t_end=0.0025).d == 0.0


def test_cli_reports_a_solver_failure(tmp_path):
    """A run that fails in the solver (here no steady state within
    max_steps) ends in ``error: ...`` and exit status 1, not a traceback."""
    argv = ["ethier", "--set", "n=2,3", "--set", "max_steps=2", "--set", f"outdir={tmp_path}"]
    with pytest.raises(SystemExit, match="^error: no steady state within 2 steps: "):
        main(argv)


@pytest.mark.parametrize("kind, setting, match", SOLVER_SETTINGS)
def test_cli_reports_bad_solver_settings(kind, setting, match):
    with warnings.catch_warnings(), pytest.raises(SystemExit, match=f"^error: {match}"):
        warnings.simplefilter("error")  # no numpy overflow warning before the error
        main([kind, "--set", setting])


@pytest.mark.parametrize(
    "command, setting, match",
    [
        ("noflow", "nu=abc", "option nu: expected a number, got 'abc'"),
        ("noflow", "n=1.5", "option n: expected an integer, got '1.5'"),
        ("mesh-info", "nu=abc", "unknown option 'nu'"),
        ("mesh-info", "n=1.5", "option n: expected an integer, got '1.5'"),
        ("noflow", "foo", "--set expects key=value, got 'foo'"),
        ("mesh-info", "foo", "--set expects key=value, got 'foo'"),
    ],
)
def test_cli_names_the_option_that_does_not_parse(command, setting, match):
    with pytest.raises(SystemExit, match=f"^error: {match}$"):
        main([command, "--set", setting])


def test_cli_mesh_info_rejects_bad_size():
    with pytest.raises(SystemExit, match="error: cell counts must be positive"):
        main(["mesh-info", "--set", "n=0"])


def test_cli_mesh_info_rejects_unknown_option(capsys):
    with pytest.raises(SystemExit, match="error: unknown option 'foo'"):
        main(["mesh-info", "--set", "n=2", "--set", "foo=1"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("nv", [4, 0])
def test_cli_mesh_info_names_a_mesh_file_without_tets(tmp_path, nv):
    """A file with no tet lines (with or without vertices) is reported as
    a mesh without tets, not as an array of the wrong shape."""
    path = tmp_path / "empty.mesh"
    vertices = ["0 0 0", "1 0 0", "0 1 0", "0 0 1"][:nv]
    path.write_text("\n".join([f"tetmesh {nv} 0", *vertices]) + "\n")
    with pytest.raises(SystemExit, match="^error: a mesh needs at least one tet$"):
        main(["mesh-info", "--set", f"mesh={path}"])


def test_cli_mesh_info_rejects_missing_mesh(tmp_path):
    with pytest.raises(SystemExit, match="error: .*No such file"):
        main(["mesh-info", "--set", f"mesh={tmp_path / 'missing.mesh'}"])


# ---------------------------------------------------------------------------
# VTK output


def make_uniform_state(complex_):
    bc = BoundaryConditionSpec(RegionBC())
    return initialize_state(
        complex_,
        bc,
        lambda p, t=0.0: np.broadcast_to([1.0, 0.0, 0.0], (len(p), 3)).copy(),
    )


def test_vtk_round_trip(tmp_path, complex_n1):
    state = make_uniform_state(complex_n1)
    path = tmp_path / "fields.vtk"
    write_vtk_fields(path, complex_n1, state, title="demo")
    data = oracles.parse_vtk(path.read_text())
    mesh = complex_n1.mesh
    assert data["title"] == "demo"
    np.testing.assert_allclose(data["points"], mesh.vertices)
    np.testing.assert_array_equal(data["cells"], mesh.tets)
    assert all(ct == 10 for ct in data["cell_types"])
    np.testing.assert_allclose(
        data["cell_vectors"]["velocity"],
        np.broadcast_to([1.0, 0.0, 0.0], (mesh.n_tets, 3)),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        data["cell_scalars"]["divergence"], 0.0, atol=1e-12
    )
    np.testing.assert_allclose(
        data["cell_scalars"]["pressure"],
        state.p.values / mesh.tet_volumes,
        atol=1e-15,
    )


def test_cell_fields_evaluates_at_barycenters(tmp_path, complex_n1):
    """The written velocity and vorticity are the fields at each tet's
    barycenter; the scalars and vectors come in a fixed order."""
    state = make_uniform_state(complex_n1)
    path = tmp_path / "fields.vtk"
    write_vtk_fields(path, complex_n1, state)
    data = oracles.parse_vtk(path.read_text())
    mesh = complex_n1.mesh
    center = [0.25] * 4
    for name, coeffs in (("velocity", state.u), ("vorticity", state.omega)):
        want = [oracles.evaluate(coeffs, tet, center) for tet in range(mesh.n_tets)]
        np.testing.assert_allclose(data["cell_vectors"][name], want, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(
        data["cell_vectors"]["velocity"],
        np.broadcast_to([1.0, 0.0, 0.0], (mesh.n_tets, 3)),
        atol=1e-9,
    )
    assert list(data["cell_scalars"]) == ["divergence", "pressure"]
    assert list(data["cell_vectors"]) == ["velocity", "vorticity"]


def test_experiment_writes_vtk_when_asked(tmp_path):
    spec = ExperimentSpec(
        kind="noflow", n=(2,), gamma=(1,), outdir=str(tmp_path), write_vtk=True
    )
    run_noflow(spec)
    files = [f for f in os.listdir(tmp_path) if f.endswith(".vtk")]
    assert files, "expected a VTK snapshot in the output directory"
