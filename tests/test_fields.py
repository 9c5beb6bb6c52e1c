"""Analytic solution families checked against finite-difference calculus
and against their symbolic derivation."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import vvpflow
from vvpflow.fields import (
    ethier_velocity,
    ethier_vorticity,
    gradient_of_power,
    stokes_mms_fields,
    zero_scalar_field,
)

from oracles import (
    D,
    NU,
    ethier_expressions,
    lambdify_field,
    mms_closed_forms,
    mms_expressions,
    simplified,
)

EPS = 1e-6


def fd_divergence(field, points, t=0.0):
    div = np.zeros(len(points))
    for i in range(3):
        step = np.zeros(3)
        step[i] = EPS
        div += (field(points + step, t)[:, i] - field(points - step, t)[:, i]) / (
            2 * EPS
        )
    return div


def fd_curl(field, points, t=0.0):
    grad = np.empty((len(points), 3, 3))
    for j in range(3):
        step = np.zeros(3)
        step[j] = EPS
        grad[:, :, j] = (field(points + step, t) - field(points - step, t)) / (2 * EPS)
    return np.stack(
        [
            grad[:, 2, 1] - grad[:, 1, 2],
            grad[:, 0, 2] - grad[:, 2, 0],
            grad[:, 1, 0] - grad[:, 0, 1],
        ],
        axis=1,
    )


def fd_gradient(field, points, t=0.0):
    grad = np.empty((len(points), 3))
    for j in range(3):
        step = np.zeros(3)
        step[j] = EPS
        grad[:, j] = (field(points + step, t) - field(points - step, t)) / (2 * EPS)
    return grad


def fd_momentum_residual(u, w, nu, points, t):
    """u_t + omega x u + nu curl(omega), the unforced momentum misfit with
    zero Bernoulli pressure, by central differences."""
    u_t = (u(points, t + EPS) - u(points, t - EPS)) / (2 * EPS)
    return u_t + np.cross(w(points, t), u(points, t)) + nu * fd_curl(w, points, t)


@pytest.fixture
def points(rng):
    return rng.uniform(0.05, 0.95, size=(40, 3))


@pytest.mark.parametrize("a,d", [(2.0, 0.0), (2.0, 1.0), (1.5, 0.8)])
def test_exact_flow_is_divergence_free(a, d, points):
    u = ethier_velocity(a, d)
    scale = np.abs(u(points, 0.1)).max()
    assert np.abs(fd_divergence(u, points, 0.1)).max() < 1e-4 * scale


@pytest.mark.parametrize("a,d", [(2.0, 0.0), (2.0, 1.0)])
def test_exact_vorticity_is_the_curl(a, d, points):
    u = ethier_velocity(a, d)
    w = ethier_vorticity(a, d)
    got = w(points, 0.2)
    want = fd_curl(u, points, 0.2)
    scale = 1.0 + np.abs(got).max()
    assert np.abs(got - want).max() < 1e-4 * scale


@pytest.mark.parametrize("a,d", [(2.0, 0.0), (2.0, 1.0), (1.5, 0.8)])
def test_momentum_residual_vanishes(a, d, points):
    """At unit viscosity the family solves the unforced flow equations."""
    u = ethier_velocity(a, d)
    res = fd_momentum_residual(u, ethier_vorticity(a, d), 1.0, points, 0.13)
    assert np.abs(res).max() < 1e-6 * (1.0 + np.abs(u(points, 0.13)).max())


def test_momentum_residual_with_other_viscosity(points):
    """For nu != 1 the misfit is (nu - 1) d^2 u, nonzero when d != 0."""
    u = ethier_velocity(2.0, 1.0)
    res = fd_momentum_residual(u, ethier_vorticity(2.0, 1.0), 2.0, points, 0.05)
    want = u(points, 0.05)
    np.testing.assert_allclose(res, want, rtol=0, atol=1e-6 * np.abs(want).max())
    u0, w0 = ethier_velocity(2.0, 0.0), ethier_vorticity(2.0, 0.0)
    assert np.abs(fd_momentum_residual(u0, w0, 3.5, points, 0.05)).max() < 1e-8


def test_steady_flow_is_irrotational(points):
    w = ethier_vorticity(2.0, 0.0)
    assert np.abs(w(points, 0.0)).max() < 1e-9


def test_decay_factor_in_time(points):
    d = 1.3
    u = ethier_velocity(2.0, d)
    early = u(points, 0.0)
    late = u(points, 0.4)
    np.testing.assert_allclose(late, early * np.exp(-(d**2) * 0.4), rtol=1e-10)


def test_unsteady_vorticity_curl_closes_the_loop(points):
    """curl(curl u) = d^2 u for the decaying family."""
    d = 1.0
    w = ethier_vorticity(2.0, d)
    u = ethier_velocity(2.0, d)
    got = fd_curl(w, points, 0.1)
    want = d**2 * u(points, 0.1)
    scale = 1.0 + np.abs(want).max()
    assert np.abs(got - want).max() < 1e-4 * scale


def test_bernoulli_pressure_is_zero(points):
    """The Ethier experiments compare the pressure against zero_scalar_field."""
    np.testing.assert_array_equal(zero_scalar_field(points), np.zeros(len(points)))


def test_gradient_of_power(points):
    gamma, c = 4, 0.2
    f = gradient_of_power(gamma, c)
    vals = f(points)
    np.testing.assert_allclose(vals[:, 2], gamma * points[:, 2] ** 3 / c, rtol=1e-13)
    np.testing.assert_array_equal(vals[:, :2], np.zeros((len(points), 2)))
    with pytest.raises(ValueError):
        gradient_of_power(0, 1.0)
    # A fractional exponent is refused, not truncated to the integer below.
    with pytest.raises(ValueError, match="gamma must be a whole number, got 2.5"):
        gradient_of_power(2.5, c)


def test_manufactured_stokes_fields(points):
    fields = stokes_mms_fields(nu=2.0)
    u, w, p, f = (
        fields["velocity"],
        fields["vorticity"],
        fields["pressure"],
        fields["forcing"],
    )
    scale = np.abs(u(points)).max()
    assert np.abs(fd_divergence(u, points)).max() < 1e-4 * scale
    assert np.abs(w(points) - fd_curl(u, points)).max() < 1e-3
    want_f = 2.0 * fields["vorticity_curl"](points) + fd_gradient(p, points)
    assert np.abs(f(points) - want_f).max() < 1e-3
    assert np.abs(fields["vorticity_curl"](points) - fd_curl(w, points)).max() < 1e-3


@pytest.mark.parametrize("nu", [1.0, 0.37])
@pytest.mark.parametrize("count", [0, 1, 1000])
def test_manufactured_fields_repeat_the_closed_forms_bit_for_bit(nu, count, rng):
    """The in-place velocity and forcing make the closed forms' floating-point
    operations in their order: the values are equal, not just close."""
    points = rng.uniform(-0.5, 1.5, size=(count, 3))
    fields, want = stokes_mms_fields(nu), mms_closed_forms(nu)
    for name in ("velocity", "forcing"):
        got = fields[name](points, 0.3)
        assert got.shape == (count, 3) and got.flags.c_contiguous
        assert np.array_equal(got, want[name](points, 0.3))
    np.testing.assert_array_equal(
        fields["vorticity_curl"](points), 2.0 * np.pi**2 * want["velocity"](points)
    )


def test_manufactured_velocity_has_zero_normal_trace(rng):
    fields = stokes_mms_fields()
    u = fields["velocity"]
    side = rng.uniform(0.0, 1.0, size=(30, 2))
    for axis in range(3):
        for value, sign in ((0.0, -1.0), (1.0, 1.0)):
            pts = np.insert(side, axis, value, axis=1)
            assert np.abs(u(pts)[:, axis]).max() < 1e-12


def test_manufactured_pressure_has_zero_mean():
    from vvpflow.quadrature import tet_rule
    from vvpflow.mesh import build_box_mesh
    from vvpflow.spaces import DeRhamComplex

    fields = stokes_mms_fields()
    complex_ = DeRhamComplex(build_box_mesh(3, 3, 3))
    coeffs = complex_.interpolate(fields["pressure"], 3)
    assert abs(coeffs.values.sum()) < 1e-10


ETHIER_PARAMS = [(2.0, 1.0), (2.0, 0.5), (1.3, 2.0), (2.0, 0.0)]
VISCOSITIES = [0.5, 1.0, 2.0]
ULP_TOL = 1e-14  # a few ulps relative to the largest magnitude involved


@pytest.fixture
def samples(rng):
    """Random points in the unit box and random times."""
    return rng.uniform(0.0, 1.0, size=(200, 3)), rng.uniform(0.0, 0.5, size=3)


@pytest.mark.parametrize("a,d", ETHIER_PARAMS)
def test_ethier_closed_forms_match_the_symbolic_oracle(a, d, samples):
    points, times = samples
    expr = ethier_expressions()
    for name, closed in (
        ("velocity", ethier_velocity(a, d)),
        ("vorticity", ethier_vorticity(a, d)),
    ):
        oracle = lambdify_field(expr[name], a=a, d=d)
        for t in times:
            want = oracle(points, t)
            scale = np.abs(want).max()
            assert np.abs(closed(points, t) - want).max() <= ULP_TOL * scale, (name, t)


@pytest.mark.parametrize("nu", VISCOSITIES)
@pytest.mark.parametrize("a,d", ETHIER_PARAMS)
def test_ethier_momentum_residual_matches_the_symbolic_oracle(a, d, nu, samples):
    """The misfit at viscosity nu is (nu - 1) d^2 u, in closed form from
    the library's velocity."""
    points, times = samples
    expr = ethier_expressions()
    oracle = lambdify_field(expr["momentum_residual"], a=a, d=d, nu=nu)
    velocity = lambdify_field(expr["velocity"], a=a, d=d)
    vorticity = lambdify_field(expr["vorticity"], a=a, d=d)
    u = ethier_velocity(a, d)

    def closed(points, t):
        return (nu - 1.0) * d**2 * u(points, t)

    for t in times:
        # The residual cancels terms of size |u_t|, |omega x u| and
        # nu |curl omega|; its round-off is relative to the largest.
        u_max = np.abs(velocity(points, t)).max()
        scale = u_max * (np.abs(vorticity(points, t)).max() + (1.0 + nu) * d**2)
        assert np.abs(closed(points, t) - oracle(points, t)).max() <= ULP_TOL * scale


@pytest.mark.parametrize("nu", VISCOSITIES)
def test_manufactured_closed_forms_match_the_symbolic_oracle(nu, samples):
    points, _ = samples
    fields = stokes_mms_fields(nu)
    for name, expr in mms_expressions().items():
        want = lambdify_field(expr, nu=nu)(points)
        scale = np.abs(want).max()
        assert np.abs(fields[name](points) - want).max() <= ULP_TOL * scale, name


def test_ethier_is_beltrami_and_its_misfit_simplifies_to_zero():
    """For every amplitude a and decay d, omega = d u and the unit-viscosity
    momentum misfit vanishes identically, so the Bernoulli pressure is a
    constant (normalized to zero)."""
    expr = ethier_expressions()
    assert simplified(expr["vorticity"] - D * expr["velocity"]) == sp.zeros(3, 1)
    assert simplified(expr["momentum_residual"].subs(NU, 1)) == sp.zeros(3, 1)


_NO_SYMPY_RUN = """
import sys, tempfile
import numpy as np
from vvpflow import fields
from vvpflow.experiments import ExperimentSpec, run_experiment

built = {
    "ethier_velocity": fields.ethier_velocity(2.0, 1.0),
    "ethier_vorticity": fields.ethier_vorticity(2.0, 1.0),
    "zero_scalar_field": fields.zero_scalar_field,
    "gradient_of_power": fields.gradient_of_power(2, 1.0 / 3.0),
}
built.update(
    ("stokes_mms_fields." + k, f) for k, f in fields.stokes_mms_fields(2.0).items()
)
assert {k.split(".")[0] for k in built} == set(fields.__all__), sorted(built)
points = np.random.default_rng(0).uniform(size=(8, 3))
for f in built.values():
    f(points, 0.1)
with tempfile.TemporaryDirectory() as outdir:
    run_experiment(ExperimentSpec(kind="ethier", n=(2,), outdir=outdir))
print("sympy" in sys.modules, "scipy.special" in sys.modules)
"""


def test_library_runs_without_importing_sympy():
    """sympy is a test-only dependency: building every analytic field and
    running a solve must not import it.  Nor may it import scipy.special,
    whose import alone costs 0.06 s of a set-up."""
    src = str(Path(vvpflow.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _NO_SYMPY_RUN],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    imported = dict(zip(["sympy", "scipy.special"], done.stdout.split()))
    assert imported == {"sympy": "False", "scipy.special": "False"}, imported
