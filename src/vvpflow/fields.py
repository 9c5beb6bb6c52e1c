"""Analytic fields for experiments and verification.

All field callables follow one convention: ``f(points, t)`` with
``points`` an (n, 3) array returns an (n, 3) array for vector fields or
an (n,) array for scalars.  Time-independent fields still accept ``t``.
The solver calls data only through ``spaces.sample``, which enforces the
convention: a wrong shape or a non-finite value raises a ValueError that
names the data and t.  A callable may be called on two threads at once,
on disjoint blocks of points (``spaces.error_norms`` on large meshes), so
it must be a pure function of ``(points, t)``: no state it writes, no
result that depends on earlier calls.

The exponential-trigonometric family ``ethier_*`` (two parameters a, d,
decay exp(-d^2 t); Ethier & Steinman, IJNMF 1994) is an exact unforced
solution of the incompressible flow equations at unit viscosity: it is
divergence-free and Beltrami with vorticity d u, so the rotational
convection term vanishes pointwise and curl(omega) = d^2 u cancels the
time derivative.  Its total-head (Bernoulli) pressure is therefore
identically zero.  Every field below is written in closed form; the
test suite rederives each one symbolically and checks the identities.

The fields the solver samples every step or every solve (the Ethier
velocity and vorticity, the manufactured velocity and forcing) are
evaluated in place, into preallocated arrays, with the floating-point
operations of their closed forms, so their values are those of the
closed forms bit for bit.  The test suite keeps the closed forms, one
expression per component, as their oracles.
"""
from __future__ import annotations

import numpy as np

from .solver import whole_number

__all__ = [
    "ethier_velocity",
    "ethier_vorticity",
    "stokes_mms_fields",
    "zero_scalar_field",
    "gradient_of_power",
]

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _cyclic(component):
    """The (n, 3) array whose column i is ``component(i, j, k)``, with
    (i, j, k) a cyclic permutation of (x, y, z)."""
    return np.stack([component(*ijk) for ijk in _CYCLIC], axis=1)


def _coordinates(points):
    """x, y, z of an (n, 3) array of points as three (n,) arrays."""
    return np.asarray(points, dtype=float).T


def zero_scalar_field(points, t=0.0):
    points = np.asarray(points, dtype=float)
    return np.zeros(points.shape[0])


def ethier_velocity(a, d):
    """Exact velocity; parameters a (amplitude) and d (decay).

    u_i = -a (exp(a x_i) sin(a x_j + d x_k) + exp(a x_k) cos(a x_i + d x_j))
    exp(-d^2 t), with (i, j, k) cyclic.
    """
    a, d = float(a), float(d)

    # Row i of each (3, n) array belongs to component i, and each line makes
    # one operation of the closed form above on all three rows; a sum or a
    # product taken with its operands swapped is the same float.
    def velocity(points, t=0.0):
        x = _coordinates(points)
        growth = np.multiply(a, x, order="C")  # a x_i, then exp(a x_i)
        phase = np.multiply(d, x[[2, 0, 1]])  # d x_k
        phase += growth[[1, 2, 0]]  # + a x_j
        np.exp(growth, out=growth)
        sin_term = np.sin(phase)
        sin_term *= growth
        cos_term = np.cos(phase, out=phase)
        cos_term *= growth
        # The cosine term of component i is the one of component k.
        out = np.empty(x.shape[::-1])
        np.add(sin_term, cos_term[[2, 0, 1]], out=out.T)
        out *= -a * np.exp(-(d**2) * t)
        return out

    return velocity


def ethier_vorticity(a, d):
    """Exact vorticity, the curl of :func:`ethier_velocity`, which is d u."""
    d = float(d)
    velocity = ethier_velocity(a, d)

    def vorticity(points, t=0.0):
        out = velocity(points, t)
        out *= d
        return out

    return vorticity


def gradient_of_power(gamma, domain_volume_moment):
    """Gradient field of z**gamma scaled by a normalization constant.

    ``domain_volume_moment`` is the integral of z**gamma over the
    domain; the returned field is grad(z**gamma) / that integral.
    ``gamma`` must be a whole number of at least 1 (ValueError).
    """
    gamma = whole_number("gamma", gamma)
    if gamma < 1:
        raise ValueError("gamma must be a positive integer")
    c = float(domain_volume_moment)

    def field(points, t=0.0):
        points = np.asarray(points, dtype=float)
        out = np.zeros_like(points)
        out[:, 2] = gamma * points[:, 2] ** (gamma - 1) / c
        return out

    return field


def _sin_cos_pi(points):
    """(3, n) arrays of sin(pi x_i) and cos(pi x_i), row i for coordinate i;
    the cosines overwrite the angles."""
    angle = np.multiply(np.pi, _coordinates(points), order="C")
    s = np.sin(angle)
    return s, np.cos(angle, out=angle)


def stokes_mms_fields(nu=1.0):
    """Manufactured steady Stokes solution on the unit box.

    Velocity is the curl of the potential (s_j s_k)_i, with
    s_i = sin(pi x_i), c_i = cos(pi x_i) and (i, j, k) cyclic, hence
    exactly divergence-free with zero normal trace on the unit box:
    u_i = pi s_i (c_j - c_k).  Then omega_i = 2 pi^2 s_j s_k,
    curl(omega) = 2 pi^2 u, the pressure p = c_x c_y c_z has zero mean,
    and the forcing is f = nu curl(omega) + grad p with
    (grad p)_i = -pi s_i c_j c_k.
    Returns a dict with velocity, vorticity, vorticity_curl, pressure,
    forcing.
    """
    viscous = float(nu) * 2.0 * np.pi**2

    # Each column is written in place, one temporary for pi s_i, with the
    # operations of the closed forms above in the same order.
    def velocity(points, t=0.0):
        s, c = _sin_cos_pi(points)
        out = np.empty(s.shape[::-1])
        for i, j, k in _CYCLIC:
            np.subtract(c[j], c[k], out=out[:, i])
            out[:, i] *= np.pi * s[i]
        return out

    def vorticity(points, t=0.0):
        s = [np.sin(np.pi * xi) for xi in _coordinates(points)]
        return _cyclic(lambda i, j, k: 2.0 * np.pi**2 * s[j] * s[k])

    def vorticity_curl(points, t=0.0):
        return 2.0 * np.pi**2 * velocity(points)

    def pressure(points, t=0.0):
        cx, cy, cz = (np.cos(np.pi * xi) for xi in _coordinates(points))
        return cx * cy * cz

    def forcing(points, t=0.0):
        s, c = _sin_cos_pi(points)
        out = np.empty(s.shape[::-1])
        for i, j, k in _CYCLIC:
            pi_s = np.pi * s[i]
            column = out[:, i]
            np.subtract(c[j], c[k], out=column)
            column *= pi_s
            column *= viscous
            pi_s *= c[j]
            pi_s *= c[k]
            column -= pi_s
        return out

    return {
        "velocity": velocity,
        "vorticity": vorticity,
        "vorticity_curl": vorticity_curl,
        "pressure": pressure,
        "forcing": forcing,
    }
