"""Analytic fields for experiments and verification.

All field callables follow one convention: ``f(points, t)`` with
``points`` an (n, 3) array returns an (n, 3) array for vector fields or
an (n,) array for scalars.  Time-independent fields still accept ``t``.
The solver calls data only through ``spaces.sample``, which enforces the
convention: a wrong shape or a non-finite value raises a ValueError that
names the data and t.

The exponential-trigonometric family ``ethier_*`` (two parameters a, d,
decay exp(-d^2 t); Ethier & Steinman, IJNMF 1994) is an exact unforced
solution of the incompressible flow equations at unit viscosity: it is
divergence-free and Beltrami with vorticity d u, so the rotational
convection term vanishes pointwise and curl(omega) = d^2 u cancels the
time derivative.  Its total-head (Bernoulli) pressure is therefore
identically zero.  Every field below is written in closed form; the
test suite rederives each one symbolically and checks the identities.
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

    def velocity(points, t=0.0):
        x = _coordinates(points)
        growth = [np.exp(a * xi) for xi in x]
        phase = [a * x[j] + d * x[k] for _, j, k in _CYCLIC]
        # The cosine term of component i is the one of component k.
        cos_term = [g * np.cos(p) for g, p in zip(growth, phase)]
        u = _cyclic(lambda i, j, k: growth[i] * np.sin(phase[i]) + cos_term[k])
        return (-a * np.exp(-(d**2) * t)) * u

    return velocity


def ethier_vorticity(a, d):
    """Exact vorticity, the curl of :func:`ethier_velocity`, which is d u."""
    d = float(d)
    velocity = ethier_velocity(a, d)

    def vorticity(points, t=0.0):
        return d * velocity(points, t)

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
    angle = [np.pi * xi for xi in _coordinates(points)]
    return [np.sin(q) for q in angle], [np.cos(q) for q in angle]


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

    def velocity(points, t=0.0):
        s, c = _sin_cos_pi(points)
        return _cyclic(lambda i, j, k: np.pi * s[i] * (c[j] - c[k]))

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
        return _cyclic(
            lambda i, j, k: viscous * (np.pi * s[i] * (c[j] - c[k]))
            - np.pi * s[i] * c[j] * c[k]
        )

    return {
        "velocity": velocity,
        "vorticity": vorticity,
        "vorticity_curl": vorticity_curl,
        "pressure": pressure,
        "forcing": forcing,
    }
