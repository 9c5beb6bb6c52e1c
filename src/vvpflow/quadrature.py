"""Quadrature rules on reference simplices.

Rules are conical products of Gauss-Jacobi lines (Stroud, *Approximate
Calculation of Multiple Integrals*, 1971), so all weights are positive at
every exactness degree; one function builds them for the segment, the
triangle and the tetrahedron.  Points are stored in barycentric coordinates and
weights sum to the reference-simplex measure: 1 for the segment, 1/2 for
the unit triangle, 1/6 for the unit tetrahedron.

A rule with m points per axis is exact to degree 2m - 1, so the degrees
2m - 2 and 2m - 1 ask for the same rule.  Each rule is built, and
checked for monomial exactness against closed-form moments, once per
dimension and point count; the cached rule is shared, so its arrays are read-only.
A rule object can be trusted to integrate any polynomial up to
``exactness_degree`` exactly.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureRule", "edge_rule", "triangle_rule", "tet_rule", "points_per_axis"]


@dataclass(frozen=True)
class QuadratureRule:
    """Positive-weight rule on a reference simplex.

    points : (nq, d+1) barycentric coordinates
    weights : (nq,) positive, summing to the reference measure
    exactness_degree : total polynomial degree integrated exactly
    """

    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    def __post_init__(self):
        self.points.flags.writeable = False
        self.weights.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.points.shape[1] - 1

    def __len__(self) -> int:
        return self.weights.shape[0]


def _jacobi01(n: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes/weights for integral_0^1 (1-u)^alpha g(u) du.

    Golub-Welsch: the nodes on [-1, 1] are the eigenvalues of the
    symmetric tridiagonal Jacobi matrix of the weight (1-x)^alpha, and
    each weight is the squared first component of its eigenvector times
    the weight's mass (1/(alpha+1) once mapped to [0, 1]).
    """
    s = 2.0 * np.arange(n) + alpha  # 2k + alpha + beta, with beta = 0
    diag = -alpha**2 / (np.maximum(s, 1.0) * (s + 2.0))
    k, s = np.arange(1, n), s[1:]
    off = 2.0 * k * (k + alpha) / (s * np.sqrt(s * s - 1.0))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return (1.0 + x) / 2.0, v[0] ** 2 / (alpha + 1)


def _reference_moment(alpha: tuple[int, ...]) -> float:
    """Exact integral of a Cartesian monomial over the unit d-simplex."""
    d = len(alpha)
    num = 1.0
    for a in alpha:
        num *= math.factorial(a)
    return num / math.factorial(sum(alpha) + d)


def _verify(rule: QuadratureRule) -> None:
    d = rule.dim
    # Cartesian coordinates of the quadrature points: lambda_1..lambda_d.
    xyz = rule.points[:, 1:]
    for total in range(rule.exactness_degree + 1):
        for alpha in _multi_indices(d, total):
            approx = float(np.sum(rule.weights * np.prod(xyz ** np.array(alpha), axis=1)))
            exact = _reference_moment(alpha)
            if abs(approx - exact) > 5e-14 * (1.0 + abs(exact)):
                raise AssertionError(
                    f"quadrature rule failed exactness check: dim={d} "
                    f"monomial={alpha} got={approx!r} want={exact!r}"
                )


def _multi_indices(d: int, total: int):
    if d == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _multi_indices(d - 1, total - head):
            yield (head, *tail)


def points_per_axis(degree: int) -> int:
    """Gauss points per axis of the conical rule exact to ``degree``."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return max(1, (degree + 2) // 2)


def edge_rule(degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on the reference segment, barycentric storage."""
    return _conical_rule(1, points_per_axis(degree))


def triangle_rule(degree: int) -> QuadratureRule:
    """Conical-product rule on the unit triangle, exact to ``degree``."""
    return _conical_rule(2, points_per_axis(degree))


def tet_rule(degree: int) -> QuadratureRule:
    """Conical-product rule on the unit tetrahedron, exact to ``degree``."""
    return _conical_rule(3, points_per_axis(degree))


@functools.cache
def _conical_rule(d: int, m: int) -> QuadratureRule:
    """Stroud's conical product of m Gauss-Jacobi points per axis on the
    unit d-simplex.

    Axis i = 0..d-1 carries the weight (1-u)^(d-1-i), the Jacobian of
    collapsing the later axes, and the first axis varies slowest.  The
    Cartesian coordinate x_{i+1} is u_i (1-u_0) ... (1-u_{i-1}) and
    lambda_0 is 1 - x_1 - ... - x_d, both evaluated left to right.
    """
    axes = [_jacobi01(m, d - 1 - i) for i in range(d)]
    u = [g.ravel() for g in np.meshgrid(*(x for x, _ in axes), indexing="ij")]
    w = [g.ravel() for g in np.meshgrid(*(w for _, w in axes), indexing="ij")]
    coords = []
    for i, c in enumerate(u):
        for earlier in u[:i]:
            c = c * (1.0 - earlier)
        coords.append(c)
    lambda0 = 1.0 - coords[0]
    for c in coords[1:]:
        lambda0 = lambda0 - c
    weights = functools.reduce(np.multiply, w)
    rule = QuadratureRule(np.column_stack([lambda0, *coords]), weights, 2 * m - 1)
    _verify(rule)
    return rule
