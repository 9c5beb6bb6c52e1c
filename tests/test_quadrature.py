"""Quadrature rules: positivity, measures, and monomial exactness."""
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvpflow.quadrature import (
    QuadratureRule,
    _jacobi01,
    edge_rule,
    points_per_axis,
    tet_rule,
    triangle_rule,
)

RULES = {1: edge_rule, 2: triangle_rule, 3: tet_rule}
MEASURES = {1: 1.0, 2: 0.5, 3: 1.0 / 6.0}


def exact_moment(alpha):
    """Integral of x^alpha over the unit simplex, by the closed form."""
    d = len(alpha)
    num = 1
    for a in alpha:
        num *= factorial(a)
    return Fraction(num, factorial(sum(alpha) + d))


def all_monomials(d, total):
    if d == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in all_monomials(d - 1, total - head):
            yield (head, *tail)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 8, 11])
def test_weights_positive_and_sum_to_measure(dim, degree):
    rule = RULES[dim](degree)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(MEASURES[dim], rel=1e-14)
    assert rule.exactness_degree >= degree


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 6, 9])
def test_monomial_exactness(dim, degree):
    rule = RULES[dim](degree)
    xyz = rule.points[:, 1:]
    for total in range(degree + 1):
        for alpha in all_monomials(dim, total):
            got = float(np.sum(rule.weights * np.prod(xyz ** np.array(alpha), axis=1)))
            want = float(exact_moment(alpha))
            assert got == pytest.approx(want, abs=1e-15, rel=1e-13), alpha


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_points_are_interior_barycentric(dim):
    rule = RULES[dim](6)
    assert rule.points.shape == (len(rule), dim + 1)
    assert np.all(rule.points > 0)
    assert np.all(rule.points < 1)
    np.testing.assert_allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)
    assert rule.dim == dim


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_negative_degree_rejected(dim):
    with pytest.raises(ValueError):
        RULES[dim](-1)


def test_rule_is_frozen():
    rule = tet_rule(2)
    with pytest.raises(AttributeError):
        rule.exactness_degree = 0
    # Rules are shared per degree, so their arrays must not change.
    assert tet_rule(2) is rule
    with pytest.raises(ValueError):
        rule.points[0, 0] = 0.0
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0


@pytest.mark.parametrize("make_rule", [edge_rule, triangle_rule, tet_rule])
def test_degrees_with_one_point_count_share_a_rule(make_rule):
    """Degrees 2m - 2 and 2m - 1 need the same m points per axis."""
    assert make_rule(6) is make_rule(7)  # the error and trace degrees
    for m in range(1, 5):
        assert make_rule(2 * m - 2) is make_rule(2 * m - 1)
        assert make_rule(2 * m - 1).exactness_degree == 2 * m - 1


@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=10,
        max_size=10,
    ),
    degree=st.integers(min_value=3, max_value=7),
)
def test_random_cubic_polynomials_integrate_exactly(coeffs, degree):
    """Every degree >= 3 tet rule integrates a random cubic exactly."""
    rule = tet_rule(degree)
    monos = [m for t in range(4) for m in all_monomials(3, t)][:10]
    exact = sum(c * float(exact_moment(a)) for c, a in zip(coeffs, monos))
    xyz = rule.points[:, 1:]
    vals = sum(
        c * np.prod(xyz ** np.array(a), axis=1) for c, a in zip(coeffs, monos)
    )
    got = float(np.sum(rule.weights * vals))
    assert got == pytest.approx(exact, abs=5e-13, rel=1e-12)


def test_rule_sizes_grow_with_degree():
    assert len(tet_rule(1)) == 1
    assert len(tet_rule(3)) == 8
    assert len(triangle_rule(3)) == 4
    assert len(edge_rule(3)) == 2


def test_degree_one_tet_rule_is_the_barycenter():
    rule = tet_rule(1)
    np.testing.assert_allclose(rule.points[0], 0.25, atol=1e-14)
    assert rule.weights[0] == pytest.approx(1.0 / 6.0)


@pytest.mark.parametrize("alpha", [0, 1, 2])
@pytest.mark.parametrize("m", range(1, points_per_axis(15) + 1))
def test_golub_welsch_matches_scipy_gauss_jacobi(m, alpha):
    """The eigenvalue construction gives scipy's Gauss-Jacobi nodes and
    weights on [0, 1] to 1e-14, for every point count up to degree 15
    (the library asks for degree 8 at most, the tests for 11)."""
    from scipy.special import roots_jacobi

    x, w = roots_jacobi(m, alpha, 0.0)
    nodes, weights = _jacobi01(m, alpha)
    np.testing.assert_allclose(nodes, (1.0 + x) / 2.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(weights, w / 2.0 ** (alpha + 1), rtol=0, atol=1e-14)
