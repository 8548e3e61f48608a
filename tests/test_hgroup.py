"""Group arithmetic, gauge, and horizontal derivative checks."""

import numpy as np
import pytest

from heisbeta.hgroup import (
    dilate,
    distance,
    gauge,
    group_mul,
    half_dim,
    horizontal_derivative,
    horizontal_gradient,
    inverse,
    origin,
)

from conftest import random_points, rel_err


def test_worked_products_n1():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    assert np.array_equal(group_mul(a, b), [1.0, 1.0, 0.5])
    assert np.array_equal(group_mul(b, a), [1.0, 1.0, -0.5])
    e = origin(1)
    assert np.array_equal(group_mul(e, a), a)
    assert np.array_equal(group_mul(a, e), a)


def test_inverse_is_negation():
    rng = np.random.default_rng(7)
    pts = random_points(rng, 40, n=2)
    assert np.array_equal(inverse(pts), -pts)
    prod = group_mul(pts, inverse(pts))
    assert np.max(np.abs(prod)) < 1e-14 * np.max(np.abs(pts))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_associativity_sweep(n):
    rng = np.random.default_rng(100 + n)
    a = random_points(rng, 400, n=n)
    b = random_points(rng, 400, n=n)
    c = random_points(rng, 400, n=n)
    left = group_mul(group_mul(a, b), c)
    right = group_mul(a, group_mul(b, c))
    scale = np.maximum(np.abs(left), 1.0)
    assert np.max(np.abs(left - right) / scale) < 1e-12


def test_noncommutativity_in_center_only():
    rng = np.random.default_rng(11)
    a = random_points(rng, 50)
    b = random_points(rng, 50)
    ab, ba = group_mul(a, b), group_mul(b, a)
    assert np.array_equal(ab[..., :-1], ba[..., :-1])
    twist = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    assert np.allclose(ab[..., -1] - ba[..., -1], twist, rtol=1e-12, atol=1e-14)


def test_dilation_is_group_homomorphism():
    rng = np.random.default_rng(12)
    a = random_points(rng, 60, n=2)
    b = random_points(rng, 60, n=2)
    for s in (0.5, 2.0, 3.7):
        lhs = dilate(s, group_mul(a, b))
        rhs = group_mul(dilate(s, a), dilate(s, b))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_dilation_scales_gauge_and_composes():
    rng = np.random.default_rng(13)
    pts = random_points(rng, 80)
    assert np.max(rel_err(gauge(dilate(3.0, pts)), 3.0 * gauge(pts))) < 1e-13
    assert np.allclose(dilate(2.0, dilate(3.0, pts)), dilate(6.0, pts), rtol=1e-14)
    with pytest.raises(ValueError):
        dilate(0.0, pts)
    with pytest.raises(ValueError):
        dilate(-1.0, pts)


def test_gauge_closed_forms():
    assert gauge(np.array([0.0, 0.0, 4.0])) == pytest.approx(4.0, rel=1e-15)
    assert gauge(np.array([0.0, 0.0, -0.25])) == pytest.approx(1.0, rel=1e-15)
    assert gauge(np.array([3.0, 4.0, 0.0])) == pytest.approx(5.0, rel=1e-15)
    assert gauge(origin(2)) == 0.0
    # vertical points: N((0, t)) = 2 sqrt|t|
    ts = np.linspace(-3, 3, 11)
    pts = np.zeros((11, 3))
    pts[:, -1] = ts
    assert np.allclose(gauge(pts), 2.0 * np.sqrt(np.abs(ts)), rtol=1e-14)


def test_distance_left_invariant_and_symmetric():
    rng = np.random.default_rng(14)
    a, b, g = (random_points(rng, 64, n=2) for _ in range(3))
    base = distance(a, b)
    moved = distance(group_mul(g, a), group_mul(g, b))
    assert np.max(np.abs(base - moved) / np.maximum(base, 1e-12)) < 1e-11
    assert np.allclose(distance(b, a), base, rtol=1e-12)
    assert np.max(distance(a, a)) < 1e-12


def test_half_dim():
    assert half_dim(np.zeros((4, 5))) == 2
    with pytest.raises(ValueError):
        half_dim(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        half_dim(np.zeros((4, 1)))


def test_group_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        group_mul(np.zeros(3), np.zeros(5))


def test_horizontal_derivative_frame_at_origin():
    # X_j at the origin is the coordinate derivative d/dz_j
    f = lambda p: p[..., 0] + 2.0 * p[..., 1] + 5.0 * p[..., -1]
    x = origin(1)
    assert horizontal_derivative(f, 1, x) == pytest.approx(1.0, abs=1e-9)
    assert horizontal_derivative(f, 2, x) == pytest.approx(2.0, abs=1e-9)


def test_horizontal_derivative_twists_vertical_coordinate():
    # X_1 t = -y/2 and X_2 t = x/2 on H^1; difference quotients of a
    # polynomial of degree <= 2 along the frame are exact
    f = lambda p: p[..., -1]
    rng = np.random.default_rng(15)
    pts = random_points(rng, 30)
    d1 = horizontal_derivative(f, 1, pts)
    d2 = horizontal_derivative(f, 2, pts)
    assert np.allclose(d1, -0.5 * pts[:, 1], atol=1e-10)
    assert np.allclose(d2, 0.5 * pts[:, 0], atol=1e-10)


def test_horizontal_derivative_central_difference_accuracy():
    f = lambda p: np.exp(-(p[..., :-1] ** 2).sum(axis=-1) - p[..., -1] ** 2)

    def exact(p):
        x, y, t = p[..., 0], p[..., 1], p[..., -1]
        g = f(p)
        return np.stack([(-2.0 * x + y * t) * g, (-2.0 * y - x * t) * g], axis=-1)

    rng = np.random.default_rng(16)
    pts = random_points(rng, 50, z_extent=1.5, t_extent=2.0)
    ref = exact(pts)
    for j in (1, 2):
        num = horizontal_derivative(f, j, pts)
        assert np.max(np.abs(num - ref[:, j - 1])) < 1e-6


def test_horizontal_derivative_argument_errors():
    f = lambda p: p[..., 0]
    with pytest.raises(ValueError):
        horizontal_derivative(f, 0, origin(1))
    with pytest.raises(ValueError):
        horizontal_derivative(f, 3, origin(1))
    bad = lambda p: np.where(p[..., 0] > 0, np.inf, 1.0)
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        horizontal_derivative(bad, 1, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("n", [1, 2])
def test_horizontal_gradient_stacks_the_frame_derivatives(n):
    def f(p):  # a bare callable: central differences
        return np.sin(p[..., 0]) * p[..., -1] + p[..., -2] ** 2

    pts = random_points(np.random.default_rng(61), 9, n=n)
    grad = horizontal_gradient(f, pts)
    assert grad.shape == (9, 2 * n)
    for j in range(1, 2 * n + 1):
        assert np.array_equal(grad[:, j - 1], horizontal_derivative(f, j, pts))
    assert horizontal_gradient(f, pts[0]).shape == (2 * n,)
    with pytest.raises(ValueError, match="odd trailing axis"):
        horizontal_gradient(f, np.zeros(4))
