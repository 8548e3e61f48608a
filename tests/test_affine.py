"""Affine projection fits: fixed points, orthogonality, and consistency."""

import numpy as np
import pytest

from heisbeta.affine import (
    AffineMap,
    fit_from_values,
    fit_moment,
    fit_normal_equations,
    residual_orthogonality,
)
from heisbeta.fields import catalog
from heisbeta.hgroup import dilate, group_mul
from heisbeta.quad import QuadSpec, ball_template, mean_stderr

from conftest import random_points

GRID = QuadSpec(mode="grid")
MC = QuadSpec(samples=60_000)


def orthogonality_with_stderr(f, A, x, r, spec):
    """Recompute the orthogonality vector together with its MC stderr."""
    n = (len(x) - 1) // 2
    tpl = ball_template(n, spec)
    nodes = group_mul(x, dilate(r, tpl.nodes))
    res = np.asarray(f.eval(nodes)) - A.eval(nodes)
    monos = nodes[:, :-1] - x[:-1]
    comps = np.concatenate([res[None], (res * monos.T)], axis=0)
    return comps.mean(axis=1), np.array([float(mean_stderr(c, tpl)) for c in comps])


@pytest.mark.parametrize("spec", [GRID, MC], ids=["grid", "mc"])
@pytest.mark.parametrize("n", [1, 2])
def test_affine_fields_are_fixed_points(spec, n):
    rng = np.random.default_rng(31)
    a0 = rng.normal(size=2 * n)
    f = catalog("affine", n=n, a=a0, b=0.7)
    for _ in range(3):
        x = random_points(rng, 1, n=n)[0]
        r = float(rng.uniform(0.2, 3.0))
        A = fit_moment(f, x, r, 1, spec)
        assert np.max(np.abs(A.a - a0)) <= 1e-10
        want_b = 0.7 + float(x[:-1] @ a0)
        assert abs(A.b - want_b) <= 1e-10 * max(1.0, abs(want_b))
        pts = random_points(rng, 20, n=n)
        assert np.max(np.abs(A.eval(pts) - f.eval(pts))) <= 1e-9


def test_degree_zero_fit_is_ball_average():
    f = catalog("affine", a=[3.0, -2.0], b=1.0)
    x = np.array([0.5, -0.5, 0.2])
    A = fit_moment(f, x, 1.5, 0, GRID)
    assert np.all(A.a == 0.0)
    # odd moments vanish on the symmetric template, so the average is f(x)
    assert A.b == pytest.approx(f.eval(x), abs=1e-12)
    pts = random_points(np.random.default_rng(0), 5)
    assert np.allclose(A.eval(pts), A.b)


def test_residual_orthogonality_grid():
    f = catalog("gaussian")
    rng = np.random.default_rng(32)
    for _ in range(3):
        x = random_points(rng, 1)[0]
        r = float(rng.uniform(0.3, 2.0))
        A = fit_moment(f, x, r, 1, GRID)
        vec = residual_orthogonality(f, A, x, r, GRID)
        assert vec.shape == (3,)
        assert np.max(np.abs(vec)) <= 1e-10


def test_residual_orthogonality_mc():
    f = catalog("gaussian")
    rng = np.random.default_rng(33)
    x = random_points(rng, 1)[0]
    r = 0.8
    A = fit_moment(f, x, r, 1, MC)
    vec = residual_orthogonality(f, A, x, r, MC)
    recomputed, se = orthogonality_with_stderr(f, A, x, r, MC)
    assert np.allclose(vec, recomputed, atol=1e-14)
    assert np.all(np.abs(vec) <= np.maximum(3.0 * se, 1e-14))


def test_moment_matches_normal_equations_on_grid():
    f = catalog("gaussian")
    rng = np.random.default_rng(34)
    for _ in range(3):
        x = random_points(rng, 1, z_extent=1.0, t_extent=1.0)[0]
        r = float(rng.uniform(0.3, 1.5))
        A = fit_moment(f, x, r, 1, GRID)
        B = fit_normal_equations(f, x, r, 1, GRID)
        scale = max(np.max(np.abs(A.a)), abs(A.b))
        assert abs(A.b - B.b) <= 1e-6 * scale
        assert np.max(np.abs(A.a - B.a)) <= 1e-6 * scale


def test_fit_from_values_matches_fit_moment():
    f = catalog("vertical-wave", omega=2.0)
    x = np.array([0.2, -0.4, 0.3])
    r = 0.9
    tpl = ball_template(1, GRID)
    vals = f.eval(group_mul(x, dilate(r, tpl.nodes)))
    b, a = fit_from_values(vals, tpl, r, 1)
    A = fit_moment(f, x, r, 1, GRID)
    assert b == pytest.approx(A.b, rel=1e-14)
    assert np.allclose(a, A.a, rtol=1e-14)


def test_affine_map_validation_and_eval():
    base = np.zeros(3)
    with pytest.raises(ValueError, match="degree"):
        AffineMap(degree=2, base=base, b=0.0, a=np.zeros(2))
    with pytest.raises(ValueError):
        AffineMap(degree=1, base=base, b=0.0, a=np.zeros(3))
    with pytest.raises(ValueError, match="zero slope"):
        AffineMap(degree=0, base=base, b=0.0, a=np.array([1.0, 0.0]))
    A = AffineMap(degree=1, base=base, b=2.0, a=np.array([1.0, -1.0]))
    assert A.eval(np.array([3.0, 1.0, 9.0])) == pytest.approx(4.0)


def test_fit_argument_errors():
    f = catalog("gaussian")
    x = np.zeros(3)
    with pytest.raises(ValueError, match="degree"):
        fit_moment(f, x, 1.0, 2, GRID)
    with pytest.raises(ValueError, match="radius"):
        fit_moment(f, x, 0.0, 1, GRID)
    with pytest.raises(ValueError, match="radius"):
        fit_normal_equations(f, x, -1.0, 1, GRID)
    A = fit_moment(f, x, 1.0, 1, GRID)
    with pytest.raises(ValueError, match="radius"):
        residual_orthogonality(f, A, x, 0.0, GRID)


@pytest.mark.parametrize("r", [np.nan, np.inf], ids=["nan", "inf"])
def test_fits_reject_non_finite_radii_with_one_line(r):
    f = catalog("gaussian")
    x = np.zeros(3)
    A = fit_moment(f, x, 1.0, 1, GRID)
    for fit in (
        lambda: fit_moment(f, x, r, 1, GRID),
        lambda: fit_normal_equations(f, x, r, 1, GRID),
        lambda: residual_orthogonality(f, A, x, r, GRID),
    ):
        with pytest.raises(ValueError, match="ball radius must be positive") as info:
            fit()
        assert "\n" not in str(info.value)


class _NanAtOneNode:
    """The gaussian, but NaN at the eighth ball node."""

    def eval(self, pts):
        vals = catalog("gaussian").eval(pts)
        vals.flat[7] = np.nan
        return vals


def test_fit_moment_raises_on_a_non_finite_field_value():
    with pytest.raises(FloatingPointError, match="non-finite ball integrand at node"):
        fit_moment(_NanAtOneNode(), np.array([0.2, -0.1, 0.3]), 0.8, 1, GRID)


def test_degenerate_template_raises():
    tpl = ball_template(1, GRID)
    flat = type(tpl)(
        nodes=np.zeros_like(tpl.nodes), units=tpl.units, orbit=tpl.orbit,
        m2=np.zeros(2),
    )
    with pytest.raises(FloatingPointError):
        fit_from_values(np.ones(len(flat.nodes)), flat, 1.0, 1)
