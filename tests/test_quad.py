"""Ball templates, volumes, domain integration and scale grids."""

import math

import numpy as np
import pytest

from heisbeta.fields import catalog
from heisbeta.hgroup import gauge, group_mul
from heisbeta.quad import (
    NODE_CEILING,
    QuadSpec,
    ScaleGrid,
    _ball_constant,
    ball_integrate,
    ball_nodes,
    ball_template,
    ball_volume,
    box_nodes,
    box_volume,
    domain_integrate_lp,
    lp_tail_bound,
    check_template_request,
    mean_stderr,
    scale_box_nodes,
)

GRID = QuadSpec(mode="grid")
EXACT_C1 = math.pi**2 / 8.0  # pi * int_0^1 rho sqrt(1-rho^4) drho
EXACT_M2 = 2.0 / (3.0 * math.pi)
EXACT_MT = 1.0 / (3.0 * math.pi)


def test_quadspec_validation():
    with pytest.raises(ValueError):
        QuadSpec(mode="qmc")
    with pytest.raises(ValueError):
        QuadSpec(samples=0)
    with pytest.raises(ValueError):
        QuadSpec(mode="grid", grid_per_axis=0)
    with pytest.raises(ValueError, match="seed"):
        QuadSpec(seed=-1)


def test_scale_grid_nodes_and_validation():
    grid = ScaleGrid(1e-2, 1e2, 8)
    rs = grid.nodes()
    assert grid.count == 32 and len(rs) == 32
    assert rs[0] > grid.r_min and rs[-1] < grid.r_max
    steps = np.diff(np.log(rs))
    assert np.allclose(steps, grid.log_step, rtol=1e-12)
    with pytest.raises(ValueError):
        ScaleGrid(1.0, 0.5)
    with pytest.raises(ValueError):
        ScaleGrid(0.0, 1.0)
    with pytest.raises(ValueError):
        ScaleGrid(1.0, 2.0, 0)
    with pytest.raises(ValueError):
        ScaleGrid(1.0, math.inf)


def test_ball_volume_constant_and_scaling():
    c1, se = _ball_constant(1)
    assert abs(c1 - EXACT_C1) <= 3.0 * se
    assert abs(c1 - EXACT_C1) / EXACT_C1 < 2e-3
    assert ball_volume(2.0, 1) == pytest.approx(16.0 * ball_volume(1.0, 1), rel=1e-15)
    assert ball_volume(2.0, 2) == pytest.approx(64.0 * ball_volume(1.0, 2), rel=1e-15)
    with pytest.raises(ValueError):
        ball_volume(0.0)


def test_ball_template_geometry():
    tpl = ball_template(1, QuadSpec(samples=50_000))
    assert tpl.nodes.shape == (tpl.units * tpl.orbit, 3)
    assert tpl.orbit == 8
    assert np.all(gauge(tpl.nodes) <= 1.0 + 1e-12)
    assert np.all(np.abs(tpl.nodes[:, :-1]) <= 1.0)
    assert np.all(np.abs(tpl.nodes[:, -1]) <= 0.25)
    # each unit is a full sign orbit of one accepted point
    groups = tpl.nodes.reshape(tpl.units, tpl.orbit, 3)
    assert np.array_equal(np.abs(groups), np.abs(groups[:, :1, :]) * np.ones((1, 8, 1)))
    signs = np.sign(groups[0]) * np.sign(groups[0][:1])
    assert len(np.unique(signs, axis=0)) == 8


def test_ball_template_moments():
    spec = QuadSpec()
    tpl = ball_template(1, spec)
    # odd moments cancel exactly over the sign orbit
    assert abs(float(tpl.nodes.mean(axis=0)[0])) < 1e-15
    # per-axis second moments near the closed-form ball average 2/(3 pi)
    sq = tpl.nodes[:, 0] ** 2
    se = float(mean_stderr(sq, tpl))
    assert abs(tpl.m2[0] - EXACT_M2) <= 3.0 * se
    gtpl = ball_template(1, GRID)
    assert np.allclose(gtpl.m2, EXACT_M2, rtol=5e-3)
    assert gtpl.orbit == 1 and gtpl.coarse is not None


def test_ball_template_deterministic():
    a = ball_template(2, QuadSpec(samples=10_000, seed=7))
    b = ball_template(2, QuadSpec(samples=10_000, seed=7))
    c = ball_template(2, QuadSpec(samples=10_000, seed=8))
    assert np.array_equal(a.nodes, b.nodes)
    assert not np.array_equal(a.nodes, c.nodes)


def test_ball_integrate_constants_and_center():
    spec = QuadSpec(samples=40_000)
    val, err = ball_integrate(lambda p: np.ones(p.shape[:-1]), np.zeros(3), 2.0, spec)
    assert val == 1.0 and err == 0.0
    f = catalog("affine", a=[2.0, -1.0], b=0.5)
    x = np.array([0.3, 0.7, -0.2])
    val, err = ball_integrate(f, x, 0.5, spec)
    # odd template moments vanish, so the ball average is the center value
    assert val == pytest.approx(f.eval(x), abs=1e-13)


def test_ball_integrate_vertical_moment():
    val, err = ball_integrate(
        lambda p: np.abs(p[..., -1]), np.zeros(3), 1.0, QuadSpec()
    )
    assert err > 0
    assert abs(val - EXACT_MT) <= 3.0 * err


def test_ball_integrate_translation_invariance():
    f = catalog("gaussian")
    spec = QuadSpec(samples=20_000)
    g = np.array([0.4, -0.3, 0.2])
    x = np.array([0.1, 0.2, -0.1])
    moved = ball_integrate(f, group_mul(g, x), 0.7, spec)[0]
    pulled = ball_integrate(
        lambda p: f.eval(group_mul(g, p)), x, 0.7, spec
    )[0]
    assert abs(moved - pulled) <= 1e-13 * max(1.0, abs(moved))


def test_ball_integrate_stderr_honest():
    f = catalog("gaussian")
    vals, errs = [], []
    for seed in range(50):
        v, e = ball_integrate(f, np.zeros(3), 1.0, QuadSpec(samples=8_000, seed=seed))
        vals.append(v)
        errs.append(e)
    spread = np.std(vals, ddof=1)
    ratio = spread / np.median(errs)
    assert 0.5 < ratio < 2.0


def test_ball_integrate_grid_error_estimate():
    f = catalog("gaussian")
    val, err = ball_integrate(f, np.zeros(3), 1.0, GRID)
    ref = ball_integrate(f, np.zeros(3), 1.0, QuadSpec(samples=400_000))[0]
    assert abs(val - ref) < 5e-3
    assert err > 0
    with pytest.raises(ValueError):
        ball_integrate(f, np.zeros(3), -1.0, GRID)


def test_ball_nodes_mapping():
    tpl = ball_template(1, QuadSpec(samples=5_000))
    x = np.array([1.0, -2.0, 0.5])
    nodes = ball_nodes(x, 0.25, tpl.nodes)
    assert np.all(gauge(group_mul(-x, nodes)) <= 0.25 * (1 + 1e-12))


def test_box_nodes_and_volume():
    spec = QuadSpec(samples=5_000)
    nodes = box_nodes(1, 3.0, spec)
    assert np.all(np.abs(nodes[:, :-1]) <= 3.0)
    assert np.all(np.abs(nodes[:, -1]) <= 9.0)
    assert box_volume(1, 3.0) == pytest.approx(6.0 * 6.0 * 18.0)
    gnodes = box_nodes(1, 2.0, QuadSpec(mode="grid", grid_per_axis=5))
    assert gnodes.shape == (125, 3)
    unit = np.ones((2, 3))
    scaled = scale_box_nodes(unit.copy(), 4.0)
    assert np.array_equal(scaled, [[4.0, 4.0, 16.0], [4.0, 4.0, 16.0]])
    with pytest.raises(ValueError):
        box_nodes(1, 0.0, spec)


def test_domain_integrate_gaussian_l2():
    f = catalog("gaussian")
    exact = (math.pi / 2.0) ** 0.75  # closed-form L^2 norm over all of H^1
    val, tail = domain_integrate_lp(
        f, 2.0, 6.0, QuadSpec(samples=1_000_000), tail=f.decay_bound
    )
    assert abs(val - exact) / exact < 1e-2
    assert tail < 1e-10


def test_domain_integrate_trivial_cases():
    zero = lambda p: np.zeros(p.shape[:-1])
    assert domain_integrate_lp(zero, 2.0, 1.0, QuadSpec(samples=100), n=1) == (0.0, 0.0)
    bump = catalog("bump")
    val, tail = domain_integrate_lp(
        bump, 1.0, 2.0, QuadSpec(samples=10_000), tail=bump.decay_bound
    )
    assert val > 0 and tail == 0.0
    with pytest.raises(ValueError):
        domain_integrate_lp(zero, 0.5, 1.0, QuadSpec(samples=100), n=1)
    with pytest.raises(ValueError):
        domain_integrate_lp(zero, 2.0, 1.0, QuadSpec(samples=100))


def test_lp_tail_bound_covers_true_tail():
    f = catalog("gaussian")
    # true squared tail of the L^2 norm outside the box at radius 3
    import scipy.special as sp

    full_sq = (math.pi / 2.0) ** 1.5
    box_sq = full_sq * sp.erf(3.0 * math.sqrt(2.0)) ** 2 * sp.erf(9.0 * math.sqrt(2.0))
    true_tail = math.sqrt(full_sq - box_sq)
    bound = lp_tail_bound(f.decay_bound, 2.0, 3.0, n=1)
    assert true_tail <= bound < 0.5
    assert lp_tail_bound(f.decay_bound, 2.0, 6.0, n=1) < 1e-10
    assert lp_tail_bound(None, 2.0, 3.0) == 0.0


def test_mean_stderr_grid_is_zero():
    tpl = ball_template(1, GRID)
    assert np.all(mean_stderr(np.ones(len(tpl.nodes)), tpl) == 0.0)


def test_template_requests_above_ceiling_rejected():
    huge_grid = QuadSpec(mode="grid", grid_per_axis=24)  # 24^7 mesh points
    check_template_request(2, huge_grid)  # 24^5 is admitted
    check_template_request(1, QuadSpec(samples=NODE_CEILING))
    with pytest.raises(ValueError, match="ceiling"):
        ball_template(3, huge_grid)
    with pytest.raises(ValueError, match="ceiling"):
        box_nodes(1, 2.0, QuadSpec(samples=NODE_CEILING + 1))
    # a Monte Carlo ball template holds at least one full sign orbit
    check_template_request(11, QuadSpec(samples=1))  # 2^23 orbit nodes
    with pytest.raises(ValueError, match="33554432 nodes"):
        check_template_request(12, QuadSpec(samples=1))
