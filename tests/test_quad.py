"""Ball templates, volumes, domain integration and scale grids."""

import itertools
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from heisbeta import quad
from heisbeta.beta import scale_sweep
from heisbeta.fields import catalog
from heisbeta.hgroup import dilate, gauge, group_mul
from heisbeta.quad import (
    NODE_CEILING,
    QuadSpec,
    ScaleGrid,
    _ball_constant,
    _log_ball_constant,
    _midpoint_mesh,
    _twist,
    ball_template,
    ball_values,
    ball_volume,
    box_nodes,
    box_volume,
    domain_integrate_lp,
    lp_tail_bound,
    check_template_request,
    mean_stderr,
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
    # grid error estimates need the half-resolution twin
    with pytest.raises(ValueError, match="grid_per_axis"):
        QuadSpec(mode="grid", grid_per_axis=1)
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
    # log(r_max / r_min) sets the node count; an infinite ratio has none
    with pytest.raises(ValueError, match="overflows"):
        ScaleGrid(1e-300, 1e300, 1)
    assert ScaleGrid(1e-150, 1e150, 1).count == 300
    # more nodes than a template may hold are refused before any is made
    with pytest.raises(ValueError, match="ceiling"):
        ScaleGrid(1e-3, 1e2, 100_000_000)
    with pytest.raises(ValueError, match="ceiling"):
        ScaleGrid(1e-3, 1e2, 10**400)
    assert ScaleGrid(1e-3, 1e2, 2_000_000).count == 10_000_000


def _exact_ball_constant(n):
    """c_n = pi^n Gamma(n/2) Gamma(3/2) / (4 Gamma(n) Gamma(n/2 + 3/2))."""
    return (math.pi**n * math.gamma(n / 2) * math.gamma(1.5)
            / (4.0 * math.gamma(n) * math.gamma(n / 2 + 1.5)))


def test_ball_volume_constant_and_scaling():
    c1, se = _ball_constant(1)
    assert abs(c1 - EXACT_C1) <= 3.0 * se
    assert abs(c1 - EXACT_C1) / EXACT_C1 < 2e-3
    exact = {1: math.pi**2 / 8, 2: math.pi**2 / 6, 3: math.pi**4 / 64, 4: 1.0823232}
    for n, value in exact.items():
        assert _exact_ball_constant(n) == pytest.approx(value, rel=1e-7)
        cn, se = _ball_constant(n)
        assert abs(cn - _exact_ball_constant(n)) <= 3.0 * se
    assert ball_volume(2.0, 1) == pytest.approx(16.0 * ball_volume(1.0, 1), rel=1e-15)
    assert ball_volume(2.0, 2) == pytest.approx(64.0 * ball_volume(1.0, 2), rel=1e-15)
    for r in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="ball radius must be positive"):
            ball_volume(r)
    for n in range(1, 8):
        assert math.exp(_log_ball_constant(n)) == pytest.approx(
            _exact_ball_constant(n), rel=1e-12)


# the estimate every reported norm is scaled by; bench/references.json was
# recorded against these exact bits
PINNED_BALL_CONSTANTS = {
    1: (1.2338605, 0.00048613508064625157),
    2: (1.64735, 0.001617485546882877),
    3: (1.527184, 0.0034109235197430036),
    4: (1.086336, 0.0058709216077014684),
}


@pytest.mark.parametrize("n", sorted(PINNED_BALL_CONSTANTS))
def test_ball_constant_bits_pinned(n):
    assert _ball_constant(n) == PINNED_BALL_CONSTANTS[n]


def _streamed_ball_constant(n):
    """The 4e6-proposal estimate of c_n the references were recorded
    against, as quad once ran it in every process: uniform proposals in
    [-1, 1]^2n x [-1/4, 1/4] (s = 4t), streamed in blocks of 8192 rows."""
    dim, total, block = 2 * n + 1, 4_000_000, 8192
    box_vol = 2.0 ** (2 * n) * 0.5
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([760355, n])))
    buf, acc = np.empty((block, dim)), np.empty(block)
    accepted = 0
    for start in range(0, total, block):
        rows = min(block, total - start)
        u, a = buf[:rows], acc[:rows]
        rng.random(out=u)
        u *= 2.0
        u -= 1.0
        u *= u
        np.copyto(a, u[:, 0])
        for j in range(1, dim - 1):
            a += u[:, j]
        a *= a
        a += u[:, -1]
        accepted += int(np.count_nonzero(a <= 1.0))
    frac = accepted / total
    return box_vol * frac, box_vol * math.sqrt(frac * (1.0 - frac) / total)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ball_constant_is_the_recorded_stream(n):
    # the stream holds one 8192-row block at a time, never its 4e6 proposals
    tracemalloc.start()
    try:
        streamed = _streamed_ball_constant(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert _ball_constant(n) == streamed


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_ball_constant_is_the_closed_form_above_n_4(n):
    assert _ball_constant(n) == (math.exp(_log_ball_constant(n)), 0.0)


def test_ball_constant_draws_no_random_numbers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("random stream built")

    monkeypatch.setattr(np.random, "Generator", refuse)
    monkeypatch.setattr(np.random, "PCG64", refuse)
    for n in range(1, 9):
        _ball_constant.__wrapped__(n)


def test_ball_volume_rejects_groups_below_n_1():
    for n in (0, -1):
        with pytest.raises(ValueError, match="^n must be a positive integer, got") as info:
            ball_volume(1.0, n)
        assert "\n" not in str(info.value)


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


def test_template_cache_keys_only_what_the_mode_reads():
    """A grid template reads only grid_per_axis, a Monte Carlo one only
    samples and seed: specs that differ in the other mode's fields share one
    template object."""
    grid = QuadSpec(mode="grid", grid_per_axis=6, samples=512, seed=1)
    tpl = ball_template(1, grid)
    assert ball_template(1, replace(grid, samples=2048)) is tpl
    assert ball_template(1, replace(grid, seed=9)) is tpl
    assert ball_template(1, replace(grid, grid_per_axis=8)) is not tpl
    assert ball_template(2, grid) is not tpl
    mc = QuadSpec(samples=512, seed=1, grid_per_axis=6)
    tpl = ball_template(1, mc)
    assert ball_template(1, replace(mc, grid_per_axis=10)) is tpl
    assert ball_template(1, replace(mc, seed=2)) is not tpl
    assert ball_template(1, replace(mc, samples=1024)) is not tpl
    assert ball_template(2, mc) is not tpl


def _all_templates():
    """Every kind of template: Monte Carlo at n = 1, 2, 3 and grids with
    their coarse twins."""
    specs = [(n, QuadSpec(samples=s)) for n in (1, 2, 3) for s in (512, 20_000)]
    specs += [(n, QuadSpec(mode="grid", grid_per_axis=p)) for n, p in ((1, 24), (2, 8))]
    return [(n, spec, ball_template(n, spec)) for n, spec in specs]


def _row_major_mc(n, spec):
    """(nodes, m2) of the Monte Carlo template built node-major, shape
    (m, 2n+1), from the same proposal stream."""
    dim = 2 * n + 1
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=dim)))
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([spec.seed, quad._BALL_ROLE, n])))
    kept = []
    while not len(kept):  # small budgets at n >= 3 may need redraws
        u = rng.uniform(-1.0, 1.0, size=(max(1, spec.samples // len(signs)), dim))
        u[:, -1] *= 0.25
        zsq = (u[:, :-1] ** 2).sum(axis=1)
        kept = u[zsq * zsq + 16.0 * u[:, -1] ** 2 <= 1.0]
    nodes = (kept[:, None, :] * signs[None, :, :]).reshape(-1, dim)
    return nodes, (nodes[:, :-1] ** 2).mean(axis=0)


def test_templates_are_stored_coordinate_major():
    for _, _, tpl in _all_templates():
        for t in (tpl, tpl.coarse) if tpl.coarse is not None else (tpl,):
            assert t.nodes.T.flags.c_contiguous and not t.nodes.flags.c_contiguous
            assert t.nodes.shape == (t.units * t.orbit, t.nodes.shape[1])


def test_templates_keep_the_row_major_bits():
    for n, spec, tpl in _all_templates():
        if spec.mode == "montecarlo":
            nodes, m2 = _row_major_mc(n, spec)
            assert np.array_equal(tpl.nodes, nodes) and np.array_equal(tpl.m2, m2)
        else:
            for t in (tpl, tpl.coarse):
                rows = np.ascontiguousarray(t.nodes)
                assert np.array_equal(t.m2, (rows[:, :-1] ** 2).mean(axis=0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_twist_equals_the_row_major_formula(n):
    rng = np.random.default_rng(n)
    for spec in (QuadSpec(samples=20_000), QuadSpec(mode="grid", grid_per_axis=6)):
        tpl = ball_template(n, spec)
        uz = np.ascontiguousarray(tpl.nodes)[:, :-1]
        centers = rng.normal(size=(4, 2 * n + 1))
        want = 0.5 * (centers[:, :-1] @ np.concatenate([uz[:, n:], -uz[:, :n]], axis=1).T)
        assert np.array_equal(_twist(centers, tpl.nodes), want)


def test_orbit_means_match_numpy_means():
    # orbits of 8, 32 and 128 nodes; the product may round the orbit means
    # differently from numpy's pairwise sum, but only in the last place
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        tpl = ball_template(n, QuadSpec(samples=200_000))
        assert tpl.orbit == 2 ** (2 * n + 1) and tpl.units >= 2
        m = len(tpl.nodes)
        gauss = catalog("gaussian", n=n)
        centers = rng.normal(size=(5, 2 * n + 1))
        ball_list = ball_values(gauss, centers, rng.uniform(0.1, 3.0, size=(5, 1)), tpl)
        for vals in (rng.normal(size=(1, 1, m)), rng.lognormal(size=(3, 4, m)), ball_list):
            w = vals.reshape(vals.shape[:-1] + (tpl.units, tpl.orbit)).mean(axis=-1)
            want = w.std(axis=-1, ddof=1) / math.sqrt(tpl.units)
            np.testing.assert_allclose(mean_stderr(vals, tpl), want, rtol=1e-14, atol=0.0)


def _ball_average(f, x, r, spec):
    """(value, stderr) of a nonnegative f averaged over B(x, r): the sweep's
    centred difference at centre value 0."""
    tpl = ball_template((len(x) - 1) // 2, spec)
    out = scale_sweep(f, x, [r], 0, 1.0, tpl, center_vals=[0.0])
    return float(out["cdiff"][0, 0]), float(out["cdiff_se"][0, 0])


def test_sweep_mean_of_constants_and_center():
    spec = QuadSpec(samples=40_000)
    tpl = ball_template(1, spec)
    one = lambda p: np.ones(p.shape[:-1])
    assert scale_sweep(one, np.zeros(3), [2.0], 0, 1.0, tpl)["mean"][0, 0] == 1.0
    assert _ball_average(one, np.zeros(3), 2.0, spec) == (1.0, 0.0)
    f = catalog("affine", a=[2.0, -1.0], b=0.5)
    x = np.array([0.3, 0.7, -0.2])
    val = scale_sweep(f, x, [0.5], 1, 1.0, tpl)["mean"][0, 0]
    # odd template moments vanish, so the ball average is the center value
    assert val == pytest.approx(f.eval(x), abs=1e-13)


def test_sweep_ball_average_vertical_moment():
    val, err = _ball_average(lambda p: np.abs(p[..., -1]), np.zeros(3), 1.0, QuadSpec())
    assert err > 0
    assert abs(val - EXACT_MT) <= 3.0 * err


def test_sweep_ball_mean_translation_invariance():
    f = catalog("gaussian")
    tpl = ball_template(1, QuadSpec(samples=20_000))
    g = np.array([0.4, -0.3, 0.2])
    x = np.array([0.1, 0.2, -0.1])
    moved = scale_sweep(f, group_mul(g, x), [0.7], 0, 1.0, tpl)["mean"][0, 0]
    pulled = scale_sweep(
        lambda p: f.eval(group_mul(g, p)), x, [0.7], 0, 1.0, tpl
    )["mean"][0, 0]
    assert abs(moved - pulled) <= 1e-13 * max(1.0, abs(moved))


def test_sweep_ball_average_stderr_honest():
    f = catalog("gaussian")
    vals, errs = [], []
    for seed in range(50):
        v, e = _ball_average(f, np.zeros(3), 1.0, QuadSpec(samples=8_000, seed=seed))
        vals.append(v)
        errs.append(e)
    spread = np.std(vals, ddof=1)
    ratio = spread / np.median(errs)
    assert 0.5 < ratio < 2.0


def test_sweep_ball_average_grid_error_estimate():
    f = catalog("gaussian")
    val, err = _ball_average(f, np.zeros(3), 1.0, GRID)
    ref = _ball_average(f, np.zeros(3), 1.0, QuadSpec(samples=400_000))[0]
    assert abs(val - ref) < 5e-3
    assert err > 0
    with pytest.raises(ValueError, match="radius must be positive"):
        _ball_average(f, np.zeros(3), -1.0, GRID)


def test_ball_values_mapping():
    tpl = ball_template(1, QuadSpec(samples=5_000))
    x = np.array([1.0, -2.0, 0.5])
    # a field that reads the distance from x: every ball node lies in B(x, r)
    dist = SimpleNamespace(eval=lambda pts: gauge(group_mul(-x, pts)))
    vals = ball_values(dist, x, [0.25, 1.0], tpl)
    assert vals.shape == (1, 2, len(tpl.nodes))
    assert np.all(vals <= np.array([0.25, 1.0])[:, None] * (1 + 1e-12))
    f = catalog("gaussian")
    want = f.eval(group_mul(x, dilate(0.25, tpl.nodes)))
    assert np.allclose(ball_values(f, x, 0.25, tpl)[0, 0], want, rtol=0, atol=1e-14)
    nan_past = SimpleNamespace(eval=lambda pts: np.where(pts[..., 0] > 1.1, np.nan, 0.0))
    with pytest.raises(FloatingPointError, match="non-finite ball integrand at node"):
        ball_values(nan_past, x, 0.25, tpl)
    with pytest.raises(ValueError, match="ball radius must be positive"):
        ball_values(f, x, [0.25, np.nan], tpl)


def test_box_nodes_and_volume():
    spec = QuadSpec(mode="grid", grid_per_axis=6)
    nodes = box_nodes(1, 3.0, spec)
    assert nodes.shape == (216, 3)
    assert np.all(np.abs(nodes[:, :-1]) <= 3.0)
    assert np.all(np.abs(nodes[:, -1]) <= 9.0)
    assert box_volume(1, 3.0) == pytest.approx(6.0 * 6.0 * 18.0)
    gnodes = box_nodes(1, 2.0, QuadSpec(mode="grid", grid_per_axis=5))
    assert gnodes.shape == (125, 3)
    # z scales by R, t by R^2
    assert np.array_equal(box_nodes(1, 4.0, spec), box_nodes(1, 1.0, spec) * [4, 4, 16])
    corners = box_nodes(1, 4.0, QuadSpec(mode="grid", grid_per_axis=2))
    assert np.array_equal(np.abs(corners), np.tile([2.0, 2.0, 8.0], (8, 1)))
    with pytest.raises(ValueError):
        box_nodes(1, 0.0, spec)
    with pytest.raises(ValueError, match="grid-only"):
        box_nodes(1, 3.0, QuadSpec(samples=5_000))


@pytest.mark.parametrize("n", [1, 2])
def test_grid_templates_and_boxes_keep_the_meshgrid_bits(n):
    def reference(per_axis, t_scale):
        mids = (2.0 * np.arange(per_axis) + 1.0) / per_axis - 1.0
        axes = [mids] * (2 * n) + [t_scale * mids]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2 * n + 1)

    for per_axis in (3, 6, 8, 12):
        spec = QuadSpec(mode="grid", grid_per_axis=per_axis)
        tpl = ball_template(n, spec)
        for nodes, p in ((tpl.nodes, per_axis), (tpl.coarse.nodes, per_axis // 2)):
            mesh = reference(p, 0.25)
            zsq = (mesh[:, :-1] ** 2).sum(axis=1)
            assert np.array_equal(nodes, mesh[zsq * zsq + 16.0 * mesh[:, -1] ** 2 <= 1.0])
        for radius in (0.7, 1.0, 3.0, 16.0):
            want = reference(per_axis, 1.0) * radius
            want[:, -1] *= radius
            assert np.array_equal(box_nodes(n, radius, spec), want)


def test_ball_grid_that_keeps_no_node_is_rejected():
    def keeps_a_node(n, p):
        mesh = _midpoint_mesh(2 * n + 1, p).T
        mesh[:, -1] *= 0.25
        zsq = (mesh[:, :-1] ** 2).sum(axis=1)
        return bool(np.any(zsq * zsq + 16.0 * mesh[:, -1] ** 2 <= 1.0))

    for n, top in ((1, 12), (2, 8), (3, 6), (4, 4)):
        for p in range(2, top + 1):
            spec = QuadSpec(mode="grid", grid_per_axis=p)
            if keeps_a_node(n, p) and keeps_a_node(n, p // 2):
                check_template_request(n, spec)
            else:
                with pytest.raises(ValueError, match=f"={p} keeps no ball node"):
                    check_template_request(n, spec)
    for p in (2, 4, 5):
        with pytest.raises(ValueError, match="keeps no ball node at n=2"):
            ball_template(2, QuadSpec(mode="grid", grid_per_axis=p))
    # the box is a full cube, so the rule does not apply to it
    assert box_nodes(3, 1.0, QuadSpec(mode="grid", grid_per_axis=2)).shape == (128, 7)


def test_box_nodes_peak_is_its_output():
    tracemalloc.start()
    try:
        nodes = box_nodes(2, 1.0, QuadSpec(mode="grid", grid_per_axis=12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nodes.shape == (12**5, 5)
    assert peak <= 1.05 * nodes.nbytes


def test_domain_integrate_gaussian_l2():
    f = catalog("gaussian")
    exact = (math.pi / 2.0) ** 0.75  # closed-form L^2 norm over all of H^1
    fine = QuadSpec(mode="grid", grid_per_axis=64)
    val, tail = domain_integrate_lp(f, 2.0, 4.0, fine)
    assert abs(val - exact) / exact < 1e-8
    assert tail < 1e-5
    _, far_tail = domain_integrate_lp(f, 2.0, 6.0, QuadSpec(mode="grid", grid_per_axis=8))
    assert far_tail < 1e-10


def test_domain_integrate_trivial_cases():
    grid = QuadSpec(mode="grid", grid_per_axis=8)
    zero = catalog("affine", a=[0.0, 0.0], b=0.0)
    assert domain_integrate_lp(zero, 2.0, 1.0, grid) == (0.0, 0.0)
    bump = catalog("bump")
    # 24 per axis puts mesh points inside the bump's support, gauge < 1
    fine = QuadSpec(mode="grid", grid_per_axis=24)
    val, tail = domain_integrate_lp(bump, 1.0, 2.0, fine)
    assert val > 0 and tail == 0.0
    with pytest.raises(ValueError):
        domain_integrate_lp(zero, 0.5, 1.0, grid)
    with pytest.raises(ValueError, match="grid-only"):
        domain_integrate_lp(zero, 2.0, 1.0, QuadSpec(samples=100))


def test_lp_tail_bound_covers_true_tail():
    f = catalog("gaussian")
    # true squared tail of the L^2 norm outside the box at radius 3
    import scipy.special as sp

    full_sq = (math.pi / 2.0) ** 1.5
    box_sq = full_sq * sp.erf(3.0 * math.sqrt(2.0)) ** 2 * sp.erf(9.0 * math.sqrt(2.0))
    true_tail = math.sqrt(full_sq - box_sq)
    bound = lp_tail_bound(f, 2.0, 3.0)
    assert true_tail <= bound < 0.5
    assert lp_tail_bound(f, 2.0, 6.0) < 1e-10
    affine = catalog("affine", a=[1.0, 0.0], b=0.0)  # carries no decay bound
    assert affine.decay_bound is None and lp_tail_bound(affine, 2.0, 3.0) == 0.0


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
        box_nodes(1, 2.0, QuadSpec(mode="grid", grid_per_axis=216))  # 216^3 mesh points
    # a Monte Carlo ball template holds at least one full sign orbit
    check_template_request(11, QuadSpec(samples=1))  # 2^23 orbit nodes
    with pytest.raises(ValueError, match="33554432 nodes"):
        check_template_request(12, QuadSpec(samples=1))
