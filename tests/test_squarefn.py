"""Square functions G and S: values, laws, truncation accounting."""

import math
from dataclasses import replace

import numpy as np
import pytest

from heisbeta.beta import beta_number, scale_sweep
from heisbeta.fields import catalog, precompose_dilation
from heisbeta.hgroup import dilate, horizontal_derivative
from heisbeta.quad import (
    QuadSpec,
    ScaleGrid,
    ball_template,
    domain_truncation,
    shell_lp,
)
from heisbeta import squarefn
from heisbeta.fields import ScalarField
from heisbeta.quad import NODE_CEILING, _ball_constant
from heisbeta.squarefn import (
    _meta_spec,
    g_alpha,
    g_window_values,
    gradient_comparison,
    lq_norm_bound,
    s_alpha,
)
from heisbeta.verify import HarnessConfig, dorronsoro_ratio

SPEC = QuadSpec(samples=40_000)
GRID_R = ScaleGrid()
X = np.array([0.3, -0.2, 0.1])


def test_g_alpha_gaussian_profile():
    res = g_alpha(catalog("gaussian"), X, 1.0, GRID_R, SPEC)
    assert 0.05 < res.value < 1.0
    # scale-range truncation is a small fraction of the value
    assert res.truncation_low < 0.01 * res.value
    assert res.truncation_high < 0.01 * res.value
    assert res.alpha == 1.0 and res.grid is GRID_R


def test_g_alpha_annihilates_affine():
    f = catalog("affine", a=[1.0, 2.0], b=0.3)
    res = g_alpha(f, X, 1.0, GRID_R, SPEC)
    assert res.value < 1e-12
    assert res.truncation_low == 0.0 and res.truncation_high == 0.0


def test_s_alpha_annihilates_constants():
    f = catalog("affine", a=[0.0, 0.0], b=5.0)
    res = s_alpha(f, X, 0.5, GRID_R, SPEC)
    assert res.value == 0.0
    assert res.truncation_low == 0.0 and res.truncation_high == 0.0


@pytest.mark.parametrize("name, certified", [("gaussian", True), ("quadratic", False)])
def test_high_truncation_follows_the_decay_certificate(name, certified):
    # quadratic carries no decay certificate, so neither tail can be bounded
    f = catalog(name)
    for res in (g_alpha(f, X, 0.5, GRID_R, SPEC), s_alpha(f, X, 0.5, GRID_R, SPEC)):
        assert res.value > 0
        if certified:
            assert 0.0 <= res.truncation_high < np.inf
        else:
            assert res.truncation_high == np.inf


def test_alpha_range_validation():
    f = catalog("gaussian")
    for bad in (0.0, 2.0, -1.0):
        with pytest.raises(ValueError, match="alpha"):
            g_alpha(f, X, bad, GRID_R, SPEC)
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError, match="alpha"):
            s_alpha(f, X, bad, GRID_R, SPEC)


@pytest.mark.parametrize("s", [0.5, 2.0])
def test_pointwise_dilation_law_exact(s):
    # G_alpha(f o delta_s)(x) = s^alpha G_alpha(f)(delta_s x) once the scale
    # window is dilated along; power-of-two factors keep it exact under
    # common random numbers
    alpha = 1.0
    f = catalog("gaussian")
    fs = precompose_dilation(f, s)
    lhs = g_alpha(fs, X, alpha, GRID_R, SPEC).value
    moved = ScaleGrid(s * GRID_R.r_min, s * GRID_R.r_max, GRID_R.points_per_decade)
    rhs = s**alpha * g_alpha(f, dilate(s, X), alpha, moved, SPEC).value
    assert abs(lhs - rhs) <= 1e-12 * rhs


def test_s_alpha_gaussian_and_g_bound():
    _check_s_alpha_gaussian_and_g_bound(SPEC)


def test_s_alpha_gaussian_and_g_bound_on_grid():
    _check_s_alpha_gaussian_and_g_bound(QuadSpec(mode="grid", grid_per_axis=12))


def _check_s_alpha_gaussian_and_g_bound(spec):
    alpha = 0.5
    g = g_alpha(catalog("gaussian"), X, alpha, GRID_R, spec)
    s = s_alpha(catalog("gaussian"), X, alpha, GRID_R, spec)
    assert s.value > 0 and np.isfinite(s.truncation_high)
    # at alpha = 0.5 both sweep degree 0, q = 1, on the same nodes, and on
    # every ball mean|f - b| <= mean|f - f(x)| + |f(x) - b| <= 2 mean|f - f(x)|
    # with b the ball mean, so G <= 2 S holds up to rounding
    assert g.value <= 2.0 * s.value * (1.0 + 1e-12)


def test_square_functions_sweep_the_degree_of_alpha(swept_degrees):
    grid = ScaleGrid(1e-2, 1e1, 4)
    f = catalog("gaussian")
    g_alpha(f, X, 0.5, grid, SPEC)
    g_alpha(f, X, 1.5, grid, SPEC)
    s_alpha(f, X, 0.5, grid, SPEC)
    assert swept_degrees == [(0, False), (1, False), (0, False)]


def test_g_values_at_matches_single_point():
    f = catalog("gaussian")
    xs = np.stack([X, np.zeros(3), np.array([-0.5, 0.4, 0.2])])
    rs = GRID_R.nodes()
    batch = g_window_values(
        f, xs, rs, rs**-1.0, GRID_R.log_step, 1, 1.0, ball_template(1, SPEC)
    )
    single = g_alpha(f, X, 1.0, GRID_R, SPEC).value
    assert batch.shape == (3,)
    assert batch[0] == pytest.approx(single, rel=1e-12)


@pytest.mark.parametrize("d, q, rs, match", [
    (1, 1.0, [1.0, 0.0], "radius must be positive"),
    (1, 1.0, [-1.0], "radius must be positive"),
    (1, 1.0, [math.inf], "radius must be positive"),
    (1, 1.0, [math.nan], "radius must be positive"),
    (1, 0.5, [1.0], "exponent q"),
    (2, 1.0, [1.0], "degree"),
], ids=["r-zero", "r-negative", "r-inf", "r-nan", "q-below-1", "d-2"])
def test_g_window_values_rejects_bad_ball_inputs_with_one_line(d, q, rs, match):
    f = catalog("gaussian")
    rs = np.array(rs)
    with pytest.raises(ValueError, match=match) as err:
        g_window_values(f, np.zeros((2, 3)), rs, np.ones_like(rs), 0.1, d, q,
                        ball_template(1, SPEC))
    assert "\n" not in str(err.value)


def test_g_alpha_lp_norm_finite_with_tail_accounting():
    # the L^p norm of G_1 over the gauge-polar domain, as the Dorronsoro
    # lhs forms it, with its measured tail and core truncation; 8 shells
    # per decade keep the last four shells outside the gaussian's core
    cfg = HarnessConfig(
        spec=QuadSpec(mode="grid", grid_per_axis=10), norm_dirs=8,
        norm_per_decade=8, r_min=1e-2, r_max=1e1, per_decade=8,
        box_radius=3.0, q=2.0,
    )
    polar, grid = cfg.domain(), cfg.scale_grid
    rs = grid.nodes()
    tpl = ball_template(1, cfg.sweep_spec)

    def lp_norm(f):
        g = g_window_values(f, polar.pts, rs, rs**-1.0, grid.log_step, 1, 2.0, tpl)
        val, means = shell_lp(g, polar.vols, 2.0)
        return val, domain_truncation(polar, means, 2.0)

    f = catalog("gaussian")
    val, trunc = lp_norm(f)
    assert 0.1 < val < 10.0
    assert 0.0 <= trunc < 0.5 * val
    assert val == pytest.approx(dorronsoro_ratio(f, cfg).lhs, rel=1e-12)
    zero, _ = lp_norm(catalog("affine", a=[1.0, 1.0], b=0.0))
    assert zero < 1e-10
    with pytest.raises(ValueError):
        dorronsoro_ratio(f, replace(cfg, p=0.5))


def test_gradient_comparison_orders():
    f = catalog("gaussian")
    lhs, rhs = gradient_comparison(f, X, 0.5, C=4.0, spec=SPEC)
    assert 0 < lhs < rhs
    flat = catalog("affine", a=[1.0, -2.0], b=0.1)
    flhs, frhs = gradient_comparison(flat, X, 0.5, C=4.0, spec=SPEC)
    assert flhs < 1e-12 and frhs < 1e-12
    with pytest.raises(ValueError, match="C"):
        gradient_comparison(f, X, 0.5, C=0.5, spec=SPEC)


def _gradient_comparison_by_beta_number(f, x, r, C, spec):
    """The pair from one beta_number call per ball, error estimate and all."""
    n = (len(x) - 1) // 2
    lhs = beta_number(f, x, r, 1, 1.0, spec)[0]
    rhs = 0.0
    for j in range(1, 2 * n + 1):
        comp = lambda pts, jj=j: horizontal_derivative(f, jj, pts)
        rhs += beta_number(comp, x, C * r, 0, 1.0, spec)[0]
    return lhs, r * rhs


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize(
    "spec", [QuadSpec(samples=4096), QuadSpec(mode="grid", grid_per_axis=6)],
    ids=["mc", "grid"],
)
@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "differenced"])
def test_gradient_comparison_equals_beta_number_form(n, spec, analytic):
    f = catalog("gaussian", n=n)
    if not analytic:
        f = ScalarField(label="gaussian-no-grad", n=n, eval=f.eval)
    x = np.linspace(-0.3, 0.4, 2 * n + 1)
    got = gradient_comparison(f, x, 0.7, C=3.0, spec=spec)
    assert got == _gradient_comparison_by_beta_number(f, x, 0.7, 3.0, spec)
    with pytest.raises(ValueError, match="radius"):
        gradient_comparison(f, x, 0.0, spec=spec)


def _square_from_profile_by_row(rs, h, prof, se, alpha):
    """The one-row integrator that the row-wise one replaced."""
    integrand = (rs**-alpha * prof) ** 2
    vsq = float(integrand.sum() * h)
    value = np.sqrt(vsq)
    sesq = float((rs ** (-2.0 * alpha) * 2.0 * prof * se).sum() * h)
    stderr = sesq / (2.0 * value) if value > 0 else float(
        np.sqrt(((rs**-alpha * se) ** 2).sum() * h)
    )
    return value, stderr


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.5])
@pytest.mark.parametrize("key", ["beta", "cdiff"])
def test_row_integrator_equals_one_call_per_row(key, alpha):
    f = catalog("gaussian")
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1.5, 1.5, size=(12, 3))
    rs, h = GRID_R.nodes(), GRID_R.log_step
    sweep = scale_sweep(f, xs, rs, 0, 1.0, ball_template(1, QuadSpec(samples=2048)),
                        center_vals=f.eval(xs))
    # a vanishing row takes the error estimate's zero-value branch
    prof = np.vstack([sweep[key], np.zeros_like(rs)])
    se = np.vstack([sweep[key + "_se"], sweep[key + "_se"][:1]])
    values, errs = squarefn._square_from_profile(rs**-alpha, h, prof, se)
    assert np.array_equal(squarefn._square_from_profile(rs**-alpha, h, prof), values)
    for row in range(len(prof)):
        value, err = squarefn._square_from_profile(rs**-alpha, h, prof[row], se[row])
        assert (value, err) == (values[row], errs[row])
        old_value, old_err = _square_from_profile_by_row(rs, h, prof[row], se[row], alpha)
        assert value == old_value
        # the error weight is coef^2, which differs from rs^(-2 alpha) in
        # the last bit at about half the nodes; every term is >= 0, so the
        # sums differ by a few ulps at most
        assert err == pytest.approx(old_err, rel=8 * np.finfo(float).eps, abs=0.0)
    assert values[-1] == 0.0 and errs[-1] > 0


def _beta_tail_sq_by_copy(f, d, alpha, r_max, template):
    """The beta tail bound that _tail_sq replaced."""
    big_q = 2 * f.n + 2
    c_n = _ball_constant(f.n)[0]
    l1 = lq_norm_bound(f, 1.0)
    if not np.isfinite(l1):
        return np.inf
    c1 = l1 / c_n
    c2 = (1.0 + squarefn._sup_constant(template, d)) * l1 / c_n
    e1 = alpha + big_q
    return c1**2 * r_max ** (-2.0 * e1) / e1 + c2**2 * r_max ** (-2.0 * e1) / e1


def _cdiff_tail_sq_by_copy(f, fx, alpha, r_max):
    """The centered-difference tail bound that _tail_sq replaced."""
    l1 = lq_norm_bound(f, 1.0)
    if not np.isfinite(l1):
        return np.inf
    c_n = _ball_constant(f.n)[0]
    e2 = alpha + (2 * f.n + 2)
    lead = fx**2 * r_max ** (-2.0 * alpha) / alpha
    return lead + (l1 / c_n) ** 2 * r_max ** (-2.0 * e2) / e2


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("name", ["gaussian", "bump", "vertical-wave"])
def test_tail_sq_keeps_both_old_tail_bounds(name, alpha):
    f = catalog(name)
    tpl = ball_template(1, QuadSpec(samples=2048))
    fx = float(f.eval(X[None])[0])
    d = int(alpha >= 1.0)
    for r_max in (10.0, 100.0):
        gain = 1.0 + squarefn._sup_constant(tpl, d)
        assert squarefn._tail_sq(f, alpha, r_max, (1.0, gain)) == _beta_tail_sq_by_copy(
            f, d, alpha, r_max, tpl)
        lead = fx**2 * r_max ** (-2.0 * alpha) / alpha
        assert squarefn._tail_sq(f, alpha, r_max, (1.0,), lead) == _cdiff_tail_sq_by_copy(
            f, fx, alpha, r_max)


def test_lq_norm_accounting():
    f = catalog("gaussian")
    exact = (math.pi / 2.0) ** 0.75
    est = lq_norm_bound(f, 2.0)
    assert abs(est - exact) / exact < 0.02
    assert lq_norm_bound(catalog("affine"), 2.0) == math.inf


def test_lq_norm_bound_cached_per_field_and_q():
    gauss = catalog("gaussian")
    points = []

    def ev(p):
        points.append(np.shape(p))
        return gauss.eval(p)

    f = ScalarField(label="counted", n=1, eval=ev, support_radius=1.0,
                    decay_bound=gauss.decay_bound)
    first = lq_norm_bound(f, 2.0)
    assert lq_norm_bound(f, 2) == first
    assert len(points) == 1
    lq_norm_bound(f, 1.0)
    assert len(points) == 2


def test_meta_spec_fits_the_node_cap_at_every_n():
    # n <= 3 keep the resolutions their norms were always computed at
    assert [_meta_spec(n).grid_per_axis for n in (1, 2, 3)] == [32, 12, 8]
    cap = squarefn._META_NODES
    assert cap < NODE_CEILING
    for n in range(4, 7):
        spec = _meta_spec(n)
        dim = 2 * n + 1
        assert spec.mode == "grid"
        # the finest mesh under the cap
        assert spec.grid_per_axis**dim <= cap < (spec.grid_per_axis + 1) ** dim
    assert _meta_spec(4).grid_per_axis == 5


@pytest.mark.parametrize("n", [1, 2])
def test_gradient_comparison_ball_list_matches_scalar_calls(n):
    f = catalog("gaussian", n=n)
    spec = QuadSpec(samples=2048)
    rng = np.random.default_rng(67)
    xs = rng.uniform(-1.0, 1.0, size=(6, 2 * n + 1))
    rs = rng.uniform(0.1, 2.0, size=6)
    lhs, rhs = gradient_comparison(f, xs, rs, C=3.0, spec=spec, workers=2)
    want = np.array([gradient_comparison(f, x, r, C=3.0, spec=spec)
                     for x, r in zip(xs, rs)])
    assert lhs.shape == rhs.shape == (6,)
    np.testing.assert_allclose(lhs, want[:, 0], rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(rhs, want[:, 1], rtol=1e-10, atol=0.0)
    with pytest.raises(ValueError, match="radius"):
        gradient_comparison(f, xs, np.where(np.arange(6) == 2, -1.0, rs), spec=spec)


def _window_call(f, config, tpl, q=1.0):
    grid = config.scale_grid
    rs = grid.nodes()
    return g_window_values(f, config.domain().pts, rs, rs**-1.0, grid.log_step, 1, q,
                           tpl)


@pytest.mark.parametrize("n, spec, exact", [
    (1, QuadSpec(samples=512), True),
    (1, QuadSpec(mode="grid", grid_per_axis=8), False),
    (2, QuadSpec(samples=512), False),
], ids=["n1-montecarlo", "n1-grid", "n2-montecarlo"])
@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("name", ["gaussian", "bump", "vertical-wave"])
def test_sign_orbit_reduction_keeps_the_window_values(name, q, n, spec, exact):
    """A certified field's window values on the norm domain equal those of
    the same field without the certificate: bit for bit with the Monte
    Carlo template at n = 1, whose sign orbits sit in aligned blocks of 8
    that numpy's and the BLAS's reductions add as trees of pairs, which a
    flip only permutes; to rounding, 4e-15 of the largest value, where a
    flip reorders a sum (the grid template, and orbits of 32 nodes at
    n = 2)."""
    config = HarnessConfig(n=n, sweep_samples=512, per_decade=4)
    f, tpl = catalog(name, n=n), ball_template(n, spec)
    got = _window_call(f, config, tpl, q)
    want = _window_call(replace(f, sign_symmetric=False), config, tpl, q)
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 4e-15 * np.max(want)


@pytest.mark.parametrize("n, share", [(1, 4), (2, 8)])
def test_certified_fields_sweep_one_centre_per_sign_orbit(n, share):
    """The default norm domain is whole sign orbits of the 2^(n+1) sign
    automorphisms: a certified field evaluates 1/4 (n = 1) or 1/8 (n = 2)
    of the ball nodes, an uncertified one all of them."""
    config = HarnessConfig(n=n, sweep_samples=512, per_decade=2)
    tpl = ball_template(n, config.sweep_spec)
    nodes = config.domain().pts[..., 0].size * config.scale_grid.count * len(tpl.nodes)
    gauss = catalog("gaussian", n=n)
    for certified, want in ((True, nodes // share), (False, nodes)):
        points = []

        def ev(p):
            points.append(p[..., 0].size)
            return gauss.eval(p)

        _window_call(replace(gauss, eval=ev, sign_symmetric=certified), config, tpl)
        assert sum(points) == want
