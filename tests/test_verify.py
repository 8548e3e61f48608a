"""Inequality harness: exponent gate, ratio reports, and suites."""

import math
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from heisbeta import beta, verify
from heisbeta.fields import catalog, precompose_dilation
from heisbeta.hgroup import dilate, horizontal_derivative
from heisbeta.quad import (
    PolarDomain,
    QuadSpec,
    ball_template,
    domain_truncation,
    polar_domain,
    power_head,
    power_tail,
    shell_lp,
)
from heisbeta.squarefn import g_window_values
from heisbeta.verify import (
    ExponentGate,
    HarnessConfig,
    RatioReport,
    dorronsoro_ratio,
    dorronsoro_stability,
    gate_exponents,
    poincare_ratio,
    poincare_stability,
    run_identity_suite,
    run_lemma_suite,
)

CHEAP = HarnessConfig(
    spec=QuadSpec(mode="grid", grid_per_axis=10),
    norm_dirs=8,
    norm_per_decade=4,
    r_min=1e-2,
    r_max=1e1,
    per_decade=8,
    t_min=1e-3,
    t_max=1e1,
    t_per_decade=8,
    box_radius=3.0,
)
STARVED = HarnessConfig(
    spec=QuadSpec(samples=10),
    norm_dirs=4,
    norm_per_decade=2,
    r_min=1e-1,
    r_max=1e1,
    per_decade=4,
    box_radius=2.0,
)


def test_gate_worked_examples():
    # Q = 4 on H^1: the p >= 2 branch needs q < 2Q/(Q-2) = 4
    assert gate_exponents(2.0, 2.0, 1).admissible
    assert gate_exponents(2.0, 3.99, 1).admissible
    assert not gate_exponents(2.0, 4.0, 1).admissible  # boundary is strict
    # 1 < p <= 2 branch needs q < pQ/(Q-p)
    assert gate_exponents(1.5, 2.0, 1).admissible
    assert not gate_exponents(1.5, 2.4, 1).admissible
    assert not gate_exponents(1.5, 3.0, 1).admissible
    # higher n loosens nothing here: Q = 6, p = 2 -> q < 3
    assert gate_exponents(2.0, 2.9, 2).admissible
    assert not gate_exponents(2.0, 3.0, 2).admissible
    gate = gate_exponents(2.0, 2.0, 1)
    assert gate == ExponentGate(p=2.0, q=2.0, Q=4, admissible=True)


def test_gate_preconditions():
    with pytest.raises(ValueError, match="p"):
        gate_exponents(1.0, 2.0, 1)
    with pytest.raises(ValueError, match="p"):
        gate_exponents(0.5, 2.0, 1)
    with pytest.raises(ValueError, match="q"):
        gate_exponents(2.0, 0.5, 1)
    with pytest.raises(ValueError, match="n"):
        gate_exponents(2.0, 2.0, 0)


def test_gate_matches_independent_evaluation():
    rng = np.random.default_rng(51)
    for _ in range(300):
        p = float(rng.uniform(1.01, 4.0))
        q = float(rng.uniform(1.0, 8.0))
        n = int(rng.integers(1, 4))
        big_q = 2 * n + 2
        if p <= 2.0:
            want = q < p * big_q / (big_q - p)
        else:
            want = q < 2.0 * big_q / (big_q - 2.0)
        assert gate_exponents(p, q, n).admissible == want


def test_harness_config_validation():
    with pytest.raises(ValueError, match="p"):
        HarnessConfig(p=1.0)
    with pytest.raises(ValueError, match="q"):
        HarnessConfig(q=0.0)
    with pytest.raises(ValueError, match="alpha"):
        HarnessConfig(alpha=2.5)
    with pytest.raises(ValueError, match="box_radius"):
        HarnessConfig(box_radius=0.0)
    for key in ("p", "q", "box_radius"):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            HarnessConfig(**{key: math.inf})
    # the domain of radius 2 * box_radius must reach past its core, _RHO_MIN
    with pytest.raises(ValueError, match="box_radius must be finite and exceed"):
        HarnessConfig(box_radius=0.005)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        HarnessConfig(workers=0)
    assert verify._norm_params(HarnessConfig(box_radius=0.5))["rho_min"] == 0.02
    assert "workers" not in HarnessConfig(workers=3).base_params()
    cfg = HarnessConfig(spec=QuadSpec(samples=100_000), sweep_samples=4096)
    assert cfg.sweep_spec.samples == 4096
    assert cfg.scale_grid.count > 0 and cfg.t_grid.count > 0
    assert cfg.base_params()["sweep_samples"] == 4096


@pytest.mark.parametrize("key, value", [
    pytest.param("norm_dirs", 0, id="norm_dirs-0"),
    pytest.param("norm_dirs", -3, id="norm_dirs-negative"),
    pytest.param("norm_per_decade", 0, id="norm_per_decade-0"),
    pytest.param("sweep_samples", 0, id="sweep_samples-0"),
])
def test_harness_config_rejects_norm_settings_below_1(key, value):
    """No direction, shell or sweep sample means no norm: the config says
    so by name instead of dividing by zero, sweeping all but |value|
    directions or rounding up to one shell later on."""
    with pytest.raises(ValueError, match=f"^{key} must be >= 1, got {value}$"):
        HarnessConfig(**{key: value})


@pytest.mark.parametrize("kwargs, pattern", [
    pytest.param({"per_decade": 0}, "^points_per_decade must be >= 1, got 0$",
                 id="per_decade-0"),
    pytest.param({"t_min": 5, "t_max": 1}, "^t grid: need 0 < r_min < r_max",
                 id="t-window-reversed"),
    pytest.param({"t_per_decade": 10**8}, "^t grid: .*lower t_per_decade$",
                 id="t_per_decade-above-the-ceiling"),
    pytest.param({"norm_per_decade": 10**7}, "^norm shells: .*lower norm_per_decade$",
                 id="norm_per_decade-above-the-ceiling"),
])
def test_harness_config_rejects_bad_grids_when_built(kwargs, pattern):
    """The scale window, the t window and the norm shells are built with
    the config, so a bad grid fails there, not halfway through a suite."""
    with pytest.raises(ValueError, match=pattern) as info:
        HarnessConfig(**kwargs)
    assert "\n" not in str(info.value)


def test_norm_shells_above_the_ceiling_are_rejected_before_allocation():
    # 2.6 decades at 1e7 shells each: 2.6e7 shells of 32 directions would
    # be about 20 GB of domain points
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the ceiling") as info:
            HarnessConfig(norm_per_decade=10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "\n" not in str(info.value)
    assert peak < 2**20


def test_both_inequalities_share_one_gradient_side():
    """Dorronsoro and Poincare compare against the same ||grad_H f||_p:
    one rhs, one rhs truncation and one norm-domain echo, bit for bit, and
    the same s ||grad_H f||_p on the dilated points of a stability run."""
    f = catalog("gaussian")
    dor = dorronsoro_ratio(f, 2.0, 2.0, CHEAP)
    poi = poincare_ratio(f, 2.0, CHEAP)
    assert (dor.rhs, dor.truncation[1]) == (poi.rhs, poi.truncation[1])
    for key in ("field", "p", "rho_min", "rho_max", "norm_dirs", "norm_per_decade"):
        assert dor.params[key] == poi.params[key]
    polar = CHEAP.domain()
    assert (verify._dorronsoro_sides(f, 2.0, 2.0, CHEAP, polar, 2.0)[1]
            == verify._poincare_sides(f, 2.0, CHEAP, polar, 2.0)[1])


def test_dorronsoro_rejects_inadmissible_exponents():
    f = catalog("gaussian")
    with pytest.raises(ValueError, match="admissib"):
        dorronsoro_ratio(f, 2.0, 4.0, CHEAP)


def test_dorronsoro_gaussian_cheap():
    rep = dorronsoro_ratio(catalog("gaussian"), 2.0, 2.0, CHEAP)
    assert rep.name == "dorronsoro"
    assert not rep.degenerate
    assert 0.05 < rep.ratio < 20.0
    assert rep.truncation[1] < 0.05 * rep.rhs
    assert rep.params["field"] == "gaussian"
    # the polar L^p norm of the square function carries a finite tail once
    # the last four shells lie outside the core; at four shells per decade
    # they reach into it and the fitted decay reads as unsummable (inf)
    rep = dorronsoro_ratio(catalog("gaussian"), 2.0, 2.0,
                           replace(CHEAP, norm_per_decade=8))
    assert 0.0 <= rep.truncation[0] < 0.5 * rep.lhs


def test_dorronsoro_annihilates_affine():
    rep = dorronsoro_ratio(catalog("affine", a=[1.0, -1.0], b=0.5), 2.0, 2.0, CHEAP)
    assert not rep.degenerate
    assert rep.ratio < 1e-10


def test_dorronsoro_degenerate_on_constants():
    rep = dorronsoro_ratio(catalog("affine", a=[0.0, 0.0], b=3.0), 2.0, 2.0, CHEAP)
    assert rep.degenerate
    assert math.isnan(rep.ratio)


def test_dorronsoro_stability_identity_at_unit_dilation():
    f = catalog("gaussian")
    base = dorronsoro_ratio(f, 2.0, 2.0, CHEAP)
    rep = dorronsoro_stability(f, 2.0, 2.0, CHEAP, 1.0, base=base)
    assert rep.lhs == rep.rhs == base.ratio
    moved = dorronsoro_stability(f, 2.0, 2.0, CHEAP, 2.0, base=base)
    assert abs(moved.ratio - 1.0) < 0.2  # genuine truncation drift only


def test_poincare_vanishes_on_z_only_fields():
    rep = poincare_ratio(catalog("coordinate", axis=1), 2.0, CHEAP)
    assert rep.lhs == 0.0
    assert rep.truncation[0] == 0.0
    assert not rep.degenerate
    assert rep.ratio == 0.0


def test_poincare_gaussian_cheap():
    rep = poincare_ratio(catalog("gaussian"), 2.0, CHEAP)
    assert 0.1 < rep.ratio < 10.0
    st = poincare_stability(catalog("gaussian"), 2.0, CHEAP, 1.0, base=rep)
    assert st.lhs == st.rhs == rep.ratio


def test_inequalities_and_stabilities_at_n2_grid():
    # one body per inequality serves the base run and every dilation; at
    # this budget the n = 2 lhs truncation is inf and the s = 2 Dorronsoro
    # stability reads about 1.9, so only sanity is asserted, no bands
    cfg = replace(CHEAP, n=2, spec=QuadSpec(mode="grid", grid_per_axis=6))
    f = catalog("gaussian", n=2)
    for base, stability in (
        (dorronsoro_ratio(f, 2.0, 2.0, cfg),
         lambda s, base: dorronsoro_stability(f, 2.0, 2.0, cfg, s, base=base)),
        (poincare_ratio(f, 2.0, cfg),
         lambda s, base: poincare_stability(f, 2.0, cfg, s, base=base)),
    ):
        assert base.params["n"] == 2
        assert not base.degenerate and 0.0 < base.ratio < math.inf
        for s in (0.5, 1.0, 2.0):
            rep = stability(s, base)
            assert not rep.degenerate and 0.0 < rep.ratio < math.inf
            assert rep.params["s"] == s
            if s == 1.0:
                assert rep.lhs == rep.rhs == base.ratio


def test_poincare_head_continues_from_t_min(monkeypatch):
    # the midpoint sum covers [t_min, t_max], so the small-t head ends at t_min
    edges = []

    def recording_head(xs, integrand, edge):
        edges.append(edge)
        return power_head(xs, integrand, edge)

    monkeypatch.setattr(verify, "power_head", recording_head)
    poincare_ratio(catalog("gaussian"), 2.0, CHEAP)
    assert edges == [CHEAP.t_min]


def _traced_poincare_sides(f, config):
    polar = config.domain()  # the template and shells are not the shifts' cost
    tracemalloc.start()
    try:
        sides = verify._poincare_sides(f, 2.0, config, polar, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sides, peak


def test_poincare_shifts_peak_at_one_block_of_t():
    # at the default t grid all 96 x 21 x 32 shifted points form one block;
    # 3,000 t nodes would form a 46 MiB shifted copy of the domain at once
    f = catalog("gaussian")
    one_block = HarnessConfig()
    many = HarnessConfig(t_per_decade=500)
    points = one_block.domain().pts[..., 0].size
    assert one_block.t_grid.count * points <= beta._NODE_BUDGET
    assert many.t_grid.count * points * 3 * 8 > 40 * 2**20
    _, base_peak = _traced_poincare_sides(f, one_block)
    (_, _, (means, *_)), peak = _traced_poincare_sides(f, many)
    assert means.shape == (many.t_grid.count, len(many.domain().rho))
    # beyond one block, only the (t, shell) means grow
    assert peak <= base_peak + 2 * means.nbytes


def test_poincare_shift_blocks_keep_the_bits(monkeypatch):
    f = catalog("gaussian")
    whole = verify._poincare_sides(f, 2.0, CHEAP, CHEAP.domain(), 1.5)
    monkeypatch.setattr(verify, "_NODE_BUDGET", 50)  # one t node per block
    blocked = verify._poincare_sides(f, 2.0, CHEAP, CHEAP.domain(), 1.5)
    assert whole[:2] == blocked[:2]
    for a, b in zip(whole[2], blocked[2]):
        assert np.array_equal(a, b)


def _no_eval(pts):
    raise AssertionError("a field was evaluated before the factor check")


@pytest.mark.parametrize("s", [math.nan, math.inf, 0.0, -1.0])
def test_bad_dilation_factor_raises_one_line_before_any_work(s):
    f = replace(catalog("gaussian"), eval=_no_eval)
    # a hand-built base, so that no field is evaluated before the check
    base = RatioReport("base", 1.0, 1.0, 1.0, {}, (0.0, 0.0), False)
    calls = {
        "dilate": lambda: dilate(s, np.array([1.0, 0.0, 0.5])),
        "dilate-array": lambda: dilate(np.array([1.0, s]), np.zeros((2, 3))),
        "precompose_dilation": lambda: precompose_dilation(f, s),
        "dorronsoro_stability": lambda: dorronsoro_stability(f, 2.0, 2.0, CHEAP, s,
                                                             base),
        "poincare_stability": lambda: poincare_stability(f, 2.0, CHEAP, s, base),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        for name, call in calls.items():
            with pytest.raises(ValueError, match="dilation factor must be finite and "
                               "positive") as info:
                call()
            assert "\n" not in str(info.value), name


def test_poincare_exponent_range():
    f = catalog("gaussian")
    with pytest.raises(ValueError, match="p"):
        poincare_ratio(f, 3.0, CHEAP)
    with pytest.raises(ValueError, match="p"):
        poincare_ratio(f, 1.0, CHEAP)


def test_identity_suite_grid_certified_and_exact():
    reports = run_identity_suite(CHEAP)
    assert len(reports) == 8
    for rep in reports:
        assert rep.params["pass"] is True
        assert rep.params["certified"] is True
        assert abs(rep.ratio - 1.0) <= 1e-2
    exact = [rep for rep in reports if rep.ratio == 1.0]
    assert len(exact) == len(reports)  # common random numbers make them exact


def _lp_scaling_by_copy(config, name, s):
    """(lhs, rhs) of the lp-scaling body that _linked_lp_report replaced."""
    f = catalog(name, n=config.n)
    fs = precompose_dilation(f, s)
    p = config.p
    big_q = 2 * config.n + 2
    polar = config.domain()
    lhs = shell_lp(fs.eval(polar.pts), polar.vols, p)[0]
    rhs_means = shell_lp(f.eval(dilate(s, polar.pts)), polar.vols, p)[1]
    rhs_int = float(np.sum(s**big_q * polar.vols * rhs_means))
    return lhs, s ** (-big_q / p) * rhs_int ** (1.0 / p)


def _g_lp_by_copy(config, name, s):
    """(lhs, rhs) of the g-lp body that _linked_lp_report replaced."""
    f = catalog(name, n=config.n)
    fs = precompose_dilation(f, s)
    n, p, alpha = config.n, config.p, config.alpha
    big_q = 2 * n + 2
    d = int(alpha >= 1.0)
    grid = config.scale_grid
    rs = grid.nodes()
    polar = config.domain()
    tpl = ball_template(n, config.sweep_spec)
    lhs_vals = g_window_values(fs, polar.pts, rs, rs**-alpha, grid.log_step, d, 1.0, tpl)
    lhs = shell_lp(lhs_vals, polar.vols, p)[0]
    rhs_vals = g_window_values(
        f, dilate(s, polar.pts), s * rs, (s * rs) ** -alpha, grid.log_step, d, 1.0, tpl
    )
    rhs_int = float(np.sum(s**big_q * polar.vols * np.mean(rhs_vals**p, axis=-1)))
    return lhs, s ** (alpha - big_q / p) * rhs_int ** (1.0 / p)


def test_linked_lp_reports_keep_the_bits_of_both_old_bodies():
    reports = {rep.name: rep for rep in run_identity_suite(CHEAP)}
    for name, copy in (
        ("lp-scaling:gaussian:s=2", _lp_scaling_by_copy(CHEAP, "gaussian", 2.0)),
        ("lp-scaling:vertical-wave:s=2",
         _lp_scaling_by_copy(CHEAP, "vertical-wave", 2.0)),
        ("g-lp:gaussian:s=2", _g_lp_by_copy(CHEAP, "gaussian", 2.0)),
    ):
        assert (reports[name].lhs, reports[name].rhs) == copy, name
    assert reports["g-lp:gaussian:s=2"].params["alpha"] == CHEAP.alpha
    assert "alpha" not in reports["lp-scaling:gaussian:s=2"].params
    # off the suite's s = 2, and with the alpha < 1 window
    config = replace(CHEAP, alpha=0.5)
    window = verify._window(config, ball_template(1, config.sweep_spec))
    for s in (0.5, 3.0):
        rep = verify._linked_lp_report(config, "g-lp", "gaussian", s, 0.5, window,
                                       {"alpha": 0.5})
        assert (rep.lhs, rep.rhs) == _g_lp_by_copy(config, "gaussian", s)
        rep = verify._linked_lp_report(config, "lp-scaling", "bump", s, 0.0,
                                       verify._eval_at, {})
        assert (rep.lhs, rep.rhs) == _lp_scaling_by_copy(config, "bump", s)


def test_identity_suite_starved_budget_fails_honestly():
    reports = run_identity_suite(STARVED)
    assert all(rep.params["pass"] is False for rep in reports)
    assert all(rep.params["certified"] is False for rep in reports)


def test_suites_start_threads_only_on_the_calling_thread(monkeypatch):
    """The suites run their checks in order on the calling thread; only
    sweep tiles go to helper threads, and every sweep that spans many
    tiles gets config.workers of them."""
    on_main = []
    start = threading.Thread.start

    def spy_start(thread):
        on_main.append(threading.current_thread() is threading.main_thread())
        start(thread)

    multi_tile_workers = []
    run_tiles = beta._run_tiles

    def spy_run_tiles(tile, tiles, workers):
        if len(tiles) > 1:
            multi_tile_workers.append(workers)
        run_tiles(tile, tiles, workers)

    monkeypatch.setattr(threading.Thread, "start", spy_start)
    monkeypatch.setattr(beta, "_run_tiles", spy_run_tiles)
    run_identity_suite(replace(CHEAP, workers=2))
    run_lemma_suite(replace(CHEAP, workers=2))
    # four g-pointwise sweeps, the two sides of the g L^p norm and the
    # fine-grid g-vs-s sweep, each with one helper thread
    assert multi_tile_workers == [2] * 7
    assert len(on_main) == 7 and all(on_main)


def test_suites_evaluate_fields_under_the_callers_errstate(monkeypatch):
    divide = []
    make = verify.catalog

    def spy_catalog(*args, **kwargs):
        f = make(*args, **kwargs)
        ev = f.eval

        def spy_eval(p):
            divide.append(np.geterr()["divide"])
            return ev(p)

        return replace(f, eval=spy_eval)

    monkeypatch.setattr(verify, "catalog", spy_catalog)
    with np.errstate(divide="ignore"):
        run_lemma_suite(replace(CHEAP, workers=2))
        run_identity_suite(replace(CHEAP, workers=2))
    assert divide and set(divide) == {"ignore"}


def test_identity_suite_worker_count_invariant():
    serial = run_identity_suite(replace(CHEAP, workers=1))
    threaded = run_identity_suite(replace(CHEAP, workers=4))
    for a, b in zip(serial, threaded):
        assert a.name == b.name
        assert a.lhs == b.lhs and a.rhs == b.rhs


def test_identity_suite_n2_certified_and_passing():
    # on CHEAP's grid-6/8 templates covariance at s = 2 has no valid
    # placement at n = 2, so this run takes a certified Monte Carlo budget
    cfg = replace(CHEAP, n=2, spec=QuadSpec(samples=40_000), sweep_samples=4096)
    reports = run_identity_suite(cfg)
    assert len(reports) == 8
    for rep in reports:
        assert rep.params["certified"] is True, rep.name
        assert rep.params["pass"] is True, rep.name


def test_covariance_without_valid_placement_is_degenerate():
    # an affine field has no flatness to compare at any placement
    rep = verify._covariance_report(CHEAP, "affine", 2.0, 2.0, 4.0, 0.25, 4.0)
    assert rep.params["valid"] == 0
    assert rep.degenerate and rep.lhs == rep.rhs == 0.0
    assert rep.params["pass"] is False


@pytest.mark.parametrize("per_axis", [6, 8])
def test_covariance_floor_is_one_rule_for_placements_and_report(per_axis):
    """At n = 2 on a grid the far-out gaussian placements at s = 2 have
    betas of 1e-14 to 1e-12 that agree to 15 digits.  One amax-scaled
    roundoff floor decides which placements are valid and whether the
    report is degenerate, so the valid ones make an exact, passing identity
    rather than a degenerate report under an absolute 1e-12 floor."""
    cfg = replace(CHEAP, n=2, spec=QuadSpec(mode="grid", grid_per_axis=per_axis))
    # the suite's placements: one of the 5 valid ones has a beta below 1e-12
    rep = verify._covariance_report(cfg, "gaussian", 2.0, 2.0, 4.0, 0.25, 4.0)
    assert rep.params["valid"] == 5
    assert not rep.degenerate and abs(rep.ratio - 1.0) < 1e-12
    assert rep.params["pass"] is True
    # placements farther out and smaller, where the first valid one, which
    # the report shows on a tie, has a beta below 1e-12 itself
    rep = verify._covariance_report(cfg, "gaussian", 2.0, 2.5, 5.0, 0.25, 2.0)
    assert not rep.degenerate and 0.0 < rep.rhs <= verify._DEGENERATE_RHS
    assert abs(rep.ratio - 1.0) < 1e-12 and rep.params["pass"] is True


def test_covariance_placement_pick_does_not_follow_the_tile_layout(monkeypatch):
    """At n = 2 on grid 8 every covariance placement is exact to a few ulps;
    the tie tolerance makes the first valid one the report, whatever tiles
    the sweeps were cut into (one ball per tile, or the default budget)."""
    cfg = replace(CHEAP, n=2, spec=QuadSpec(mode="grid", grid_per_axis=8))
    one_ball = len(ball_template(2, cfg.spec).nodes)
    for args in (("gaussian", 0.5, 2.0, 4.0, 0.25, 4.0),
                 ("gaussian", 2.0, 2.0, 4.0, 0.25, 4.0),
                 ("bump", 0.5, 0.8, 0.8, 0.25, 2.0)):
        reps = []
        for budget in (one_ball, beta._NODE_BUDGET):
            monkeypatch.setattr(beta, "_NODE_BUDGET", budget)
            reps.append(verify._covariance_report(cfg, *args))
        (lhs, rhs), (lhs2, rhs2) = ((rep.lhs, rep.rhs) for rep in reps)
        assert lhs2 == pytest.approx(lhs, rel=1e-12, abs=0.0), args
        assert rhs2 == pytest.approx(rhs, rel=1e-12, abs=0.0), args


def test_g_pointwise_pick_does_not_follow_the_tile_layout(monkeypatch):
    """At n = 2 on grid 8 every g-pointwise point is exact to a few ulps;
    the tie tolerance reports the first valid one whatever tiles the
    window sweeps were cut into."""
    cfg = HarnessConfig(n=2, spec=QuadSpec(mode="grid", grid_per_axis=8))
    one_ball = len(ball_template(2, cfg.spec).nodes)
    reps = []
    for budget in (one_ball, beta._NODE_BUDGET):
        monkeypatch.setattr(beta, "_NODE_BUDGET", budget)
        reps.append(verify._g_pointwise_report(cfg, "gaussian", 2.0))
    (lhs, rhs), (lhs2, rhs2) = ((rep.lhs, rep.rhs) for rep in reps)
    assert lhs2 == pytest.approx(lhs, rel=1e-12, abs=0.0)
    assert rhs2 == pytest.approx(rhs, rel=1e-12, abs=0.0)


def test_worst_case_picks_the_first_valid_maximum():
    cases = [(3.0, 1.0, False), (1.0, 2.0, True), (2.0, 4.0, True), (0.5, 2.0, True)]
    assert verify._worst_case(cases) == (1.0, 2.0)
    # |ratio - 1| ties between 0.5 and 1.5; the first valid one wins
    cases = [(9.0, 1.0, False), (1.0, 2.0, True), (3.0, 2.0, True)]
    assert verify._worst_case(cases, verify._off_one) == (1.0, 2.0)
    assert verify._worst_case([(1.0, 1.0, True)], verify._off_one) == (1.0, 1.0)
    assert verify._worst_case([(5.0, 1.0, False)]) == (0.0, 0.0)
    assert verify._worst_case([]) == (0.0, 0.0)
    # scores within _TIE tie, for every score; a larger gap still displaces
    cases = [(1.0, 1.0, True), (1.0 + 1e-15, 1.0, True), (1.1, 1.0, True)]
    assert verify._worst_case(cases[:2], verify._off_one) == (1.0, 1.0)
    assert verify._worst_case(cases[:2]) == (1.0, 1.0)
    assert verify._worst_case(cases, verify._off_one) == (1.1, 1.0)
    gap = [(1.0, 1.0, True), (1.0 + 4 * verify._TIE, 1.0, True)]
    assert verify._worst_case(gap) == (1.0 + 4 * verify._TIE, 1.0)


@pytest.mark.parametrize("n", [1, 2])
def test_lemma_suite_cheap(n):
    reports = run_lemma_suite(replace(CHEAP, n=n))
    names = [rep.name for rep in reports]
    assert names == [
        "lemma:near-optimal-fit",
        "lemma:beta-monotonicity",
        "lemma:g-vs-s",
        "lemma:projection-sup",
        "lemma:gradient-pair",
    ]
    for rep in reports:
        assert rep.params["pass"] is True
        assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
    byname = {rep.name: rep for rep in reports}
    assert byname["lemma:g-vs-s"].ratio <= 1.0
    assert byname["lemma:beta-monotonicity"].ratio < 1.0


# the five outermost shell midpoints below a domain edge of 32 at eight
# shells per decade, as in the polar quadrature, on a domain with Q = 4
# and c_n = 1
TAIL_EDGE = 32.0
TAIL_RHO = TAIL_EDGE * 10.0 ** (-(np.arange(5)[::-1] + 0.5) / 8)
TAIL_DOMAIN = PolarDomain(rho=TAIL_RHO, vols=np.ones(5), pts=np.zeros((5, 1, 3)),
                          core_vol=0.0, rho_max=TAIL_EDGE, c_n=1.0, big_q=4)


@pytest.mark.parametrize("means", [
    [8.5e-121, 1.6e-295, 0.0, 0.0, 0.0],         # one positive mean in the last four
    [5.2e-68, 1.3e-120, 1.4e-213, 0.0, 0.0],     # steep fit, then zeros
    [1e-40, 1e-100, 1e-160, 1e-220, 1e-280],     # steep decay, all positive
])
def test_power_tail_finite_when_shell_means_underflow(means):
    tail = power_tail(TAIL_DOMAIN, np.array(means))
    assert math.isfinite(tail) and tail >= 0.0


def test_power_tail_dead_and_unsummable_cases():
    assert power_tail(TAIL_DOMAIN, np.zeros(5)) == 0.0
    assert power_tail(TAIL_DOMAIN, np.array([1.0, 0.5, 0.2, 0.1, 0.0])) == 0.0
    # flat means: decay cannot beat the volume growth
    assert power_tail(TAIL_DOMAIN, np.ones(5)) == math.inf
    # a single positive mean leaves no decay rate to continue with
    assert power_tail(TAIL_DOMAIN, np.array([0.0, 0.0, 0.0, 0.0, 1e-5])) == math.inf
    # an exact power law rho^-6 integrates in closed form
    means = TAIL_RHO**-6.0
    want = 4.0 * TAIL_EDGE ** (4 - 6) / (6 - 4)
    assert power_tail(TAIL_DOMAIN, means) == pytest.approx(want)


def test_power_tail_and_truncation_take_q_from_an_n2_domain():
    # at n = 2 the shells grow like rho^6, so means following rho^-8 leave
    # the tail c_n Q edge^(Q-8) / (8-Q) past the edge, with Q = 6
    polar = polar_domain(2, 8.0, 4, 8, QuadSpec(mode="grid", grid_per_axis=6))
    assert polar.big_q == 6
    means = polar.rho**-8.0
    want = polar.c_n * 6 * polar.rho_max ** (6 - 8) / (8 - 6)
    assert power_tail(polar, means) == pytest.approx(want, rel=1e-12)
    # the core ball below the innermost shell adds its own part
    core = polar.core_vol * means[0]
    for p in (1.5, 2.0):
        assert domain_truncation(polar, means, p) == pytest.approx(
            want ** (1.0 / p) + core ** (1.0 / p), rel=1e-12)


# the first six scale nodes above t_min = 1e-4 at sixteen nodes per decade
HEAD_TS = 1e-4 * 10.0 ** ((np.arange(6) + 0.5) / 16)


def test_power_head_closed_form_on_exact_power_law():
    # t^a integrates against dt/t from 0 to the edge as edge^a / a
    for a, edge in ((1.0, 1e-4), (2.5, HEAD_TS[0])):
        assert power_head(HEAD_TS, HEAD_TS**a, edge) == pytest.approx(edge**a / a)


def test_power_head_dead_and_divergent_cases():
    assert power_head(HEAD_TS, np.zeros(6), 1e-4) == 0.0
    # fewer than three positive values leave no slope to trust
    assert power_head(HEAD_TS, np.array([0.0, 0.0, 0.0, 0.0, 1e-3, 1e-2]),
                      1e-4) == math.inf
    # a flat integrand does not vanish toward 0: the head diverges
    assert power_head(HEAD_TS, np.ones(6), 1e-4) == math.inf


@pytest.mark.parametrize("n", [1, 2])
def test_grad_magnitude_evaluates_the_gradient_once_with_the_same_bits(n):
    """The rhs of both ratios takes |grad_H f| from one horizontal_gradient
    call, with the bits of sqrt(0 + (X_1 f)^2 + ... + (X_2n f)^2) from
    separate horizontal_derivative calls, for an analytic gradient and for
    central differences."""
    f = catalog("vertical-wave", n=n, omega=2.0)
    cfg = replace(CHEAP, n=n, spec=QuadSpec(mode="grid", grid_per_axis=6))
    polar = cfg.domain()
    calls = []
    counted = replace(f, analytic_hgrad=lambda p: calls.append(p) or f.analytic_hgrad(p))
    bare = replace(f, analytic_hgrad=None)  # central differences
    for field in (counted, bare):
        mag = np.sqrt(sum(
            horizontal_derivative(field, j, polar.pts) ** 2 for j in range(1, 2 * n + 1)
        ))
        want = shell_lp(mag, polar.vols, 2.0)[0]
        for sides in (lambda: verify._dorronsoro_sides(field, 2.0, 1.0, cfg, polar, 1.0),
                      lambda: verify._poincare_sides(field, 2.0, cfg, polar, 1.0)):
            calls.clear()
            assert sides()[1] == want
            assert len(calls) == (1 if field is counted else 0)
