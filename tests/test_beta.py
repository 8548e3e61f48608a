"""Beta numbers: annihilation, covariance, profiles, monotonicity ratios."""

import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from heisbeta import beta
from heisbeta.beta import beta_number, beta_profile, check_monotonicity, scale_sweep
from heisbeta.fields import catalog, precompose_dilation, vertical_translate
from heisbeta.hgroup import dilate, group_mul
from heisbeta.quad import QuadSpec, ScaleGrid, ball_template, mean_stderr

from conftest import random_points

GRID = QuadSpec(mode="grid")
MC = QuadSpec(samples=60_000)


@pytest.mark.parametrize("spec", [GRID, MC], ids=["grid", "mc"])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_affine_fields_annihilated(spec, q):
    f = catalog("affine", a=[1.5, -0.5], b=2.0)
    rng = np.random.default_rng(41)
    for _ in range(3):
        x = random_points(rng, 1)[0]
        r = float(rng.uniform(0.2, 4.0))
        val, _ = beta_number(f, x, r, 1, q, spec)
        assert val <= 1e-12


def test_gaussian_beta_positive_and_vanishing_at_small_scale():
    f = catalog("gaussian")
    x = np.array([0.3, 0.1, -0.2])
    small = beta_number(f, x, 0.01, 1, 1.0, GRID)[0]
    mid = beta_number(f, x, 1.0, 1, 1.0, GRID)[0]
    assert 0.0 < small < 1e-4  # smooth fields look affine at small scale
    assert mid > 1e-2


@pytest.mark.parametrize("s", [0.5, 2.0, 4.0])
def test_dilation_covariance(s):
    # beta of f o delta_s at (x, r) equals beta of f at (delta_s x, s r);
    # shared templates and power-of-two factors make it exact
    f = catalog("gaussian")
    fs = precompose_dilation(f, s)
    x = np.array([0.4, -0.2, 0.3])
    r = 0.75
    lhs = beta_number(fs, x, r, 1, 1.0, MC)[0]
    rhs = beta_number(f, dilate(s, x), s * r, 1, 1.0, MC)[0]
    assert abs(lhs - rhs) <= 1e-12 * max(lhs, 1e-30)


def test_translation_covariance():
    f = catalog("vertical-wave", omega=3.0)
    ft = vertical_translate(f, 0.6)
    x = np.array([0.2, 0.5, -0.1])
    shifted = x.copy()
    shifted[-1] += 0.6
    lhs = beta_number(ft, x, 0.8, 1, 1.0, MC)[0]
    rhs = beta_number(f, shifted, 0.8, 1, 1.0, MC)[0]
    assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1e-30)


def test_beta_number_error_reporting():
    f = catalog("gaussian")
    x = np.zeros(3)
    val, se = beta_number(f, x, 1.0, 1, 1.0, MC)
    assert val > 0 and se > 0
    gval, gse = beta_number(f, x, 1.0, 1, 1.0, GRID)
    assert gse >= 0
    assert abs(val - gval) < 6.0 * max(se, gse, 1e-4)


def test_beta_profile_shapes_and_annihilation():
    grid = ScaleGrid(1e-2, 1e1, 8)
    f = catalog("affine", a=[1.0, 1.0], b=0.0)
    prof = beta_profile(f, np.zeros(3), 1, 1.0, grid, GRID)
    assert prof.values.shape == (grid.count,)
    assert prof.stderrs.shape == (grid.count,)
    assert np.all(prof.values <= 1e-12)
    g = catalog("gaussian")
    gprof = beta_profile(g, np.zeros(3), 1, 1.0, grid, GRID)
    assert np.all(gprof.values >= 0.0)
    assert gprof.values.max() > 1e-2


def test_validation_errors():
    f = catalog("gaussian")
    x = np.zeros(3)
    with pytest.raises(ValueError, match="degree"):
        beta_number(f, x, 1.0, 2, 1.0, GRID)
    with pytest.raises(ValueError, match="q"):
        beta_number(f, x, 1.0, 1, 0.5, GRID)
    with pytest.raises(ValueError, match="radius"):
        beta_number(f, x, 0.0, 1, 1.0, GRID)


def test_monotonicity_ratio_conventions():
    gauss = catalog("gaussian")
    x = np.array([0.2, -0.1, 0.1])
    ratio = check_monotonicity(gauss, (x, 0.5), (x, 1.0), spec=GRID)
    assert 0.0 < ratio < np.inf
    flat = catalog("affine", a=[2.0, 1.0], b=-1.0)
    assert check_monotonicity(flat, (x, 0.5), (x, 1.0), spec=GRID) == 0.0
    # off-center inner ball still allowed while contained
    y = group_mul(x, np.array([0.05, 0.0, 0.0]))
    assert check_monotonicity(gauss, (y, 0.4), (x, 1.0), spec=GRID) > 0.0


def test_monotonicity_containment_enforced():
    f = catalog("gaussian")
    x = np.zeros(3)
    far = np.array([3.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="containment"):
        check_monotonicity(f, (far, 0.5), (x, 1.0), spec=GRID)
    with pytest.raises(ValueError, match="containment"):
        check_monotonicity(f, (x, 2.0), (x, 1.0), spec=GRID)
    with pytest.raises(ValueError, match="positive"):
        check_monotonicity(f, (x, 0.0), (x, 1.0), spec=GRID)


def _monotonicity_from_full_grid(f, inner, outer, q, spec):
    """The ratio read off the diagonal of one 2 x 2 center x radius sweep."""
    (x1, r1), (x2, r2) = inner, outer
    out = beta._sweep_with_grid_error(f, np.stack([x1, x2]), [r1, r2], 1, q, spec, 1)
    b1, b2 = float(out["beta"][0, 0]), float(out["beta"][1, 1])
    eps = 1e-12 * (1.0 + float(out["amax"][1, 1]))
    if b2 <= eps:
        return 0.0 if b1 <= eps else np.inf
    return b1 / b2


@pytest.mark.parametrize("spec", [QuadSpec(mode="grid", grid_per_axis=12),
                                  QuadSpec(samples=2000)], ids=["grid", "mc"])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_monotonicity_matches_full_grid_diagonal(spec, q):
    gauss = catalog("gaussian")
    flat = catalog("affine", a=[2.0, 1.0], b=-1.0)
    rng = np.random.default_rng(23)
    for x in random_points(rng, 4, z_extent=1.5, t_extent=2.0):
        r = float(rng.uniform(0.2, 2.0))
        y = group_mul(x, dilate(0.5 * r, np.array([0.6, -0.3, 0.2])))
        for f in (gauss, flat):
            got = check_monotonicity(f, (x, r), (y, 2.0 * r), q, spec)
            want = _monotonicity_from_full_grid(f, (x, r), (y, 2.0 * r), q, spec)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _reference_sweep(f, centers, rs, d, q, tpl, center_vals=None, want_se=True):
    """Unblocked sweep: nodes from the group law, residuals as |res|^q."""
    u = tpl.nodes
    nodes = group_mul(centers[:, None, None, :], dilate(rs[:, None], u[None])[None])
    vals = f.eval(nodes)
    b = vals.mean(axis=-1)
    res = vals - b[..., None]
    if d == 1:
        a = (vals @ u[:, :-1] / len(u)) / tpl.m2
        res -= np.einsum("krj,mj->krm", a, u[:, :-1])
    g = np.abs(res) ** q
    s = g.mean(axis=-1)
    out = {"beta": s ** (1.0 / q), "mean": b, "amax": np.abs(vals).max(axis=-1),
           "beta_se": np.zeros_like(s)}
    if want_se:
        se_s = mean_stderr(g, tpl)
        with np.errstate(divide="ignore", invalid="ignore"):
            out["beta_se"] = np.where(
                s > 0, se_s * s ** (1.0 / q - 1.0) / q, se_s ** (1.0 / q)
            )
    if center_vals is not None:
        dgv = np.abs(vals - center_vals[:, None, None])
        out["cdiff"] = dgv.mean(axis=-1)
        out["cdiff_se"] = mean_stderr(dgv, tpl) if want_se else np.zeros_like(s)
    return out


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("extras", [False, True], ids=["plain", "cdiff-se"])
def test_scale_sweep_matches_group_law_reference(monkeypatch, n, d, q, extras):
    f = catalog("gaussian", n=n)
    tpl = ball_template(n, QuadSpec(samples=1500, seed=5))
    m = len(tpl.nodes)
    centers = random_points(np.random.default_rng(17), 5, n=n, z_extent=1.5,
                            t_extent=2.0)
    rs = np.geomspace(1e-3, 1e2, 7)
    center_vals = f.eval(centers) if extras else None
    evals = []
    counted = lambda p: evals.append(p.shape) or f.eval(p)
    # three radii of one center per block: blocks split centers and radii
    monkeypatch.setattr(beta, "_NODE_BUDGET", 3 * m)
    got = scale_sweep(counted, centers, rs, d, q, tpl,
                      center_vals=center_vals, want_se=extras)
    assert len(evals) == len(centers) * math.ceil(len(rs) / 3)
    want = _reference_sweep(f, centers, rs, d, q, tpl, center_vals, want_se=extras)
    assert set(got) == set(want)
    for key in want:
        # cdiff_se at the largest radii is rounding noise around 0
        np.testing.assert_allclose(got[key], want[key], rtol=1e-9, atol=1e-15,
                                   err_msg=key)


@pytest.mark.parametrize("spec", [QuadSpec(samples=1500, seed=5),
                                  QuadSpec(mode="grid", grid_per_axis=6)],
                         ids=["mc", "grid"])
@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
def test_scale_sweep_bits_do_not_depend_on_workers(monkeypatch, spec, d, q):
    f = catalog("gaussian")
    tpl = ball_template(1, spec)
    centers = random_points(np.random.default_rng(23), 7, z_extent=1.5, t_extent=2.0)
    rs = np.geomspace(1e-2, 1e1, 9)
    # two radii of one center per tile: 35 tiles
    monkeypatch.setattr(beta, "_NODE_BUDGET", 2 * len(tpl.nodes))
    for want_se in (False, True):
        for center_vals in (None, f.eval(centers)):
            runs = [
                scale_sweep(f, centers, rs, d, q, tpl, center_vals=center_vals,
                            want_se=want_se, workers=workers)
                for workers in (1, 2, 3)
            ]
            for key in runs[0]:
                for other in runs[1:]:
                    np.testing.assert_array_equal(other[key], runs[0][key], err_msg=key)


def test_scale_sweep_raises_the_first_failing_tile_in_serial_order(monkeypatch):
    tpl = ball_template(1, QuadSpec(samples=1500, seed=5))
    centers = np.zeros((8, 3))
    centers[:, 0] = np.arange(8.0)
    rs = np.geomspace(1e-2, 1e-1, 4)
    monkeypatch.setattr(beta, "_NODE_BUDGET", 2 * len(tpl.nodes))

    def field(p):
        x = p[..., 0]
        if np.any(np.abs(x - 3.0) < 0.5):
            time.sleep(0.05)  # the first failing tile in serial order ends last
        bad = (np.abs(x - 3.0) < 0.5) | (np.abs(x - 6.0) < 0.5)
        return np.where(bad, np.nan, 1.0)

    messages = []
    for workers in (1, 2, 3):
        with pytest.raises(FloatingPointError, match="non-finite") as info:
            scale_sweep(field, centers, rs, 1, 1.0, tpl, workers=workers)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == messages[2]
    assert "array([3." in messages[0]


@pytest.mark.parametrize("workers", [1, 2])
def test_scale_sweep_tiles_run_under_the_callers_errstate(monkeypatch, workers):
    tpl = ball_template(1, QuadSpec(samples=1500, seed=5))
    centers = random_points(np.random.default_rng(29), 4)
    rs = np.geomspace(1e-2, 1e1, 6)
    monkeypatch.setattr(beta, "_NODE_BUDGET", 2 * len(tpl.nodes))
    seen = []

    def field(p):
        seen.append((threading.get_ident(), np.geterr()["under"]))
        time.sleep(0.002)  # every thread gets tiles
        return np.exp(-800.0 - p[..., 0] ** 2)  # underflows to 0

    out = scale_sweep(field, centers, rs, 1, 2.0, tpl, workers=workers)
    assert not out["beta"].any()
    seen.clear()
    with np.errstate(under="raise"):
        with pytest.raises(FloatingPointError, match="underflow"):
            scale_sweep(field, centers, rs, 1, 2.0, tpl, workers=workers)
    assert len({ident for ident, _ in seen}) == workers
    assert {mode for _, mode in seen} == {"raise"}


def test_parallel_sweep_fits_in_the_old_single_tile_footprint(monkeypatch):
    """Two tiles in flight at the current node budget trace no more memory
    than one tile at the old 131,072-node budget, on a sweep shaped like
    the dorronsoro-norm benchmark's (328 template nodes, 40 radii)."""
    f = catalog("gaussian")
    tpl = ball_template(1, QuadSpec(samples=512, seed=42))
    centers = random_points(np.random.default_rng(31), 64)
    rs = np.geomspace(1e-3, 1e2, 40)

    def peak(workers):
        tracemalloc.start()
        try:
            scale_sweep(f, centers, rs, 1, 2.0, tpl, want_se=False, workers=workers)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    parallel = peak(2)
    monkeypatch.setattr(beta, "_NODE_BUDGET", 131_072)
    assert parallel <= peak(1)
