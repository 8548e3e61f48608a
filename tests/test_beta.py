"""Beta numbers: annihilation, covariance, profiles, monotonicity ratios."""

import itertools
import math
import os
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from heisbeta import beta
from heisbeta.beta import beta_number, beta_profile, check_monotonicity, scale_sweep
from heisbeta.fields import catalog, precompose_dilation
from heisbeta.hgroup import dilate, group_mul
from heisbeta.affine import fit_from_values, fit_moment, fit_normal_equations
from heisbeta.quad import (QuadSpec, ScaleGrid, ball_template, ball_values, mean_stderr,
                           twist_nodes)
from heisbeta.squarefn import g_alpha, g_window_values, gradient_comparison, s_alpha

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
    # f_t(x) = f(x * (0, 0.6)): the central shift adds 0.6 to the vertical coordinate
    f = catalog("vertical-wave", omega=3.0)

    def shift(p):
        p = np.array(p, dtype=float)
        p[..., -1] += 0.6
        return p

    ft = replace(f, eval=lambda p: f.eval(shift(p)))
    x = np.array([0.2, 0.5, -0.1])
    shifted = x.copy()
    shifted[-1] += 0.6
    lhs = beta_number(ft, x, 0.8, 1, 1.0, MC)[0]
    rhs = beta_number(f, shifted, 0.8, 1, 1.0, MC)[0]
    assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1e-30)


def test_beta_number_reports_the_grid_sweep_error():
    f = catalog("gaussian")
    val, se = beta_number(f, np.zeros(3), 1.0, 1, 1.0, GRID)
    out = scale_sweep(f, np.zeros((1, 3)), [1.0], 1, 1.0, ball_template(1, GRID))
    assert (val, se) == (out["beta"][0, 0], out["beta_se"][0, 0])
    assert se > 0


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
    out = scale_sweep(f, np.stack([x1, x2]), [r1, r2], 1, q, ball_template(1, spec))
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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_grid_sweep_error_is_the_fine_twin_difference(monkeypatch, workers, q):
    """On a grid template want_se reads |fine - twin| for beta and cdiff,
    where twin is a sweep of the half-resolution twin template."""
    f = catalog("gaussian")
    tpl = ball_template(1, QuadSpec(mode="grid", grid_per_axis=8))
    centers = random_points(np.random.default_rng(37), 5, z_extent=1.5, t_extent=2.0)
    rs = np.geomspace(1e-2, 1e1, 7)
    cv = f.eval(centers)
    monkeypatch.setattr(beta, "_NODE_BUDGET", 2 * len(tpl.nodes))
    got = scale_sweep(f, centers, rs, 1, q, tpl, center_vals=cv, workers=workers)
    fine, twin = (
        scale_sweep(f, centers, rs, 1, q, t, center_vals=cv, want_se=False,
                    workers=workers)
        for t in (tpl, tpl.coarse)
    )
    for key in ("beta", "cdiff"):
        assert np.array_equal(got[key], fine[key])
        assert np.array_equal(got[key + "_se"], np.abs(fine[key] - twin[key]))
        assert np.array_equal(got[key + "_se"] > 0, fine[key] != twin[key])
    assert got["beta_se"].any()


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
    # every thread gets a tile: the first evaluation of each sweep on each
    # thread waits until all threads are in one, so none can fail and stop
    # the sweep before the others start (a thread that never comes breaks
    # the barrier after 10 s, which fails the sweep)
    arrived = threading.Barrier(workers, timeout=10.0)

    def field(p):
        seen.append((threading.get_ident(), np.geterr()["under"]))
        if len(seen) <= workers:
            arrived.wait()
        return np.exp(-800.0 - p[..., 0] ** 2)  # underflows to 0

    out = scale_sweep(field, centers, rs, 1, 2.0, tpl, workers=workers)
    assert not out["beta"].any()
    seen.clear()
    with np.errstate(under="raise"):
        with pytest.raises(FloatingPointError, match="underflow"):
            scale_sweep(field, centers, rs, 1, 2.0, tpl, workers=workers)
    assert len({ident for ident, _ in seen}) == workers
    assert {mode for _, mode in seen} == {"raise"}


@pytest.mark.parametrize("workers", [1, 2])
def test_a_non_finite_value_raises_one_message_on_every_sweep_path(monkeypatch, workers):
    """The ball means double as the finiteness check: a NaN at one node
    names that node with or without amax and through g_window_values, and
    +inf and -inf in one ball raise the same message before numpy's own
    error under errstate(all="raise")."""
    tpl = ball_template(1, QuadSpec(samples=1500, seed=5))
    m = len(tpl.nodes)
    centers = random_points(np.random.default_rng(41), 6, z_extent=1.5, t_extent=2.0)
    rs = np.geomspace(1e-2, 1e1, 5)
    # two centers per tile, so the tiles read the shared radius products
    monkeypatch.setattr(beta, "_NODE_BUDGET", 2 * len(rs) * m)
    nodes = np.moveaxis(twist_nodes(centers, rs, tpl.nodes, np.empty((3, 6, 5, m))), 0, -1)
    bad, worse = nodes[3, 2, 17], nodes[3, 2, 18]

    def nan_at_one_node(p):
        vals = np.ones(p.shape[:-1])
        vals[np.all(p == bad, axis=-1)] = np.nan
        return vals

    def inf_of_both_signs(p):
        vals = np.ones(p.shape[:-1])
        vals[np.all(p == bad, axis=-1)] = np.inf
        vals[np.all(p == worse, axis=-1)] = -np.inf
        return vals

    messages = []
    for field, amax in ((nan_at_one_node, True), (nan_at_one_node, False),
                        (inf_of_both_signs, True)):
        with np.errstate(all="raise"), pytest.raises(FloatingPointError) as info:
            scale_sweep(field, centers, rs, 1, 2.0, tpl, want_se=False,
                        workers=workers, amax=amax)
        messages.append(str(info.value))
    with pytest.raises(FloatingPointError) as info:
        g_window_values(nan_at_one_node, centers, rs, rs**-1.0, 0.1, 1, 2.0, tpl,
                        workers=workers)
    messages.append(str(info.value))
    assert set(messages) == {f"non-finite ball integrand at node {bad!r}"}


@pytest.mark.parametrize("spec", [QuadSpec(samples=1500, seed=5),
                                  QuadSpec(mode="grid", grid_per_axis=6)],
                         ids=["mc", "grid"])
def test_amax_switch_leaves_every_other_statistic(monkeypatch, spec):
    f = catalog("gaussian")
    tpl = ball_template(1, spec)
    centers = random_points(np.random.default_rng(19), 5, z_extent=1.5, t_extent=2.0)
    rs = np.geomspace(1e-2, 1e1, 6)
    monkeypatch.setattr(beta, "_NODE_BUDGET", 2 * len(rs) * len(tpl.nodes))
    for want_se in (False, True):
        for center_vals in (None, f.eval(centers)):
            on, off = (scale_sweep(f, centers, rs, 1, 2.0, tpl, center_vals=center_vals,
                                   want_se=want_se, amax=amax) for amax in (True, False))
            assert set(on) - set(off) == {"amax"} and set(off) <= set(on)
            for key in off:
                np.testing.assert_array_equal(off[key], on[key], err_msg=key)


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


def _previous_tile_sweep(ev, centers, rs, d, q, tpl, center_vals, want_se):
    """scale_sweep as the kernel computed it when every tile rebuilt the
    twist and allocated its products: same tiles, serial, same operations."""

    def one_pass(tpl, want_se):
        u = tpl.nodes
        k, nr, m = len(centers), len(rs), len(u)
        out = {key: np.zeros((k, nr)) for key in ("beta", "beta_se", "mean", "amax")}
        if center_vals is not None:
            out["cdiff"], out["cdiff_se"] = np.zeros((k, nr)), np.zeros((k, nr))
        rstep = max(1, min(nr, beta._NODE_BUDGET // m))
        kstep = max(1, min(k, beta._NODE_BUDGET // (rstep * m)))
        n = (u.shape[-1] - 1) // 2
        for k0 in range(0, k, kstep):
            for r0 in range(0, nr, rstep):
                ks, rsl = slice(k0, min(k0 + kstep, k)), slice(r0, min(r0 + rstep, nr))
                x, r = centers[ks], rs[rsl]
                nodes = np.empty((u.shape[-1], len(x), len(r), m))
                xz, uz = x[:, :-1], u[:, :-1]
                for j in range(2 * n):
                    np.add(xz[:, j, None, None], r[:, None] * uz[:, j], out=nodes[j])
                w = 0.5 * (xz @ np.concatenate([uz[:, n:], -uz[:, :n]], axis=1).T)
                np.add(x[:, -1, None, None], (r * r)[:, None] * u[:, -1], out=nodes[-1])
                nodes[-1] += r[:, None] * w[:, None, :]
                vals = np.asarray(ev(np.moveaxis(nodes, 0, -1)), dtype=float)
                out["amax"][ks, rsl] = np.maximum(vals.max(axis=-1), -vals.min(axis=-1))
                if center_vals is not None:
                    dgv = np.abs(vals - center_vals[ks, None, None])
                    out["cdiff"][ks, rsl] = dgv.mean(axis=-1)
                    if want_se:
                        out["cdiff_se"][ks, rsl] = mean_stderr(dgv, tpl)
                b, a = beta.fit_from_values(vals, tpl, 1.0, d)
                res = vals - b[..., None]
                if d == 1:
                    res -= np.matmul(a, u[:, :-1].T)
                res = res * res if q == 2.0 else np.abs(res) ** q
                s = res.mean(axis=-1)
                out["beta"][ks, rsl] = s if q == 1.0 else s ** (1.0 / q)
                out["mean"][ks, rsl] = b
                if want_se:
                    se_s = mean_stderr(res, tpl)
                    with np.errstate(divide="ignore", invalid="ignore"):
                        out["beta_se"][ks, rsl] = se_s if q == 1.0 else np.where(
                            s > 0, se_s * s ** (1.0 / q - 1.0) / q, se_s ** (1.0 / q))
        return out

    out = one_pass(tpl, want_se)
    if want_se and tpl.coarse is not None:
        coarse = one_pass(tpl.coarse, False)
        for key in {"beta", "cdiff"} & coarse.keys():
            out[key + "_se"] = np.abs(out[key] - coarse[key])
    return out


@pytest.mark.parametrize("spec", [QuadSpec(samples=1500, seed=5),
                                  QuadSpec(mode="grid", grid_per_axis=6)],
                         ids=["mc", "grid"])
@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("layout", ["radius-tiles", "center-tiles"])
def test_scale_sweep_bits_equal_the_per_tile_twist_formula(monkeypatch, spec, d, q,
                                                           layout):
    """The twist once per center block, the products in the node rows and
    the in-place evaluators leave every output bit as it was."""
    f = catalog("vertical-wave", omega=3.0)

    def previous_eval(p):  # the field as it was formed before evaluating in place
        zsq = np.einsum("...i,...i->...", p[..., :-1], p[..., :-1])
        return np.exp(-zsq - p[..., -1] ** 2) * np.sin(3.0 * p[..., -1])

    tpl = ball_template(1, spec)
    m = len(tpl.nodes)
    centers = random_points(np.random.default_rng(43), 5, z_extent=1.5, t_extent=2.0)
    rs = np.geomspace(1e-3, 1e1, 7)
    # radius-tiles: one center spans three tiles; center-tiles: two centers
    # share each tile and the last tile holds one
    budget = 3 * m if layout == "radius-tiles" else 2 * len(rs) * m
    monkeypatch.setattr(beta, "_NODE_BUDGET", budget)
    for want_se in (False, True):
        for center_vals in (None, f.eval(centers)):
            want = _previous_tile_sweep(previous_eval, centers, rs, d, q, tpl,
                                        center_vals, want_se)
            for workers in (1, 2):
                got = scale_sweep(f, centers, rs, d, q, tpl, center_vals=center_vals,
                                  want_se=want_se, workers=workers)
                assert set(got) == set(want)
                for key in want:
                    np.testing.assert_array_equal(got[key], want[key], err_msg=key)


@pytest.mark.parametrize("d", [0, 1])
def test_one_ball_sweep_peak_memory(d):
    """A 1-center x 80-radius sweep on the default template (61,488 Monte
    Carlo nodes, one ball per tile) traces at most 3.35 MiB: the node
    buffer, the twist, r W while the nodes form, and the field's result with
    one intermediate."""
    f = catalog("gaussian")
    tpl = ball_template(1, QuadSpec())
    x = np.array([[0.3, 0.1, -0.2]])
    rs = ScaleGrid(1e-3, 1e2, 16).nodes()
    assert len(rs) == 80
    tracemalloc.start()
    try:
        scale_sweep(f, x, rs, d, 1.0, tpl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.35 * 2**20


@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("centered", [False, True])
def test_a_tile_holds_its_nodes_and_the_field_buffers_only(d, centered):
    """One tile of a gaussian sweep at n = 1 (one center, 40 radii) traces
    at most 2n+1 + 2.5 tile-sized float arrays: the node buffer, then r W
    while the nodes form, then the field's values and its t^2 temporary.
    |f - f(x)| and the fitted model go in a spent node row; a product buffer
    of their own would make it 2n+1 + 3."""
    f = catalog("gaussian")
    tpl = ball_template(1, QuadSpec(samples=2048, seed=3))
    x = np.array([[0.3, 0.1, -0.2]])
    rs = np.geomspace(0.1, 10.0, 40)
    tile = len(rs) * len(tpl.nodes)
    assert tile <= beta._NODE_BUDGET  # every radius in one tile
    center_vals = f.eval(x) if centered else None
    tracemalloc.start()
    try:
        scale_sweep(f, x, rs, d, 2.0, tpl, center_vals=center_vals, want_se=False,
                    amax=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (3 + 2.5) * 8 * tile


@pytest.mark.parametrize("spec", [QuadSpec(samples=1500, seed=5),
                                  QuadSpec(mode="grid", grid_per_axis=6)],
                         ids=["mc", "grid"])
@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("layout", ["center-tiles", "radius-tiles"])
def test_ball_list_sweep_matches_per_ball_sweeps(monkeypatch, spec, d, q, workers,
                                                 layout):
    """A (k, R) sweep gives each center its own row of radii: it agrees with
    one sweep per ball to rounding, and bit for bit at k = 1."""
    f = catalog("gaussian")
    tpl = ball_template(1, spec)
    centers = random_points(np.random.default_rng(53), 6, z_extent=1.5, t_extent=2.0)
    rs = np.exp(np.random.default_rng(59).uniform(np.log(1e-3), np.log(4.0), (6, 3)))
    # center-tiles: two centers share each of three tiles; radius-tiles: two
    # radii of one center per tile
    budget = (6 if layout == "center-tiles" else 2) * len(tpl.nodes)
    monkeypatch.setattr(beta, "_NODE_BUDGET", budget)
    for want_se in (False, True):
        for center_vals in (None, f.eval(centers)):
            got = scale_sweep(f, centers, rs, d, q, tpl, center_vals=center_vals,
                              want_se=want_se, workers=workers)
            one = [
                scale_sweep(f, centers[i:i + 1], rs[i], d, q, tpl,
                            center_vals=None if center_vals is None
                            else center_vals[i:i + 1],
                            want_se=want_se, workers=workers)
                for i in range(len(centers))
            ]
            first = scale_sweep(f, centers[:1], rs[:1], d, q, tpl,
                                center_vals=None if center_vals is None
                                else center_vals[:1],
                                want_se=want_se, workers=workers)
            assert set(got) == set(one[0]) == set(first)
            for key in got:
                want = np.concatenate([o[key] for o in one])
                np.testing.assert_allclose(got[key], want, rtol=1e-10, atol=1e-15,
                                           err_msg=key)
                np.testing.assert_array_equal(first[key], one[0][key], err_msg=key)


def test_ball_list_radii_must_match_the_centers():
    f = catalog("gaussian")
    tpl = ball_template(1, QuadSpec(samples=500))
    centers = np.zeros((4, 3))
    for rs in (np.ones((3, 2)), np.ones((5, 1)), np.ones((4, 2, 1))):
        with pytest.raises(ValueError, match="neither"):
            scale_sweep(f, centers, rs, 1, 1.0, tpl)


def test_centers_must_match_the_template_dimension():
    f = catalog("gaussian")
    tpl = ball_template(1, QuadSpec(samples=500))
    for centers in (np.zeros((2, 5)), np.zeros(1), np.zeros((2, 1, 3))):
        for call in (lambda: scale_sweep(f, centers, [1.0], 1, 1.0, tpl),
                     lambda: ball_values(f, centers, [1.0], tpl)):
            with pytest.raises(ValueError, match=r"shape .* are not \(k, 3\)$"):
                call()


def test_points_outside_every_heisenberg_group_are_rejected():
    f, h0 = catalog("gaussian"), np.zeros(1)
    spec, grid = QuadSpec(samples=2000), ScaleGrid(0.1, 10.0, 2)
    calls = (lambda: beta_number(f, h0, 1.0, 0, 1.0, spec),
             lambda: beta_profile(f, h0, 0, 1.0, grid, spec),
             lambda: g_alpha(f, h0, 0.5, grid, spec),
             lambda: s_alpha(f, h0, 0.5, grid, spec),
             lambda: gradient_comparison(f, h0, 1.0, spec=spec),
             lambda: fit_moment(f, h0, 1.0, 1, spec),
             lambda: fit_normal_equations(f, h0, 1.0, 1, spec),
             lambda: check_monotonicity(f, (h0, 0.5), (h0, 1.0), spec=spec))
    for call in calls:
        with pytest.raises(ValueError, match="odd trailing axis >= 3, got 1$"):
            call()


BAD_BALL_INPUTS = [
    (1, 1.0, [0.0], "radius must be positive"),
    (1, 1.0, [-1.0], "radius must be positive"),
    (1, 1.0, [1.0, math.nan], "radius must be positive"),
    (1, 1.0, [math.inf], "radius must be positive"),
    (0, 2.0, [[1.0], [-0.5]], "radius must be positive"),
    (1, 0.5, [1.0], "exponent q"),
    (1, math.nan, [1.0], "exponent q"),
    (2, 1.0, [1.0], "degree"),
    (-1, 1.0, [1.0], "degree"),
]
BAD_BALL_IDS = ["r-zero", "r-negative", "r-nan", "r-inf", "ball-list-r-negative",
                "q-below-1", "q-nan", "d-2", "d-minus-1"]


@pytest.mark.parametrize("d, q, rs, match", BAD_BALL_INPUTS, ids=BAD_BALL_IDS)
def test_scale_sweep_rejects_bad_ball_inputs_with_one_line(d, q, rs, match):
    """r < 0 would mirror the ball through the symmetric template and r = 0
    collapse it; neither may come back as a beta."""
    f = catalog("gaussian")
    tpl = ball_template(1, QuadSpec(samples=500))
    with pytest.raises(ValueError, match=match) as err:
        scale_sweep(f, np.zeros((2, 3)), rs, d, q, tpl, center_vals=np.ones(2))
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("spec", [QuadSpec(mode="grid", grid_per_axis=8),
                                  QuadSpec(samples=2000)], ids=["grid", "mc"])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_monotonicity_ball_list_matches_scalar_calls(spec, q):
    rng = np.random.default_rng(61)
    xs = random_points(rng, 7, z_extent=1.5, t_extent=2.0)
    r1 = rng.uniform(0.2, 2.0, size=7)
    x2 = group_mul(xs, dilate(0.5 * r1, np.array([0.6, -0.3, 0.2])))
    for f in (catalog("gaussian"), catalog("affine", a=[2.0, 1.0], b=-1.0)):
        got = check_monotonicity(f, (xs, r1), (x2, 2.0 * r1), q, spec, workers=2)
        want = [check_monotonicity(f, (x, r), (y, 2.0 * r), q, spec)
                for x, r, y in zip(xs, r1, x2)]
        assert got.shape == (7,) and all(isinstance(w, float) for w in want)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_monotonicity_ball_list_names_the_violated_pair():
    f = catalog("gaussian")
    xs = np.zeros((5, 3))
    x2 = xs.copy()
    x2[3, 0] = 3.0  # only pair 3 leaves the outer ball
    with pytest.raises(ValueError, match="containment violated at index 3"):
        check_monotonicity(f, (xs, np.full(5, 0.5)), (x2, np.ones(5)), spec=GRID)
    with pytest.raises(ValueError, match="do not match"):
        check_monotonicity(f, (xs, np.full(4, 0.5)), (x2, np.ones(5)), spec=GRID)


def test_a_helper_that_fails_to_start_stops_the_started_ones(monkeypatch):
    """When a helper thread cannot start (say, "can't start new thread"
    under a large worker count), the error surfaces and the helpers that did
    start claim no further tile and are joined."""
    real_start = threading.Thread.start
    attempts, started, ran = [], [], []

    def start(self):
        attempts.append(self)
        if len(attempts) == 2:
            raise RuntimeError("can't start new thread")
        real_start(self)
        started.append(self)

    def tile(ks, rsl):
        ran.append(ks)
        time.sleep(0.01)

    workers = 3
    # two helper starts need three usable CPUs, whatever this machine has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)),
                        raising=False)
    monkeypatch.setattr(threading.Thread, "start", start)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        beta._run_tiles(tile, [(k, slice(None)) for k in range(40)], workers)
    monkeypatch.undo()
    done = len(ran)
    time.sleep(0.2)
    assert len(ran) == done <= 2
    assert len(started) == 1 < workers
    assert not any(helper.is_alive() for helper in started)


@pytest.fixture
def unstarted_threads(monkeypatch):
    """threading.Thread replaced by one that starts no OS thread: its target
    runs on the calling thread when it is joined, after the caller has
    drained the tiles.  Returns the list of the threads made."""
    made = []

    class Unstarted:
        def __init__(self, target, args):
            self.target, self.args = target, args
            made.append(self)

        def start(self):
            pass

        def join(self):
            self.target(*self.args)

    monkeypatch.setattr(threading, "Thread", Unstarted)
    return made


@pytest.mark.parametrize("cpus", [1, 4, None], ids=["1-cpu", "4-cpus", "this-machine"])
def test_helper_threads_are_capped_at_the_usable_cpus(monkeypatch, unstarted_threads,
                                                      cpus):
    """--workers 5000 starts at most the usable CPUs minus one helpers (off
    Linux, os.cpu_count() of them), and every tile still runs once."""
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    ran = []
    beta._run_tiles(lambda ks, rsl: ran.append(ks), [(k, None) for k in range(100)], 5000)
    assert ran == list(range(100))
    assert len(unstarted_threads) == (cpus or len(os.sched_getaffinity(0))) - 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    unstarted_threads.clear()
    beta._run_tiles(lambda ks, rsl: None, [(k, None) for k in range(100)], 5000)
    assert len(unstarted_threads) == 2


def _t_moment(tpl, q):
    return float(np.mean(np.abs(tpl.nodes[:, -1]) ** q) ** (1.0 / q))


def _t_moment_closed_form(n, q):
    """(mean of |u_t|^q over the gauge unit ball)^(1/q):
    Q/(Q+2q) 4^-q B((q+1)/2, n/2) / B(1/2, n/2)."""
    big_q = 2 * n + 2

    def log_beta(a, b):
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    moment = (big_q / (big_q + 2 * q) * 4.0**-q
              * math.exp(log_beta((q + 1) / 2, n / 2) - log_beta(0.5, n / 2)))
    return moment ** (1.0 / q)


def test_q1_error_estimate_is_the_residual_stderr():
    """At q = 1 the general rule se * s^(1/q - 1) / q is the orbit standard
    error of |residual| itself, to the bit."""
    tpl = ball_template(1, QuadSpec(samples=20_000))
    f = catalog("gaussian")
    x, r = np.array([0.3, -0.2, 0.5]), 0.8
    vals = ball_values(f, x, [r], tpl)
    for d in (0, 1):
        b, a = fit_from_values(vals, tpl, 1.0, d)
        res = vals - b[..., None]
        if d == 1:
            res -= a @ tpl.nodes[:, :-1].T
        res = np.abs(res)
        out = scale_sweep(f, x, [r], d, 1.0, tpl)
        assert out["beta"][0, 0] == res.mean(axis=-1)[0, 0]
        assert out["beta_se"][0, 0] == mean_stderr(res, tpl)[0, 0]


@pytest.mark.parametrize("n, per_axis", [(1, 24), (2, 12), (3, 6)])
@pytest.mark.parametrize("mode", ["montecarlo", "grid"])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_beta_of_the_vertical_coordinate_is_exact(n, per_axis, mode, q):
    """f = t on x * delta_r(u) is x_t + r W(x, u_z) + r^2 u_t with W linear
    in u_z, so on a sign-symmetric template the degree-1 fit takes all but
    r^2 u_t: beta_{t,1,q}(B(x, r)) = r^2 (mean_tpl |u_t|^q)^(1/q) at every
    center, through every sweep entry point."""
    # at n = 3, 8,192 proposals keep 4 orbits and 10^6 keep 387
    samples = 1_000_000 if n == 3 else 8192
    spec = QuadSpec(mode=mode, samples=samples, grid_per_axis=per_axis)
    tpl = ball_template(n, spec)
    moment = _t_moment(tpl, q)
    f = catalog("coordinate", n=n, axis="t")
    xs = random_points(np.random.default_rng(4), 6, n=n)
    rs = np.geomspace(0.25, 4.0, 5)
    balls = rs[None, :] * (1.0 + 0.3 * np.arange(6))[:, None]  # one row per center
    for radii, want_se in itertools.product((rs, balls), (True, False)):
        got = scale_sweep(f, xs, radii, 1, q, tpl, want_se=want_se)["beta"]
        np.testing.assert_allclose(got, np.broadcast_to(radii**2, got.shape) * moment,
                                   rtol=1e-12, atol=0.0)
    grid = ScaleGrid(0.25, 4.0, 2)
    np.testing.assert_allclose(beta_profile(f, xs[0], 1, q, grid, spec).values,
                               grid.nodes() ** 2 * moment, rtol=1e-12, atol=0.0)
    assert beta_number(f, xs[1], 0.7, 1, q, spec)[0] == pytest.approx(
        0.49 * moment, rel=1e-12, abs=0.0)
    # the template moment is the ball's within the template's own error:
    # 3 orbit standard errors of the q-th moment for Monte Carlo, and for a
    # midpoint mesh the share of boundary cells, O(1 / per_axis)
    exact = _t_moment_closed_form(n, q)
    if mode == "montecarlo":
        se = float(mean_stderr(np.abs(tpl.nodes[:, -1]) ** q, tpl))
        assert abs(moment**q - exact**q) <= 3.0 * se
    else:
        assert abs(moment**q / exact**q - 1.0) <= 1.0 / per_axis


def test_t_moment_closed_form_at_n1():
    assert _t_moment_closed_form(1, 1.0) == pytest.approx(1.0 / (3.0 * math.pi), rel=1e-14)
    assert _t_moment_closed_form(1, 2.0) == pytest.approx(0.125, rel=1e-14)


def _z_moments_closed_form(n):
    """(E u_j^2, E u_j^2 u_k^2 for j != k, E u_j^4) over the gauge unit ball.
    In gauge-polar coordinates z = rho sqrt(cos theta) zeta with zeta on
    S^(2n-1), where E zeta_j^2 zeta_k^2 = 1/(2n(2n+2)) and E zeta_j^4 is
    three times that."""
    big_q = 2 * n + 2
    second = (big_q / (big_q + 2) * math.exp(
        math.lgamma((n + 1) / 2) - math.lgamma(n / 2 + 1)
        - math.lgamma(n / 2) + math.lgamma((n + 1) / 2)) / (2 * n))
    mixed = big_q / (big_q + 4) * n / (n + 1) / (2 * n * (2 * n + 2))
    return second, mixed, 3.0 * mixed


def test_z_moments_closed_form():
    assert _z_moments_closed_form(1)[0] == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-14)
    for n, mixed in ((1, 1 / 32), (2, 1 / 60), (3, 1 / 96)):
        assert _z_moments_closed_form(n)[1:] == pytest.approx((mixed, 3 * mixed), rel=1e-14)


@pytest.mark.parametrize("n, per_axis", [(1, 24), (2, 12)])
@pytest.mark.parametrize("mode", ["montecarlo", "grid"])
@pytest.mark.parametrize("same", [False, True], ids=["jk", "jj"])
def test_beta_of_a_horizontal_product_is_exact(n, per_axis, mode, same):
    """f = z_j z_k on x * delta_r(u) is x_j x_k + r (x_j u_k + x_k u_j)
    + r^2 u_j u_k; on a sign-symmetric template the degree-1 fit takes the
    first two terms and the mean of the third, so beta_{f,1,2}(B(x, r)) =
    r^2 (mean_tpl u_j^2 u_k^2)^(1/2) for j != k and
    r^2 (mean_tpl u_j^4 - (mean_tpl u_j^2)^2)^(1/2) for j = k."""
    spec = QuadSpec(mode=mode, samples=8192, grid_per_axis=per_axis)
    tpl = ball_template(n, spec)
    j, k = (1, 1) if same else (1, 2 * n)
    uj, uk = tpl.nodes[:, j - 1], tpl.nodes[:, k - 1]
    if same:
        moment = math.sqrt(np.mean(uj**4) - np.mean(uj**2) ** 2)
    else:
        moment = math.sqrt(np.mean(uj**2 * uk**2))
    f = catalog("quadratic", n=n, j=j, k=k)
    xs = random_points(np.random.default_rng(4), 6, n=n)
    rs = np.geomspace(0.25, 4.0, 5)
    balls = rs[None, :] * (1.0 + 0.3 * np.arange(6))[:, None]  # one row per center
    for radii in (rs, balls):
        got = scale_sweep(f, xs, radii, 1, 2.0, tpl)["beta"]
        np.testing.assert_allclose(got, np.broadcast_to(radii**2, got.shape) * moment,
                                   rtol=1e-12, atol=0.0)
    grid = ScaleGrid(0.25, 4.0, 2)
    np.testing.assert_allclose(beta_profile(f, xs[0], 1, 2.0, grid, spec).values,
                               grid.nodes() ** 2 * moment, rtol=1e-12, atol=0.0)
    assert beta_number(f, xs[1], 0.7, 1, 2.0, spec)[0] == pytest.approx(
        0.49 * moment, rel=1e-12, abs=0.0)
    # each template moment is the ball's within the template's own error,
    # as for the vertical coordinate
    second, mixed, fourth = _z_moments_closed_form(n)
    for vals, exact in ((uj**2, second), (uj**2 * uk**2, fourth if same else mixed)):
        if mode == "montecarlo":
            assert abs(vals.mean() - exact) <= 3.0 * float(mean_stderr(vals, tpl))
        else:
            assert abs(vals.mean() / exact - 1.0) <= 1.0 / per_axis
