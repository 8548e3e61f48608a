"""Lemma suite reports against the straightforward computations they
replace, and a guard against sweeping the same balls twice."""

import math
import sys

import numpy as np
import pytest

from heisbeta import beta, squarefn, verify
from heisbeta.fields import catalog
from heisbeta.hgroup import dilate, group_mul
from heisbeta.quad import QuadSpec, ball_template
from heisbeta.squarefn import g_alpha, s_alpha
from heisbeta.verify import HarnessConfig

MC = QuadSpec(samples=4096)
GRID = QuadSpec(mode="grid", grid_per_axis=6)


def _tiny(n, spec, q=1.0):
    return HarnessConfig(n=n, q=q, spec=spec, sweep_samples=256, per_decade=2)


def _g_vs_s_by_point(config):
    """Worst (g, 2 s + 3 stderr) pair from one g_alpha and one s_alpha call
    per point."""
    f = catalog("gaussian", n=config.n)
    spec, grid = config.sweep_spec, config.scale_grid
    rng = verify._rng(spec, verify._ROLE_POINTS)
    cases = []
    for x in verify._random_centers(rng, config.n, 20, 1.5, 2.0):
        gres = g_alpha(f, x, 0.5, grid, spec)
        sres = s_alpha(f, x, 0.5, grid, spec)
        bound = 2.0 * sres.value + 3.0 * (gres.stderr + sres.stderr)
        if bound > 0:
            cases.append((gres.value, bound))
    return cases[int(np.argmax([lhs / rhs for lhs, rhs in cases]))]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("spec", [MC, GRID], ids=["mc", "grid"])
def test_g_vs_s_matches_per_point_square_functions(n, spec):
    config = _tiny(n, spec)
    rep = verify._g_vs_s_report(config)
    lhs, rhs = _g_vs_s_by_point(config)
    assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
    assert rep.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0)
    assert rep.params["valid"] == 20


def _near_optimal_by_magnitude(config):
    """(base, best) at the worst placement, one competitor array per
    magnitude."""
    f = catalog("gaussian", n=config.n)
    spec = config.sweep_spec
    tpl = ball_template(config.n, spec)
    rng = verify._rng(spec, verify._ROLE_COMPETITORS)
    xs = verify._random_centers(rng, config.n, 20, 2.0, 4.0)
    rads = np.exp(rng.uniform(math.log(0.25), math.log(2.0), size=20))
    u = tpl.nodes[:, :-1]
    scale_a = 1.0 / np.sqrt(tpl.m2)
    worst = (1.0, 1.0, 1.0)
    for x, r in zip(xs, rads):
        vals = f.eval(group_mul(x[None], dilate(r, tpl.nodes)))
        b = vals.mean()
        a = (vals @ u / len(u)) / tpl.m2
        resid = vals - b - u @ a
        base = float(np.mean(np.abs(resid) ** config.q) ** (1.0 / config.q))
        if base <= 1e-14:
            continue
        dirs = rng.standard_normal(size=(100, 1 + u.shape[-1]))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        best = base
        for lam in (0.25, 0.5, 1.0):
            delta_b = lam * base * dirs[:, 0]
            delta_a = lam * base * dirs[:, 1:] * scale_a[None, :]
            cand = resid[None, :] - delta_b[:, None] - delta_a @ u.T
            cand_beta = np.mean(np.abs(cand) ** config.q, axis=1) ** (1.0 / config.q)
            best = min(best, float(cand_beta.min()))
        ratio = base / best if best > 0 else math.inf
        if ratio > worst[0]:
            worst = (ratio, base, best)
    return worst[1], worst[2]


@pytest.mark.parametrize("q", [1.0, 1.5])
def test_near_optimal_matches_per_magnitude_competitors(q):
    config = _tiny(1, MC, q=q)
    rep = verify._near_optimal_report(config)
    base, best = _near_optimal_by_magnitude(config)
    assert rep.lhs == pytest.approx(base, rel=1e-12, abs=0.0)
    assert rep.rhs == pytest.approx(best, rel=1e-12, abs=0.0)
    assert rep.ratio >= 1.0


def test_lemma_suite_sweeps_no_ball_twice(monkeypatch):
    original = beta.scale_sweep
    seen, repeats = set(), []

    def keyed_sweep(f, centers, rs, d, q, template, *args, **kwargs):
        ev = getattr(f, "eval", f)
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        radii = np.asarray(rs, dtype=float)
        if radii.ndim < 2:  # radii shared by every center
            radii = np.broadcast_to(np.atleast_1d(radii), (len(centers), radii.size))
        for center, row in zip(centers, radii):
            for r in row:
                key = (ev, center.tobytes(), r.tobytes(), template)
                if key in seen:
                    repeats.append(key)
                seen.add(key)
        return original(f, centers, rs, d, q, template, *args, **kwargs)

    norm_calls = []

    def counted_norm(f, q):
        norm_calls.append((f.label, q))
        return math.inf

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("heisbeta"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, keyed_sweep)
    monkeypatch.setattr(squarefn, "lq_norm_bound", counted_norm)
    reports = verify.run_lemma_suite(_tiny(1, MC))
    assert len(reports) == 5
    assert seen
    assert not repeats, f"{len(repeats)} balls swept more than once"
    assert not norm_calls, f"lq_norm_bound called {len(norm_calls)} times"


def _count_sweeps(monkeypatch):
    """Patch every heisbeta binding of scale_sweep with a counting wrapper;
    returns the list the calls are appended to."""
    original = beta.scale_sweep
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("heisbeta"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("n", [1, 2])
def test_lemma_suite_sweeps_each_check_in_few_calls(monkeypatch, n):
    """Monotonicity (one sweep per side), g-vs-s (one) and gradient-pair
    (1 + 2n) pass every placement to one ball-list sweep; no per-ball loop
    of sweeps comes back."""
    calls = _count_sweeps(monkeypatch)
    verify.run_lemma_suite(_tiny(n, MC))
    assert len(calls) <= 8


def test_covariance_check_sweeps_each_side_once(monkeypatch):
    calls = _count_sweeps(monkeypatch)
    cfg = _tiny(1, GRID)
    for name, s, z, t, r_lo, r_hi in (("gaussian", 0.5, 2.0, 4.0, 0.25, 4.0),
                                      ("gaussian", 2.0, 2.0, 4.0, 0.25, 4.0),
                                      ("bump", 0.5, 0.8, 0.8, 0.25, 2.0)):
        before = len(calls)
        verify._covariance_report(cfg, name, s, z, t, r_lo, r_hi)
        assert len(calls) - before == 2
