"""Acceptance suite: nine criteria, each one test, at pinned tolerances.

Every test prints one PASS line on success (visible with -s or in failure
output) and enforces its own runtime cap.  Fixture-locked checks compare
against tests/fixtures.json, regenerated by regen_fixtures.py at four times
the standard budget; drift allowances are factor 3 where a check locks an
order of magnitude and 25 percent where the reference is a near-unity ratio.
"""

import json
import time

import numpy as np
import pytest

from heisbeta.affine import fit_moment, fit_normal_equations, residual_orthogonality
from heisbeta.beta import beta_number
from heisbeta.cli import main as cli_main
from heisbeta.fields import catalog, precompose_dilation
from heisbeta.hgroup import dilate, distance, gauge, group_mul, inverse, origin
from heisbeta.quad import QuadSpec, ball_template, mean_stderr
from heisbeta.verify import (
    HarnessConfig,
    dorronsoro_ratio,
    dorronsoro_stability,
    gate_exponents,
    poincare_ratio,
    run_identity_suite,
    run_lemma_suite,
)

from conftest import random_points

STANDARD = HarnessConfig()  # 1e5 samples per ball, sweep cap 8192, seed 42

# Wider domain for the Dorronsoro runs: at q = 2 the square function decays
# only polynomially in the gauge, and the five percent truncation certificate
# needs the norm domain out to gauge radius 32.  Matches regen_fixtures.py.
DORRONSORO = HarnessConfig(box_radius=16.0, q=2.0)


_CACHE = {}


def identity_reports():
    """Standard-budget identity suite, run once, timed inside its test."""
    if "identity" not in _CACHE:
        _CACHE["identity"] = {rep.name: rep for rep in run_identity_suite(STANDARD)}
    return _CACHE["identity"]


def lemma_reports():
    if "lemma" not in _CACHE:
        _CACHE["lemma"] = {rep.name: rep for rep in run_lemma_suite(STANDARD)}
    return _CACHE["lemma"]


def finish(num, label, t0, cap):
    elapsed = time.monotonic() - t0
    assert elapsed < cap, f"criterion {num} runtime {elapsed:.1f}s exceeds {cap}s"
    print(f"PASS criterion {num}: {label} ({elapsed:.1f}s)")


def test_criterion_1_group_metric_axioms():
    t0 = time.monotonic()
    rng = np.random.default_rng(2026)
    for n in (1, 2):
        a, b, c = (random_points(rng, 5000, n=n) for _ in range(3))
        left = group_mul(group_mul(a, b), c)
        right = group_mul(a, group_mul(b, c))
        scale = np.maximum(np.maximum(np.abs(left), np.abs(right)), 1.0)
        assert np.max(np.abs(left - right) / scale) <= 1e-12
        e = origin(n)
        assert np.array_equal(group_mul(a, e), a)
        assert np.array_equal(group_mul(e, a), a)
        prod = group_mul(a, inverse(a))
        assert np.max(np.abs(prod)) <= 1e-12 * np.max(np.abs(a))
        base = distance(a, b)
        moved = distance(group_mul(c, a), group_mul(c, b))
        assert np.max(np.abs(moved - base) / np.maximum(base, 1.0)) <= 1e-12
        for s in (0.5, 3.0):
            lhs = gauge(dilate(s, a))
            assert np.max(np.abs(lhs - s * gauge(a)) / np.maximum(lhs, 1.0)) <= 1e-12
    finish(1, "group and metric axioms at 1e-12 over 10^4 cases", t0, 5.0)


def test_criterion_2_projection_correctness():
    t0 = time.monotonic()
    grid = QuadSpec(mode="grid")
    mc = QuadSpec()
    rng = np.random.default_rng(2027)
    a0 = np.array([1.3, -0.6])
    aff = catalog("affine", a=a0, b=0.4)
    for _ in range(3):
        x = random_points(rng, 1)[0]
        r = float(rng.uniform(0.2, 3.0))
        A = fit_moment(aff, x, r, 1, grid)
        assert np.max(np.abs(A.a - a0)) <= 1e-10
        assert abs(A.b - aff.eval(x)) <= 1e-10
    f = catalog("gaussian")
    for _ in range(3):
        x = random_points(rng, 1)[0]
        r = float(rng.uniform(0.3, 1.5))
        A = fit_moment(f, x, r, 1, grid)
        assert np.max(np.abs(residual_orthogonality(f, A, x, r, grid))) <= 1e-10
        B = fit_normal_equations(f, x, r, 1, grid)
        scale = max(abs(A.b), float(np.max(np.abs(A.a))))
        assert abs(A.b - B.b) <= 1e-6 * scale
        assert np.max(np.abs(A.a - B.a)) <= 1e-6 * scale
        # Monte Carlo orthogonality within three standard errors
        Am = fit_moment(f, x, r, 1, mc)
        vec = residual_orthogonality(f, Am, x, r, mc)
        tpl = ball_template(1, mc)
        nodes = group_mul(x, dilate(r, tpl.nodes))
        res = np.asarray(f.eval(nodes)) - Am.eval(nodes)
        comps = np.concatenate([res[None], res[None] * (nodes[:, :-1] - x[:-1]).T])
        ses = np.array([float(mean_stderr(comp, tpl)) for comp in comps])
        assert np.all(np.abs(vec) <= np.maximum(3.0 * ses, 1e-13))
    finish(2, "affine fits exact, orthogonal residuals, solver agreement", t0, 30.0)


def test_criterion_3_beta_annihilation_and_covariance():
    t0 = time.monotonic()
    grid = QuadSpec(mode="grid")
    rng = np.random.default_rng(2028)
    aff = catalog("affine", a=[0.8, 1.7], b=-0.3)
    for _ in range(4):
        x = random_points(rng, 1)[0]
        r = float(rng.uniform(0.2, 4.0))
        assert beta_number(aff, x, r, 1, 1.0, grid)[0] <= 1e-10
    spec = QuadSpec(samples=100_000)
    cases = [
        (catalog("gaussian"), np.array([0.4, -0.2, 0.3]), 0.75),
        (catalog("gaussian"), np.array([-0.6, 0.1, -0.4]), 1.5),
        (catalog("bump"), np.array([0.1, 0.2, 0.05]), 0.5),
    ]
    for s in (0.5, 2.0, 4.0):
        for f, x, r in cases:
            lhs = beta_number(precompose_dilation(f, s), x, r, 1, 1.0, spec)[0]
            rhs = beta_number(f, dilate(s, x), s * r, 1, 1.0, spec)[0]
            assert rhs > 0
            assert abs(lhs / rhs - 1.0) <= 1e-2
    finish(3, "beta annihilates affine fields; dilation covariance exact", t0, 120.0)


def test_criterion_4_square_function_equivariance():
    t0 = time.monotonic()
    reports = identity_reports()
    for name, tol in [
        ("g-pointwise:gaussian:s=0.5", 2e-2),
        ("g-pointwise:gaussian:s=2", 2e-2),
        ("g-lp:gaussian:s=2", 3e-2),
    ]:
        rep = reports[name]
        assert not rep.degenerate
        assert rep.params["certified"] is True
        assert abs(rep.ratio - 1.0) <= tol, name
    finish(4, "pointwise and L^p dilation laws for G_alpha", t0, 300.0)


def test_criterion_5_lemma_suite(fixtures):
    t0 = time.monotonic()
    reports = lemma_reports()
    locked = fixtures["lemmas"]
    near = reports["lemma:near-optimal-fit"]
    assert np.isfinite(near.ratio) and near.ratio > 0
    assert locked["lemma:near-optimal-fit"]["ratio"] / 3.0 <= near.ratio
    assert near.ratio <= 3.0 * locked["lemma:near-optimal-fit"]["ratio"]
    mono = reports["lemma:beta-monotonicity"]
    assert np.isfinite(mono.ratio)
    assert mono.ratio <= 3.0 * locked["lemma:beta-monotonicity"]["ratio"]
    gvs = reports["lemma:g-vs-s"]
    assert gvs.ratio <= 1.0  # G_alpha <= 2 S_alpha + 3 stderr at every point
    pair = reports["lemma:gradient-pair"]
    assert np.isfinite(pair.ratio)
    assert pair.ratio <= 3.0 * locked["lemma:gradient-pair"]["ratio"]
    sup = reports["lemma:projection-sup"]
    assert np.isfinite(sup.ratio)
    assert sup.ratio <= 3.0 * locked["lemma:projection-sup"]["ratio"]
    finish(5, "lemma sweeps finite and fixture-locked", t0, 300.0)


def test_criterion_6_dorronsoro_ratio(fixtures):
    t0 = time.monotonic()
    locked = fixtures["dorronsoro"]
    for key, field in [
        ("gaussian", catalog("gaussian")),
        ("vertical-wave", catalog("vertical-wave", omega=1.0)),
    ]:
        base = dorronsoro_ratio(field, DORRONSORO)
        assert not base.degenerate and np.isfinite(base.ratio)
        ref = locked[key]["ratio"]
        assert ref / 3.0 <= base.ratio <= 3.0 * ref, key
        assert base.truncation[0] <= 0.05 * base.lhs, key
        assert base.truncation[1] <= 0.05 * base.rhs, key
        for s in (0.5, 1.0, 2.0):
            rep = dorronsoro_stability(field, DORRONSORO, s, base=base)
            assert abs(rep.ratio - 1.0) <= 5e-2, (key, s)
    finish(6, "Dorronsoro ratios finite, stable, fixture-locked, <5% trunc", t0, 600.0)


def test_criterion_7_poincare_ratio(fixtures):
    t0 = time.monotonic()
    locked = fixtures["poincare"]
    cases = [("gaussian", catalog("gaussian"))] + [
        (f"vertical-wave:omega={omega:g}", catalog("vertical-wave", omega=omega))
        for omega in (1.0, 4.0, 16.0)
    ]
    for key, field in cases:
        rep = poincare_ratio(field, STANDARD)
        assert not rep.degenerate and np.isfinite(rep.ratio)
        ref = locked[key]["ratio"]
        assert abs(rep.ratio - ref) <= 0.25 * ref, key
    zrep = poincare_ratio(catalog("coordinate", axis=1), STANDARD)
    assert zrep.lhs <= 1e-10
    finish(7, "Poincare ratios fixture-locked; z-only fields vanish", t0, 600.0)


def test_criterion_8_exponent_gate():
    t0 = time.monotonic()
    assert gate_exponents(2.0, 2.0, 1).admissible
    # the boundary q = pQ/(Q - p) itself is rejected
    for p, n in [(1.5, 1), (2.0, 1), (1.25, 2)]:
        big_q = 2 * n + 2
        boundary = p * big_q / (big_q - p)
        assert not gate_exponents(p, boundary, n).admissible
    rng = np.random.default_rng(2029)
    for _ in range(1000):
        p = float(rng.uniform(1.01, 5.0))
        q = float(rng.uniform(1.0, 10.0))
        n = int(rng.integers(1, 5))
        big_q = 2 * n + 2
        if p <= 2.0:
            want = q < p * big_q / (big_q - p)
        else:
            want = q < 2.0 * big_q / (big_q - 2.0)
        assert gate_exponents(p, q, n).admissible == want
    finish(8, "exponent gate matches direct evaluation on 1000 cases", t0, 1.0)


def test_criterion_9_deterministic_outputs(tmp_path):
    t0 = time.monotonic()
    base = [
        "identities", "--mode", "grid", "--grid-per-axis", "8",
        "--rmin", "0.01", "--rmax", "10", "--per-decade", "4",
        "--box-radius", "2.0", "--no-timestamp",
    ]
    outputs = []
    for tag, workers in [("a", "1"), ("b", "4"), ("c", "1")]:
        out = tmp_path / f"run_{tag}.csv"
        with pytest.raises(SystemExit) as info:
            cli_main(base + ["--workers", workers, "--out", str(out)])
        assert info.value.code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    finish(9, "byte-identical outputs across reruns and worker counts", t0, 120.0)
