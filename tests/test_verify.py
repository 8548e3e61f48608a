"""Inequality harness: exponent gate, ratio reports, and suites."""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from heisbeta import beta, verify
from heisbeta.fields import catalog
from heisbeta.quad import QuadSpec, power_head, power_tail
from heisbeta.verify import (
    ExponentGate,
    HarnessConfig,
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
    with pytest.raises(ValueError, match="rho_min"):
        HarnessConfig(rho_min=10.0, box_radius=1.0)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        HarnessConfig(workers=0)
    assert "workers" not in HarnessConfig(workers=3).base_params()
    cfg = HarnessConfig(spec=QuadSpec(samples=100_000), sweep_samples=4096)
    assert cfg.sweep_spec.samples == 4096
    assert cfg.scale_grid.count > 0 and cfg.t_grid.count > 0
    assert cfg.base_params()["sweep_samples"] == 4096


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


def test_identity_suite_starved_budget_fails_honestly():
    reports = run_identity_suite(STARVED)
    assert all(rep.params["pass"] is False for rep in reports)
    assert all(rep.params["certified"] is False for rep in reports)


def test_suites_start_threads_only_on_the_calling_thread(monkeypatch):
    """Sweeps inside pooled suite tasks run serially: the suites' task pools
    and the g L^p norm's sweep helpers alike start on the caller's thread,
    so at most config.workers threads are ever busy."""
    on_main = []
    start = threading.Thread.start

    def spy_start(thread):
        on_main.append(threading.current_thread() is threading.main_thread())
        start(thread)

    sweep_workers = []
    run_tiles = beta._run_tiles

    def spy_run_tiles(tile, tiles, workers):
        sweep_workers.append(workers)
        run_tiles(tile, tiles, workers)

    monkeypatch.setattr(threading.Thread, "start", spy_start)
    monkeypatch.setattr(beta, "_run_tiles", spy_run_tiles)
    run_identity_suite(replace(CHEAP, workers=2))
    run_lemma_suite(replace(CHEAP, workers=2))
    assert sweep_workers.count(2) == 2  # the two sides of the g L^p norm
    assert set(sweep_workers) == {1, 2}
    assert len(on_main) >= 4 and all(on_main)


def test_identity_suite_worker_count_invariant():
    serial = run_identity_suite(replace(CHEAP, workers=1))
    threaded = run_identity_suite(replace(CHEAP, workers=4))
    for a, b in zip(serial, threaded):
        assert a.name == b.name
        assert a.lhs == b.lhs and a.rhs == b.rhs


def test_lemma_suite_cheap():
    reports = run_lemma_suite(CHEAP)
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
# shells per decade, as in the polar quadrature
TAIL_EDGE = 32.0
TAIL_RHO = TAIL_EDGE * 10.0 ** (-(np.arange(5)[::-1] + 0.5) / 8)


@pytest.mark.parametrize("means", [
    [8.5e-121, 1.6e-295, 0.0, 0.0, 0.0],         # one positive mean in the last four
    [5.2e-68, 1.3e-120, 1.4e-213, 0.0, 0.0],     # steep fit, then zeros
    [1e-40, 1e-100, 1e-160, 1e-220, 1e-280],     # steep decay, all positive
])
def test_power_tail_finite_when_shell_means_underflow(means):
    tail = power_tail(TAIL_RHO, np.array(means), TAIL_EDGE, 4, 1.0)
    assert math.isfinite(tail) and tail >= 0.0


def test_power_tail_dead_and_unsummable_cases():
    assert power_tail(TAIL_RHO, np.zeros(5), TAIL_EDGE, 4, 1.0) == 0.0
    assert power_tail(TAIL_RHO, np.array([1.0, 0.5, 0.2, 0.1, 0.0]),
                       TAIL_EDGE, 4, 1.0) == 0.0
    # flat means: decay cannot beat the volume growth
    assert power_tail(TAIL_RHO, np.ones(5), TAIL_EDGE, 4, 1.0) == math.inf
    # a single positive mean leaves no decay rate to continue with
    assert power_tail(TAIL_RHO, np.array([0.0, 0.0, 0.0, 0.0, 1e-5]),
                       TAIL_EDGE, 4, 1.0) == math.inf
    # an exact power law rho^-6 integrates in closed form
    means = TAIL_RHO**-6.0
    want = 4.0 * TAIL_EDGE ** (4 - 6) / (6 - 4)
    assert power_tail(TAIL_RHO, means, TAIL_EDGE, 4, 1.0) == pytest.approx(want)


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
