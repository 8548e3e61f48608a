"""Inequality harness: ratio reports for the Dorronsoro-type and vertical
Poincare inequalities, scaling-identity checks, and lemma-level sweeps.

Every check is packaged as a RatioReport (lhs, rhs, ratio, truncation
accounting, parameter echo).  Identity checks reuse one quadrature template
on both sides (common random numbers), so their ratios sit at 1 up to scale
window effects at any budget; a budget certificate records whether the
sample count could have exposed a genuine discrepancy at the suite
tolerance.  Inequality checks report measured ratios that are fixture
material, not asserted constants.  L^p norms over the truncated domain
use the gauge-polar quadrature of heisbeta.quad.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .affine import fit_from_values
from .beta import _sweep_with_grid_error, check_monotonicity, scale_sweep
from .fields import ScalarField, catalog, precompose_dilation
from .hgroup import dilate, gauge, group_mul, horizontal_derivative
from .quad import (
    PolarDomain,
    QuadSpec,
    ScaleGrid,
    ball_template,
    box_nodes,
    box_volume,
    domain_truncation,
    polar_domain,
    power_head,
    power_tail,
    shell_lp,
)
from .squarefn import _square_from_profile, g_alpha, g_window_values, gradient_comparison

Array = np.ndarray

_DEGENERATE_RHS = 1e-12
_IDENTITY_TOL = 1e-2
# An identity verified with shared noise says nothing about correctness
# unless the budget could have resolved a violation at the tolerance.
# Requiring samples >= 4 / tol^2 makes a starved run fail loudly.
_MIN_CERTIFIED_SAMPLES = 40_000

_ROLE_PAIRS = 11
_ROLE_POINTS = 12
_ROLE_COMPETITORS = 13
_ROLE_PLACEMENTS = 14
_ROLE_GRADPAIRS = 15
_ROLE_SUP = 16


@dataclass(frozen=True)
class ExponentGate:
    """Admissibility verdict for an exponent pair (p, q) at homogeneous
    dimension Q."""

    p: float
    q: float
    Q: int
    admissible: bool


@dataclass(frozen=True, eq=False)
class RatioReport:
    """One check outcome: measured lhs and rhs, their ratio, truncation
    accounting for both sides, and a parameter echo.

    params carries everything needed to reproduce the number (exponents,
    budgets, seed, grids, domain radius) plus a "pass" verdict for suite
    checks.  degenerate marks rhs at or below the vanishing threshold; the
    ratio is not formed in that case.
    """

    name: str
    lhs: float
    rhs: float
    ratio: float
    params: dict
    truncation: tuple[float, float]
    degenerate: bool


def _report(name, lhs, rhs, params, truncation, rhs_floor=_DEGENERATE_RHS):
    lhs = float(lhs)
    rhs = float(rhs)
    degenerate = not rhs > rhs_floor
    ratio = math.nan if degenerate else lhs / rhs
    return RatioReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        params=params,
        truncation=(float(truncation[0]), float(truncation[1])),
        degenerate=degenerate,
    )


def gate_exponents(p: float, q: float, n: int) -> ExponentGate:
    """Evaluate the exponent window for the generalised comparison: for
    1 < p <= 2 the pair is admissible when q < pQ/(Q-p); for p >= 2 when
    q < 2Q/(Q-2).  Both branches agree at p = 2; inequalities are strict.
    """
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if not q >= 1:
        raise ValueError(f"q must be at least 1, got {q}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    big_q = 2 * n + 2
    admissible = (1 < p <= 2 and q < p * big_q / (big_q - p)) or (
        p >= 2 and q < 2 * big_q / (big_q - 2)
    )
    return ExponentGate(p=float(p), q=float(q), Q=big_q, admissible=bool(admissible))


@dataclass(frozen=True)
class HarnessConfig:
    """Budgets and grids shared by the harness checks.

    spec is the full quadrature budget (single-ball checks, covariance
    pairs).  Sweeps that evaluate thousands of balls cap the ball budget at
    sweep_samples proposals; common random numbers keep identity ratios
    exact at any cap, and fixture values record the capped budget.  The
    truncated domain for norms is the gauge ball of radius 2 * box_radius,
    discretized by norm_per_decade log shells from rho_min outward and
    norm_dirs template directions per shell.  workers is the thread count
    of the norm sweeps and of the suites' task pools; it never changes a
    result bit and stays out of every report's params.
    """

    n: int = 1
    p: float = 2.0
    q: float = 1.0
    alpha: float = 1.0
    r_min: float = 1e-3
    r_max: float = 1e2
    per_decade: int = 16
    t_min: float = 1e-4
    t_max: float = 1e2
    t_per_decade: int = 16
    box_radius: float = 4.0
    spec: QuadSpec = field(default_factory=QuadSpec)
    sweep_samples: int = 8192
    norm_dirs: int = 32
    norm_per_decade: int = 8
    rho_min: float = 0.02
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"p must be finite and exceed 1, got {self.p}")
        if not 1.0 <= self.q < math.inf:
            raise ValueError(f"q must be finite and at least 1, got {self.q}")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not 0.0 < self.box_radius < math.inf:
            raise ValueError(
                f"box_radius must be finite and positive, got {self.box_radius}"
            )
        if not 0.0 < self.rho_min < 2.0 * self.box_radius:
            raise ValueError(
                f"rho_min must lie in (0, 2 * box_radius) = (0, {2.0 * self.box_radius}),"
                f" got {self.rho_min}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def scale_grid(self) -> ScaleGrid:
        return ScaleGrid(self.r_min, self.r_max, self.per_decade)

    @property
    def t_grid(self) -> ScaleGrid:
        return ScaleGrid(self.t_min, self.t_max, self.t_per_decade)

    @property
    def sweep_spec(self) -> QuadSpec:
        return replace(self.spec, samples=min(self.spec.samples, self.sweep_samples))

    def domain(self) -> PolarDomain:
        """Gauge-polar quadrature of the truncated domain, the gauge ball
        of radius 2 * box_radius, with directions from the sweep template."""
        return polar_domain(
            self.n, self.rho_min, 2.0 * self.box_radius, self.norm_per_decade,
            self.norm_dirs, self.sweep_spec,
        )

    def base_params(self) -> dict:
        return {
            "n": self.n,
            "mode": self.spec.mode,
            "samples": self.spec.samples,
            "sweep_samples": self.sweep_spec.samples,
            "grid_per_axis": self.spec.grid_per_axis,
            "seed": self.spec.seed,
            "r_min": self.r_min,
            "r_max": self.r_max,
            "per_decade": self.per_decade,
            "box_radius": self.box_radius,
        }


def _certified(spec: QuadSpec) -> bool:
    """Whether the budget can expose identity violations at the suite
    tolerance: grid templates are deterministic; Monte Carlo needs at
    least 4 / tol^2 proposals."""
    return spec.mode == "grid" or spec.samples >= _MIN_CERTIFIED_SAMPLES


def _grad_magnitude(f: ScalarField, pts: Array) -> Array:
    """|horizontal gradient| at pts, analytic when the field carries one."""
    if f.analytic_hgrad is not None:
        comp = np.asarray(f.analytic_hgrad(pts), dtype=float)
    else:
        comps = [
            horizontal_derivative(f, j, pts) for j in range(1, pts.shape[-1])
        ]
        comp = np.stack(comps, axis=-1)
    return np.sqrt(np.sum(comp**2, axis=-1))


# ---------------------------------------------------------------------------
# headline inequality ratios


def _norm_params(config: HarnessConfig) -> dict:
    return {
        "rho_max": 2.0 * config.box_radius,
        "rho_min": config.rho_min,
        "norm_dirs": config.norm_dirs,
        "norm_per_decade": config.norm_per_decade,
    }


def _window_truncation_factor(f, alpha, grid, spec, probe) -> float:
    """Relative scale-window truncation measured at a probe point: the
    pointwise square function's low/high truncation over its value."""
    res = g_alpha(f, probe, alpha, grid, spec)
    if not res.value > 0:
        return 0.0
    lo = res.truncation_low
    hi = res.truncation_high
    if math.isinf(lo) or math.isinf(hi):
        return math.inf
    return math.sqrt(lo**2 + hi**2) / res.value


def _dorronsoro_sides(f: ScalarField, p: float, q: float,
                      config: HarnessConfig, polar: PolarDomain, s: float):
    """(lhs, rhs, shell means of both sides) of the Dorronsoro ratio of
    f_s = f o delta_s on the domain points.

    beta_{f_s,1,q}(B(x, r)) = beta_{f,1,q}(B(delta_s x, s r)) and
    grad_H f_s(x) = s grad_H f(delta_s x), so every s runs on the same
    domain points, scale weights and ball template, and the Monte Carlo
    noise of runs at different s cancels.  At s = 1 both maps are exact.
    """
    grid = config.scale_grid
    rs = grid.nodes()
    pts = dilate(s, polar.pts)
    gvals = g_window_values(
        f, pts, s * rs, rs**-1.0, grid.log_step, 1, q,
        ball_template(config.n, config.sweep_spec), workers=config.workers,
    )
    lhs, lhs_means = shell_lp(gvals, polar.vols, p)
    rhs, rhs_means = shell_lp(_grad_magnitude(f, pts), polar.vols, p)
    return lhs, s * rhs, (lhs_means, rhs_means)


def _stability(name: str, s: float, base: RatioReport | None, base_run,
               sides) -> RatioReport:
    """ratio(f_s) reported against base.ratio (from base_run() when no
    base is given); sides() gives the (lhs, rhs, shells) of f_s."""
    if s <= 0:
        raise ValueError(f"dilation factor must be positive, got {s}")
    if base is None:
        base = base_run()
    if s == 1.0:
        # the sides at s = 1 are the base sides bit for bit
        lhs, rhs = base.lhs, base.rhs
    else:
        lhs, rhs, _ = sides()
    params = dict(base.params) | {"s": s, "base_ratio": base.ratio}
    if not rhs > _DEGENERATE_RHS * (1.0 + lhs):
        return _report(name, lhs, rhs, params, (0.0, 0.0))
    return _report(name, lhs / rhs, base.ratio, params, base.truncation)


def dorronsoro_ratio(f: ScalarField, p: float, q: float,
                     config: HarnessConfig) -> RatioReport:
    """Ratio of the scale-integrated flatness norm to the horizontal
    Sobolev seminorm, both over the truncated domain.

    lhs = || x -> (int [r^-1 beta_{f,1,q}(B(x,r))]^2 dr/r)^(1/2) ||_p,
    rhs = || |grad_H f| ||_p on the same gauge-polar quadrature.  The
    truncation pair combines the measured domain tail, the omitted core
    ball, and a probe-point estimate of the scale-window loss, in norm
    units for each side.
    """
    gate = gate_exponents(p, q, config.n)
    if not gate.admissible:
        raise ValueError(
            f"exponents p={p}, q={q} are outside the admissible window at "
            f"Q={gate.Q}"
        )
    big_q = 2 * config.n + 2
    polar = config.domain()
    lhs, rhs, (lhs_means, rhs_means) = _dorronsoro_sides(f, p, q, config, polar, 1.0)
    window = _window_truncation_factor(
        f, 1.0, config.scale_grid, config.sweep_spec, polar.pts[0, 0]
    )
    lhs_trunc = domain_truncation(polar, lhs_means, p, big_q) + lhs * window
    rhs_trunc = domain_truncation(polar, rhs_means, p, big_q)
    params = config.base_params() | _norm_params(config) | {
        "field": f.label,
        "p": p,
        "q": q,
        "alpha": 1.0,
    }
    return _report(
        "dorronsoro", lhs, rhs, params, (lhs_trunc, rhs_trunc),
        rhs_floor=_DEGENERATE_RHS * (1.0 + lhs),
    )


def dorronsoro_stability(f: ScalarField, p: float, q: float,
                         config: HarnessConfig, s: float,
                         base: RatioReport | None = None) -> RatioReport:
    """Dilation stability of the Dorronsoro ratio: ratio(f_s) against the
    base ratio(f).

    ratio(f_s) is computed on the same domain points through the beta
    covariance (balls around dilated centers at dilated radii), so the
    Monte Carlo noise of the two runs cancels and the reported deviation
    isolates the genuine truncation drift of the dilation law.
    """
    return _stability(
        "dorronsoro-stability", s, base,
        lambda: dorronsoro_ratio(f, p, q, config),
        lambda: _dorronsoro_sides(f, p, q, config, config.domain(), s),
    )


def _poincare_sides(f: ScalarField, p: float, config: HarnessConfig,
                    polar: PolarDomain, s: float):
    """(lhs, rhs, shells) of the Poincare ratio of f_s = f o delta_s on the
    domain points.

    Linked nodes realize I(t; f_s) = s^-Q I(s^2 t; f): dilated points,
    squared-dilated vertical shifts and undilated volumes; at s = 1 every
    map is exact.  shells holds what the truncation of the base run reads:
    the per-t shell means of |f(x) - f(x * (0,t))|^p, I(t), J(t), and the
    shell means of |f|^p and of |grad_H f|^p.
    """
    tgrid = config.t_grid
    ts = tgrid.nodes()
    pts = dilate(s, polar.pts)
    vals = np.asarray(f.eval(pts), dtype=float)
    shift = np.zeros((len(ts), pts.shape[-1]))
    shift[:, -1] = s**2 * ts
    # central shifts: x * (0, t) adds t to the vertical coordinate
    moved = group_mul(pts[None, ...], shift[:, None, None, :])
    diff = np.abs(np.asarray(f.eval(moved), dtype=float) - vals[None, ...])
    means = np.mean(diff**p, axis=-1)            # (t, n_rho)
    ivals = np.sum(polar.vols[None, :] * means, axis=1)
    jvals = ivals ** (2.0 / p) / ts
    lhs = float(np.sqrt(np.sum(jvals) * tgrid.log_step))
    rhs, rhs_means = shell_lp(_grad_magnitude(f, pts), polar.vols, p)
    fmeans = np.mean(np.abs(vals) ** p, axis=-1)
    return lhs, s * rhs, (means, ivals, jvals, fmeans, rhs_means)


def poincare_ratio(f: ScalarField, p: float, config: HarnessConfig) -> RatioReport:
    """Vertical-versus-horizontal Poincare ratio over the truncated domain.

    lhs^2 = sum over the log t-grid of h * I(t)^(2/p) / t with
    I(t) = int |f(x) - f(x * (0,t))|^p dx; central multiplication only
    shifts the vertical coordinate, so a z-only field gives lhs = 0
    exactly.  rhs = || |grad_H f| ||_p.  The lhs truncation combines the
    small-t extrapolation, the large-t tail from the measured field norm,
    and the domain loss continuation per t node.
    """
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must lie in (1, 2], got {p}")
    big_q = 2 * config.n + 2
    polar = config.domain()
    tgrid = config.t_grid
    ts = tgrid.nodes()
    h = tgrid.log_step
    lhs, rhs, (means, ivals, jvals, fmeans, rhs_means) = _poincare_sides(
        f, p, config, polar, 1.0
    )
    rhs_trunc = domain_truncation(polar, rhs_means, p, big_q)

    if not ivals.any():
        lhs_trunc = 0.0
    else:
        # small-t continuation from the measured slope of J(t)
        head = power_head(ts, jvals, tgrid.r_min)
        # large-t tail: |f(x) - f(x * (0,t))| <= 2 max|f|, via the measured
        # field norm on the domain plus its own continuation
        fnorm_p = np.sum(polar.vols * fmeans)
        ftail = power_tail(polar.rho, fmeans, polar.rho_max, big_q, polar.c_n)
        tail_sq = 4.0 * (fnorm_p + ftail) ** (2.0 / p) / tgrid.r_max
        # domain loss per t: continuation of the difference-mean shells
        loss = 0.0
        for k in range(len(ts)):
            extra = power_tail(polar.rho, means[k], polar.rho_max, big_q, polar.c_n)
            if math.isinf(extra):
                loss = math.inf
                break
            loss += h * ((ivals[k] + extra) ** (2.0 / p) - ivals[k] ** (2.0 / p)) / ts[k]
        lhs_trunc = math.sqrt(head + tail_sq) + (
            math.inf if math.isinf(loss) else math.sqrt(loss)
        )
    params = config.base_params() | _norm_params(config) | {
        "field": f.label,
        "p": p,
        "t_min": config.t_min,
        "t_max": config.t_max,
        "t_per_decade": config.t_per_decade,
    }
    return _report(
        "poincare", lhs, rhs, params, (lhs_trunc, rhs_trunc),
        rhs_floor=_DEGENERATE_RHS * (1.0 + lhs),
    )


def poincare_stability(f: ScalarField, p: float, config: HarnessConfig,
                       s: float, base: RatioReport | None = None) -> RatioReport:
    """Dilation stability of the Poincare ratio: ratio(f_s) against the
    base ratio(f), computed with linked nodes (see _poincare_sides)."""
    return _stability(
        "poincare-stability", s, base,
        lambda: poincare_ratio(f, p, config),
        lambda: _poincare_sides(f, p, config, config.domain(), s),
    )


# ---------------------------------------------------------------------------
# identity suite


def _rng(spec: QuadSpec, role: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([spec.seed, role]))


def _random_centers(rng, n: int, count: int, z_extent: float, t_extent: float):
    dim = 2 * n + 1
    pts = np.empty((count, dim))
    pts[:, :-1] = rng.uniform(-z_extent, z_extent, size=(count, dim - 1))
    pts[:, -1] = rng.uniform(-t_extent, t_extent, size=count)
    return pts


def _identity_params(config, extra):
    out = config.base_params() | {
        "certified": _certified(config.spec),
        "tolerance": _IDENTITY_TOL,
    }
    out.update(extra)
    return out


def _finish_identity(name, lhs, rhs, params, truncation=(0.0, 0.0)):
    rep = _report(name, lhs, rhs, params, truncation)
    ok = (
        not rep.degenerate
        and params["certified"]
        and abs(rep.ratio - 1.0) <= _IDENTITY_TOL
    )
    rep.params["pass"] = bool(ok)
    return rep


def _lp_scaling_report(config: HarnessConfig, name: str, s: float) -> RatioReport:
    """||f_s||_p over the domain against s^(-Q/p) ||f|| over the dilated
    domain, on linked box nodes."""
    f = catalog(name, n=config.n)
    fs = precompose_dilation(f, s)
    n, p = config.n, config.p
    big_q = 2 * n + 2
    xs = box_nodes(n, config.box_radius, config.spec)
    vol = box_volume(n, config.box_radius)
    lhs = (vol * np.mean(np.abs(fs.eval(xs)) ** p)) ** (1.0 / p)
    rhs_int = s**big_q * vol * np.mean(np.abs(f.eval(dilate(s, xs))) ** p)
    rhs = s ** (-big_q / p) * rhs_int ** (1.0 / p)
    params = _identity_params(config, {"check": "lp-scaling", "field": f.label,
                                       "s": s, "p": p})
    return _finish_identity(f"lp-scaling:{name}:s={s:g}", lhs, rhs, params)


def _covariance_report(config: HarnessConfig, name: str, s: float,
                       z_extent: float, t_extent: float,
                       r_lo: float, r_hi: float) -> RatioReport:
    """Worst-case ratio of beta(f_s, B(x,r)) to beta(f, B(delta_s x, s r))
    over random placements, with a shared ball template."""
    f = catalog(name, n=config.n)
    fs = precompose_dilation(f, s)
    spec = config.spec
    tpl = ball_template(config.n, spec)
    rng = _rng(spec, _ROLE_PAIRS)
    xs = _random_centers(rng, config.n, 10, z_extent, t_extent)
    rads = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=10))
    worst = 1.0
    pair = (1.0, 1.0)
    valid = 0
    for x, r in zip(xs, rads):
        left = scale_sweep(fs, x[None], [r], 1, config.q, tpl, want_se=False)
        right = scale_sweep(
            f, dilate(s, x)[None], [s * r], 1, config.q, tpl, want_se=False
        )
        b1 = float(left["beta"][0, 0])
        b2 = float(right["beta"][0, 0])
        if b2 <= 1e-14 * (1.0 + abs(float(right["mean"][0, 0]))):
            continue
        valid += 1
        ratio = b1 / b2
        if abs(ratio - 1.0) > abs(worst - 1.0):
            worst = ratio
            pair = (b1, b2)
    params = _identity_params(config, {
        "check": "beta-covariance", "field": f.label, "s": s, "q": config.q,
        "placements": 10, "valid": valid,
    })
    if valid == 0:
        rep = _report(f"beta-covariance:{name}:s={s:g}", 0.0, 0.0, params, (0.0, 0.0))
        rep.params["pass"] = False
        return rep
    return _finish_identity(f"beta-covariance:{name}:s={s:g}", pair[0], pair[1], params)


def _g_pointwise_report(config: HarnessConfig, name: str, s: float) -> RatioReport:
    """Worst-case pointwise ratio of g_alpha(f_s)(x) to
    s^alpha g_alpha(f)(delta_s x) with the dilated scale window."""
    f = catalog(name, n=config.n)
    fs = precompose_dilation(f, s)
    spec = config.spec
    alpha = config.alpha
    d = int(alpha >= 1.0)
    grid = config.scale_grid
    rs = grid.nodes()
    tpl = ball_template(config.n, spec)
    rng = _rng(spec, _ROLE_POINTS)
    xs = _random_centers(rng, config.n, 5, 1.5, 2.0)
    lhs_vals = g_window_values(fs, xs, rs, rs**-alpha, grid.log_step, d, 1.0, tpl)
    rhs_vals = s**alpha * g_window_values(
        f, dilate(s, xs), s * rs, (s * rs) ** -alpha, grid.log_step, d, 1.0, tpl
    )
    ok = rhs_vals > 1e-14
    params = _identity_params(config, {
        "check": "g-pointwise", "field": f.label, "s": s, "alpha": alpha,
        "points": len(xs), "valid": int(ok.sum()),
    })
    if not ok.any():
        rep = _report(f"g-pointwise:{name}:s={s:g}", 0.0, 0.0, params, (0.0, 0.0))
        rep.params["pass"] = False
        return rep
    ratios = lhs_vals[ok] / rhs_vals[ok]
    k = int(np.argmax(np.abs(ratios - 1.0)))
    return _finish_identity(
        f"g-pointwise:{name}:s={s:g}", lhs_vals[ok][k], rhs_vals[ok][k], params
    )


def _g_lp_report(config: HarnessConfig, name: str, s: float) -> RatioReport:
    """||g_alpha f_s||_p against s^(alpha - Q/p) ||g_alpha f||_p on linked
    gauge-polar domains."""
    f = catalog(name, n=config.n)
    fs = precompose_dilation(f, s)
    n, p, alpha = config.n, config.p, config.alpha
    big_q = 2 * n + 2
    d = int(alpha >= 1.0)
    spec = config.sweep_spec
    grid = config.scale_grid
    rs = grid.nodes()
    polar = config.domain()
    tpl = ball_template(n, spec)
    lhs_vals = g_window_values(
        fs, polar.pts, rs, rs**-alpha, grid.log_step, d, 1.0, tpl,
        workers=config.workers,
    )
    lhs = shell_lp(lhs_vals, polar.vols, p)[0]
    rhs_vals = g_window_values(
        f, dilate(s, polar.pts), s * rs, (s * rs) ** -alpha, grid.log_step,
        d, 1.0, tpl, workers=config.workers,
    )
    rhs_int = float(np.sum(s**big_q * polar.vols * np.mean(rhs_vals**p, axis=-1)))
    rhs = s ** (alpha - big_q / p) * rhs_int ** (1.0 / p)
    params = _identity_params(config, _norm_params(config) | {
        "check": "g-lp", "field": f.label, "s": s, "alpha": alpha, "p": p,
    })
    return _finish_identity(f"g-lp:{name}:s={s:g}", lhs, rhs, params)


def _run_tasks(config: HarnessConfig,
               tasks: list[Callable[[HarnessConfig], RatioReport]]):
    """The reports of tasks, in order, on a pool of config.workers threads.
    Every task gets the config with workers = 1, so the sweeps inside the
    tasks start no threads of their own: at most config.workers threads
    are ever busy."""
    serial = replace(config, workers=1)
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            return list(pool.map(lambda task: task(serial), tasks))
    return [task(serial) for task in tasks]


def run_identity_suite(config: HarnessConfig) -> list[RatioReport]:
    """All scaling-identity checks under common random numbers: L^p norm
    scaling of dilated fields, beta covariance at random placements,
    square-function equivariance pointwise and in L^p.

    Each report's params carry a "certified" budget verdict and a "pass"
    verdict (certified and ratio within 1e-2 of 1).  Reports are
    deterministic for a given config, independent of config.workers.
    """
    tasks: list[Callable[[HarnessConfig], RatioReport]] = [
        lambda c: _lp_scaling_report(c, "gaussian", 2.0),
        lambda c: _lp_scaling_report(c, "vertical-wave", 2.0),
        lambda c: _covariance_report(c, "gaussian", 0.5, 2.0, 4.0, 0.25, 4.0),
        lambda c: _covariance_report(c, "gaussian", 2.0, 2.0, 4.0, 0.25, 4.0),
        lambda c: _covariance_report(c, "bump", 0.5, 0.8, 0.8, 0.25, 2.0),
        lambda c: _g_pointwise_report(c, "gaussian", 0.5),
        lambda c: _g_pointwise_report(c, "gaussian", 2.0),
    ]
    # the g L^p norm is most of the suite's work: it runs after the task
    # pool, with its sweeps split over all the workers
    return _run_tasks(config, tasks) + [_g_lp_report(config, "gaussian", 2.0)]


# ---------------------------------------------------------------------------
# lemma suite


def _near_optimal_report(config: HarnessConfig) -> RatioReport:
    """Near-optimality of the moment fit: its residual against the best of
    random affine competitors, worst case over placements.

    Competitors perturb the fitted coefficients in random directions at
    three magnitudes scaled by the residual size; the reported lhs/rhs pair
    is the fit residual and the best competitor residual at the worst
    placement, so the ratio is >= 1 by construction and near 1 when the
    fit is close to optimal."""
    f = catalog("gaussian", n=config.n)
    spec = config.sweep_spec
    tpl = ball_template(config.n, spec)
    rng = _rng(spec, _ROLE_COMPETITORS)
    n = config.n
    xs = _random_centers(rng, n, 20, 2.0, 4.0)
    rads = np.exp(rng.uniform(math.log(0.25), math.log(2.0), size=20))
    u = tpl.nodes[:, :-1]
    scale_a = 1.0 / np.sqrt(tpl.m2)
    worst = (1.0, 1.0, 1.0)
    for x, r in zip(xs, rads):
        nodes = group_mul(x[None], dilate(r, tpl.nodes))
        vals = np.asarray(f.eval(nodes), dtype=float)
        # fit with r = 1: the slopes absorb the radius, so the model at the
        # template nodes is b + u . a
        b, a = fit_from_values(vals, tpl, 1.0, 1)
        resid = vals - b - u @ a
        base = float(np.mean(np.abs(resid) ** config.q) ** (1.0 / config.q))
        if base <= 1e-14:
            continue
        dirs = rng.standard_normal(size=(100, 1 + u.shape[-1]))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        # competitor offsets at unit magnitude, shape (100, m), formed in
        # place; each magnitude rescales them into one reused buffer
        step = (dirs[:, 1:] * scale_a) @ u.T
        step += dirs[:, :1]
        cand = np.empty_like(step)
        best = base
        for lam in (0.25, 0.5, 1.0):
            np.multiply(step, lam * base, out=cand)
            np.subtract(resid, cand, out=cand)
            np.abs(cand, out=cand)
            if config.q != 1.0:
                np.power(cand, config.q, out=cand)
            cand_beta = cand.mean(axis=1) ** (1.0 / config.q)
            best = min(best, float(cand_beta.min()))
        ratio = base / best if best > 0 else math.inf
        if ratio > worst[0]:
            worst = (ratio, base, best)
    params = config.base_params() | {
        "check": "near-optimal-fit", "field": f.label, "q": config.q,
        "placements": 20, "competitors": 300,
    }
    rep = _report("lemma:near-optimal-fit", worst[1], worst[2], params, (0.0, 0.0))
    rep.params["pass"] = bool(math.isfinite(rep.ratio))
    return rep


def _monotonicity_report(config: HarnessConfig) -> RatioReport:
    """Contained-ball comparison at enlargement C = 2: worst volume-
    normalized ratio (beta_inner / beta_outer) * (r1/r2)^(Q/q) over random
    placements with guaranteed containment."""
    f = catalog("gaussian", n=config.n)
    spec = config.sweep_spec
    n = config.n
    big_q = 2 * n + 2
    rng = _rng(spec, _ROLE_PLACEMENTS)
    big_c = 2.0
    xs = _random_centers(rng, n, 100, 2.0, 4.0)
    rads = np.exp(rng.uniform(math.log(0.25), math.log(2.0), size=100))
    shifts = rng.standard_normal(size=(100, 2 * n + 1))
    shifts = dilate(1.0 / gauge(shifts), shifts)
    worst = 0.0
    for x, r, v in zip(xs, rads, shifts):
        x2 = group_mul(x, dilate(0.5 * r, v))
        raw = check_monotonicity(f, (x, r), (x2, big_c * r), config.q, spec)
        worst = max(worst, raw * (1.0 / big_c) ** (big_q / config.q))
    params = config.base_params() | {
        "check": "beta-monotonicity", "field": f.label, "q": config.q,
        "enlargement": big_c, "placements": 100,
    }
    rep = _report("lemma:beta-monotonicity", worst, 1.0, params, (0.0, 0.0))
    rep.params["pass"] = bool(math.isfinite(rep.ratio))
    return rep


def _g_vs_s_report(config: HarnessConfig) -> RatioReport:
    """Pointwise domination of the projection square function by the
    centered-difference one: worst ratio g / (2 s + 3 stderr) at random
    points, alpha = 0.5.

    At alpha = 0.5 both square functions integrate degree-0, q = 1 ball
    statistics, so one sweep over every point yields both profiles (beta
    for g, cdiff for s).  Only values and stderrs enter the comparison, so
    the truncation accounting of g_alpha and s_alpha is not computed."""
    f = catalog("gaussian", n=config.n)
    spec = config.sweep_spec
    grid = config.scale_grid
    alpha = 0.5
    rng = _rng(spec, _ROLE_POINTS)
    xs = _random_centers(rng, config.n, 20, 1.5, 2.0)
    rs = grid.nodes()
    sweep = _sweep_with_grid_error(
        f, xs, rs, 0, 1.0, spec, config.n, center_vals=f.eval(xs)
    )
    cases = []
    for i in range(len(xs)):
        g, g_se = _square_from_profile(
            rs, grid.log_step, sweep["beta"][i], sweep["beta_se"][i], alpha
        )
        s, s_se = _square_from_profile(
            rs, grid.log_step, sweep["cdiff"][i], sweep["cdiff_se"][i], alpha
        )
        bound = 2.0 * s + 3.0 * (g_se + s_se)
        if bound > 0:
            cases.append((g, bound))
    params = config.base_params() | {
        "check": "g-vs-s", "field": f.label, "alpha": alpha, "points": 20,
        "valid": len(cases),
    }
    if not cases:
        rep = _report("lemma:g-vs-s", 0.0, 0.0, params, (0.0, 0.0))
        rep.params["pass"] = False
        return rep
    k = int(np.argmax([lhs / rhs for lhs, rhs in cases]))
    rep = _report("lemma:g-vs-s", cases[k][0], cases[k][1], params, (0.0, 0.0))
    rep.params["pass"] = bool(math.isfinite(rep.ratio) and rep.ratio <= 1.0)
    return rep


def _projection_sup_report(config: HarnessConfig) -> RatioReport:
    """Sup over the ball of the fitted affine model against the ball
    average of |f|: the anchor case is an affine field of unit sup on the
    unit ball; random gaussian placements extend the sweep."""
    spec = config.sweep_spec
    n = config.n
    tpl = ball_template(n, spec)
    u = tpl.nodes[:, :-1]
    a = np.zeros(2 * n)
    a[0] = 1.0
    anchor = catalog("affine", n=n, a=a, b=0.0)
    cases = []
    vals = np.asarray(anchor.eval(tpl.nodes), dtype=float)
    b0, a0 = fit_from_values(vals, tpl, 1.0, 1)
    model = b0 + u @ a0
    denom = float(np.mean(np.abs(vals)))
    anchor_ratio = float(np.max(np.abs(model))) / denom
    cases.append((float(np.max(np.abs(model))), denom))
    f = catalog("gaussian", n=n)
    rng = _rng(spec, _ROLE_SUP)
    xs = _random_centers(rng, n, 10, 1.5, 2.0)
    rads = np.exp(rng.uniform(math.log(0.25), math.log(2.0), size=10))
    for x, r in zip(xs, rads):
        nodes = group_mul(x[None], dilate(r, tpl.nodes))
        fv = np.asarray(f.eval(nodes), dtype=float)
        b1, a1 = fit_from_values(fv, tpl, 1.0, 1)
        m1 = b1 + u @ a1
        d1 = float(np.mean(np.abs(fv)))
        if d1 <= 1e-14:
            continue
        cases.append((float(np.max(np.abs(m1))), d1))
    sups = np.array([c[0] for c in cases])
    dens = np.array([c[1] for c in cases])
    k = int(np.argmax(sups / dens))
    params = config.base_params() | {
        "check": "projection-sup", "anchor_ratio": anchor_ratio,
        "placements": len(cases),
    }
    rep = _report("lemma:projection-sup", sups[k], dens[k], params, (0.0, 0.0))
    rep.params["pass"] = bool(math.isfinite(rep.ratio))
    return rep


def _gradient_pair_report(config: HarnessConfig) -> RatioReport:
    """Worst ratio of the degree-1 flatness of f on B(x, r) to r times the
    summed degree-0 flatness of the gradient components on B(x, C r), at
    C = 4 over random pairs."""
    f = catalog("gaussian", n=config.n)
    spec = config.sweep_spec
    rng = _rng(spec, _ROLE_GRADPAIRS)
    xs = _random_centers(rng, config.n, 50, 2.0, 4.0)
    rads = np.exp(rng.uniform(math.log(0.125), math.log(2.0), size=50))
    worst = (0.0, 1.0, 0.0)
    for x, r in zip(xs, rads):
        lhs, rhs = gradient_comparison(f, x, float(r), C=4.0, spec=spec)
        if rhs <= 1e-14:
            continue
        if lhs / rhs > worst[2]:
            worst = (lhs, rhs, lhs / rhs)
    params = config.base_params() | {
        "check": "gradient-pair", "field": f.label, "enlargement": 4.0,
        "pairs": 50,
    }
    rep = _report("lemma:gradient-pair", worst[0], worst[1], params, (0.0, 0.0))
    rep.params["pass"] = bool(math.isfinite(rep.ratio))
    return rep


def run_lemma_suite(config: HarnessConfig) -> list[RatioReport]:
    """Lemma-level comparisons swept over random placements: projection
    near-optimality, contained-ball monotonicity, pointwise domination of
    the projection square function, the sup bound for fitted models, and
    the gradient flatness pairing.

    Reported ratios are measured worst cases (fixture material); only the
    pointwise domination carries a hard bound, and its "pass" verdict
    enforces ratio <= 1.
    """
    return _run_tasks(config, [
        _near_optimal_report,
        _monotonicity_report,
        _g_vs_s_report,
        _projection_sup_report,
        _gradient_pair_report,
    ])
