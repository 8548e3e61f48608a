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
from dataclasses import dataclass, field, replace

import numpy as np

from .affine import fit_from_values
from .beta import _NODE_BUDGET, _blocks, check_monotonicity, scale_sweep
from .fields import ScalarField, catalog, precompose_dilation
from .hgroup import _check_dilation, dilate, gauge, group_mul, horizontal_gradient
from .quad import (
    PolarDomain,
    QuadSpec,
    ScaleGrid,
    _RHO_MIN,
    _check_finite,
    _log_ball_constant,
    ball_template,
    ball_values,
    domain_truncation,
    polar_domain,
    power_head,
    power_tail,
    shell_lp,
)
from .squarefn import _square_from_profile, g_alpha, g_window_values, gradient_comparison

_DEGENERATE_RHS = 1e-12
_VANISHING = 1e-14  # a placement statistic at or below it has vanished
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


def _report(name, lhs, rhs, params, truncation=(0.0, 0.0),
            rhs_floor=_DEGENERATE_RHS, rule=None):
    """The report of one check.  A suite check passes its rule(ratio); its
    params get the "pass" verdict, which a degenerate report never earns."""
    lhs = float(lhs)
    rhs = float(rhs)
    degenerate = not rhs > rhs_floor
    ratio = math.nan if degenerate else lhs / rhs
    if rule is not None:
        params["pass"] = bool(not degenerate and rule(ratio))
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
    discretized by norm_per_decade log shells from _RHO_MIN outward and
    norm_dirs template directions per shell.  workers is the thread count
    of the sweeps that span many tiles; it never changes a result bit and
    stays out of every report's params.  Construction checks every value and
    then builds the three grids, the scale window, the t window and the norm
    shells, so a bad grid fails here and not halfway through a suite.
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
        if not _RHO_MIN / 2.0 < self.box_radius < math.inf:
            raise ValueError(
                f"box_radius must be finite and exceed {_RHO_MIN / 2.0}, half "
                f"the innermost norm shell, got {self.box_radius}"
            )
        # the norm domain's volume c_n (2R)^Q must be a float: c_n from its
        # closed form, with a tenth to spare for the recorded estimate the
        # shells use at n <= 4 (at most 0.4 % above it), in logs because
        # float ** overflows
        big_q = 2 * self.n + 2
        log_volume = _log_ball_constant(self.n) + big_q * math.log(2.0 * self.box_radius)
        if log_volume + math.log(1.1) >= math.log(np.finfo(float).max):
            raise ValueError(
                f"box_radius {self.box_radius} overflows the domain volume "
                f"c_n (2 box_radius)^{big_q}"
            )
        for key in ("sweep_samples", "norm_dirs", "norm_per_decade", "workers"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        for label, key, bounds in (
            ("", "points_per_decade", (self.r_min, self.r_max, self.per_decade)),
            ("t grid: ", "t_per_decade", (self.t_min, self.t_max, self.t_per_decade)),
            ("norm shells: ", "norm_per_decade",
             (_RHO_MIN, 2.0 * self.box_radius, self.norm_per_decade)),
        ):
            try:
                ScaleGrid(*bounds)
            except ValueError as exc:
                raise ValueError(label + str(exc).replace("points_per_decade", key)) from None

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
            self.n, 2.0 * self.box_radius, self.norm_per_decade, self.norm_dirs,
            self.sweep_spec,
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


# ---------------------------------------------------------------------------
# headline inequality ratios


def _norm_params(config: HarnessConfig) -> dict:
    return {
        "rho_max": 2.0 * config.box_radius,
        "rho_min": _RHO_MIN,
        "norm_dirs": config.norm_dirs,
        "norm_per_decade": config.norm_per_decade,
    }


def _gradient_side(f: ScalarField, pts, polar: PolarDomain, p: float, s: float):
    """(s ||grad_H f||_p on the dilated domain points pts, its shell means):
    the right side of both inequalities for f_s = f o delta_s, since
    grad_H f_s(x) = s grad_H f(delta_s x)."""
    rhs, means = shell_lp(np.linalg.norm(horizontal_gradient(f, pts), axis=-1),
                          polar.vols, p)
    return s * rhs, means


def _ratio_report(name: str, f: ScalarField, p: float, config: HarnessConfig,
                  polar: PolarDomain, lhs, rhs, rhs_means, lhs_trunc,
                  extra: dict) -> RatioReport:
    """The report of an inequality against rhs = ||grad_H f||_p: the rhs
    truncation from its shell means, the norm domain in params, and a
    degeneracy floor relative to lhs."""
    rhs_trunc = domain_truncation(polar, rhs_means, p)
    params = config.base_params() | _norm_params(config) | {
        "field": f.label, "p": p,
    } | extra
    return _report(
        name, lhs, rhs, params, (lhs_trunc, rhs_trunc),
        rhs_floor=_DEGENERATE_RHS * (1.0 + lhs),
    )


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
    rhs, rhs_means = _gradient_side(f, pts, polar, p, s)
    return lhs, rhs, (lhs_means, rhs_means)


def _stability(name: str, s: float, base: RatioReport, sides) -> RatioReport:
    """ratio(f_s) against base.ratio; sides() gives the (lhs, rhs, shells) of f_s."""
    _check_dilation(s)
    if s == 1.0:
        # the sides at s = 1 are the base sides bit for bit
        lhs, rhs = base.lhs, base.rhs
    else:
        lhs, rhs, _ = sides()
    params = dict(base.params) | {"s": s, "base_ratio": base.ratio}
    if not rhs > _DEGENERATE_RHS * (1.0 + lhs):
        return _report(name, lhs, rhs, params)
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
    polar = config.domain()
    lhs, rhs, (lhs_means, rhs_means) = _dorronsoro_sides(f, p, q, config, polar, 1.0)
    # relative scale-window truncation at a probe point: the pointwise
    # square function's low/high truncation over its value
    res = g_alpha(f, polar.pts[0, 0], 1.0, config.scale_grid, config.sweep_spec)
    window = 0.0
    if res.value > 0:
        window = math.sqrt(res.truncation_low**2 + res.truncation_high**2) / res.value
    lhs_trunc = domain_truncation(polar, lhs_means, p) + lhs * window
    return _ratio_report("dorronsoro", f, p, config, polar, lhs, rhs, rhs_means,
                         lhs_trunc, {"q": q, "alpha": 1.0})


def dorronsoro_stability(f: ScalarField, p: float, q: float,
                         config: HarnessConfig, s: float,
                         base: RatioReport) -> RatioReport:
    """Dilation stability of the Dorronsoro ratio: ratio(f_s) against the
    base report, dorronsoro_ratio(f, p, q, config).

    ratio(f_s) is computed on the same domain points through the beta
    covariance (balls around dilated centers at dilated radii), so the
    Monte Carlo noise of the two runs cancels and the reported deviation
    isolates the genuine truncation drift of the dilation law.
    """
    return _stability(
        "dorronsoro-stability", s, base,
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
    _check_finite(vals, pts, "domain integrand")
    # central shifts: x * (0, t) adds t to the vertical coordinate.  They
    # go a block of t nodes at a time, at most _NODE_BUDGET shifted points
    # (one block at the default grids); the means run along the direction
    # axis, so the blocks keep their bits
    def shift_means(shifts):
        moved = np.repeat(pts[None], len(shifts), axis=0)
        moved[..., -1] += shifts[:, None, None]
        diff = np.abs(np.asarray(f.eval(moved), dtype=float) - vals[None, ...])
        # vals are finite, so this checks the shifted values too
        _check_finite(diff, moved, "domain integrand")
        return np.mean(diff**p, axis=-1)

    step = max(1, _NODE_BUDGET // vals.size)
    means = np.concatenate([shift_means(s**2 * ts[block])
                            for block in _blocks(len(ts), step)])  # (t, n_rho)
    ivals = np.sum(polar.vols[None, :] * means, axis=1)
    jvals = ivals ** (2.0 / p) / ts
    lhs = float(np.sqrt(np.sum(jvals) * tgrid.log_step))
    rhs, rhs_means = _gradient_side(f, pts, polar, p, s)
    fmeans = np.mean(np.abs(vals) ** p, axis=-1)
    return lhs, rhs, (means, ivals, jvals, fmeans, rhs_means)


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
    polar = config.domain()
    tgrid = config.t_grid
    ts = tgrid.nodes()
    h = tgrid.log_step
    lhs, rhs, (means, ivals, jvals, fmeans, rhs_means) = _poincare_sides(
        f, p, config, polar, 1.0
    )
    if not ivals.any():
        lhs_trunc = 0.0
    else:
        # small-t continuation from the measured slope of J(t)
        head = power_head(ts, jvals, tgrid.r_min)
        # large-t tail: |f(x) - f(x * (0,t))| <= 2 max|f|, via the measured
        # field norm on the domain plus its own continuation
        fnorm_p = np.sum(polar.vols * fmeans)
        ftail = power_tail(polar, fmeans)
        tail_sq = 4.0 * (fnorm_p + ftail) ** (2.0 / p) / tgrid.r_max
        # domain loss per t: continuation of the difference-mean shells
        loss = 0.0
        for k in range(len(ts)):
            extra = power_tail(polar, means[k])
            loss += h * ((ivals[k] + extra) ** (2.0 / p) - ivals[k] ** (2.0 / p)) / ts[k]
        lhs_trunc = math.sqrt(head + tail_sq) + math.sqrt(loss)
    return _ratio_report("poincare", f, p, config, polar, lhs, rhs, rhs_means,
                         lhs_trunc, {"t_min": config.t_min, "t_max": config.t_max,
                                     "t_per_decade": config.t_per_decade})


def poincare_stability(f: ScalarField, p: float, config: HarnessConfig,
                       s: float, base: RatioReport) -> RatioReport:
    """Dilation stability of the Poincare ratio: ratio(f_s) against the
    base report, poincare_ratio(f, p, config), on linked nodes."""
    return _stability(
        "poincare-stability", s, base,
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


def _placements(rng, n: int, count: int, z_extent: float, t_extent: float,
                r_lo: float, r_hi: float):
    """count random centers, then their log-uniform radii in [r_lo, r_hi]."""
    xs = _random_centers(rng, n, count, z_extent, t_extent)
    return xs, np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=count))


# worst-case scores that differ by at most this are ties: the two sides of
# an identity placement sweep the same nodes and agree to a few ulps (up to
# 4e-15 at n = 2), so without it roundoff, and with it the tile layout,
# would pick the placement that is reported
_TIE = 1e-12


def _worst_case(cases, score=lambda ratio: ratio) -> tuple[float, float]:
    """(lhs, rhs) of the first valid case with the largest score(lhs / rhs)
    among (lhs, rhs, valid) cases, or (0, 0) when none is valid.  A later
    case displaces the pick only when its score is larger by more than
    _TIE, so scores within _TIE count as a tie, which the earlier case wins."""
    pick, top = (0.0, 0.0), -math.inf
    for lhs, rhs, valid in cases:
        key = score(lhs / rhs if rhs > 0 else math.inf) if valid else -math.inf
        if key > top + _TIE:
            pick, top = (lhs, rhs), key
    return pick


def _off_one(ratio):
    return abs(ratio - 1.0)


def _identity_report(config, name, lhs, rhs, extra, rhs_floor=_DEGENERATE_RHS):
    """An identity check passes on a certified budget with its ratio within
    the suite tolerance of 1."""
    certified = _certified(config.spec)
    params = config.base_params() | {
        "certified": certified, "tolerance": _IDENTITY_TOL,
    } | extra
    return _report(
        name, lhs, rhs, params, rhs_floor=rhs_floor,
        rule=lambda ratio: certified and _off_one(ratio) <= _IDENTITY_TOL,
    )


def _linked_lp_report(config: HarnessConfig, check: str, name: str, s: float,
                      gain: float, values, extra: dict) -> RatioReport:
    """||values(f_s, X, 1)||_p against s^(gain - Q/p) ||values(f, ., s)||_p
    on linked gauge-polar domains, the right side on the dilated points, for
    values with the law values(f_s, X, 1) = s^gain values(f, delta_s X, s)."""
    f = catalog(name, n=config.n)
    fs = precompose_dilation(f, s)
    p = config.p
    polar = config.domain()
    lhs = shell_lp(values(fs, polar.pts, 1.0), polar.vols, p)[0]
    rhs = s ** (gain - polar.big_q / p) * shell_lp(
        values(f, dilate(s, polar.pts), s), s**polar.big_q * polar.vols, p)[0]
    params = {"check": check, "field": f.label, "s": s} | extra | {"p": p}
    return _identity_report(config, f"{check}:{name}:s={s:g}", lhs, rhs,
                            _norm_params(config) | params)


def _eval_at(g, pts, scale):
    return g.eval(pts)


def _window(config: HarnessConfig, tpl):
    """values(g, X, scale): g_alpha of g at X on the window scaled by scale."""
    alpha, grid = config.alpha, config.scale_grid
    rs = grid.nodes()

    def values(g, pts, scale):
        return g_window_values(g, pts, scale * rs, (scale * rs) ** -alpha,
                               grid.log_step, int(alpha >= 1.0), 1.0, tpl,
                               workers=config.workers)

    return values


def _covariance_report(config: HarnessConfig, name: str, s: float,
                       z_extent: float, t_extent: float,
                       r_lo: float, r_hi: float) -> RatioReport:
    """Worst-case ratio of beta(f_s, B(x,r)) to beta(f, B(delta_s x, s r))
    over random placements, with a shared ball template."""
    f = catalog(name, n=config.n)
    fs = precompose_dilation(f, s)
    spec = config.spec
    tpl = ball_template(config.n, spec)
    xs, rads = _placements(_rng(spec, _ROLE_PAIRS), config.n, 10,
                           z_extent, t_extent, r_lo, r_hi)
    left = scale_sweep(fs, xs, rads[:, None], 1, config.q, tpl, want_se=False,
                       workers=config.workers, amax=False)
    right = scale_sweep(f, dilate(s, xs), (s * rads)[:, None], 1, config.q, tpl,
                        want_se=False, workers=config.workers)
    lefts, rights, amax = left["beta"][:, 0], right["beta"][:, 0], right["amax"][:, 0]
    floor = _VANISHING * (1.0 + amax.max())  # one roundoff floor: placements and report
    valid = rights > floor
    lhs, rhs = _worst_case(zip(lefts, rights, valid), _off_one)
    return _identity_report(config, f"beta-covariance:{name}:s={s:g}", lhs, rhs, {
        "check": "beta-covariance", "field": f.label, "s": s, "q": config.q,
        "placements": 10, "valid": int(valid.sum()),
    }, rhs_floor=floor)


def _g_pointwise_report(config: HarnessConfig, name: str, s: float) -> RatioReport:
    """Worst-case pointwise ratio of g_alpha(f_s)(x) to
    s^alpha g_alpha(f)(delta_s x) with the dilated scale window."""
    f = catalog(name, n=config.n)
    fs = precompose_dilation(f, s)
    spec = config.spec
    window = _window(config, ball_template(config.n, spec))
    xs = _random_centers(_rng(spec, _ROLE_POINTS), config.n, 5, 1.5, 2.0)
    lhs_vals = window(fs, xs, 1.0)
    rhs_vals = s**config.alpha * window(f, dilate(s, xs), s)
    ok = rhs_vals > _VANISHING
    lhs, rhs = _worst_case(zip(lhs_vals, rhs_vals, ok), _off_one)
    return _identity_report(config, f"g-pointwise:{name}:s={s:g}", lhs, rhs, {
        "check": "g-pointwise", "field": f.label, "s": s, "alpha": config.alpha,
        "points": len(xs), "valid": int(ok.sum()),
    })


def run_identity_suite(config: HarnessConfig) -> list[RatioReport]:
    """All scaling-identity checks under common random numbers: L^p norm
    scaling of dilated fields, beta covariance at random placements,
    square-function equivariance pointwise and in L^p.

    Each report's params carry a "certified" budget verdict and a "pass"
    verdict (certified and ratio within 1e-2 of 1).  Reports are
    deterministic for a given config, independent of config.workers.
    """
    window = _window(config, ball_template(config.n, config.sweep_spec))
    return [
        _linked_lp_report(config, "lp-scaling", "gaussian", 2.0, 0.0, _eval_at, {}),
        _linked_lp_report(config, "lp-scaling", "vertical-wave", 2.0, 0.0, _eval_at, {}),
        _covariance_report(config, "gaussian", 0.5, 2.0, 4.0, 0.25, 4.0),
        _covariance_report(config, "gaussian", 2.0, 2.0, 4.0, 0.25, 4.0),
        _covariance_report(config, "bump", 0.5, 0.8, 0.8, 0.25, 2.0),
        _g_pointwise_report(config, "gaussian", 0.5),
        _g_pointwise_report(config, "gaussian", 2.0),
        _linked_lp_report(config, "g-lp", "gaussian", 2.0, config.alpha, window,
                          {"alpha": config.alpha}),
    ]


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
    u = tpl.nodes[:, :-1]
    scale_a = 1.0 / np.sqrt(tpl.m2)
    # competitors go ten at a time: their offsets at unit magnitude to step,
    # each magnitude's residuals to cand, so no (100, m) array (4 MB at
    # n = 1) is allocated
    step = np.empty((10, len(u)))
    cand = np.empty_like(step)
    cases = []
    xs, rads = _placements(rng, config.n, 20, 2.0, 4.0, 0.25, 2.0)
    for vals in ball_values(f, xs, rads[:, None], tpl)[:, 0]:
        # fit with r = 1: the slopes absorb the radius, so the model at the
        # template nodes is b + u . a
        b, a = fit_from_values(vals, tpl, 1.0, 1)
        resid = vals - b - u @ a
        base = float(np.mean(np.abs(resid) ** config.q) ** (1.0 / config.q))
        if base <= _VANISHING:
            cases.append((base, base, False))
            continue
        dirs = rng.standard_normal(size=(100, 1 + u.shape[-1]))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        best = base
        for lo in range(0, 100, 10):
            np.matmul(dirs[lo:lo + 10, 1:] * scale_a, u.T, out=step)
            step += dirs[lo:lo + 10, :1]
            for lam in (0.25, 0.5, 1.0):
                np.multiply(step, lam * base, out=cand)
                np.subtract(resid, cand, out=cand)
                np.abs(cand, out=cand)
                if config.q != 1.0:
                    np.power(cand, config.q, out=cand)
                cand_beta = cand.mean(axis=1) ** (1.0 / config.q)
                best = min(best, float(cand_beta.min()))
        cases.append((base, best, True))
    params = config.base_params() | {
        "check": "near-optimal-fit", "field": f.label, "q": config.q,
        "placements": 20, "competitors": 300,
    }
    return _report("lemma:near-optimal-fit", *_worst_case(cases), params,
                   rule=math.isfinite)


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
    xs, rads = _placements(rng, n, 100, 2.0, 4.0, 0.25, 2.0)
    shifts = rng.standard_normal(size=(100, 2 * n + 1))
    shifts = dilate(1.0 / gauge(shifts), shifts)
    x2s = group_mul(xs, dilate(0.5 * rads, shifts))
    raw = check_monotonicity(f, (xs, rads), (x2s, big_c * rads), config.q, spec,
                             workers=config.workers)
    worst = float(np.max(raw * (1.0 / big_c) ** (big_q / config.q)))
    params = config.base_params() | {
        "check": "beta-monotonicity", "field": f.label, "q": config.q,
        "enlargement": big_c, "placements": 100,
    }
    return _report("lemma:beta-monotonicity", worst, 1.0, params, rule=math.isfinite)


def _g_vs_s_report(config: HarnessConfig) -> RatioReport:
    """Pointwise domination of the projection square function by the
    centered-difference one: worst ratio g / (2 s + 3 stderr) at random
    points, alpha = 0.5.

    At alpha = 0.5 both square functions integrate degree-0, q = 1 ball
    statistics, so one sweep over every point yields both profiles (beta
    for g, cdiff for s).  Only values and stderrs enter the comparison, so
    the truncation accounting of g_alpha and s_alpha is not computed."""
    f = catalog("gaussian", n=config.n)
    spec, grid, alpha = config.sweep_spec, config.scale_grid, 0.5
    xs = _random_centers(_rng(spec, _ROLE_POINTS), config.n, 20, 1.5, 2.0)
    rs = grid.nodes()
    sweep = scale_sweep(
        f, xs, rs, 0, 1.0, ball_template(config.n, spec), center_vals=f.eval(xs),
        workers=config.workers, amax=False,
    )
    coef, h = rs**-alpha, grid.log_step
    g, g_se = _square_from_profile(coef, h, sweep["beta"], sweep["beta_se"])
    s, s_se = _square_from_profile(coef, h, sweep["cdiff"], sweep["cdiff_se"])
    bound = 2.0 * s + 3.0 * (g_se + s_se)
    valid = bound > 0
    params = config.base_params() | {
        "check": "g-vs-s", "field": f.label, "alpha": alpha, "points": 20,
        "valid": int(valid.sum()),
    }
    return _report("lemma:g-vs-s", *_worst_case(zip(g, bound, valid)), params,
                   rule=lambda ratio: ratio <= 1.0)


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
    f = catalog("gaussian", n=n)

    def case(vals):
        b1, a1 = fit_from_values(vals, tpl, 1.0, 1)
        d1 = float(np.mean(np.abs(vals)))
        return float(np.max(np.abs(b1 + u @ a1))), d1, d1 > _VANISHING

    xs, rads = _placements(_rng(spec, _ROLE_SUP), n, 10, 1.5, 2.0, 0.25, 2.0)
    cases = [case(ball_values(anchor, np.zeros(2 * n + 1), 1.0, tpl)[0, 0])] + [
        case(vals) for vals in ball_values(f, xs, rads[:, None], tpl)[:, 0]
    ]
    params = config.base_params() | {
        "check": "projection-sup", "anchor_ratio": cases[0][0] / cases[0][1],
        "placements": sum(valid for _, _, valid in cases),
    }
    return _report("lemma:projection-sup", *_worst_case(cases), params,
                   rule=math.isfinite)


def _gradient_pair_report(config: HarnessConfig) -> RatioReport:
    """Worst ratio of the degree-1 flatness of f on B(x, r) to r times the
    summed degree-0 flatness of the gradient components on B(x, C r), at
    C = 4 over random pairs."""
    f = catalog("gaussian", n=config.n)
    spec = config.sweep_spec
    xs, rads = _placements(_rng(spec, _ROLE_GRADPAIRS), config.n, 50,
                           2.0, 4.0, 0.125, 2.0)
    lhs, rhs = gradient_comparison(f, xs, rads, C=4.0, spec=spec,
                                   workers=config.workers)
    cases = zip(lhs, rhs, rhs > _VANISHING)
    params = config.base_params() | {
        "check": "gradient-pair", "field": f.label, "enlargement": 4.0,
        "pairs": 50,
    }
    return _report("lemma:gradient-pair", *_worst_case(cases), params,
                   rule=math.isfinite)


def run_lemma_suite(config: HarnessConfig) -> list[RatioReport]:
    """Lemma-level comparisons swept over random placements: projection
    near-optimality, contained-ball monotonicity, pointwise domination of
    the projection square function, the sup bound for fitted models, and
    the gradient flatness pairing.

    Reported ratios are measured worst cases (fixture material); only the
    pointwise domination carries a hard bound, and its "pass" verdict
    enforces ratio <= 1.
    """
    return [
        _near_optimal_report(config),
        _monotonicity_report(config),
        _g_vs_s_report(config),
        _projection_sup_report(config),
        _gradient_pair_report(config),
    ]
