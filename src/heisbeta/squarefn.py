"""Square functions: scale-integrated beta profiles and centered differences.

g_alpha integrates [r^(-alpha) beta_{f,floor(alpha)}(B(x,r))]^2 against dr/r
over the truncated scale window, s_alpha does so for centered differences,
and both, like g_window_values, use one integrator over profile rows.  Each
reports, in the units of the value, what the truncation may have dropped:
truncation_low extrapolates the measured small-r slope into r < r_min, and
truncation_high is the one high-scale tail bound, _tail_sq, from the decay
metadata of f (a ball far larger than the support sees only the L^1 mass,
so its statistics fall like r^-Q).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .beta import _ball_list, scale_sweep
from .hgroup import half_dim, horizontal_derivative
from .quad import (
    QuadSpec,
    ScaleGrid,
    _ball_constant,
    ball_template,
    domain_integrate_lp,
    power_head,
)

Array = np.ndarray

# profiles below this are treated as exact annihilation (affine inputs):
# the scale integral is pure rounding noise, so no truncation is charged
_ANNIHILATION = 1e-12


@dataclass(frozen=True, eq=False)
class SquareFnResult:
    """One square-function evaluation with truncation accounting."""

    x: Array
    alpha: float
    value: float
    truncation_low: float
    truncation_high: float
    grid: ScaleGrid


# box mesh points of the norm estimate; 8^7, so n <= 3 keep their
# resolutions (32, 12 and 8 per axis) and larger n get coarser meshes,
# down to the 2 per axis every grid spec needs
_META_NODES = 2_097_152


def _meta_spec(n: int) -> QuadSpec:
    per_axis = {1: 32, 2: 12}.get(n, 8)
    while per_axis > 2 and per_axis ** (2 * n + 1) > _META_NODES:
        per_axis -= 1
    return QuadSpec(mode="grid", grid_per_axis=per_axis)


@lru_cache(maxsize=64)
def lq_norm_bound(f, q: float) -> float:
    """L^q norm of f over all of H^n for tail accounting.

    Box integral plus a shell-sum bound on the outside part, computed from
    decay metadata; infinite when f carries no decay bound.  The box part
    uses a fixed deterministic budget, so the result is an estimate whose
    quadrature error is not separately certified.  Results are cached per
    (field, q): a field is a frozen dataclass, so equal fields share one
    evaluation, and q = 2 and q = 2.0 share one key.
    """
    if f.decay_bound is None:
        return np.inf
    q = float(q)
    radius = max(4.0, 2.0 * (f.support_radius or 1.0))
    value, tail = domain_integrate_lp(f, q, radius, _meta_spec(f.n))
    return (value**q + tail**q) ** (1.0 / q)


def _sup_constant(template, d: int) -> float:
    # sup over the ball of a fitted map: |b| <= avg|f| and
    # |a_j| r <= avg|f| / m2_j, so sup|A| <= (1 + sum 1/m2_j) avg|f|
    if d == 0:
        return 1.0
    return 1.0 + float((1.0 / template.m2).sum())


def _tail_sq(f, alpha: float, r_max: float, gains, lead: float = 0.0) -> float:
    """Bound for the integral of [r^-alpha stat]^2 dr/r over r > r_max when
    stat is at most two pieces, an r-free one (lead) and gain_k ||f||_1 /
    (c_n r^Q): each piece enters at twice its own integral, which covers the
    cross term, (a + b)^2 <= 2 a^2 + 2 b^2."""
    l1 = lq_norm_bound(f, 1.0)
    if not np.isfinite(l1):
        return np.inf
    c_n = _ball_constant(f.n)[0]
    e = alpha + (2 * f.n + 2)
    return lead + sum((gain * l1 / c_n) ** 2 * r_max ** (-2.0 * e) / e for gain in gains)


def _square_from_profile(coef, h, prof, se=None):
    """sqrt(sum (coef * prof)^2 * h) along the last axis, one value per row,
    with its error estimate when se (the stderr of prof) is given."""
    value = np.sqrt(((coef * prof) ** 2).sum(axis=-1) * h)
    if se is None:
        return value
    sesq = (coef**2 * 2.0 * prof * se).sum(axis=-1) * h
    flat = np.sqrt(((coef * se) ** 2).sum(axis=-1) * h)  # where value is 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return value, np.where(value > 0, sesq / (2.0 * value), flat)


def _square_function(f, x, alpha, grid, spec, centered) -> SquareFnResult:
    """g_alpha (betas of degree floor(alpha)) or, when centered, s_alpha at
    x.  The value and truncations read no error estimate, so the sweep
    forms none (no orbit standard errors, no twin pass)."""
    d = 0 if centered else int(alpha >= 1.0)
    x = np.asarray(x, dtype=float)
    tpl = ball_template(half_dim(x), spec)
    rs = grid.nodes()
    fx = np.asarray(f.eval(x[None]), dtype=float) if centered else None
    sweep = scale_sweep(f, x[None], rs, d, 1.0, tpl, center_vals=fx, want_se=False)
    coef, prof = rs**-alpha, sweep["cdiff" if centered else "beta"][0]
    value = _square_from_profile(coef, grid.log_step, prof)
    floor = _ANNIHILATION * (1.0 + float(sweep["amax"][0].max(initial=0.0)))
    if float(prof.max(initial=0.0)) <= floor:
        low = high = 0.0
    else:
        low = float(np.sqrt(power_head(rs, (rs**-alpha * prof) ** 2, grid.r_min)))
        # with m = ||f||_1 / (c_n r^Q): beta_1 <= m + (1 + K_sup) m, and
        # avg_B |f(x*y) - f(x)| <= |f(x)| + m
        if centered:
            tail = _tail_sq(f, alpha, grid.r_max, (1.0,),
                            float(fx[0]) ** 2 * grid.r_max ** (-2.0 * alpha) / alpha)
        else:
            tail = _tail_sq(f, alpha, grid.r_max, (1.0, 1.0 + _sup_constant(tpl, d)))
        high = float(np.sqrt(tail))
    return SquareFnResult(
        x=x, alpha=alpha, value=value, truncation_low=low, truncation_high=high,
        grid=grid,
    )


def g_alpha(f, x, alpha: float, grid: ScaleGrid, spec: QuadSpec) -> SquareFnResult:
    """Square function of the beta profile at x, degree floor(alpha)."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    return _square_function(f, x, alpha, grid, spec, centered=False)


def s_alpha(f, x, alpha: float, grid: ScaleGrid, spec: QuadSpec) -> SquareFnResult:
    """Square function of centered differences avg |f(x*y) - f(x)| over B(r)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return _square_function(f, x, alpha, grid, spec, centered=True)


def g_window_values(f, pts: Array, rs: Array, coef: Array, h: float, d: int,
                    q: float, tpl, workers: int = 1) -> Array:
    """Square-function values with an explicit scale window.

    Returns sqrt(sum_i (coef_i * beta_{f,d,q}(B(x, rs_i)))^2 * h) for each
    x in pts.  Callers pass coef = w^-alpha with w the window nodes, which
    lets a dilated run keep the undilated weights (the covariance of beta
    under dilation does the rest).  The sweep runs on workers threads.
    """
    flat = pts.reshape(-1, pts.shape[-1])
    sweep = scale_sweep(f, flat, rs, d, q, tpl, want_se=False, workers=workers,
                        amax=False)
    return _square_from_profile(coef, h, sweep["beta"]).reshape(pts.shape[:-1])


def gradient_comparison(
    f, x, r, C: float = 4.0, spec: QuadSpec = QuadSpec(), workers: int = 1
):
    """(beta_{f,1}(B(x,r)), r * sum_j beta_{X_j f,0}(B(x, C r))).

    The gradient components come from horizontal_derivative: analytic when
    the field carries a gradient, group-native central differences
    otherwise.  Only values are needed, so no error estimate is formed.
    A ball list, x of shape (k, dim) with r of shape (k,), returns the two
    sides as arrays from 1 + 2n sweeps on workers threads; one ball returns
    floats.
    """
    if C < 1:
        raise ValueError(f"enlargement factor C must be >= 1, got {C}")
    xs, rs, single = _ball_list(x, r, "gradient-comparison balls")
    n = half_dim(xs)
    tpl = ball_template(n, spec)

    def beta_at(g, d, radii):
        out = scale_sweep(g, xs, radii[:, None], d, 1.0, tpl, want_se=False,
                          workers=workers, amax=False)
        return out["beta"][:, 0]

    lhs = beta_at(f, 1, rs)
    rhs = 0.0
    for j in range(1, 2 * n + 1):
        rhs += beta_at(lambda pts, jj=j: horizontal_derivative(f, jj, pts), 0, C * rs)
    rhs = rs * rhs
    return (float(lhs[0]), float(rhs[0])) if single else (lhs, rhs)
