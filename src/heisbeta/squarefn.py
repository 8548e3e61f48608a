"""Square functions: scale-integrated beta profiles and centered differences.

g_alpha integrates [r^(-alpha) beta_{f,floor(alpha)}(B(x,r))]^2 against dr/r
over the truncated scale window and reports what the truncation may have
dropped: truncation_low bounds the r < r_min head by extrapolating the
measured small-r slope, truncation_high bounds the r > r_max tail through
the decay metadata of f (a ball far larger than the support sees only the
L^1 mass, so beta falls like r^-Q).  Both are reported in the same units as
the value (square roots of the dropped integral pieces).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .beta import _sweep_with_grid_error, beta_number, scale_sweep
from .hgroup import horizontal_derivative
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
    stderr: float = 0.0


# box mesh points of the norm estimate; 8^7, so n <= 3 keep their
# resolutions (32, 12 and 8 per axis) and larger n get coarser meshes
_META_NODES = 2_097_152


def _meta_spec(n: int) -> QuadSpec:
    per_axis = {1: 32, 2: 12}.get(n, 8)
    while per_axis ** (2 * n + 1) > _META_NODES:
        per_axis -= 1
    return QuadSpec(mode="grid", grid_per_axis=per_axis)


def lq_norm_bound(f, q: float) -> float:
    """L^q norm of f over all of H^n for tail accounting.

    Box integral plus a shell-sum bound on the outside part, computed from
    decay metadata; infinite when f carries no decay bound.  The box part
    uses a fixed deterministic budget, so the result is an estimate whose
    quadrature error is not separately certified.  Results are cached per
    (field, q): a field is a frozen dataclass, so equal fields share one
    evaluation.
    """
    return _lq_norm_bound_cached(f, float(q))


@lru_cache(maxsize=64)
def _lq_norm_bound_cached(f, q: float) -> float:
    if f.decay_bound is None:
        return np.inf
    radius = max(4.0, 2.0 * (f.support_radius or 1.0))
    value, tail = domain_integrate_lp(
        f, q, radius, _meta_spec(f.n), tail=f.decay_bound
    )
    return (value**q + tail**q) ** (1.0 / q)


def _sup_constant(template, d: int) -> float:
    # sup over the ball of a fitted map: |b| <= avg|f| and
    # |a_j| r <= avg|f| / m2_j, so sup|A| <= (1 + sum 1/m2_j) avg|f|
    if d == 0:
        return 1.0
    return 1.0 + float((1.0 / template.m2).sum())


def _beta_tail_sq(f, d: int, q: float, alpha: float, r_max: float, template) -> float:
    """Bound for the integral of [r^-alpha beta]^2 dr/r over r > r_max."""
    n = f.n
    big_q = 2 * n + 2
    c_n = _ball_constant(n)[0]
    l1 = lq_norm_bound(f, 1.0)
    lq = l1 if q == 1.0 else lq_norm_bound(f, q)
    if not (np.isfinite(l1) and np.isfinite(lq)):
        return np.inf
    # beta_q(x, r) <= (||f||_q^q / (c_n r^Q))^(1/q) + K_sup ||f||_1 / (c_n r^Q)
    c1 = lq / c_n ** (1.0 / q)
    c2 = (1.0 + _sup_constant(template, d)) * l1 / c_n
    e1 = alpha + big_q / q
    e2 = alpha + big_q
    return c1**2 * r_max ** (-2.0 * e1) / e1 + c2**2 * r_max ** (-2.0 * e2) / e2


def _square_from_profile(rs, h, prof, se, alpha):
    integrand = (rs**-alpha * prof) ** 2
    vsq = float(integrand.sum() * h)
    value = np.sqrt(vsq)
    sesq = float((rs ** (-2.0 * alpha) * 2.0 * prof * se).sum() * h)
    stderr = sesq / (2.0 * value) if value > 0 else float(
        np.sqrt(((rs**-alpha * se) ** 2).sum() * h)
    )
    return value, stderr


def g_alpha(f, x, alpha: float, grid: ScaleGrid, spec: QuadSpec) -> SquareFnResult:
    """Square function of the beta profile at x, degree floor(alpha)."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    d = int(alpha >= 1.0)
    x = np.asarray(x, dtype=float)
    n = (x.shape[-1] - 1) // 2
    rs = grid.nodes()
    sweep = _sweep_with_grid_error(f, x[None], rs, d, 1.0, spec, n)
    prof, se = sweep["beta"][0], sweep["beta_se"][0]
    value, stderr = _square_from_profile(rs, grid.log_step, prof, se, alpha)
    floor = _ANNIHILATION * (1.0 + float(sweep["amax"][0].max(initial=0.0)))
    if float(prof.max(initial=0.0)) <= floor:
        low = high = 0.0
    else:
        low = float(np.sqrt(power_head(rs, (rs**-alpha * prof) ** 2, grid.r_min)))
        high = float(
            np.sqrt(_beta_tail_sq(f, d, 1.0, alpha, grid.r_max, ball_template(n, spec)))
        )
    return SquareFnResult(
        x=x, alpha=alpha, value=value, truncation_low=low, truncation_high=high,
        grid=grid, stderr=stderr,
    )


def s_alpha(f, x, alpha: float, grid: ScaleGrid, spec: QuadSpec) -> SquareFnResult:
    """Square function of centered differences avg |f(x*y) - f(x)| over B(r)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    x = np.asarray(x, dtype=float)
    n = (x.shape[-1] - 1) // 2
    rs = grid.nodes()
    fx = np.asarray(f.eval(x[None]), dtype=float)
    sweep = _sweep_with_grid_error(f, x[None], rs, 0, 1.0, spec, n, center_vals=fx)
    prof, se = sweep["cdiff"][0], sweep["cdiff_se"][0]
    value, stderr = _square_from_profile(rs, grid.log_step, prof, se, alpha)
    floor = _ANNIHILATION * (1.0 + float(sweep["amax"][0].max(initial=0.0)))
    if float(prof.max(initial=0.0)) <= floor:
        low = high = 0.0
    else:
        low = float(np.sqrt(power_head(rs, (rs**-alpha * prof) ** 2, grid.r_min)))
        l1 = lq_norm_bound(f, 1.0)
        if np.isfinite(l1):
            # avg_B |f(x*y) - f(x)| <= |f(x)| + ||f||_1 / (c_n r^Q)
            c_n = _ball_constant(n)[0]
            big_q = 2 * n + 2
            e2 = alpha + big_q
            tail_sq = (
                float(fx[0]) ** 2 * grid.r_max ** (-2.0 * alpha) / alpha
                + (l1 / c_n) ** 2 * grid.r_max ** (-2.0 * e2) / e2
            )
            high = float(np.sqrt(tail_sq))
        else:
            high = np.inf
    return SquareFnResult(
        x=x, alpha=alpha, value=value, truncation_low=low, truncation_high=high,
        grid=grid, stderr=stderr,
    )


def g_window_values(f, pts: Array, rs: Array, coef: Array, h: float, d: int,
                    q: float, tpl, workers: int = 1) -> Array:
    """Square-function values with an explicit scale window.

    Returns sqrt(sum_i (coef_i * beta_{f,d,q}(B(x, rs_i)))^2 * h) for each
    x in pts.  Callers pass coef = w^-alpha with w the window nodes, which
    lets a dilated run keep the undilated weights (the covariance of beta
    under dilation does the rest).  The sweep runs on workers threads.
    """
    flat = pts.reshape(-1, pts.shape[-1])
    sweep = scale_sweep(f, flat, rs, d, q, tpl, want_se=False, workers=workers)
    integ = (coef[None, :] * sweep["beta"]) ** 2
    return np.sqrt(integ.sum(axis=1) * h).reshape(pts.shape[:-1])


def gradient_comparison(
    f, x, r: float, C: float = 4.0, spec: QuadSpec = QuadSpec()
) -> tuple[float, float]:
    """(beta_{f,1}(B(x,r)), r * sum_j beta_{X_j f,0}(B(x, C r))).

    The right side uses the analytic horizontal gradient when available and
    group-native central differences otherwise.
    """
    if C < 1:
        raise ValueError(f"enlargement factor C must be >= 1, got {C}")
    x = np.asarray(x, dtype=float)
    n = (x.shape[-1] - 1) // 2
    lhs = beta_number(f, x, r, 1, 1.0, spec)[0]
    rhs = 0.0
    for j in range(1, 2 * n + 1):
        if f.analytic_hgrad is not None:
            comp = lambda pts, jj=j: f.analytic_hgrad(pts)[..., jj - 1]
        else:
            comp = lambda pts, jj=j: horizontal_derivative(f, jj, pts)
        rhs += beta_number(comp, x, C * r, 0, 1.0, spec)[0]
    return lhs, r * rhs
