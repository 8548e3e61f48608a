"""Integration over Koranyi balls, truncated H^n, and log scale ranges.

Ball integration maps one cached centered template (nodes of gauge-unit-ball
quadrature) through y = center * delta_r(u).  Reusing the template across all
centers, radii, and both sides of an identity is what makes translation and
dilation identities hold to machine precision under common random numbers.

The Monte Carlo template is symmetrized over the full sign orbit
{(+-z_1, ..., +-t)}: the gauge ball is invariant under flipping any single
coordinate, so every template moment that is odd in some axis vanishes
exactly.  Closed-form moment fits assume exactly that.  The quoted budget
(QuadSpec.samples) counts box proposals; accepted points times the orbit
size land within it.  Standard errors treat one orbit as one independent
unit.  Grid mode uses a per-axis midpoint tensor grid, which has the same
symmetries, and estimates error by comparing against a half-resolution grid.

L^p norms over the truncated domain use a gauge-polar quadrature:
log-spaced shells of exact volume times a direction average on the unit
gauge sphere.  The integrands there (square functions and gradients of
catalog fields) concentrate near the origin and decay like a power of the
gauge, so log-radial placement resolves them far better than uniform box
sampling at equal budget, and the tail past the outermost shell has a
measurable decay rate to continue with.  The same power-law continuation
serves both ends of a log-spaced quadrature: power_tail past the outermost
shell, power_head below the smallest scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hgroup import dilate, gauge, group_mul

Array = np.ndarray

_BALL_ROLE = 101
_DOMAIN_ROLE = 202
_VOLUME_SEED = 760355

_MODES = ("grid", "montecarlo")

# Largest template request, in nodes allocated before the ball filter
# (80 MB per coordinate); see check_template_request.
NODE_CEILING = 10_000_000


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature request: mode, budget, and determinism knobs.

    samples is the Monte Carlo proposal budget; grid_per_axis the tensor
    grid resolution.  Identical specs give bit-identical results.
    """

    mode: str = "montecarlo"
    samples: int = 100_000
    seed: int = 42
    grid_per_axis: int = 24

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.grid_per_axis < 1:
            raise ValueError(f"grid_per_axis must be >= 1, got {self.grid_per_axis}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ScaleGrid:
    """Geometric scale nodes carrying the measure dr/r.

    Nodes sit at the log-midpoints of a uniform partition of
    [log r_min, log r_max], so sum(g(r_i)) * log_step is the midpoint rule
    for the integral of g over [r_min, r_max] against dr/r.
    """

    r_min: float = 1e-3
    r_max: float = 1e2
    points_per_decade: int = 16

    def __post_init__(self) -> None:
        if not (0.0 < self.r_min < self.r_max < math.inf):
            raise ValueError(
                f"need 0 < r_min < r_max < inf, got [{self.r_min}, {self.r_max}]"
            )
        if self.points_per_decade < 1:
            raise ValueError(
                f"points_per_decade must be >= 1, got {self.points_per_decade}"
            )

    @property
    def count(self) -> int:
        decades = math.log10(self.r_max / self.r_min)
        return max(1, round(decades * self.points_per_decade))

    @property
    def log_step(self) -> float:
        return math.log(self.r_max / self.r_min) / self.count

    def nodes(self) -> Array:
        h = self.log_step
        return self.r_min * np.exp((np.arange(self.count) + 0.5) * h)


@dataclass(frozen=True, eq=False)
class BallTemplate:
    """Quadrature nodes for the gauge unit ball at the origin.

    nodes has shape (m, 2n+1) with gauge <= 1.  For Monte Carlo templates,
    nodes.reshape(units, orbit, dim) groups each accepted point with its
    sign orbit; units is the independent-sample count for standard errors.
    m2 holds the template's second moments mean(u_j^2) per horizontal axis.
    """

    nodes: Array
    units: int
    orbit: int
    m2: Array
    coarse: "BallTemplate | None" = None


def _sign_orbit(dim: int) -> Array:
    return np.array(list(itertools.product((1.0, -1.0), repeat=dim)))


def _mc_ball_template(n: int, samples: int, seed: int) -> BallTemplate:
    dim = 2 * n + 1
    orbit = 2**dim
    proposals = max(1, samples // orbit)
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, _BALL_ROLE, n]))
    )
    kept = np.empty((0, dim))
    for _ in range(1000):
        u = rng.uniform(-1.0, 1.0, size=(proposals, dim))
        u[:, -1] *= 0.25
        zsq = (u[:, :-1] ** 2).sum(axis=1)
        kept = u[zsq * zsq + 16.0 * u[:, -1] ** 2 <= 1.0]
        if len(kept):
            break
    if not len(kept):
        raise RuntimeError("rejection sampling produced no ball nodes")
    nodes = (kept[:, None, :] * _sign_orbit(dim)[None, :, :]).reshape(-1, dim)
    m2 = (nodes[:, :-1] ** 2).mean(axis=0)
    return BallTemplate(nodes=nodes, units=len(kept), orbit=orbit, m2=m2)


def _grid_ball_template(n: int, per_axis: int, with_coarse: bool = True) -> BallTemplate:
    dim = 2 * n + 1
    mids = (2.0 * np.arange(per_axis) + 1.0) / per_axis - 1.0
    axes = [mids] * (2 * n) + [0.25 * mids]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    zsq = (mesh[:, :-1] ** 2).sum(axis=1)
    nodes = mesh[zsq * zsq + 16.0 * mesh[:, -1] ** 2 <= 1.0]
    if not len(nodes):
        raise RuntimeError(f"grid_per_axis={per_axis} keeps no ball nodes")
    coarse = None
    if with_coarse and per_axis >= 2:
        coarse = _grid_ball_template(n, max(1, per_axis // 2), with_coarse=False)
    m2 = (nodes[:, :-1] ** 2).mean(axis=0)
    return BallTemplate(nodes=nodes, units=len(nodes), orbit=1, m2=m2, coarse=coarse)


@lru_cache(maxsize=64)
def _ball_template_cached(n: int, mode: str, samples: int, seed: int, per_axis: int):
    if mode == "montecarlo":
        return _mc_ball_template(n, samples, seed)
    return _grid_ball_template(n, per_axis)


def check_template_request(n: int, spec: QuadSpec) -> None:
    """Reject a ball or box template for spec above NODE_CEILING nodes,
    counted before the ball filter: grid_per_axis^(2n+1) mesh points in
    grid mode; in Monte Carlo mode samples proposals, but at least one
    full sign orbit of 2^(2n+1) nodes, which every ball template holds."""
    dim = 2 * n + 1
    count = spec.grid_per_axis**dim if spec.mode == "grid" else max(spec.samples, 2**dim)
    if count > NODE_CEILING:
        raise ValueError(
            f"template request of {count} nodes at n={n} exceeds the ceiling "
            f"of {NODE_CEILING}"
        )


def ball_template(n: int, spec: QuadSpec) -> BallTemplate:
    """Centered unit-ball template for a QuadSpec, cached per (n, spec)."""
    check_template_request(n, spec)
    if spec.mode == "montecarlo":
        return _ball_template_cached(n, "montecarlo", spec.samples, spec.seed, 0)
    return _ball_template_cached(n, "grid", 0, 0, spec.grid_per_axis)


def ball_nodes(center, r: float, template_nodes: Array) -> Array:
    """Map template nodes u to the ball B(center, r) via center * delta_r(u)."""
    center = np.asarray(center, dtype=float)
    return group_mul(center[..., None, :], dilate(r, template_nodes))


@dataclass(frozen=True, eq=False)
class PolarDomain:
    """Log-radial shell quadrature for the gauge ball of radius rho_max.

    pts has shape (n_rho, n_dirs, dim): shell midpoint radii dilated along
    fixed unit-gauge directions drawn once from the ball template (uniform
    ball points have cone-distributed directions).  vols are exact shell
    volumes, so sum(vols * mean_dirs(h^p)) approximates the integral of
    h^p; the ball below rho_min (volume core_vol) is left to the
    truncation accounting.
    """

    rho: Array
    vols: Array
    pts: Array
    core_vol: float
    rho_max: float
    c_n: float


def polar_domain(n, rho_min, rho_max, per_decade, n_dirs, spec) -> PolarDomain:
    big_q = 2 * n + 2
    c_n = _ball_constant(n)[0]
    decades = math.log10(rho_max / rho_min)
    count = max(1, round(decades * per_decade))
    edges = rho_min * (rho_max / rho_min) ** (np.arange(count + 1) / count)
    rho = np.sqrt(edges[:-1] * edges[1:])
    vols = c_n * (edges[1:] ** big_q - edges[:-1] ** big_q)
    tpl = ball_template(n, spec)
    cand = tpl.nodes[gauge(tpl.nodes) > 0.3]
    if len(cand) == 0:
        raise ValueError("ball template has no nodes away from the origin")
    dirs = cand[: min(n_dirs, len(cand))]
    dirs = dilate(1.0 / gauge(dirs), dirs)
    pts = dilate(rho[:, None], dirs[None, :, :])
    return PolarDomain(
        rho=rho,
        vols=vols,
        pts=pts,
        core_vol=float(c_n * rho_min**big_q),
        rho_max=float(rho_max),
        c_n=float(c_n),
    )


def shell_lp(vals: Array, vols: Array, p: float) -> tuple[float, Array]:
    """(integral of |vals|^p against the shell measure)^(1/p) plus the
    per-shell direction means of |vals|^p."""
    means = np.mean(np.abs(vals) ** p, axis=-1)
    return float(np.sum(vols * means) ** (1.0 / p)), means


def power_tail(rho: Array, means: Array, edge: float, big_q: int, c_n: float) -> float:
    """Continuation of integral mass past the outermost shell edge.

    Fits the decay rate of the shell means of h^p on the last four shells
    and integrates the power law from `edge` to infinity.  Returns inf when
    the measured decay cannot beat the volume growth (the tail is then not
    summable as far as the data shows), 0 when the integrand has died (the
    outermost shell mean is exactly 0).
    """
    m = means[-4:]
    r = rho[-4:]
    if not m[-1] > 0:
        return 0.0
    pos = m > 0
    if pos.sum() < 2:
        return math.inf
    slope = np.polyfit(np.log(r[pos]), np.log(m[pos]), 1)[0]
    if slope + big_q >= -1e-9:
        return math.inf
    # level * anchor^-slope * edge^(Q+slope), grouped so that a steep slope
    # underflows to 0 instead of forming 0 * inf
    level, anchor = m[-1], r[-1]
    return float(
        -level * big_q * c_n * anchor**big_q * (edge / anchor) ** (big_q + slope)
        / (big_q + slope)
    )


def power_head(xs: Array, integrand: Array, edge: float) -> float:
    """Continuation of the integral of integrand against dx/x from 0 to edge.

    Fits the log-log slope of the integrand on its first six nodes and
    integrates the power law through the first positive value.  Returns 0
    when none of those values is positive, inf when fewer than three are or
    when the measured slope does not make the integral converge at 0.
    """
    k = min(6, len(xs))
    m = integrand[:k]
    pos = m > 0
    if not pos.any():
        return 0.0
    if pos.sum() < 3:
        return math.inf
    x = xs[:k][pos]
    slope = np.polyfit(np.log(x), np.log(m[pos]), 1)[0]
    if slope <= 1e-9:
        return math.inf
    level, anchor = m[pos][0], x[0]
    return float(level * (edge / anchor) ** slope / slope)


def domain_truncation(polar: PolarDomain, means: Array, p: float, big_q: int):
    """Truncation of a shell-quadrature L^p norm in norm units: measured
    power-law continuation past rho_max plus the omitted core ball."""
    tail = power_tail(polar.rho, means, polar.rho_max, big_q, polar.c_n)
    core = polar.core_vol * (means[0] if len(means) else 0.0)
    if math.isinf(tail):
        return math.inf
    return tail ** (1.0 / p) + core ** (1.0 / p)


def _check_finite(vals: Array, nodes: Array, what: str) -> None:
    if not np.all(np.isfinite(vals)):
        flat = int(np.flatnonzero(~np.isfinite(np.ravel(vals)))[0])
        node = nodes.reshape(-1, nodes.shape[-1])[flat]
        raise FloatingPointError(f"non-finite {what} at node {node!r}")


def mean_stderr(vals: Array, template: BallTemplate) -> Array:
    """Standard error of mean(vals) over the template's independent units.

    Monte Carlo: standard deviation of per-orbit means over sqrt(units).
    Grid templates have no statistical error; callers use a coarse-grid
    comparison instead (see ball_integrate).
    """
    if template.orbit == 1:
        return np.zeros(np.shape(vals)[:-1])
    w = vals.reshape(vals.shape[:-1] + (template.units, template.orbit)).mean(axis=-1)
    if template.units < 2:
        return np.full(np.shape(vals)[:-1], np.inf)
    return w.std(axis=-1, ddof=1) / math.sqrt(template.units)


def ball_integrate(f, center, r: float, spec: QuadSpec) -> tuple[float, float]:
    """Average of f over the Koranyi ball B(center, r), with error estimate.

    Returns (value, stderr): the Monte Carlo standard error, or for grid
    mode the difference against a half-resolution grid.
    """
    if r <= 0:
        raise ValueError(f"ball radius must be positive, got {r}")
    ev = getattr(f, "eval", f)
    center = np.asarray(center, dtype=float)
    n = (center.shape[-1] - 1) // 2
    tpl = ball_template(n, spec)
    nodes = ball_nodes(center, r, tpl.nodes)
    vals = np.asarray(ev(nodes), dtype=float)
    _check_finite(vals, nodes, "ball integrand")
    value = float(vals.mean())
    if spec.mode == "grid":
        cnodes = ball_nodes(center, r, tpl.coarse.nodes)
        cvals = np.asarray(ev(cnodes), dtype=float)
        _check_finite(cvals, cnodes, "ball integrand")
        return value, abs(value - float(cvals.mean()))
    return value, float(mean_stderr(vals, tpl))


@lru_cache(maxsize=8)
def _ball_constant(n: int) -> tuple[float, float]:
    """(c_n, stderr): unit-ball volume from a one-time 4e6-proposal run."""
    dim = 2 * n + 1
    box_vol = 2.0 ** (2 * n) * 0.5
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([_VOLUME_SEED, n]))
    )
    total = 4_000_000
    accepted = 0
    for _ in range(8):
        u = rng.uniform(-1.0, 1.0, size=(total // 8, dim))
        u[:, -1] *= 0.25
        zsq = (u[:, :-1] ** 2).sum(axis=1)
        accepted += int((zsq * zsq + 16.0 * u[:, -1] ** 2 <= 1.0).sum())
    frac = accepted / total
    return box_vol * frac, box_vol * math.sqrt(frac * (1.0 - frac) / total)


def ball_volume(r: float, n: int = 1) -> float:
    """Volume of a gauge ball of radius r: c_n * r^Q with cached c_n."""
    if r <= 0:
        raise ValueError(f"ball radius must be positive, got {r}")
    return _ball_constant(n)[0] * r ** (2 * n + 2)


@lru_cache(maxsize=64)
def _unit_box_template_cached(n: int, mode: str, samples: int, seed: int, per_axis: int):
    dim = 2 * n + 1
    if mode == "montecarlo":
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, _DOMAIN_ROLE, n]))
        )
        return rng.uniform(-1.0, 1.0, size=(samples, dim))
    mids = (2.0 * np.arange(per_axis) + 1.0) / per_axis - 1.0
    return np.stack(np.meshgrid(*([mids] * dim), indexing="ij"), axis=-1).reshape(
        -1, dim
    )


def box_nodes(n: int, box_radius: float, spec: QuadSpec) -> Array:
    """Quadrature nodes for the gauge box |z_j| <= R, |t| <= R^2."""
    if box_radius <= 0:
        raise ValueError(f"box_radius must be positive, got {box_radius}")
    check_template_request(n, spec)
    if spec.mode == "montecarlo":
        unit = _unit_box_template_cached(n, "montecarlo", spec.samples, spec.seed, 0)
    else:
        unit = _unit_box_template_cached(n, "grid", 0, 0, spec.grid_per_axis)
    return scale_box_nodes(unit, box_radius)


def scale_box_nodes(unit: Array, box_radius: float) -> Array:
    out = unit * box_radius
    out[..., -1] *= box_radius
    return out


def box_volume(n: int, box_radius: float) -> float:
    return (2.0 * box_radius) ** (2 * n) * 2.0 * box_radius**2


def lp_tail_bound(decay_bound, p: float, box_radius: float, n: int = 1) -> float:
    """Upper bound for the L^p norm of f outside the gauge box of radius R.

    The box contains the gauge ball B(0, R), so the complement is covered by
    dyadic shells R 2^k <= N < R 2^(k+1); on each shell |f|^p is bounded by
    the decay bound's sampled shell maximum times the shell volume.  Returns
    (sum of shell terms)^(1/p); 0 when no bound is supplied.
    """
    if decay_bound is None:
        return 0.0
    total = 0.0
    for k in range(200):
        lo = box_radius * 2.0**k
        hi = 2.0 * lo
        sup = float(np.max(decay_bound(np.geomspace(lo, hi, 17))))
        term = sup**p * (ball_volume(hi, n) - ball_volume(lo, n))
        total += term
        if not math.isfinite(term):
            return math.inf
        if term <= 1e-300 or (total > 0 and term < 1e-16 * total):
            break
    return total ** (1.0 / p)


def domain_integrate_lp(
    f, p: float, box_radius: float, spec: QuadSpec, tail=None, n: int | None = None
) -> tuple[float, float]:
    """L^p norm of f over the gauge box |z_j| <= R, |t| <= R^2.

    Returns (value, tail_bound) where tail_bound bounds the L^p norm of f
    outside the box, computed from the supplied decay bound (0 when none is
    given; the caller owns tail accounting in that case).  n is inferred
    from a ScalarField argument and must be passed for bare callables.
    """
    if p < 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    if n is None:
        n = getattr(f, "n", None)
        if n is None:
            raise ValueError("pass n explicitly when integrating a bare callable")
    ev = getattr(f, "eval", f)
    nodes = box_nodes(n, box_radius, spec)
    vals = np.asarray(ev(nodes), dtype=float)
    _check_finite(vals, nodes, "domain integrand")
    value = (box_volume(n, box_radius) * float(np.mean(np.abs(vals) ** p))) ** (1.0 / p)
    return value, lp_tail_bound(tail, p, box_radius, n)
