"""Integration over Koranyi balls, truncated H^n, and log scale ranges.

Ball integration maps one cached centered template (nodes of gauge-unit-ball
quadrature) through y = center * delta_r(u).  Reusing the template across all
centers, radii, and both sides of an identity is what makes translation and
dilation identities hold to machine precision under common random numbers.
twist_nodes is the one such map, and one rule checks every ball list and
radius; the beta sweep, ball_values (the field on a ball list, for the
affine fits and the lemma checks) and ball_volume share them.

The Monte Carlo template is symmetrized over the full sign orbit
{(+-z_1, ..., +-t)}: the gauge ball is invariant under flipping any single
coordinate, so every template moment that is odd in some axis vanishes
exactly.  Closed-form moment fits assume exactly that.  The quoted budget
(QuadSpec.samples) counts box proposals; accepted points times the orbit
size land within it.  Standard errors treat one orbit as one independent
unit.  Grid mode uses a per-axis midpoint tensor grid, which has the same
symmetries, and estimates error by comparing against a half-resolution grid.
The gauge box |z_j| <= R, |t| <= R^2 (box_nodes, domain_integrate_lp) has
grid mode only: the same midpoint mesh, formed at R.  It gives
squarefn.lq_norm_bound the L^1 mass behind its large-scale truncation bound.

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

from .hgroup import dilate, gauge

Array = np.ndarray

_BALL_ROLE = 101

_MODES = ("grid", "montecarlo")

# Largest template request, in nodes allocated before the ball filter
# (80 MB per coordinate); see check_template_request.
NODE_CEILING = 10_000_000


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature request: mode, budget, and determinism knobs.

    samples is the Monte Carlo proposal budget; grid_per_axis the tensor
    grid resolution, at least 2 so that grid error estimates have a
    half-resolution twin.  Identical specs give bit-identical results.
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
        if self.grid_per_axis < 2:
            raise ValueError(f"grid_per_axis must be >= 2, got {self.grid_per_axis}")
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
        # count and log_step take log(r_max / r_min), which must be finite
        if not math.isfinite(self.r_max / self.r_min):
            raise ValueError(
                f"r_max / r_min overflows, got [{self.r_min}, {self.r_max}]"
            )
        if self.points_per_decade < 1:
            raise ValueError(
                f"points_per_decade must be >= 1, got {self.points_per_decade}"
            )
        # count converts points_per_decade to a float, which fails past
        # 1.8e308; from 1e300 up, every range exceeds the ceiling
        count = self.count if self.points_per_decade < 1e300 else math.inf
        if count > NODE_CEILING:
            raise ValueError(
                f"scale grid of {count} nodes exceeds the ceiling of "
                f"{NODE_CEILING}; lower points_per_decade"
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

    nodes has shape (m, 2n+1) with gauge <= 1.  It is the transpose view of
    one C-contiguous (2n+1, m) array: the template is stored coordinate-major,
    so nodes[:, j] is a contiguous row, and the sweep kernel's per-coordinate
    reads (the twist, the ball map, the slope fit and the residual) stream
    through memory instead of striding across it.  For Monte Carlo
    templates, nodes.reshape(units, orbit, dim) groups each accepted point
    with its sign orbit; units is the independent-sample count for standard
    errors.  m2 holds the template's second moments mean(u_j^2) per
    horizontal axis.
    """

    nodes: Array
    units: int
    orbit: int
    m2: Array
    coarse: "BallTemplate | None" = None


def _sign_orbit(dim: int) -> Array:
    return np.array(list(itertools.product((1.0, -1.0), repeat=dim)))


def _template(rows: Array, orbit: int, coarse=None) -> BallTemplate:
    """BallTemplate on coordinate rows (2n+1, units * orbit).  m2 averages
    the squares node-major, so it keeps the bits of a row-major template."""
    m2 = np.square(rows[:-1].T, order="C").mean(axis=0)
    return BallTemplate(nodes=rows.T, units=rows.shape[1] // orbit, orbit=orbit,
                        m2=m2, coarse=coarse)


@lru_cache(maxsize=64)
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
    units = len(kept)
    # row j holds coordinate j of every (unit, orbit member), written in place
    rows = np.multiply(kept.T[:, :, None], _sign_orbit(dim).T[:, None, :],
                       out=np.empty((dim, units, orbit)))
    return _template(rows.reshape(dim, -1), orbit)


def _midpoint_mesh(dim: int, per_axis: int) -> Array:
    """Midpoint tensor mesh of [-1, 1]^dim, coordinate-major, shape
    (dim, per_axis^dim), formed in one array: meshgrid's broadcast views
    are stacked without copies."""
    mids = (2.0 * np.arange(per_axis) + 1.0) / per_axis - 1.0
    mesh = np.meshgrid(*[mids] * dim, indexing="ij", copy=False)
    return np.stack(mesh).reshape(dim, -1)


def _grid_ball_rows(n: int, per_axis: int) -> Array:
    mesh = _midpoint_mesh(2 * n + 1, per_axis)
    mesh[-1] *= 0.25
    zsq = (mesh[:-1] ** 2).sum(axis=0)
    return np.compress(zsq * zsq + 16.0 * mesh[-1] ** 2 <= 1.0, mesh, axis=1)


@lru_cache(maxsize=64)
def _grid_ball_template(n: int, per_axis: int) -> BallTemplate:
    twin = _template(_grid_ball_rows(n, per_axis // 2), 1)
    return _template(_grid_ball_rows(n, per_axis), 1, twin)


def _check_node_count(n: int, count: int) -> None:
    if count > NODE_CEILING:
        raise ValueError(
            f"template request of {count} nodes at n={n} exceeds the ceiling "
            f"of {NODE_CEILING}"
        )


def check_template_request(n: int, spec: QuadSpec) -> None:
    """Reject a ball template for spec above NODE_CEILING nodes, counted
    before the ball filter: grid_per_axis^(2n+1) mesh points in grid mode;
    in Monte Carlo mode samples proposals, but at least one full sign orbit
    of 2^(2n+1) nodes, which every ball template holds.  Also reject a grid
    whose mesh or half-resolution twin keeps no ball node: an odd count
    keeps the origin, and the mesh points of an even count p nearest the
    origin, |z_j| = 1/p and |t| = 1/(4p), lie in the ball iff
    4n^2 / p^4 + 1 / p^2 <= 1."""
    dim = 2 * n + 1
    if spec.mode != "grid":
        return _check_node_count(n, max(spec.samples, 2**dim))
    _check_node_count(n, spec.grid_per_axis**dim)
    for p in (spec.grid_per_axis, spec.grid_per_axis // 2):
        if p % 2 == 0 and 4 * n * n + p * p > p**4:
            twin = "" if p == spec.grid_per_axis else f" in its {p}-per-axis twin"
            raise ValueError(
                f"grid_per_axis={spec.grid_per_axis} keeps no ball node at n={n}{twin}"
            )


def ball_template(n: int, spec: QuadSpec) -> BallTemplate:
    """Centered unit-ball template for a QuadSpec, cached per n and the
    fields its mode reads: samples and seed, or grid_per_axis."""
    check_template_request(n, spec)
    if spec.mode == "montecarlo":
        return _mc_ball_template(n, spec.samples, spec.seed)
    return _grid_ball_template(n, spec.grid_per_axis)


def _twist(centers: Array, u: Array) -> Array:
    rows, n = u.T, (u.shape[-1] - 1) // 2
    return 0.5 * (centers[:, :-1] @ np.concatenate([rows[n:-1], -rows[:n]]))


def _radius_product(r: Array, u: Array, j: int, out: Array) -> Array:
    # r u_j for a horizontal coordinate j, r^2 u_t for the last one
    return np.multiply(r * r if j == u.shape[-1] - 1 else r, u[:, j], out=out)


def radius_products(rs: Array, u: Array) -> Array:
    """The products r u_j and, in the last row, r^2 u_t of shared radii
    rs (R,) and template nodes u, shape (2n+1, R, m), read-only: the part
    of twist_nodes that every center block of a sweep repeats."""
    out = np.empty((u.shape[-1], len(rs), len(u)))
    for j in range(len(out)):
        _radius_product(rs[:, None], u, j, out[j])
    out.flags.writeable = False
    return out


def twist_nodes(centers: Array, rs: Array, u: Array, out: Array, w=None, ru=None):
    """Write x * delta_r(u) for every (center, radius, template node) into
    out, coordinate-major, shape (2n+1, k, R, m).

    The radii rs are shared, shape (R,), or one row per center, (k, R).
    Uses x * delta_r(u) = (x_z + r u_z, x_t + r^2 u_t + r W) with the twist
    W = (1/2) sum_j (x_j u_{n+j} - x_{n+j} u_j), shape (k, m), which does not
    depend on r; a caller may pass it as w and, for shared radii,
    radius_products(rs, u) as ru, which then replaces r u_j and r^2 u_t
    with the same bits.  The products are formed in out (shared radii: in
    the first center's rows), so r W is the only temporary.  Every step reads
    one template coordinate u[:, j], one contiguous row (see BallTemplate).
    """
    w = _twist(centers, u) if w is None else w
    r = rs[..., None]  # (R, 1) shared, (k, R, 1) per center
    for j, row in enumerate(out):
        if ru is None and rs.ndim == 1:  # the later centers read the first one's products
            head = _radius_product(r, u, j, row[0])
            np.add(centers[1:, j, None, None], head, out=row[1:])
            row[0] += centers[0, j]
        else:
            prod = _radius_product(r, u, j, row) if ru is None else ru[j]
            np.add(centers[:, j, None, None], prod, out=row)
    out[-1] += r * w[:, None, :]
    return out


def _check_radii(rs) -> None:
    rs = np.asarray(rs, dtype=float)
    bad = ~((rs > 0) & (rs < math.inf))  # NaN fails both comparisons
    if bad.any():
        raise ValueError(f"ball radius must be positive, got {rs[bad].flat[0]}")


def _balls(centers, rs, template: BallTemplate) -> tuple[Array, Array]:
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    k, dim = len(centers), template.nodes.shape[-1]
    if centers.ndim > 2 or centers.shape[-1] != dim:
        raise ValueError(f"centers of shape {centers.shape} are not (k, {dim})")
    if rs.ndim > 2 or rs.ndim == 2 and len(rs) != k:
        raise ValueError(f"radii of shape {rs.shape} are neither (R,) nor ({k}, R)")
    _check_radii(rs)
    return centers, rs


def ball_values(f, centers, rs, template: BallTemplate) -> Array:
    """Values (k, R, m) of f on a ball list, radii as in beta.scale_sweep."""
    centers, rs = _balls(centers, rs, template)
    u = template.nodes
    out = np.empty((u.shape[-1], len(centers), rs.shape[-1], len(u)))
    pts = np.moveaxis(twist_nodes(centers, rs, u, out), 0, -1)
    vals = np.asarray(f.eval(pts), dtype=float)
    _check_finite(vals, pts, "ball integrand")
    return vals


@dataclass(frozen=True, eq=False)
class PolarDomain:
    """Log-radial shell quadrature for the gauge ball of radius rho_max.

    pts has shape (n_rho, n_dirs, dim): shell midpoint radii dilated along
    fixed unit-gauge directions drawn once from the ball template (uniform
    ball points have cone-distributed directions).  vols are exact shell
    volumes, so sum(vols * mean_dirs(h^p)) approximates the integral of
    h^p; the core ball inside the innermost shell edge (volume core_vol)
    and the tail past rho_max (gauge balls of volume c_n rho^Q, Q = big_q)
    are left to the truncation accounting.
    """

    rho: Array
    vols: Array
    pts: Array
    core_vol: float
    rho_max: float
    c_n: float
    big_q: int


def polar_domain(n, shells: ScaleGrid, n_dirs, spec) -> PolarDomain:
    """PolarDomain with one shell per node of the log grid shells, from the
    core edge r_min to rho_max = r_max, and n_dirs directions from spec."""
    big_q = 2 * n + 2
    c_n = _ball_constant(n)[0]
    count, rho_min, rho_max = shells.count, shells.r_min, shells.r_max
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
        big_q=big_q,
    )


def shell_lp(vals: Array, vols: Array, p: float) -> tuple[float, Array]:
    """(integral of |vals|^p against the shell measure)^(1/p) plus the
    per-shell direction means of |vals|^p."""
    means = np.mean(np.abs(vals) ** p, axis=-1)
    return float(np.sum(vols * means) ** (1.0 / p)), means


def power_tail(polar: PolarDomain, means: Array) -> float:
    """Continuation of integral mass past the domain's outermost shell edge.

    Fits the decay rate of the shell means of h^p on the last four shells
    and integrates the power law from rho_max to infinity.  Returns inf when
    a mean it reads is not finite or the decay cannot beat the volume growth
    (not summable as far as the data shows), 0 when the integrand has died
    (the outermost shell mean is exactly 0).
    """
    m, r, edge, big_q = means[-4:], polar.rho[-4:], polar.rho_max, polar.big_q
    if not np.isfinite(m).all():
        return math.inf
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
        -level * big_q * polar.c_n * anchor**big_q * (edge / anchor) ** (big_q + slope)
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


def domain_truncation(polar: PolarDomain, means: Array, p: float):
    """Truncation of a shell-quadrature L^p norm in norm units: measured
    power-law continuation past rho_max plus the omitted core ball."""
    tail = power_tail(polar, means)
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
    Grid templates have no statistical error; scale_sweep compares against
    the half-resolution twin instead.
    """
    if template.orbit == 1:
        return np.zeros(np.shape(vals)[:-1])
    a = vals.reshape(vals.shape[:-1] + (template.units, template.orbit))
    # orbit means as one product; 1/orbit is exact, the orbit being 2^(2n+1)
    w = a @ np.full(template.orbit, 1.0 / template.orbit)
    if template.units < 2:
        return np.full(np.shape(vals)[:-1], np.inf)
    return w.std(axis=-1, ddof=1) / math.sqrt(template.units)


def _log_ball_constant(n: int) -> float:
    """log c_n from the closed form quoted in _ball_constant."""
    return (n * math.log(math.pi) + math.lgamma(n / 2) + math.lgamma(1.5) - math.log(4.0)
            - math.lgamma(n) - math.lgamma(n / 2 + 1.5))


# accepted proposals, out of _BALL_PROPOSALS, of the c_n estimate that
# bench/references.json was recorded against; see _ball_constant
_BALL_HITS = {1: 2_467_721, 2: 823_675, 3: 190_898, 4: 33_948}
_BALL_PROPOSALS = 4_000_000


@lru_cache(maxsize=8)
def _ball_constant(n: int) -> tuple[float, float]:
    """(c_n, stderr): the gauge unit-ball volume.

    At n = 1..4 it is the estimate the benchmark references were recorded
    against: _BALL_HITS of 4e6 proposals, uniform in [-1, 1]^2n x
    [-1/4, 1/4], landed in the ball, drawn from PCG64 seeded with
    SeedSequence([760355, n]) (tests/test_quad.py keeps that stream and
    checks the counts).  The counts agree with the closed form within
    3 stderr, but they hold only until the references are re-recorded;
    then deleting _BALL_HITS gives the closed form
    pi^n Gamma(n/2) Gamma(3/2) / (4 Gamma(n) Gamma(n/2 + 3/2)) at every n,
    as it is above n = 4, with stderr 0.
    """
    if n not in _BALL_HITS:
        return math.exp(_log_ball_constant(n)), 0.0
    box_vol = 2.0 ** (2 * n) * 0.5
    frac = _BALL_HITS[n] / _BALL_PROPOSALS
    return box_vol * frac, box_vol * math.sqrt(frac * (1.0 - frac) / _BALL_PROPOSALS)


def ball_volume(r: float, n: int = 1) -> float:
    """Volume of a gauge ball of radius r: c_n * r^Q with cached c_n."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    _check_radii(r)
    return _ball_constant(n)[0] * r ** (2 * n + 2)


def box_nodes(n: int, box_radius: float, spec: QuadSpec) -> Array:
    """Grid midpoint nodes for the gauge box |z_j| <= R, |t| <= R^2, shape
    (per_axis^(2n+1), 2n+1): the transpose view of the coordinate-major unit
    mesh, scaled in place by R, its t row once more by R."""
    if spec.mode != "grid":
        raise ValueError(f"the box quadrature is grid-only, got mode {spec.mode!r}")
    if box_radius <= 0:
        raise ValueError(f"box_radius must be positive, got {box_radius}")
    dim = 2 * n + 1
    _check_node_count(n, spec.grid_per_axis**dim)
    mesh = _midpoint_mesh(dim, spec.grid_per_axis)
    mesh *= box_radius
    mesh[-1] *= box_radius
    return mesh.T


def box_volume(n: int, box_radius: float) -> float:
    return (2.0 * box_radius) ** (2 * n) * 2.0 * box_radius**2


def lp_tail_bound(f, p: float, box_radius: float) -> float:
    """Upper bound for the L^p norm of f outside the gauge box of radius R.

    The box contains the gauge ball B(0, R), so the complement is covered by
    dyadic shells R 2^k <= N < R 2^(k+1) of H^n, n = f.n; on each shell |f|^p
    is bounded by the sampled shell maximum of f.decay_bound times the shell
    volume.  Returns (sum of shell terms)^(1/p); 0 when f carries no bound.
    """
    if f.decay_bound is None:
        return 0.0
    total = 0.0
    for k in range(200):
        lo = box_radius * 2.0**k
        hi = 2.0 * lo
        sup = float(np.max(f.decay_bound(np.geomspace(lo, hi, 17))))
        term = sup**p * (ball_volume(hi, f.n) - ball_volume(lo, f.n))
        total += term
        if not math.isfinite(term):
            return math.inf
        if term <= 1e-300 or (total > 0 and term < 1e-16 * total):
            break
    return total ** (1.0 / p)


def domain_integrate_lp(
    f, p: float, box_radius: float, spec: QuadSpec
) -> tuple[float, float]:
    """L^p norm of the field f over the gauge box |z_j| <= R, |t| <= R^2
    on the grid of box_nodes.

    Returns (value, tail_bound) where tail_bound bounds the L^p norm of f
    outside the box through f.decay_bound (0 when f carries none; the
    caller owns tail accounting in that case).
    """
    if p < 1:
        raise ValueError(f"exponent p must be >= 1, got {p}")
    nodes = box_nodes(f.n, box_radius, spec)
    vals = np.asarray(f.eval(nodes), dtype=float)
    _check_finite(vals, nodes, "domain integrand")
    value = (box_volume(f.n, box_radius) * float(np.mean(np.abs(vals) ** p))) ** (1.0 / p)
    return value, lp_tail_bound(f, p, box_radius)
