"""Beta numbers: normalized L^q distance from f to its projection on a ball.

beta_{f,d,q}(B(x,r)) = (average over B(x,r) of |f - A^d_{x,r}|^q)^(1/q),
with the projection fitted by the moment formula on the same quadrature
nodes used for the average.  Sharing one centered template across every
(x, r) pair keeps the dilation covariance of beta exact under common
random numbers.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .affine import fit_from_values
from .hgroup import dilate, distance, group_mul
from .quad import QuadSpec, ScaleGrid, ball_template, mean_stderr

Array = np.ndarray

# cap on ball nodes (centers x radii x template nodes) per sweep tile.
# Tiles this small keep the node buffer and its temporaries in a core's L2
# cache: on a 2-vCPU Xeon (2 MB L2 per core) 2M-node tiles ran about 40 %
# slower per node.  One budget serves every worker count, because a tile's
# shape reaches the last bits of its matrix products.  It is half the
# serial 131,072 so that two tiles in flight fit in one old tile's memory;
# smaller tiles hand the interpreter lock between threads so often that
# CPU time grows.  dorronsoro-norm, bench/run.py --seconds 20 (2 vCPUs,
# numpy 2.4.6), means of two runs:
#
#   budget   workers  wall_s  cpu_s  peak_rss_mb
#   131,072  1        1.11    1.11   46.9
#   131,072  2        0.67    1.15   51.7
#    65,536  2        0.77    1.17   46.0
#    32,768  2        0.93    1.38   43.5
_NODE_BUDGET = 65_536


@dataclass(frozen=True, eq=False)
class BetaProfile:
    """Beta numbers of one field at one center across a scale grid."""

    x: Array
    d: int
    q: float
    grid: ScaleGrid
    values: Array
    stderrs: Array


def _check_dq(d: int, q: float) -> None:
    if d not in (0, 1):
        raise ValueError(f"degree must be 0 or 1, got {d}")
    if q < 1:
        raise ValueError(f"exponent q must be >= 1, got {q}")


def twist_nodes(centers: Array, rs: Array, u: Array, out: Array) -> Array:
    """Write x * delta_r(u) for every (center, radius, template node) into
    out, coordinate-major, shape (2n+1, k, R, m).

    Uses x * delta_r(u) = (x_z + r u_z, x_t + r^2 u_t + r W) with the twist
    W = (1/2) sum_j (x_j u_{n+j} - x_{n+j} u_j), which does not depend on r
    and so costs one (k x m) product per call.
    """
    n = (u.shape[-1] - 1) // 2
    xz, uz = centers[:, :-1], u[:, :-1]
    for j in range(2 * n):
        np.add(xz[:, j, None, None], rs[:, None] * uz[:, j], out=out[j])
    w = 0.5 * (xz @ np.concatenate([uz[:, n:], -uz[:, :n]], axis=1).T)
    np.add(centers[:, -1, None, None], (rs * rs)[:, None] * u[:, -1], out=out[-1])
    out[-1] += rs[:, None] * w[:, None, :]
    return out


def _blocks(count: int, step: int):
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _run_tiles(tile, tiles, workers: int) -> None:
    """tile(ks, rsl) for every tile, on the calling thread and up to
    workers - 1 helper threads.

    The threads claim tiles in order from one shared iterator (its next()
    is one C call, atomic under the interpreter lock); a helper runs in a
    copy of the caller's context, which carries numpy's errstate.
    Once a tile fails no thread claims another, and the failure of the
    first failing tile in serial order is raised: every tile before it had
    been claimed, so it ran to its end.
    """
    claims = enumerate(tiles)
    stop = threading.Event()
    failures = {}

    def drain():
        for i, (ks, rsl) in claims:
            if stop.is_set():
                return
            try:
                tile(ks, rsl)
            except BaseException as exc:
                failures[i] = exc
                stop.set()
                return

    helpers = [
        threading.Thread(target=contextvars.copy_context().run, args=(drain,))
        for _ in range(min(workers, len(tiles)) - 1)
    ]
    for helper in helpers:
        helper.start()
    try:
        drain()
    finally:
        stop.set()
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]


def scale_sweep(
    f, centers: Array, rs, d: int, q: float, template, center_vals=None,
    want_se: bool = True, workers: int = 1,
):
    """Per-(center, radius) ball statistics from one template pass.

    Returns a dict with arrays of shape (k, R): "beta" and "beta_se" for the
    fitted residual, "mean" for the ball average of f, "amax" for the largest
    |f| seen on the ball (the scale of unavoidable roundoff in the residual),
    and, when center_vals (f evaluated at the centers) is given,
    "cdiff"/"cdiff_se" for the centered difference average of |f(x * y) -
    f(x)| over B(x, r).  want_se=False skips the error estimates (norm paths
    evaluate thousands of balls and only need values).

    Centers and radii are taken in tiles of at most _NODE_BUDGET nodes (at
    least one ball), so callers pass every center at once.  The tiles run
    on up to workers threads (f.eval must be thread-safe); the tiles do not
    depend on workers, so neither do the result bits.
    """
    ev = getattr(f, "eval", f)
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    k, m = len(centers), len(template.nodes)
    nr = len(rs)
    out = {
        "beta": np.empty((k, nr)),
        "beta_se": np.zeros((k, nr)),
        "mean": np.empty((k, nr)),
        "amax": np.empty((k, nr)),
    }
    if center_vals is not None:
        center_vals = np.asarray(center_vals, dtype=float).reshape(k)
        out["cdiff"] = np.empty((k, nr))
        out["cdiff_se"] = np.zeros((k, nr))
    u = template.nodes
    dim = u.shape[-1]
    uz_t = u[:, :-1].T
    rstep = max(1, min(nr, _NODE_BUDGET // m))
    kstep = max(1, min(k, _NODE_BUDGET // (rstep * m)))
    scratch = threading.local()  # node and model buffers, one set per thread

    def tile(ks, rsl):
        if not hasattr(scratch, "nodes"):
            scratch.nodes = np.empty(dim * kstep * rstep * m)
            scratch.model = np.empty(kstep * rstep * m) if d == 1 else None
        cblock, rblock = centers[ks], rs[rsl]
        shape = (dim, len(cblock), len(rblock), m)
        nodes = twist_nodes(
            cblock, rblock, u, scratch.nodes[: math.prod(shape)].reshape(shape)
        )
        vals = np.asarray(ev(np.moveaxis(nodes, 0, -1)), dtype=float)  # (k, R, m)
        amax = np.maximum(vals.max(axis=-1), -vals.min(axis=-1))
        if not np.all(np.isfinite(amax)):
            i, j, l = np.argwhere(~np.isfinite(vals))[0]
            node = group_mul(cblock[i], dilate(rblock[j], u[l]))
            raise FloatingPointError(f"non-finite ball integrand at node {node!r}")
        out["amax"][ks, rsl] = amax
        if center_vals is not None:
            dgv = np.abs(vals - center_vals[ks, None, None])
            out["cdiff"][ks, rsl] = dgv.mean(axis=-1)
            if want_se:
                out["cdiff_se"][ks, rsl] = mean_stderr(dgv, template)
            del dgv
        # with r = 1 the returned slopes absorb the radius, so the fitted
        # model at the template nodes is b + a . u for every radius at once
        b, a = fit_from_values(vals, template, 1.0, d)
        # the residual overwrites the field values when they are ours
        res = vals if vals.flags.owndata and vals.flags.writeable else np.empty_like(vals)
        np.subtract(vals, b[..., None], out=res)
        if d == 1:
            res -= np.matmul(a, uz_t, out=scratch.model[: res.size].reshape(res.shape))
        # |res|^q in place; for q = 2 squaring skips abs with the same bits
        if q == 2.0:
            np.multiply(res, res, out=res)
        else:
            np.abs(res, out=res)
            if q != 1.0:
                np.power(res, q, out=res)
        s = res.mean(axis=-1)
        out["beta"][ks, rsl] = s if q == 1.0 else s ** (1.0 / q)
        out["mean"][ks, rsl] = b
        if want_se:
            se_s = mean_stderr(res, template)
            if q == 1.0:
                se = se_s
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    se = np.where(
                        s > 0, se_s * s ** (1.0 / q - 1.0) / q, se_s ** (1.0 / q)
                    )
            out["beta_se"][ks, rsl] = se

    tiles = list(itertools.product(_blocks(k, kstep), _blocks(nr, rstep)))
    _run_tiles(tile, tiles, workers)
    return out


def _sweep_with_grid_error(f, centers, rs, d, q, spec: QuadSpec, n: int, center_vals=None):
    """scale_sweep plus honest stderr: orbit stderr for Monte Carlo,
    half-resolution comparison for grid mode."""
    tpl = ball_template(n, spec)
    mc = spec.mode == "montecarlo"
    out = scale_sweep(f, centers, rs, d, q, tpl, center_vals=center_vals, want_se=mc)
    if spec.mode == "grid":
        coarse = scale_sweep(
            f, centers, rs, d, q, tpl.coarse, center_vals=center_vals, want_se=False
        )
        out["beta_se"] = np.abs(out["beta"] - coarse["beta"])
        if center_vals is not None:
            out["cdiff_se"] = np.abs(out["cdiff"] - coarse["cdiff"])
    return out


def beta_number(
    f, x, r: float, d: int, q: float, spec: QuadSpec
) -> tuple[float, float]:
    """(beta_{f,d,q}(B(x,r)), stderr)."""
    _check_dq(d, q)
    if r <= 0:
        raise ValueError(f"ball radius must be positive, got {r}")
    x = np.asarray(x, dtype=float)
    n = (x.shape[-1] - 1) // 2
    out = _sweep_with_grid_error(f, x[None], [r], d, q, spec, n)
    return float(out["beta"][0, 0]), float(out["beta_se"][0, 0])


def beta_profile(
    f, x, d: int, q: float, grid: ScaleGrid, spec: QuadSpec
) -> BetaProfile:
    """beta_number at every node of the scale grid."""
    _check_dq(d, q)
    x = np.asarray(x, dtype=float)
    n = (x.shape[-1] - 1) // 2
    out = _sweep_with_grid_error(f, x[None], grid.nodes(), d, q, spec, n)
    return BetaProfile(
        x=x, d=d, q=q, grid=grid, values=out["beta"][0], stderrs=out["beta_se"][0]
    )


def check_monotonicity(f, inner, outer, q: float = 1.0, spec: QuadSpec = QuadSpec()):
    """beta ratio of a contained ball pair: beta(inner) / beta(outer), d = 1.

    Requires B(x1, r1) inside B(x2, r2).  When both betas vanish (affine f)
    the ratio is defined as 0; an inner beta over a vanishing outer beta
    returns inf.
    """
    (x1, r1), (x2, r2) = inner, outer
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if r1 <= 0 or r2 <= 0:
        raise ValueError("ball radii must be positive")
    if float(distance(x1, x2)) + r1 > r2 * (1.0 + 1e-9):
        raise ValueError(
            f"containment violated: distance {float(distance(x1, x2)):.6g} + "
            f"r1 {r1:.6g} exceeds r2 {r2:.6g}"
        )
    tpl = ball_template((x1.shape[-1] - 1) // 2, spec)
    # each ball is swept on its own; the ratio needs no error estimates
    inner_out = scale_sweep(f, x1[None], [r1], 1, q, tpl, want_se=False)
    outer_out = scale_sweep(f, x2[None], [r2], 1, q, tpl, want_se=False)
    b1, b2 = float(inner_out["beta"][0, 0]), float(outer_out["beta"][0, 0])
    eps = 1e-12 * (1.0 + float(outer_out["amax"][0, 0]))
    if b2 <= eps:
        return 0.0 if b1 <= eps else np.inf
    return b1 / b2
