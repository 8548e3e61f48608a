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
import os
import threading
from dataclasses import dataclass

import numpy as np

from .affine import fit_from_values
from .hgroup import distance, half_dim
from .quad import (QuadSpec, ScaleGrid, _balls, _check_finite, _twist, ball_template,
                   mean_stderr, radius_products, twist_nodes)

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


def _blocks(count: int, step: int):
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _run_tiles(tile, tiles, workers: int) -> None:
    """tile(ks, rsl) for every tile, on the calling thread and up to
    min(workers, usable CPUs) - 1 helper threads (each holds its own scratch).

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

    affinity = getattr(os, "sched_getaffinity", None)  # absent off Linux
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    started = []
    try:  # a helper that fails to start stops those that did
        for _ in range(min(workers, len(tiles), cpus) - 1):
            helper = threading.Thread(target=contextvars.copy_context().run,
                                      args=(drain,))
            helper.start()
            started.append(helper)
        drain()
    finally:
        stop.set()
        for helper in started:
            helper.join()
    if failures:
        raise failures[min(failures)]


def scale_sweep(
    f, centers: Array, rs, d: int, q: float, template, center_vals=None,
    want_se: bool = True, workers: int = 1, amax: bool = True,
):
    """Per-(center, radius) ball statistics from one template pass.

    Returns a dict with arrays of shape (k, R): "beta" and "beta_se" for the
    fitted residual, "mean" for the ball average of f, "amax" for the largest
    |f| seen on the ball (the scale of unavoidable roundoff in the residual),
    and, when center_vals (f evaluated at the centers) is given,
    "cdiff"/"cdiff_se" for the centered difference average of |f(x * y) -
    f(x)| over B(x, r).  The error estimates follow the template: orbit
    standard errors (Monte Carlo) or |fine - twin| from a second pass over
    the half-resolution twin (grid).  want_se=False skips them (norm paths
    evaluate thousands of balls and only need values), and amax=False skips
    "amax" (two more reductions over every value) for callers that set no
    roundoff floor.

    The radii rs are shared by every center, shape (R,), or form a ball
    list, one row per center, shape (k, R): with R = 1 that is the k balls
    B(centers[i], rs[i, 0]), whatever their radii.

    Centers and radii are taken in tiles of at most _NODE_BUDGET nodes (at
    least one ball), so callers pass every ball at once.  The tiles run
    on up to workers threads (f.eval must be thread-safe); the tiles do not
    depend on workers, so neither do the result bits.  A thread keeps its
    node buffer and the twist W of its center block; a tile allocates only
    r W, what f.eval does (the residual overwrites its result), (k, R) and
    (k, R, 2n) statistics and, for want_se, (k, R, units) orbit means.
    When one tile holds every radius of its centers and the centers span
    several tiles, the products r u_j and r^2 u_t (quad.radius_products,
    (2n+1) R m floats) are formed once per sweep and every tile reads them.

    A degree other than 0 or 1, q < 1 or a radius that is not finite and
    positive raises a one-line ValueError; a non-finite value of f raises a
    FloatingPointError naming the first such node, before any other work
    on its tile.
    """
    if d not in (0, 1):
        raise ValueError(f"degree must be 0 or 1, got {d}")
    if not 1 <= q < math.inf:
        raise ValueError(f"exponent q must be finite and >= 1, got {q}")
    centers, rs = _balls(centers, rs, template)
    out = _sweep_tiles(f, centers, rs, d, q, template, center_vals, want_se, workers,
                       amax)
    if want_se and template.coarse is not None:
        # the twin pass starts once the fine pass has freed its tile buffers
        coarse = _sweep_tiles(f, centers, rs, d, q, template.coarse, center_vals,
                              False, workers, False)
        for key in {"beta", "cdiff"} & coarse.keys():
            out[key + "_se"] = np.abs(out[key] - coarse[key])
    return out


def _sweep_tiles(f, centers, rs, d, q, template, center_vals, want_se, workers, amax):
    """One tiled pass of scale_sweep over its checked centers (k, dim) and
    radii (R,) or (k, R); want_se adds orbit standard errors and amax the
    largest |f| of each ball."""
    ev = getattr(f, "eval", f)
    k, nr, m = len(centers), rs.shape[-1], len(template.nodes)
    out = {
        "beta": np.empty((k, nr)),
        "beta_se": np.zeros((k, nr)),
        "mean": np.empty((k, nr)),
    }
    if amax:
        out["amax"] = np.empty((k, nr))
    if center_vals is not None:
        center_vals = np.asarray(center_vals, dtype=float).reshape(k)
        out["cdiff"] = np.empty((k, nr))
        out["cdiff_se"] = np.zeros((k, nr))
    u = template.nodes
    dim = u.shape[-1]
    uz_t = u[:, :-1].T
    rstep = max(1, min(nr, _NODE_BUDGET // m))
    kstep = max(1, min(k, _NODE_BUDGET // (rstep * m)))
    # every center block of a sweep over shared radii in one radius block
    # would form the same products r u_j and r^2 u_t
    ru = radius_products(rs, u) if rs.ndim == 1 and rstep == nr and kstep < k else None
    scratch = threading.local()  # node buffer and twist, one of each per thread

    def tile(ks, rsl):
        if not hasattr(scratch, "nodes"):
            scratch.nodes = np.empty(dim * kstep * rstep * m)
        cblock, rblock = centers[ks], (rs[ks, rsl] if rs.ndim == 2 else rs[rsl])
        if getattr(scratch, "ks", None) != ks:  # tiles come in (center, radius) order
            scratch.w = None  # drop the old twist before forming the new one
            scratch.w, scratch.ks = _twist(cblock, u), ks
        shape = (dim, len(cblock), rblock.shape[-1], m)
        nodes = scratch.nodes[: math.prod(shape)].reshape(shape)
        twist_nodes(cblock, rblock, u, nodes, scratch.w, ru)
        pts = np.moveaxis(nodes, 0, -1)
        vals = np.asarray(ev(pts), dtype=float)  # (k, R, m)
        # the fit's b; a ball holding a non-finite value has a non-finite
        # mean, so b is also the finiteness check (inf - inf is left to it)
        with np.errstate(invalid="ignore"):
            b = vals.mean(axis=-1)
        if not np.all(np.isfinite(b)):
            _check_finite(vals, pts, "ball integrand")
        # the spent first node row holds |f - f(x)| and the model (not over a view)
        spare = np.empty(shape[1:]) if np.may_share_memory(vals, nodes) else nodes[0]
        if amax:
            out["amax"][ks, rsl] = np.maximum(vals.max(axis=-1), -vals.min(axis=-1))
        if center_vals is not None:
            dgv = np.subtract(vals, center_vals[ks, None, None], out=spare)
            np.abs(dgv, out=dgv)
            out["cdiff"][ks, rsl] = dgv.mean(axis=-1)
            if want_se:
                out["cdiff_se"][ks, rsl] = mean_stderr(dgv, template)
        # with r = 1 the returned slopes absorb the radius, so the fitted
        # model at the template nodes is b + a . u for every radius at once
        b, a = fit_from_values(vals, template, 1.0, d, b)
        # the residual overwrites the field values when they are ours
        res = vals if vals.flags.owndata and vals.flags.writeable else np.empty_like(vals)
        np.subtract(vals, b[..., None], out=res)
        if d == 1:
            res -= np.matmul(a, uz_t, out=spare)
        # |res|^q in place; for q = 2 squaring skips abs with the same bits
        if q == 2.0:
            np.multiply(res, res, out=res)
        else:
            np.abs(res, out=res)
            if q != 1.0:
                np.power(res, q, out=res)
        s = res.mean(axis=-1)
        out["beta"][ks, rsl] = s ** (1.0 / q)
        out["mean"][ks, rsl] = b
        if want_se:
            se_s = mean_stderr(res, template)
            with np.errstate(divide="ignore", invalid="ignore"):
                out["beta_se"][ks, rsl] = np.where(
                    s > 0, se_s * s ** (1.0 / q - 1.0) / q, se_s ** (1.0 / q)
                )

    tiles = list(itertools.product(_blocks(k, kstep), _blocks(nr, rstep)))
    _run_tiles(tile, tiles, workers)
    return out


def beta_number(
    f, x, r: float, d: int, q: float, spec: QuadSpec
) -> tuple[float, float]:
    """(beta_{f,d,q}(B(x,r)), stderr)."""
    x = np.asarray(x, dtype=float)
    out = scale_sweep(f, x[None], [r], d, q, ball_template(half_dim(x), spec),
                      amax=False)
    return float(out["beta"][0, 0]), float(out["beta_se"][0, 0])


def beta_profile(
    f, x, d: int, q: float, grid: ScaleGrid, spec: QuadSpec
) -> BetaProfile:
    """beta_number at every node of the scale grid."""
    x = np.asarray(x, dtype=float)
    tpl = ball_template(half_dim(x), spec)
    out = scale_sweep(f, x[None], grid.nodes(), d, q, tpl, amax=False)
    return BetaProfile(
        x=x, d=d, q=q, grid=grid, values=out["beta"][0], stderrs=out["beta_se"][0]
    )


def _ball_list(x, r, what: str):
    """(centers (k, dim), radii (k,), single) of one ball or of a list of k."""
    x, r = np.asarray(x, dtype=float), np.asarray(r, dtype=float)
    if x.ndim not in (1, 2) or r.shape != x.shape[:-1]:
        raise ValueError(f"{what}: centers {x.shape} do not match radii {r.shape}")
    return np.atleast_2d(x), np.atleast_1d(r), x.ndim == 1


def check_monotonicity(f, inner, outer, q: float = 1.0, spec: QuadSpec = QuadSpec(),
                       workers: int = 1):
    """beta ratio of a contained ball pair: beta(inner) / beta(outer), d = 1.

    Requires B(x1, r1) inside B(x2, r2).  When both betas vanish (affine f)
    the ratio is defined as 0; an inner beta over a vanishing outer beta
    returns inf.  A list of k pairs (x1, x2 of shape (k, dim), r1, r2 of
    shape (k,)) returns the k ratios from one sweep per side on workers
    threads; one pair returns a float.
    """
    (x1, r1), (x2, r2) = inner, outer
    x1, r1, single = _ball_list(x1, r1, "inner balls")
    x2, r2, _ = _ball_list(x2, r2, "outer balls")
    if x1.shape != x2.shape:
        raise ValueError(f"inner balls {x1.shape} do not match outer balls {x2.shape}")
    dist = distance(x1, x2)
    bad = np.flatnonzero(dist + r1 > r2 * (1.0 + 1e-9))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"containment violated{'' if single else f' at index {i}'}: distance "
            f"{dist[i]:.6g} + r1 {r1[i]:.6g} exceeds r2 {r2[i]:.6g}"
        )
    tpl = ball_template(half_dim(x1), spec)
    # the ratio needs no error estimates, and only the outer balls' amax
    inner_out, outer_out = (
        scale_sweep(f, x, r[:, None], 1, q, tpl, want_se=False, workers=workers,
                    amax=outer)
        for x, r, outer in ((x1, r1, False), (x2, r2, True))
    )
    b1, b2 = inner_out["beta"][:, 0], outer_out["beta"][:, 0]
    eps = 1e-12 * (1.0 + outer_out["amax"][:, 0])
    ratio = np.where(b1 <= eps, 0.0, np.inf)
    np.divide(b1, b2, out=ratio, where=b2 > eps)
    return float(ratio[0]) if single else ratio
