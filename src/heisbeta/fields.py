"""Scalar test fields on H^n with analytic horizontal gradients.

Each field evaluates on point arrays of shape (..., 2n+1) and returns an
array of shape (...).  Support metadata, when present, certifies
|f(x)| <= decay_bound(N(x)) whenever N(x) >= support_radius, and likewise
|grad_H f(x)| <= grad_decay_bound(N(x)); truncation accounting downstream
relies on those certificates and reports infinite bounds without them.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .hgroup import _check_dilation, dilate

Array = np.ndarray


@dataclass(frozen=True)
class ScalarField:
    label: str
    n: int
    eval: Callable[[Array], Array]
    analytic_hgrad: Callable[[Array], Array] | None = None
    support_radius: float | None = None
    decay_bound: Callable[[Array], Array] | None = None
    grad_decay_bound: Callable[[Array], Array] | None = None


def _zsq(p):
    # |z|^2 with no squared temporary, an array even for one point; p may be strided
    z = p[..., :-1]
    return np.asarray(np.einsum("...i,...i->...", z, z))


# exp(-g) is +0.0 for every g past this (the last non-zero double is at
# g = 745.1332); numpy's exp takes a slow path there, 6-23 ns a lane
# against about 1 ns in range, so _gauss writes those zeros itself
_EXP_ZERO = 746.0


def _gauss(p):
    # exp(-|z|^2 - t^2) in place: -a - b equals -(a + b) exactly
    p = np.asarray(p, dtype=float)
    g = _zsq(p)
    g += p[..., -1] ** 2
    keep = g <= _EXP_ZERO
    np.negative(g, out=g)
    if keep.all():  # no lane past the cut: the masked call would cost more
        return np.exp(g, out=g)
    # a lane left out holds -g < -746 (now 0) or NaN (kept by maximum)
    np.exp(g, out=g, where=keep)
    return np.maximum(g, 0.0, out=g)


def _gauss_envelope(r):
    # sharp lower bound for |z|^2 + t^2 on the gauge sphere N = r:
    # the minimum sits at z = 0 (r^4/16) until r > 4, then at t = 0 (r^2)
    r = np.asarray(r, dtype=float)
    return np.exp(-np.minimum(r**4 / 16.0, r**2))


def _gaussian(n: int) -> ScalarField:
    def grad(p):
        p = np.asarray(p, dtype=float)
        g = _gauss(p)[..., None]
        x, y, t = p[..., :n], p[..., n:-1], p[..., -1:]
        return np.concatenate([-2.0 * x + y * t, -2.0 * y - x * t], axis=-1) * g

    def gbound(r):
        r = np.asarray(r, dtype=float)
        # per component |X_j f| <= (2|z| + |z||t|) e^(-|z|^2-t^2), with
        # |z| <= r and |t| <= r^2/4 on the gauge ball boundary
        return np.sqrt(2.0 * n) * r * (2.0 + r**2 / 4.0) * _gauss_envelope(r)

    return ScalarField(
        label="gaussian",
        n=n,
        eval=_gauss,
        analytic_hgrad=grad,
        support_radius=1.0,
        decay_bound=_gauss_envelope,
        grad_decay_bound=gbound,
    )


def _bump(n: int) -> ScalarField:
    # exp(-1/(1 - N^2)) inside the unit gauge ball, 0 outside; continuous
    # everywhere, smooth away from the gauge cone at the origin
    def _nsq(p):
        # N^2 = sqrt(|z|^4 + 16 t^2), formed in the |z|^2 buffer
        u, t16 = _zsq(p), p[..., -1] ** 2
        t16 *= 16.0
        u *= u
        u += t16
        return np.sqrt(u, out=u)

    def ev(p):
        # exp(-1/(1 - u)) in u's buffer, then 0 wherever u < 1 fails
        u = _nsq(np.asarray(p, dtype=float))
        outside = ~(u < 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            np.exp(np.divide(-1.0, np.subtract(1.0, u, out=u), out=u), out=u)
        np.copyto(u, 0.0, where=outside)
        return u

    def grad(p):
        p = np.asarray(p, dtype=float)
        zsq, u = _zsq(p), _nsq(p)
        x, y, t = p[..., :n], p[..., n:-1], p[..., -1:]
        inside = (u > 0.0) & (u < 1.0)
        safe_u = np.where(inside, u, 1.0)
        w = np.where(inside, 1.0 - u, 1.0)
        scale = np.where(inside, -np.exp(-1.0 / w) / (w * w) / safe_u, 0.0)[..., None]
        zsq = zsq[..., None]
        du = np.concatenate(
            [2.0 * zsq * x - 8.0 * y * t, 2.0 * zsq * y + 8.0 * x * t], axis=-1
        )
        return scale * du

    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return ScalarField(
        label="bump",
        n=n,
        eval=ev,
        analytic_hgrad=grad,
        support_radius=1.0,
        decay_bound=zero,
        grad_decay_bound=zero,
    )


def _integer(value, what: str) -> int:
    if not float(value).is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _affine(n: int, a=None, b: float = 1.0) -> ScalarField:
    a = np.ones(2 * n) if a is None else np.asarray(a, dtype=float)
    if a.shape != (2 * n,):
        raise ValueError(f"affine coefficient vector must have length {2 * n}")
    b = float(b)
    if not (np.all(np.isfinite(a)) and np.isfinite(b)):
        raise ValueError(f"affine a and b must be finite, got a={a.tolist()}, b={b}")

    def ev(p):
        p = np.asarray(p, dtype=float)
        return b + p[..., :-1] @ a

    def grad(p):
        p = np.asarray(p, dtype=float)
        return np.broadcast_to(a, p.shape[:-1] + (2 * n,)).copy()

    return ScalarField(label="affine", n=n, eval=ev, analytic_hgrad=grad)


def _vertical_wave(n: int, omega: float = 1.0) -> ScalarField:
    omega = float(omega)
    if not np.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega!r}")

    def ev(p):
        p = np.asarray(p, dtype=float)
        g, s = _gauss(p), np.empty(p.shape[:-1])
        with np.errstate(over="ignore", invalid="ignore"):  # the sweep reports inf and nan
            g *= np.sin(np.multiply(omega, p[..., -1], out=s), out=s)
        return g

    def grad(p):
        p = np.asarray(p, dtype=float)
        g = _gauss(p)
        x, y, t = p[..., :n], p[..., n:-1], p[..., -1:]
        s = np.sin(omega * t)
        c = np.cos(omega * t)
        common = t * s - 0.5 * omega * c
        return np.concatenate(
            [-2.0 * x * s + y * common, -2.0 * y * s - x * common], axis=-1
        ) * g[..., None]

    def gbound(r):
        r = np.asarray(r, dtype=float)
        return (
            np.sqrt(2.0 * n)
            * r
            * (2.0 + r**2 / 4.0 + omega / 2.0)
            * _gauss_envelope(r)
        )

    return ScalarField(
        label=f"vertical-wave(omega={omega:g})",
        n=n,
        eval=ev,
        analytic_hgrad=grad,
        support_radius=1.0,
        decay_bound=_gauss_envelope,
        grad_decay_bound=gbound,
    )


def _coordinate(n: int, axis=1) -> ScalarField:
    if axis == "t":
        def ev(p):
            p = np.asarray(p, dtype=float)
            return p[..., -1].copy()

        def grad(p):
            # X_j t = -y_j/2, X_{n+j} t = x_j/2
            p = np.asarray(p, dtype=float)
            return 0.5 * np.concatenate([-p[..., n:-1], p[..., :n]], axis=-1)

        return ScalarField(label="coordinate(t)", n=n, eval=ev, analytic_hgrad=grad)
    j = _integer(axis, "coordinate axis")
    if not 1 <= j <= 2 * n:
        raise ValueError(f"coordinate axis must be 't' or an index in 1..{2 * n}")
    e = np.zeros(2 * n)
    e[j - 1] = 1.0

    def ev(p):
        p = np.asarray(p, dtype=float)
        return p[..., j - 1].copy()

    def grad(p):
        p = np.asarray(p, dtype=float)
        return np.broadcast_to(e, p.shape[:-1] + (2 * n,)).copy()

    return ScalarField(label=f"coordinate(z{j})", n=n, eval=ev, analytic_hgrad=grad)


def _quadratic(n: int, j: int = 1, k: int = 1) -> ScalarField:
    j, k = _integer(j, "quadratic index j"), _integer(k, "quadratic index k")
    if not (1 <= j <= 2 * n and 1 <= k <= 2 * n):
        raise ValueError(f"quadratic indices must lie in 1..{2 * n}")

    def ev(p):
        p = np.asarray(p, dtype=float)
        return p[..., j - 1] * p[..., k - 1]

    def grad(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape[:-1] + (2 * n,))
        out[..., j - 1] += p[..., k - 1]
        out[..., k - 1] += p[..., j - 1]
        return out

    return ScalarField(label=f"quadratic(z{j}*z{k})", n=n, eval=ev, analytic_hgrad=grad)


_BUILDERS = {
    "gaussian": _gaussian,
    "bump": _bump,
    "affine": _affine,
    "vertical-wave": _vertical_wave,
    "coordinate": _coordinate,
    "quadratic": _quadratic,
}


def catalog(name: str, n: int = 1, **params) -> ScalarField:
    """Build a named test field on H^n.

    Names: gaussian, bump, affine (params a, b), vertical-wave (param omega),
    coordinate (param axis: 't' or 1..2n), quadratic (params j, k).  The
    params and their defaults are the builder's keyword parameters.
    """
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown field {name!r}; choose from {sorted(_BUILDERS)}"
        )
    builder = _BUILDERS[name]
    extra = set(params) - set(inspect.signature(builder).parameters)
    if extra:
        raise ValueError(f"unexpected parameters for {name!r}: {sorted(extra)}")
    return builder(n, **params)


def precompose_dilation(f: ScalarField, s: float) -> ScalarField:
    """Return f_s = f o delta_s; gradients pick up one factor of s."""
    s = float(s)
    _check_dilation(s)
    if s == 1.0:
        return f
    ev = f.eval
    new = {"label": f"{f.label}@s{s:g}", "eval": lambda p: ev(dilate(s, p))}
    if f.analytic_hgrad is not None:
        g = f.analytic_hgrad
        new["analytic_hgrad"] = lambda p: s * g(dilate(s, p))
    if f.support_radius is not None:
        # N(delta_s x) = s N(x): the support and both certificates rescale
        new["support_radius"] = f.support_radius / s
        if f.decay_bound is not None:
            db = f.decay_bound
            new["decay_bound"] = lambda r: db(s * np.asarray(r, float))
        if f.grad_decay_bound is not None:
            gb = f.grad_decay_bound
            new["grad_decay_bound"] = lambda r: s * gb(s * np.asarray(r, float))
    return replace(f, **new)
