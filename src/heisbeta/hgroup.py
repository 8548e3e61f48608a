"""Heisenberg group arithmetic and the Koranyi metric.

A point of H^n is stored as a flat float array (x_1..x_n, y_1..y_n, t):
the 2n horizontal coordinates first, the vertical coordinate last.  Every
operation broadcasts over leading axes, so arrays of shape (..., 2n+1) act
as batches of points.  The dimension n is inferred from the trailing axis.

Conventions (fixed once, used consistently everywhere downstream):
  group law   (z,t)*(z',t') = (z+z', t+t' + (1/2) sum_j (x_j y'_j - y_j x'_j))
  dilation    delta_s(z,t)  = (s z, s^2 t)
  gauge       N(z,t)        = (|z|^4 + 16 t^2)^(1/4)
With these choices the left-invariant horizontal frames are
  X_j     = d/dx_j - (y_j/2) d/dt        for j = 1..n
  X_{n+j} = d/dy_j + (x_j/2) d/dt        for j = 1..n
and X_j at the origin is the j-th standard basis vector.
"""

from __future__ import annotations

import itertools

import numpy as np

Point = np.ndarray


def half_dim(a: np.ndarray) -> int:
    """Infer n from a point array of shape (..., 2n+1)."""
    d = a.shape[-1]
    if d < 3 or d % 2 == 0:
        raise ValueError(f"point arrays need an odd trailing axis >= 3, got {d}")
    return (d - 1) // 2


def origin(n: int) -> Point:
    return np.zeros(2 * n + 1)


def group_mul(a: Point, b: Point) -> Point:
    """Group product a*b, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]} coordinates"
        )
    n = half_dim(a)
    z = a[..., :-1] + b[..., :-1]
    twist = (a[..., :n] * b[..., n:-1]).sum(axis=-1) - (
        a[..., n:-1] * b[..., :n]
    ).sum(axis=-1)
    t = a[..., -1] + b[..., -1] + 0.5 * twist
    return np.concatenate([z, t[..., None]], axis=-1)


def inverse(a: Point) -> Point:
    """Group inverse; under the chosen law it is plain negation."""
    return -np.asarray(a, dtype=float)


def sign_automorphisms(n: int) -> np.ndarray:
    """The 2^(n+1) sign flips sigma(x, y, t) = (S x, eps S y, eps t), with S
    diagonal +-1 and eps = +-1, as coordinate sign rows of shape
    (2^(n+1), 2n+1), the identity first.  Each is a group automorphism that
    keeps the gauge: sigma(a) * sigma(b) = sigma(a * b) and
    N(sigma(a)) = N(a), and p * sigma applies it to points p, bit for bit."""
    return np.array([s + tuple(eps * v for v in s) + (eps,)
                     for eps in (1.0, -1.0)
                     for s in itertools.product((1.0, -1.0), repeat=n)])


def _check_dilation(s) -> None:
    s = np.asarray(s, dtype=float)
    bad = s[~((s > 0) & (s < np.inf))]  # NaN fails both comparisons
    if bad.size:
        raise ValueError(f"dilation factor must be finite and positive, got {bad[0]}")


def dilate(s, a: Point) -> Point:
    """Anisotropic dilation delta_s(z,t) = (s z, s^2 t); s may broadcast."""
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    _check_dilation(s)
    out = np.empty(np.broadcast_shapes(s.shape + (1,), a.shape)[:-1] + a.shape[-1:])
    out[..., :-1] = s[..., None] * a[..., :-1]
    out[..., -1] = s * s * a[..., -1]
    return out


def gauge(a: Point) -> np.ndarray:
    """Koranyi gauge N(z,t) = (|z|^4 + 16 t^2)^(1/4)."""
    a = np.asarray(a, dtype=float)
    half_dim(a)
    zsq = (a[..., :-1] ** 2).sum(axis=-1)
    return (zsq * zsq + 16.0 * a[..., -1] ** 2) ** 0.25


def distance(a: Point, b: Point) -> np.ndarray:
    """Left-invariant distance N(a^-1 * b)."""
    return gauge(group_mul(inverse(a), b))


def horizontal_derivative(f, j: int, x: Point):
    """Derivative of f along the j-th horizontal frame X_j at x.

    j is 1-based and runs over 1..2n (the first n index x-type directions,
    the rest y-type).  If f carries an analytic_hgrad attribute that is used
    directly; otherwise a group-native central difference
    [f(x * (h e_j, 0)) - f(x * (-h e_j, 0))] / (2h) is taken, which converges
    to X_j f(x) with O(h^2) error for smooth f, at the step
    h = 1e-4 * (1 + N(x)).
    """
    x = np.asarray(x, dtype=float)
    n = half_dim(x)
    if not 1 <= j <= 2 * n:
        raise ValueError(f"direction index must lie in 1..{2 * n}, got {j}")
    grad = getattr(f, "analytic_hgrad", None)
    if grad is not None:
        return grad(x)[..., j - 1]
    ev = getattr(f, "eval", f)
    h = np.asarray(1e-4 * (1.0 + gauge(x)), dtype=float)
    step = np.zeros(x.shape[-1])
    step[j - 1] = 1.0
    val = (
        ev(group_mul(x, h[..., None] * step)) - ev(group_mul(x, -h[..., None] * step))
    ) / (2.0 * h)
    if not np.all(np.isfinite(val)):
        raise FloatingPointError(
            f"non-finite horizontal derivative for direction j={j} at x={x!r}"
        )
    return val


def horizontal_gradient(f, x: Point) -> np.ndarray:
    """(X_1 f, ..., X_2n f)(x) on a new last axis: one analytic_hgrad call
    when f carries one, else horizontal_derivative's central differences."""
    x = np.asarray(x, dtype=float)
    js = range(1, 2 * half_dim(x) + 1)
    if getattr(f, "analytic_hgrad", None) is not None:
        return f.analytic_hgrad(x)
    return np.stack([horizontal_derivative(f, j, x) for j in js], axis=-1)
