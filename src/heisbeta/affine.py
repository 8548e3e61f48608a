"""Projection of a field onto degree <= d polynomials in the horizontal
variables, over a gauge ball B(x, r), for d in {0, 1}.

Two routes are kept on purpose.  fit_moment uses the closed-form
coefficients b = mean(f), a_j = mean(f * (y_j - x_j)) / mean((y_j - x_j)^2),
which are the exact projection only because odd and mixed template moments
vanish; fit_normal_equations assembles and solves the Gram system without
assuming any symmetry.  Their agreement is a standing cross-check of the
template's symmetry.  Both evaluate the field through quad.ball_values, the
ball map and input checks of the beta sweep; on B(x, r) the monomials
y_j - x_j are r u_j for template nodes u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hgroup import half_dim
from .quad import QuadSpec, ball_template, ball_values

Array = np.ndarray

_DEGENERATE_M2 = 1e-12


@dataclass(frozen=True, eq=False)
class AffineMap:
    """y -> b + sum_j a_j (y_j - x_j); ignores the t-coordinate of y."""

    degree: int
    base: Array
    b: float
    a: Array

    def __post_init__(self) -> None:
        if self.degree not in (0, 1):
            raise ValueError(f"degree must be 0 or 1, got {self.degree}")
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        if self.a.shape != (self.base.shape[-1] - 1,):
            raise ValueError(
                f"coefficient vector must have length {self.base.shape[-1] - 1}"
            )
        if self.degree == 0 and np.any(self.a != 0.0):
            raise ValueError("degree-0 maps must have zero slope")

    def eval(self, y) -> Array:
        y = np.asarray(y, dtype=float)
        return self.b + (y[..., :-1] - self.base[:-1]) @ self.a


def fit_from_values(vals: Array, template, r: float, d: int, b=None):
    """Moment-formula coefficients from integrand values on template nodes.

    vals has shape (..., m) aligned with template.nodes; returns (b, a) with
    shapes (...) and (..., 2n).  Shared by fit_moment and the beta machinery
    so a ball is never evaluated twice; a caller that has already formed
    b = vals.mean(axis=-1) passes it.
    """
    if d not in (0, 1):
        raise ValueError(f"degree must be 0 or 1, got {d}")
    b = vals.mean(axis=-1) if b is None else b
    if d == 0:
        return b, np.zeros(np.shape(b) + (template.m2.shape[0],))
    if np.any(template.m2 < _DEGENERATE_M2):
        raise FloatingPointError(
            "degenerate template second moment; quadrature cannot resolve slopes"
        )
    u = template.nodes[:, :-1]
    num = vals @ u / vals.shape[-1]
    return b, num / (r * template.m2)


def fit_moment(f, x, r: float, d: int, spec: QuadSpec) -> AffineMap:
    """Closed-form projection coefficients over B(x, r)."""
    x = np.asarray(x, dtype=float)
    tpl = ball_template(half_dim(x), spec)
    vals = ball_values(f, x, r, tpl)[0, 0]
    b, a = fit_from_values(vals, tpl, r, d)
    return AffineMap(degree=d, base=x, b=float(b), a=a)


def fit_normal_equations(f, x, r: float, d: int, spec: QuadSpec) -> AffineMap:
    """Projection via the Gram system of {1, y_1-x_1, ..., y_2n-x_2n}."""
    if d not in (0, 1):
        raise ValueError(f"degree must be 0 or 1, got {d}")
    x = np.asarray(x, dtype=float)
    n = half_dim(x)
    tpl = ball_template(n, spec)
    vals = ball_values(f, x, r, tpl)[0, 0]
    if d == 0:
        return AffineMap(degree=0, base=x, b=float(vals.mean()), a=np.zeros(2 * n))
    m = len(tpl.nodes)
    basis = np.concatenate([np.ones((m, 1)), r * tpl.nodes[:, :-1]], axis=1)
    gram = basis.T @ basis / m
    rhs = basis.T @ vals / m
    coef = np.linalg.solve(gram, rhs)
    return AffineMap(degree=1, base=x, b=float(coef[0]), a=coef[1:])


def residual_orthogonality(f, A: AffineMap, x, r: float, spec: QuadSpec) -> Array:
    """Inner products of f - A with the monomial basis over B(x, r).

    Returns the vector (mean(res), mean(res * (y_1 - x_1)), ...); all entries
    are near zero when A is the projection of f on B(x, r).
    """
    x = np.asarray(x, dtype=float)
    tpl = ball_template(half_dim(x), spec)
    res = ball_values(f, x, r, tpl)[0, 0] - A.eval(x + r * tpl.nodes)
    monos = r * tpl.nodes[:, :-1]
    return np.concatenate([[res.mean()], res @ monos / len(res)])
