"""Exact references for the gaussian f = exp(-|z|^2 - t^2) on H^n at p = 2.

Everything here rests on the autocorrelation C(g) = int f(y) f(y * g) dy,
which for g = (w, tau) is

    C = sqrt(pi/2) (pi/2)^n (1 + |w|^2/16)^(-1/2) exp(-|w|^2/2 - 8 tau^2 / (16 + |w|^2))

(the t integral is a gaussian one, and after z = v - w/2 the twist leaves
one gaussian in the direction of J w).  Lebesgue measure is the Haar
measure of H^n and is right invariant too, so substituting y = x * g
turns integrals over centers x into means of C over node pairs:

* Dorronsoro, q = 2 on a sign-symmetric template: the moment fit is the
  L^2 projection, so beta_{f,1,2}(B(x, r))^2 = mean f^2 - b^2 -
  sum_j (mean f u_j)^2 / m2_j on the nodes x * delta_r(u_a), and
  int beta^2 dx = C(0) - mean_(a,b) C(delta_r(u_a^-1 u_b))
  (1 + sum_j u_(a,j) u_(b,j) / m2_j), on the template itself: no domain,
  no directions and no truncation.
* Poincare: I(t) = int |f(x * (0, t)) - f(x)|^2 dx = 2 (C(0) - C(0, t))
  = 2 C(0) (1 - exp(-t^2 / 2)), so the harness's lhs^2 on its t-grid,
  sum_k h I(t_k) / t_k, is a closed form.
"""

import math

import numpy as np

from heisbeta.hgroup import dilate, group_mul


def autocorrelation(g, n: int):
    """C(g) for points g of shape (..., 2n+1)."""
    g = np.asarray(g, dtype=float)
    wsq = np.sum(g[..., :-1] ** 2, axis=-1)
    tau = g[..., -1]
    norm_sq = math.sqrt(math.pi / 2.0) * (math.pi / 2.0) ** n
    return norm_sq / np.sqrt(1.0 + wsq / 16.0) * np.exp(-wsq / 2.0 - 8.0 * tau**2 / (16.0 + wsq))


def beta_sq_integral(template, r: float) -> float:
    """int beta_{f,1,2}(B(x, r))^2 dx over all of H^n, on the template's nodes."""
    u = template.nodes
    n = (u.shape[-1] - 1) // 2
    inv = -u  # u^-1 = (-z, -t)
    pairs = dilate(r, group_mul(inv[:, None, :], u[None, :, :]))
    weight = 1.0 + (u[:, None, :-1] * u[None, :, :-1] / template.m2).sum(axis=-1)
    return float(autocorrelation(np.zeros(2 * n + 1), n)
                 - np.mean(autocorrelation(pairs, n) * weight))


def dorronsoro_lhs(template, grid) -> float:
    """(sum_i h r_i^-2 int beta(x, r_i)^2 dx)^(1/2), the harness's p = q = 2
    lhs on the scale grid, with no domain."""
    total = sum(beta_sq_integral(template, r) / r**2 for r in grid.nodes())
    return math.sqrt(grid.log_step * total)


def poincare_lhs(n: int, t_grid) -> float:
    """(sum_k h I(t_k) / t_k)^(1/2) at p = 2 on the t-grid, with no domain."""
    ts = t_grid.nodes()
    norm_sq = math.sqrt(math.pi / 2.0) * (math.pi / 2.0) ** n
    return math.sqrt(t_grid.log_step * np.sum(2.0 * norm_sq * -np.expm1(-ts**2 / 2.0) / ts))
