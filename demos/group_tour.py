"""A short tour of Heisenberg group arithmetic.

Walks through the group law, the vertical twist that makes the group
noncommutative, anisotropic dilations, the gauge quasi-norm, gauge ball
volumes and ball averages.  Everything prints; nothing here needs more
than a second.
"""

import numpy as np

from heisbeta.hgroup import (
    dilate,
    distance,
    gauge,
    group_mul,
    inverse,
    origin,
)
from heisbeta.beta import scale_sweep
from heisbeta.fields import catalog
from heisbeta.quad import QuadSpec, ball_template, ball_volume


def main():
    rng = np.random.default_rng(7)

    # ------------------------------------------------------------------
    # The group law on H^1: points are (x, y, t), multiplication adds the
    # planar parts and twists the vertical coordinate by the symplectic
    # area (x y' - y x') / 2.
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    print("a * b =", group_mul(a, b))
    print("b * a =", group_mul(b, a))
    print("the two products differ only in the vertical coordinate\n")

    # The inverse is plain negation, and a * a^-1 returns to the origin.
    p = rng.normal(size=3)
    print("p           =", p)
    print("p * p^-1    =", group_mul(p, inverse(p)))
    print("origin      =", origin(1), "\n")

    # ------------------------------------------------------------------
    # Dilations scale the plane linearly and the vertical coordinate
    # quadratically, and they respect the group law.
    s = 3.0
    q = rng.normal(size=3)
    lhs = dilate(s, group_mul(p, q))
    rhs = group_mul(dilate(s, p), dilate(s, q))
    print(f"dilation homomorphism gap: {np.max(np.abs(lhs - rhs)):.2e}")

    # The gauge N(z, t) = (|z|^4 + 16 t^2)^(1/4) is homogeneous of
    # degree one under dilations.
    print(f"N(p) = {gauge(p):.6f}   N(delta_s p) / s = {gauge(dilate(s, p)) / s:.6f}")
    print(f"purely vertical: N((0, 0, 4)) = {gauge([0.0, 0.0, 4.0])} (= 2 sqrt 4)\n")

    # The gauge distance is left invariant: multiplying both points on
    # the left by any group element preserves it.
    g = rng.normal(size=3)
    d0 = distance(p, q)
    d1 = distance(group_mul(g, p), group_mul(g, q))
    print(f"d(p, q) = {d0:.6f}   d(g p, g q) = {d1:.6f}")

    # ------------------------------------------------------------------
    # Gauge balls scale with the homogeneous dimension Q = 2n + 2, not
    # the topological dimension: in H^1 doubling the radius multiplies
    # the volume by 2^4 = 16.
    print(f"\n|B(0, 1)| = {ball_volume(1.0):.6f}")
    print(f"|B(0, 2)| = {ball_volume(2.0):.6f}   ratio = {ball_volume(2.0) / ball_volume(1.0):.1f}")

    # scale_sweep evaluates a function on gauge balls through one shared
    # template.  Its "mean" is the ball average, exact for the constant
    # function.  With centre value 0 its centred difference "cdiff" is the
    # average of |f|, which for a nonnegative f is the ball average again,
    # and "cdiff_se" is that average's standard error.
    tpl = ball_template(1, QuadSpec())
    one = scale_sweep(lambda x: np.ones(x.shape[:-1]), origin(1), [1.0], 0, 1.0, tpl)
    print(f"mean of 1 over B(0, 1) = {one['mean'][0, 0]}")
    out = scale_sweep(catalog("gaussian"), origin(1), [1.0], 0, 1.0, tpl,
                      center_vals=[0.0])
    print(f"mean of exp(-|z|^2 - t^2) over B(0, 1) = "
          f"{out['cdiff'][0, 0]:.6f} +/- {out['cdiff_se'][0, 0]:.1e}")

if __name__ == "__main__":
    main()
