"""A quick pass over the inequality harness.

Runs the exponent gate, the exact-identity suite, and the two headline
ratio checks (Dorronsoro and vertical Poincare) at a small deterministic
grid budget.  The preview budget keeps this under half a minute; the
certified numbers in the test suite use the default Monte Carlo budget
and, for the Dorronsoro check, a wider domain.  Every check reads its
exponents p and q from the HarnessConfig it is given.
"""

from dataclasses import replace

from heisbeta.fields import catalog
from heisbeta.quad import QuadSpec
from heisbeta.verify import (
    HarnessConfig,
    dorronsoro_ratio,
    gate_exponents,
    poincare_ratio,
    run_identity_suite,
)

PREVIEW = HarnessConfig(
    spec=QuadSpec(mode="grid", grid_per_axis=12),
    r_min=1e-3,
    r_max=1e2,
    per_decade=8,
    norm_dirs=16,
    norm_per_decade=6,
    box_radius=3.0,
)


def main():
    # ------------------------------------------------------------------
    # The exponent gate: which (p, q) pairs admit the comparison on H^n.
    print("exponent gate (Q = 2n + 2):")
    for p, q, n in [(2.0, 2.0, 1), (2.0, 4.0, 1), (1.5, 2.0, 1), (3.0, 2.0, 2)]:
        gate = gate_exponents(p, q, n)
        verdict = "admissible" if gate.admissible else "rejected"
        print(f"  p = {p:3.1f}  q = {q:3.1f}  n = {n}  ->  {verdict}")
    print()

    # ------------------------------------------------------------------
    # Exact identities under common random numbers: fit fixed points,
    # beta dilation covariance, square-function equivariance.  On a
    # deterministic grid every ratio is 1 to machine precision.
    print("identity suite (expect every ratio = 1):")
    for rep in run_identity_suite(PREVIEW):
        flag = "ok" if rep.params["pass"] else "FAIL"
        print(f"  {rep.name:32s} ratio = {rep.ratio:.12f}  [{flag}]")
    print()

    # ------------------------------------------------------------------
    # The Dorronsoro comparison: the L^p norm of the scale-integrated
    # flatness function against the horizontal Sobolev seminorm.  The
    # truncation pair bounds what the finite domain and scale window can
    # hide; at this preview budget the domain tail is the honest cost.
    rep = dorronsoro_ratio(catalog("gaussian"), replace(PREVIEW, q=2.0))
    print(f"dorronsoro gaussian (p = q = 2): ratio = {rep.ratio:.4f} "
          f"(lhs {rep.lhs:.4f}, rhs {rep.rhs:.4f})")
    print(f"  truncation bounds: lhs {rep.truncation[0]:.3f}, "
          f"rhs {rep.truncation[1]:.1e}")
    print()

    # ------------------------------------------------------------------
    # The vertical Poincare comparison for a family of vertical waves:
    # higher frequency means more vertical oscillation per unit of
    # horizontal gradient, and the ratio stays of order one.
    print("vertical Poincare ratios (p = 2):")
    for omega in (1.0, 4.0, 16.0):
        rep = poincare_ratio(catalog("vertical-wave", omega=omega), PREVIEW)
        print(f"  omega = {omega:4.1f}  ratio = {rep.ratio:.4f}")
    z_only = poincare_ratio(catalog("coordinate", axis=1), PREVIEW)
    print(f"  z-only field: lhs = {z_only.lhs} (central shifts leave it fixed)")


if __name__ == "__main__":
    main()
