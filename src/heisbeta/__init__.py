"""Multiscale affine approximation on the Heisenberg group.

Group arithmetic, beta numbers, square functions, and a harness that
measures both sides of the inequalities they satisfy.
"""

from .affine import AffineMap, fit_moment, fit_normal_equations, residual_orthogonality
from .beta import BetaProfile, beta_number, beta_profile, check_monotonicity
from .fields import ScalarField, catalog, precompose_dilation
from .hgroup import (
    dilate,
    distance,
    gauge,
    group_mul,
    horizontal_derivative,
    inverse,
    origin,
)
from .quad import (
    QuadSpec,
    ScaleGrid,
    ball_volume,
    box_volume,
    domain_integrate_lp,
)
from .squarefn import (
    SquareFnResult,
    g_alpha,
    gradient_comparison,
    s_alpha,
)
from .verify import (
    ExponentGate,
    HarnessConfig,
    RatioReport,
    dorronsoro_ratio,
    dorronsoro_stability,
    gate_exponents,
    poincare_ratio,
    poincare_stability,
    run_identity_suite,
    run_lemma_suite,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AffineMap",
    "ball_volume",
    "beta_number",
    "beta_profile",
    "BetaProfile",
    "box_volume",
    "catalog",
    "check_monotonicity",
    "dilate",
    "distance",
    "domain_integrate_lp",
    "dorronsoro_ratio",
    "dorronsoro_stability",
    "ExponentGate",
    "fit_moment",
    "fit_normal_equations",
    "g_alpha",
    "gate_exponents",
    "gauge",
    "gradient_comparison",
    "group_mul",
    "HarnessConfig",
    "horizontal_derivative",
    "inverse",
    "origin",
    "poincare_ratio",
    "poincare_stability",
    "precompose_dilation",
    "QuadSpec",
    "RatioReport",
    "residual_orthogonality",
    "run_identity_suite",
    "run_lemma_suite",
    "s_alpha",
    "ScalarField",
    "ScaleGrid",
    "SquareFnResult",
]
