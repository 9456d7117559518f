"""Certified-error two-dimensional quadrature over rectangles.

Trapezoidal and midpoint estimates (simple and composite) of a double
integral, each paired with a rigorous a-priori error bound assembled
from L^p norms of the integrand's partial derivatives, plus numerical
verification of the minimal-weight-norm property.

The bounds assume the usual regularity for integration by parts: f and
its first partials absolutely continuous along lines, f_xy integrable
(f_xy = f_yx almost everywhere).  These hypotheses are documented
preconditions; they are not machine-checked.
"""

from .core import (
    FAMILIES,
    INF,
    RULE_IDS,
    CertquadError,
    ConfigurationError,
    DerivativeNorms,
    DomainError,
    EvaluationError,
    Exponent,
    Integrand,
    NormMismatchError,
    PartitionSpec,
    QuadratureConvergenceError,
    QuadratureReport,
    Rectangle,
    RegistryError,
    SearchFailureError,
    UniformBounds,
    UnsupportedVariantError,
    conjugate,
    holder_coefficient,
)
from .minimizer import (
    AlphaBetaBasis,
    SearchResult,
    min_phi_norm_value,
    search_min,
    verify_q2_identity,
)
from .norms import (
    area_norm_with_error,
    derivative_norms,
    finite_difference_partials,
    line_norms_with_error,
)
from .oracle import oracle_integrate, parts_identity_residual, parts_identity_sides
from .registry import REGISTRY, get_entry, names
from .rules import (
    BoundComponents,
    composite_midpoint_bound,
    composite_midpoint_estimate,
    composite_trapezoid_bound,
    composite_trapezoid_estimate,
    custom_phi_rule,
    midpoint_1d,
    rule_report,
    trapezoid_1d,
    uniform_bound,
)
from .weights import (
    CompositeMidpointPhi,
    CompositeTrapezoidPhi,
    CustomPhi,
    eval_phi,
    phi_norm_closed,
    phi_norm_numeric,
    ramp_norm_closed,
)

__version__ = "0.1.0"
