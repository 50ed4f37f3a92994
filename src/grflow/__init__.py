"""Generalized Ricci flow on quadratic Lie algebras and flat tori."""

__version__ = "0.1.0"

from .algebra import (
    QuadraticLieAlgebra,
    Tensor,
    ValidationReport,
    abelian,
    change_basis,
    complex_double_su2,
    cotangent_double,
    preset_algebra,
    so3,
    su2_structure,
    validate_algebra,
)
from .connection import (
    Connection,
    Divergence,
    divergence_of,
    kappa_map,
    kappa_prime,
    lc_kernel_shift,
    levi_civita,
    tau_map,
    tau_prime,
    torsion,
)
from .curvature import (
    CurvatureReport,
    bianchi_residual,
    curvature_report,
    dirac_square,
    full_ricci,
    ricci,
    ricci_bracket_route,
    ricci_closed_form,
    ricci_divergence_shift_check,
    riemann,
    scalar,
    scalar_closed_form,
)
from .errors import (
    ConfigParseError,
    DegenerateMetric,
    DegenerateSubspace,
    EigensolverStalled,
    ForbiddenRank,
    GrfError,
    InvalidLieAlgebra,
    NonInvertiblePairing,
    NonPositiveHalfDensity,
    NumericalError,
    RetractionDiverged,
    SingularBasis,
    StepUnderflow,
    ValidationError,
)
from .exact_torus import (
    TorusFieldState,
    TorusFields,
    TorusGeometry,
    TorusParams,
    TorusTrace,
    flat_state,
    flux_H,
    generalized_scalar_field,
    lambda_torus,
    perturbed_state,
    run_torus_flow,
    torus_fields,
    torus_rhs,
)
from .flow_ode import (
    FlowParams,
    FlowState,
    FlowTrace,
    flow_rhs,
    flow_step,
    involution_retract,
    run_flow,
    soliton_residual,
)
from .metric import (
    AdaptedFrame,
    GeneralizedPseudometric,
    MetricTangent,
    adapted_frame,
    lie_derivative_metric,
    metric_from_graph,
    metric_from_subspace,
    random_strictly_positive_metric,
    random_tangent,
    validate_metric,
)
from .variation import (
    connection_variation,
    eh_functional,
    eh_gradient_check,
    ricci_variation,
    scalar_variation,
)
