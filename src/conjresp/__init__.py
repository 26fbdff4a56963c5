"""conjresp: prescribe the first-order response of an invariant density.

Given a torus map preserving a smooth density and a zero-mean response
profile, the toolkit constructs vector fields whose flows conjugate the map
into a family whose invariant density moves at exactly the prescribed
first-order rate, explores the closed-form freedom in that construction,
transports one density to another outright, and verifies all of it
numerically (spectral residuals, finite-difference orders, transfer-operator
sums).
"""

from .errors import (
    ConfigError,
    ConstructionError,
    ConvergenceError,
    ExpansionError,
    NormalizationError,
    PositivityError,
    QualityError,
)
from .fields import (
    CoVectorForm,
    ScalarField,
    TorusGrid,
    VectorFieldT,
    VolumeDensity,
    divergence,
    divide,
    field_from_json,
    field_to_csv,
    field_to_json,
    gradient,
    load_field,
    multiply,
    save_field,
    wrap_difference,
)
from .exactness import (
    SolutionStrategy,
    add_closed_form,
    contract,
    contract_inverse,
    exact_primitive,
    exterior_derivative,
    lie_derivative_density,
    remove_weighted_mean,
    solve_exactness,
    solve_for_field,
    solve_laplace,
    solve_weighted_poisson,
)
from .flow import (
    FlowEvaluation,
    MoserFlow,
    default_steps,
    integrate_flow,
    inverse_flow,
    moser_transport,
    transported_density,
)
from .dynamics import (
    ConjugatedMap,
    DeformedMap,
    TorusMap,
    deformation_derivative,
    invariance_defect,
    make_linear,
    make_warped_doubling,
)
from .verify import (
    ConvergenceReport,
    derivative_check,
    pushforward_density,
    response_check,
    transfer_check,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConstructionError",
    "ConvergenceError",
    "ExpansionError",
    "NormalizationError",
    "PositivityError",
    "QualityError",
    "TorusGrid",
    "ScalarField",
    "VolumeDensity",
    "VectorFieldT",
    "CoVectorForm",
    "multiply",
    "divide",
    "gradient",
    "divergence",
    "wrap_difference",
    "field_to_json",
    "field_from_json",
    "field_to_csv",
    "save_field",
    "load_field",
    "SolutionStrategy",
    "solve_laplace",
    "exact_primitive",
    "solve_exactness",
    "exterior_derivative",
    "add_closed_form",
    "contract",
    "contract_inverse",
    "lie_derivative_density",
    "solve_weighted_poisson",
    "solve_for_field",
    "remove_weighted_mean",
    "FlowEvaluation",
    "default_steps",
    "integrate_flow",
    "inverse_flow",
    "transported_density",
    "MoserFlow",
    "moser_transport",
    "TorusMap",
    "make_linear",
    "make_warped_doubling",
    "DeformedMap",
    "ConjugatedMap",
    "deformation_derivative",
    "invariance_defect",
    "ConvergenceReport",
    "pushforward_density",
    "response_check",
    "derivative_check",
    "transfer_check",
]
