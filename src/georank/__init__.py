"""Embedded and quotient Riemannian geometries on fixed-rank matrix manifolds.

The package computes Riemannian gradients and Hessian matrices for the
rank-r PSD and general matrix manifolds under the embedded geometry and five
factorization-based quotient geometries, maps horizontal vectors to embedded
tangents and back, and verifies the landscape connections between the two
sides (gradient conversion identities, per-index Hessian-spectrum sandwich
bounds at first-order stationary points, stationary-point classification
equivalence, and gradient-flow identities).
"""

from .linalg import (
    sym,
    skew,
    orth_complement,
    gen_sym_eig,
    spd_functions,
)
from .objectives import (
    Objective,
    make_matrix_approx,
    make_masked_completion,
    make_matrix_sensing,
    load_matrix_csv,
)
from .embedded import (
    EmbeddedPoint,
    EmbeddedTangent,
    embed_point,
    tangent_project,
    riem_grad_embedded,
    riem_hess_matrix_embedded,
    retract,
    tangent_basis,
)
from .quotient import (
    EMBEDDED,
    REGISTRY,
    QuotientPoint,
    HorizontalVector,
    metric_family,
    metric_choices,
    lift_point,
    horizontal_project,
    metric_inner,
    riem_grad_quotient,
    riem_hess_matrix_quotient,
    horizontal_basis,
    random_horizontal,
)
from .transport import (
    SandwichCoefficients,
    forward_map,
    inverse_map,
    spectrum_bounds,
)
from .landscape import (
    SpectrumReport,
    StationaryClassification,
    hessian_spectrum,
    verify_sandwich,
    classify_point,
    find_fosp,
    analytic_fosps,
)
from .flows import (
    FlowTrace,
    flow_field,
    integrate_flow,
    compare_flows,
)

__version__ = "0.1.0"
