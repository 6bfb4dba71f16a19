"""Linear bijections between horizontal spaces and embedded tangent spaces.

For a quotient point Z representing X, the map L is the differential of the
factor map along a horizontal vector, which lands exactly in the embedded
tangent space at X (Absil, Mahony & Sepulchre 2008, ch. 3):

    psd_q1   L(theta)     = Y theta^T + theta Y^T
    psd_q2   L(theta)     = U B theta_U^T + U theta_B U^T + theta_U B U^T
    gen_q1   L(theta)     = L theta_R^T + theta_L R^T
    gen_q2   L(theta)     = theta_U B V^T + U theta_B V^T + U B theta_V^T
    gen_q3   L(theta)     = U theta_Y^T + theta_U Y^T

L(theta) is returned in the embedded tangent's factored form (S, Up, Vp), the
tangent projection of the differential, read from its products with the
frames in O(p r^2): no p1 x p2 matrix is formed. The inverses read the factors
directly, except for an r x r Sylvester sub-solve in psd_q1, gen_q1, and
gen_q2, whose operator depends only on the point and the metric: it is
factored by one eigendecomposition per (point, metric) and kept, with P^-1
or B^-1, in the point's ``Weights`` record for that metric
(``QuotientGeometry.constants``), and each solve is a few r x r products.
The squared Frobenius norm of L is bounded above and below by
metric-dependent coefficients (alpha, beta), which are the gap coefficients
of the Hessian-spectrum sandwich inequalities. They are read from the
factors and the same ``Weights`` record: no weight is decomposed again.

L is defined only between Z and the embedded point cached inside Z (the
matched-pair convention), which removes any eigenbasis rotation ambiguity.
Both maps take a stack too: components with one leading axis of n vectors at
one base point, mapped in one call. L^-1 of the embedded orthonormal basis is
``quotient.horizontal_basis``, the one horizontal basis of every geometry,
which calls the registry's inverse itself, since this module imports
``quotient``. ``landscape.verify_sandwich`` measures L on that basis with
``forward_map`` and never assumes it is the identity, so the congruence
does not rest on the inverse being exact; ``bijection-roundtrip`` checks
the inverse.

The five formulas above are documentation: the differential is derived, in
``quotient.QuotientGeometry``, from each geometry's factor map written as a
product chain. The inverse and (alpha, beta) are methods of each geometry's
class in ``quotient.REGISTRY``; this module holds the checked public entry
points and ``SandwichCoefficients``.
"""

from dataclasses import dataclass

from .embedded import EmbeddedTangent
from .quotient import (
    REGISTRY,
    HorizontalVector,
    MetricFamily,
    QuotientPoint,
    _as_horizontal,
)


@dataclass(frozen=True, eq=False)
class SandwichCoefficients:
    """Lower/upper gap coefficients of ||L(theta)||^2 vs g(theta, theta)."""

    alpha: float
    beta: float

    def interval(self, lam: float):
        """Sandwich interval for an embedded Hessian eigenvalue lam
        (bounds swap sign-dependently)."""
        lo, hi = self.alpha * lam, self.beta * lam
        return (lo, hi) if lam >= 0 else (hi, lo)


def forward_map(
    z: QuotientPoint, theta: HorizontalVector, metric: MetricFamily
) -> EmbeddedTangent:
    """L(theta): the embedded tangent induced by a horizontal vector, or the
    stack of tangents of a stack of them."""
    theta = _as_horizontal(z, theta, metric)
    return REGISTRY[z.geometry].forward(z, theta.parts)


def inverse_map(
    z: QuotientPoint, xi: EmbeddedTangent, metric: MetricFamily
) -> HorizontalVector:
    """L^-1(xi): the unique horizontal preimage of an embedded tangent, or
    the stack of preimages of a stack of them, recording ``metric``."""
    wt = z.weights(metric)
    xi.check_base(z.point)
    parts = REGISTRY[z.geometry].inverse(z, xi, wt)
    return HorizontalVector(z, parts, metric)


def spectrum_bounds(z: QuotientPoint, metric: MetricFamily) -> SandwichCoefficients:
    """Closed-form (alpha, beta) with
    alpha * g(theta, theta) <= ||L(theta)||_F^2 <= beta * g(theta, theta)."""
    alpha, beta = REGISTRY[z.geometry].bounds(z, z.weights(metric))
    return SandwichCoefficients(alpha, beta)
