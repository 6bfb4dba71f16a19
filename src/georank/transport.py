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
tangent projection of the differential. The inverses read the factors
directly, except for an r x r Sylvester sub-solve in psd_q1, gen_q1, and
gen_q2, whose operator depends only on the point and the metric: it is
factored by one eigendecomposition per (point, metric), cached with the
point's weights (B's, for gen_q2, with the point), and each solve is a few
r x r products. The squared Frobenius norm of L is bounded above and below by
metric-dependent coefficients (alpha, beta), which are the gap coefficients
of the Hessian-spectrum sandwich inequalities.

L is defined only between Z and the embedded point cached inside Z (the
matched-pair convention), which removes any eigenbasis rotation ambiguity.

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
    _check_metric,
    _space,
)


@dataclass(frozen=True, eq=False)
class SandwichCoefficients:
    """Lower/upper gap coefficients of ||L(theta)||^2 vs g(theta, theta)."""

    alpha: float
    beta: float
    geometry: str
    metric: str

    def interval(self, lam: float):
        """Sandwich interval for an embedded Hessian eigenvalue lam
        (bounds swap sign-dependently)."""
        lo, hi = self.alpha * lam, self.beta * lam
        return (lo, hi) if lam >= 0 else (hi, lo)


def _match(z: QuotientPoint, xi: EmbeddedTangent):
    if xi.base is not z.point:
        raise ValueError(
            "embedded tangent is not based at the point matched to this "
            "quotient representative"
        )


def forward_map(
    z: QuotientPoint, theta: HorizontalVector, metric: MetricFamily
) -> EmbeddedTangent:
    """L(theta): the embedded tangent induced by a horizontal vector."""
    _check_metric(z, metric)
    theta = _as_horizontal(z, theta, metric)
    return REGISTRY[z.geometry].forward(z, theta.parts)


def inverse_map(
    z: QuotientPoint, xi: EmbeddedTangent, metric: MetricFamily
) -> HorizontalVector:
    """L^-1(xi): the unique horizontal preimage of an embedded tangent."""
    wt = z.weights(metric)
    _match(z, xi)
    parts = REGISTRY[z.geometry].inverse(z, xi, wt)
    return HorizontalVector(z, parts, _space(z, metric))


def spectrum_bounds(z: QuotientPoint, metric: MetricFamily) -> SandwichCoefficients:
    """Closed-form (alpha, beta) with
    alpha * g(theta, theta) <= ||L(theta)||_F^2 <= beta * g(theta, theta)."""
    alpha, beta = REGISTRY[z.geometry].bounds(z, z.weights(metric))
    return SandwichCoefficients(alpha, beta, z.geometry, metric.name)
