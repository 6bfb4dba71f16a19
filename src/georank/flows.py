"""Gradient flows of f on the rank-r matrices, carried in factored form.

A flow source is a pair (geometry, metric family). Under an embedded
geometry, whose family is None, the field is the negative Riemannian
gradient, dX/dt = -grad f(X). Under a quotient geometry it is the flow of
h([Z]) = f(X(Z)) seen on X: the factor map's differential of the negative
gradient lift, dX/dt = -L(grad h) (Absil, Mahony & Sepulchre 2008, ch. 3),
with Z the canonical lift of X and L ``transport.forward_map``. So every
geometry and metric family has a flow, derived from the geometry's chain,
lift and metric, and the paper's flow identities are checks of that
derivation: under the metrics whose sandwich gap coefficients are (1, 1)
(psd_q2/matched, gen_q3/matched) the field equals the embedded one, and under
psd_q1/double-gram and gen_q1/crossed-gram it differs from it by the doubly
projected term P_U grad f P_U (PSD) or P_U grad f P_V (general).

Integration is classical RK4 on the manifold points themselves: each stage
point and each step's end point is the rank-r truncation of X plus a
combination of the stages' fields, each a tangent at its own stage point.
``embedded.truncate_sum`` takes that truncation from the stacked factors, so
no p x p matrix is decomposed. The first stage's field is a tangent at X
itself and shares its frames, so the second stage point's core is 2r square
and the step's end point's 8r.
"""

from dataclasses import dataclass
import numpy as np

from .embedded import (EmbeddedPoint, EmbeddedTangent, riem_grad_embedded,
                       truncate_sum)
from .linalg import RankError
from .objectives import Objective
from .quotient import (EMBEDDED, GEOMETRY_KIND, lift_point, metric_family,
                       riem_grad_quotient)
from .transport import forward_map


def _metric(source):
    """The metric family of a (geometry, family) source: None for an
    embedded geometry, which takes no family."""
    geometry, family = source
    if geometry in EMBEDDED.values():
        if family is not None:
            raise ValueError(f"{geometry} takes no metric family, got {family!r}")
        return None
    return metric_family(geometry, family)


def flow_field(pt: EmbeddedPoint, obj: Objective, source) -> EmbeddedTangent:
    """dX/dt at a manifold point under a (geometry, family) source, as a
    tangent at the point: -grad f(X) for an embedded geometry, -L(grad h) at
    the canonical lift of the point for a quotient geometry."""
    geometry = source[0]
    metric = _metric(source)
    if metric is not None:
        z = lift_point(pt, geometry)
        return -forward_map(z, riem_grad_quotient(z, obj, metric), metric)
    if pt.kind != GEOMETRY_KIND[geometry]:
        raise ValueError(f"{geometry} flow needs a {GEOMETRY_KIND[geometry]} "
                         f"point, got {pt.kind}")
    return -riem_grad_embedded(pt, obj)


@dataclass(frozen=True, eq=False)
class FlowTrace:
    times: np.ndarray
    points: list  # EmbeddedPoint of each state X(t)
    degenerate: bool = False
    message: str = ""

    @property
    def states(self) -> list:
        """The ambient matrices X(t), rank r."""
        return [pt.X for pt in self.points]


def integrate_flow(
    x0: EmbeddedPoint, obj: Objective, source, t_final: float, dt: float
) -> FlowTrace:
    """Classical RK4 on the manifold, each stage truncated to rank r from
    factors (``truncate_sum``).

    If the state loses rank along the way, or diverges so far that a
    decomposition fails, the trace is returned as far as it got, flagged
    degenerate, instead of raising.
    """
    _metric(source)  # a bad source fails here, not at the first step
    if t_final <= 0 or dt <= 0:
        raise ValueError("horizon and step must be positive")
    n_steps = int(round(t_final / dt))
    if n_steps < 1:
        raise ValueError(f"horizon {t_final!r} with step {dt!r} gives no RK4 step")
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)

    points = [x0]
    pt = x0
    for k in range(n_steps):
        try:
            k1 = flow_field(pt, obj, source)
            k2 = flow_field(truncate_sum(pt, [(0.5 * dt, k1)]), obj, source)
            k3 = flow_field(truncate_sum(pt, [(0.5 * dt, k2)]), obj, source)
            k4 = flow_field(truncate_sum(pt, [(dt, k3)]), obj, source)
            pt = truncate_sum(pt, [(dt / 6.0, k1), (dt / 3.0, k2),
                                   (dt / 3.0, k3), (dt / 6.0, k4)])
        except (RankError, np.linalg.LinAlgError) as exc:
            cause = "rank collapse" if isinstance(exc, RankError) else "divergence"
            return FlowTrace(times[: k + 1], points, degenerate=True,
                             message=f"{cause} at t = {times[k]:.6g}: {exc}")
        points.append(pt)
    return FlowTrace(times, points)


def compare_flows(
    x0: EmbeddedPoint, obj: Objective, source_a, source_b,
    t_final: float, dt: float,
) -> dict:
    """Integrate two sources from a common start and report the deviation
    max_t ||X_a(t) - X_b(t)||_F over the shared grid."""
    tr_a = integrate_flow(x0, obj, source_a, t_final, dt)
    tr_b = integrate_flow(x0, obj, source_b, t_final, dt)
    devs = np.array([np.linalg.norm(a.X - b.X)
                     for a, b in zip(tr_a.points, tr_b.points)])
    n = len(devs)
    return {
        "times": tr_a.times[:n],
        "max_deviation": float(np.max(devs)) if n else float("nan"),
        "degenerate": tr_a.degenerate or tr_b.degenerate,
        "trace_a": tr_a,
    }
