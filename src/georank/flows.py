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
and the step's end point's 8r. A PSD point's X is formed as one symmetric
product W W^T, W = U sqrt(s) from the truncation's diagonal core
diag(s), with no Cholesky, exactly symmetric, and so is a symmetric
objective's gradient there, so a PSD step makes no p x p symmetrizing pass.

One loop steps every flow, one or several together, and holds only each
flow's current state. A ``FlowTrace`` keeps the start point as given and
each later state as its factors (U, Sigma, V), (p1 + p2) r + r^2 numbers,
and re-forms a point's X on reading it, with the bits the flow stepped from. ``compare_flows`` steps
its two flows together and takes each deviation from their live states, so
its memory grows with the steps only by the factors of one trace.
"""

from dataclasses import dataclass
import numpy as np

from .embedded import (EmbeddedPoint, EmbeddedTangent, _point_from_factors,
                       riem_grad_embedded, truncate_sum)
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
    """The states X(t) of a flow on ``times``: the start point as the caller
    gave it, and each later state as its factors (U, Sigma, V), (p1 + p2) r
    + r^2 numbers in place of a p1 x p2 matrix (V is U for the PSD kind)."""

    times: np.ndarray
    start: EmbeddedPoint
    factors: list  # (U, Sigma, V) of each state after the start
    degenerate: bool = False
    message: str = ""

    def __len__(self) -> int:
        return len(self.times)

    def point(self, i: int) -> EmbeddedPoint:
        """State i, re-formed from its factors by the product that made it,
        so its X has the bits the flow stepped from."""
        i = range(len(self))[i]
        if i == 0:
            return self.start
        return _point_from_factors(self.start.kind, *self.factors[i - 1])


def _grid(t_final: float, dt: float) -> np.ndarray:
    """The times of round(t_final / dt) RK4 steps from 0; a bad horizon
    fails here, not at the first step."""
    if t_final <= 0 or dt <= 0:
        raise ValueError("horizon and step must be positive")
    n_steps = int(round(t_final / dt))
    if n_steps < 1:
        raise ValueError(f"horizon {t_final!r} with step {dt!r} gives no RK4 step")
    return np.linspace(0.0, n_steps * dt, n_steps + 1)


def _step(pt: EmbeddedPoint, obj: Objective, source, dt: float) -> EmbeddedPoint:
    """The state one classical RK4 step after pt, each stage truncated to
    rank r from factors (``truncate_sum``)."""
    k1 = flow_field(pt, obj, source)
    k2 = flow_field(truncate_sum(pt, [(0.5 * dt, k1)]), obj, source)
    k3 = flow_field(truncate_sum(pt, [(0.5 * dt, k2)]), obj, source)
    k4 = flow_field(truncate_sum(pt, [(dt, k3)]), obj, source)
    return truncate_sum(pt, [(dt / 6.0, k1), (dt / 3.0, k2), (dt / 3.0, k3),
                             (dt / 6.0, k4)])


def _lockstep(x0: EmbeddedPoint, obj: Objective, sources, t_final: float, dt: float):
    """Step the flows of ``sources`` from x0 together, on the grid of
    round(t_final / dt) RK4 steps, keeping only each flow's current state.

    A step that loses rank, or diverges so far that a decomposition fails,
    ends its flow with the cause. Flow 0 runs to its own end; each other flow
    stops where it ends or where flow 0 does. Returns flow 0's trace, each
    other flow's end ("" if it did not fail), and each other flow's
    deviations ||X_0(t) - X_k(t)||_F from flow 0 up to its end, starting at
    t = 0, where the deviation is 0, or NaN for a non-finite start.
    """
    for source in sources:
        _metric(source)  # a bad source fails before any flow takes a step
    times = _grid(t_final, dt)
    pts, ends = [x0] * len(sources), [""] * len(sources)
    factors, devs = [], [[np.linalg.norm(x0.X - x0.X)] for _ in sources[1:]]
    for t in times[:-1]:
        for k, source in enumerate(sources):
            if ends[k]:
                continue
            try:
                pts[k] = _step(pts[k], obj, source, dt)
            except (RankError, np.linalg.LinAlgError) as exc:
                cause = "rank collapse" if isinstance(exc, RankError) else "divergence"
                ends[k] = f"{cause} at t = {t:.6g}: {exc}"
                if k == 0:
                    break
            else:
                if k:
                    devs[k - 1].append(np.linalg.norm(pts[0].X - pts[k].X))
        if ends[0]:
            break
        factors.append((pts[0].U, pts[0].Sigma, pts[0].V))
    trace = FlowTrace(times[: len(factors) + 1], x0, factors,
                      degenerate=bool(ends[0]), message=ends[0])
    return trace, ends[1:], devs


def integrate_flow(
    x0: EmbeddedPoint, obj: Objective, source, t_final: float, dt: float
) -> FlowTrace:
    """Classical RK4 on the manifold, each stage truncated to rank r from
    factors (``truncate_sum``).

    If the state loses rank along the way, or diverges so far that a
    decomposition fails, the trace is returned as far as it got, flagged
    degenerate, instead of raising.
    """
    return _lockstep(x0, obj, [source], t_final, dt)[0]


def compare_flows(
    x0: EmbeddedPoint, obj: Objective, source_a, source_b,
    t_final: float, dt: float,
) -> dict:
    """Integrate two sources from a common start and report the deviation
    max_t ||X_a(t) - X_b(t)||_F over the shared grid.

    The two flows step together, and each deviation is taken from their
    live states, so memory does not grow with the steps but by the factors
    of trace a. Flow a runs to its own end, as its trace is returned whole;
    flow b stops where it ends or where a does.
    """
    trace_a, (end_b,), (devs,) = _lockstep(x0, obj, [source_a, source_b], t_final, dt)
    return {
        "times": trace_a.times[: len(devs)],
        "max_deviation": float(np.max(devs)),
        "degenerate": trace_a.degenerate or bool(end_b),
        "trace_a": trace_a,
    }
