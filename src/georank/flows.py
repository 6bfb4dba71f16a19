"""Gradient flows of f on the rank-r matrices, in ambient coordinates.

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

Integration is classical RK4 on the ambient field with a rank-r
re-factorization after every step to control drift off the manifold.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .embedded import EmbeddedPoint, project_rank_r, riem_grad_embedded
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


def flow_field(pt: EmbeddedPoint, obj: Objective, source) -> np.ndarray:
    """Ambient dX/dt at a manifold point under a (geometry, family) source:
    -grad f(X) for an embedded geometry, -L(grad h) at the canonical lift of
    the point for a quotient geometry."""
    geometry = source[0]
    metric = _metric(source)
    if metric is not None:
        z = lift_point(pt, geometry)
        return -forward_map(z, riem_grad_quotient(z, obj, metric), metric).ambient()
    if pt.kind != GEOMETRY_KIND[geometry]:
        raise ValueError(f"{geometry} flow needs a {GEOMETRY_KIND[geometry]} "
                         f"point, got {pt.kind}")
    return -riem_grad_embedded(pt, obj).ambient()


@dataclass(frozen=True, eq=False)
class FlowTrace:
    times: np.ndarray
    states: list  # ambient matrices X(t), rank r
    geometry: str
    metric: Optional[str]
    rank: int
    degenerate: bool = False
    message: str = ""


def integrate_flow(
    x0: EmbeddedPoint, obj: Objective, source, t_final: float, dt: float
) -> FlowTrace:
    """Classical RK4 on the ambient field with per-step re-factorization.

    If the state loses rank along the way the trace is returned as far as it
    got, flagged degenerate, instead of raising.
    """
    geometry, metric = source
    _metric(source)  # a bad source fails here, not at the first step
    if t_final <= 0 or dt <= 0:
        raise ValueError("horizon and step must be positive")
    r, kind = x0.r, x0.kind
    n_steps = int(round(t_final / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)

    def field(x_ambient):
        return flow_field(project_rank_r(x_ambient, r, kind), obj, source)

    states = [x0.X]
    x = x0.X
    for k in range(n_steps):
        try:
            k1 = field(x)
            k2 = field(x + 0.5 * dt * k1)
            k3 = field(x + 0.5 * dt * k2)
            k4 = field(x + dt * k3)
            x = project_rank_r(
                x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), r, kind
            ).X
        except RankError as exc:
            return FlowTrace(times[: k + 1], states, geometry, metric, r,
                             degenerate=True,
                             message=f"rank collapse at t = {times[k]:.6g}: {exc}")
        states.append(x)
    return FlowTrace(times, states, geometry, metric, r)


def compare_flows(
    x0: EmbeddedPoint, obj: Objective, source_a, source_b,
    t_final: float, dt: float,
) -> dict:
    """Integrate two sources from a common start and report the deviation
    max_t ||X_a(t) - X_b(t)||_F over the shared grid."""
    tr_a = integrate_flow(x0, obj, source_a, t_final, dt)
    tr_b = integrate_flow(x0, obj, source_b, t_final, dt)
    n = min(len(tr_a.states), len(tr_b.states))
    devs = np.array(
        [np.linalg.norm(tr_a.states[k] - tr_b.states[k]) for k in range(n)]
    )
    return {
        "times": tr_a.times[:n],
        "deviations": devs,
        "max_deviation": float(np.max(devs)) if n else float("nan"),
        "degenerate": tr_a.degenerate or tr_b.degenerate,
        "trace_a": tr_a,
        "trace_b": tr_b,
    }
