"""Gradient flows dX/dt = -grad f(X) in ambient coordinates.

The embedded geometries flow along the negative Riemannian gradient. Each
supported quotient source induces a flow on X through the factorization link,
and for the enumerated metric choices the induced field has a closed ambient
form. Two of the pairs produce fields identical to the embedded ones (the
metrics whose sandwich gap coefficients are (1, 1)); the full-rank
factorization pairs differ from the embedded field exactly by the doubly
projected term P_U grad f P_U (PSD) or P_U grad f P_V (general).

Integration is classical RK4 on the ambient field with a rank-r
re-factorization after every step to control drift off the manifold.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .embedded import EmbeddedPoint, project_rank_r, riem_grad_embedded
from .linalg import RankError, sym
from .objectives import Objective

# (geometry, metric-name) pairs whose induced X-space fields are implemented
# -> (matrix kind, whether the field subtracts the doubly projected term, or
# None for the embedded field itself)
FLOW_SOURCES = {
    ("psd_embedded", None): ("psd", None),
    ("psd_q1", "double-gram"): ("psd", False),
    ("psd_q2", "matched"): ("psd", True),
    ("gen_embedded", None): ("general", None),
    ("gen_q1", "crossed-gram"): ("general", False),
    ("gen_q3", "matched"): ("general", True),
}


def _normalize_source(source):
    if isinstance(source, str):
        source = (source, None)
    source = (source[0], source[1])
    if source not in FLOW_SOURCES:
        raise ValueError(
            f"unsupported flow source {source}; supported: {list(FLOW_SOURCES)}"
        )
    return source


def flow_field(pt: EmbeddedPoint, obj: Objective, source) -> np.ndarray:
    """Ambient dX/dt at a manifold point for one of the enumerated sources."""
    source = _normalize_source(source)
    kind, doubly_projected = FLOW_SOURCES[source]
    if pt.kind != kind:
        raise ValueError(f"{source[0]} flow needs a {kind} point, got {pt.kind}")
    if doubly_projected is None:
        return -riem_grad_embedded(pt, obj).ambient()
    nabla = obj.egrad(pt.X)
    if kind == "psd":
        nabla = sym(nabla)  # PSD flows see the symmetrized objective
    pu = pt.U @ pt.U.T
    pv = pu if kind == "psd" else pt.V @ pt.V.T
    rate = pu @ nabla + nabla @ pv
    if doubly_projected:
        rate = rate - pu @ nabla @ pv
    return -rate


@dataclass(frozen=True, eq=False)
class FlowTrace:
    times: np.ndarray
    states: list  # ambient matrices X(t), rank r
    geometry: str
    metric: Optional[str]
    rank: int
    degenerate: bool = False
    message: str = ""

    def energies(self, obj: Objective) -> np.ndarray:
        return np.array([obj.value(x) for x in self.states])


def integrate_flow(
    x0: EmbeddedPoint, obj: Objective, source, t_final: float, dt: float
) -> FlowTrace:
    """Classical RK4 on the ambient field with per-step re-factorization.

    If the state loses rank along the way the trace is returned as far as it
    got, flagged degenerate, instead of raising.
    """
    geometry, metric = _normalize_source(source)
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
