"""Landscape connections between the embedded and quotient geometries.

Contains the closed-form gradient conversions valid at every point, Hessian
spectrum assembly on explicit bases, the verification at first-order
stationary points of the per-index sandwich and of the Hessian congruence
H_q = M^T H_f M on those bases, stationary-point classification, a projected
Riemannian gradient-descent FOSP finder, and the analytic stationary points
of the matrix-approximation objective (the independent oracle used by all
stationarity-dependent checks).
"""

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .embedded import (
    EmbeddedPoint,
    EmbeddedTangent,
    embed_point,
    retract,
    riem_grad_embedded,
    riem_hess_matrix_embedded,
    tangent_basis,
    tangent_project,
)
from .linalg import (
    ConditioningError,
    RankError,
    gen_sym_eig,
    sym,
)
from .objectives import Objective
from .quotient import (
    EMBEDDED,
    REGISTRY,
    HorizontalVector,
    MetricFamily,
    QuotientPoint,
    gradient_lift_from_ambient,
    horizontal_basis,
    metric_norm,
    riem_grad_quotient,
    riem_hess_matrix_quotient,
)
from .transport import forward_map, spectrum_bounds

GRAM_COND_LIMIT = 1e10  # largest basis Gram condition a spectrum accepts
FOSP_BACKTRACKS = 60  # step halvings per line search in find_fosp
FOSP_ARMIJO = 1e-4  # sufficient-decrease constant of that line search
SPECTRUM_GAP_TOL = 1e-8  # relative gap that keeps analytic FOSPs isolated
# classify_point: gradient norm relative to 1 + ||egrad||_2, and the smallest
# eigenvalue relative to the spectrum scale
CLASSIFY_TOL_GRAD = 1e-8
CLASSIFY_TOL_HESS = 1e-6  # lam_min >= -tol * scale is second-order stationary
CLASSIFY_TOL_SADDLE = 1e-6  # lam_min <= -tol * scale is a strict saddle


# ---------------------------------------------------------------------------
# gradient conversions (exact at every point, not only at stationary ones)


def grad_embedded_from_quotient(
    z: QuotientPoint, grad_h: HorizontalVector, metric: MetricFamily
) -> EmbeddedTangent:
    """Embedded Riemannian gradient reconstructed from a quotient lift.

    Applied verbatim to any horizontal vector; when ``grad_h`` is the lifted
    Riemannian gradient of h the result equals the embedded Riemannian
    gradient of f at the represented matrix.
    """
    if grad_h.base is not z:
        raise ValueError("horizontal vector is not based at the given point")
    geo = REGISTRY[z.geometry]
    amb = geo.grad_embedded(z, z.weights(metric), grad_h.parts)
    return tangent_project(z.point, amb)


def grad_quotient_from_embedded(
    z: QuotientPoint, grad_f: EmbeddedTangent, metric: MetricFamily
) -> HorizontalVector:
    """Quotient gradient lift reconstructed from the embedded gradient.

    The conversion has the same closed form as the lifted gradient itself,
    with the Euclidean gradient replaced by the embedded Riemannian gradient.
    """
    if grad_f.base is not z.point:
        raise ValueError(
            "embedded tangent is not based at the point matched to this "
            "quotient representative"
        )
    return gradient_lift_from_ambient(z, metric, grad_f.ambient())


def fosp_threshold(obj: Objective, x, tol: float) -> float:
    """The FOSP bound on a Riemannian gradient norm at X, tol * (1 +
    ||nabla f(X)||_2), relative to the Euclidean gradient's scale."""
    return tol * (1.0 + float(np.linalg.norm(obj.egrad(x), 2)))


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    geometry: str
    metric: str
    eigenvalues: np.ndarray  # descending
    basis: object  # one stack: an EmbeddedTangent or a HorizontalVector
    gram: np.ndarray  # metric Gram matrix of the basis
    matrix: np.ndarray  # Hessian matrix on the basis
    grad_norm: float

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])


def hessian_spectrum(
    point,
    obj: Objective,
    metric: Optional[MetricFamily] = None,
) -> SpectrumReport:
    """Full Riemannian Hessian spectrum at a point under its own geometry.

    An ``EmbeddedPoint`` takes the embedded geometry of its kind and no
    metric; a ``QuotientPoint`` takes its geometry and needs a metric family.
    A horizontal basis's Gram condition is checked before the objective is
    evaluated. The Hessian matrix on an explicit tangent/horizontal basis,
    one stack, comes from one matrix builder call, which takes the basis's
    differentials in one call and each row's Euclidean Hessian image once,
    and the eigenvalues are those of the pencil (H, Gram). The report keeps
    the basis, its Gram matrix and H, on which ``verify_sandwich`` checks
    the Hessian congruence.
    """
    if isinstance(point, EmbeddedPoint):
        if metric is not None:
            raise ValueError("an embedded point takes no metric family")
        geometry, mname = EMBEDDED[point.kind], "euclidean"
        basis = tangent_basis(point)
        gram = np.eye(len(basis))  # the basis is orthonormal
        h = riem_hess_matrix_embedded(point, obj, basis)
        gnorm = riem_grad_embedded(point, obj).norm()
    else:
        if metric is None:
            raise ValueError("quotient geometries need a metric family")
        geometry, mname = point.geometry, metric.name
        basis, gram = horizontal_basis(point, metric)
        cond = float(np.linalg.cond(gram))
        if cond > GRAM_COND_LIMIT:
            raise ConditioningError(f"basis Gram condition {cond:.3e} exceeds "
                                    f"{GRAM_COND_LIMIT:.1e}")
        h = riem_hess_matrix_quotient(point, obj, metric, basis)
        gnorm = metric_norm(point, riem_grad_quotient(point, obj, metric), metric)
    eig, _ = gen_sym_eig(h, gram)
    return SpectrumReport(geometry, mname, eig, basis, gram, h, float(gnorm))


# ---------------------------------------------------------------------------
# sandwich verification at FOSPs


def verify_sandwich(
    z: QuotientPoint,
    obj: Objective,
    metric: MetricFamily,
    embedded: SpectrumReport,
    margin_tol: float = 1e-8,
    identity_rtol: float = 1e-8,
    fosp_tol: float = 1e-8,
) -> dict:
    """Check the per-index spectrum sandwich and the Hessian congruence at a
    Riemannian FOSP of the quotient problem.

    ``embedded`` is the embedded Hessian spectrum at the represented point,
    ``hessian_spectrum(z.point, obj)``, which every quotient geometry and
    metric at that point shares; it must be based at ``z.point`` itself.

    The congruence is checked on the matrices the two spectra are assembled
    from: with E the embedded report's orthonormal basis, b_i the horizontal
    basis with Gram G, and M_ki = <E_k, L b_i>, the quotient Hessian matrix
    is H_q = M^T H_f M, from which the sandwich follows (Ostrowski's
    theorem). Each entry's error is relative to scale * sqrt(G_ii G_jj).
    Both statements are exact only at exact stationary points; the identity
    tolerance is therefore widened proportionally to the residual gradient
    norm, and the report records the coupling.
    """
    if embedded.basis.base is not z.point:
        raise ValueError("embedded spectrum is not based at the point matched "
                         "to this quotient representative")
    quo = hessian_spectrum(z, obj, metric)
    gnorm = quo.grad_norm
    threshold = fosp_threshold(obj, z.X, fosp_tol)
    if gnorm > threshold:
        raise ValueError(
            f"point is not a FOSP: |grad| = {gnorm:.3e} > {threshold:.3e}"
        )

    coeffs = spectrum_bounds(z, metric)
    lam_f, lam_h = embedded.eigenvalues, quo.eigenvalues
    scale = max(1.0, np.max(np.abs(lam_f)), np.max(np.abs(lam_h)))

    per_index = []
    for k, (f, q) in enumerate(zip(lam_f, lam_h)):
        lo, hi = coeffs.interval(f)
        m_lo, m_hi = float(q - lo), float(hi - q)
        ok = m_lo >= -margin_tol * scale and m_hi >= -margin_tol * scale
        per_index.append({"k": k, "lam_f": float(f), "lam_h": float(q), "lo": float(lo),
                          "hi": float(hi), "margin_lo": m_lo, "margin_hi": m_hi,
                          "ok": bool(ok)})
    sandwich_ok = all(row["ok"] for row in per_index)

    # the congruence H_q = M^T H_f M, entry by entry
    identity_tol = identity_rtol + gnorm / scale
    m = embedded.basis.flat() @ forward_map(z, quo.basis, metric).flat().T
    root = np.sqrt(np.diag(quo.gram))
    err = np.abs(quo.matrix - m.T @ embedded.matrix @ m) / (scale * np.outer(root, root))
    max_rel = float(np.max(err))
    identity_ok = max_rel <= identity_tol

    matched = (coeffs.beta - coeffs.alpha) <= 1e-10 * max(1.0, coeffs.beta)
    spectra_rel_gap = float(
        np.max(np.abs(0.5 * (coeffs.alpha + coeffs.beta) * lam_f - lam_h)) / scale
    ) if matched else None

    return {
        "geometry": z.geometry,
        "metric": metric.name,
        "metric_weights": metric.description,
        "alpha": coeffs.alpha,
        "beta": coeffs.beta,
        "grad_norm": gnorm,
        "fosp_threshold": threshold,
        "eig_embedded": [float(v) for v in lam_f],
        "eig_quotient": [float(v) for v in lam_h],
        "per_index": per_index,
        "identity_max_rel_err": max_rel,
        "identity_tol": float(identity_tol),
        "matched_coefficients": bool(matched),
        "matched_spectra_rel_gap": spectra_rel_gap,
        "passed": bool(sandwich_ok and identity_ok),
    }


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True, eq=False)
class StationaryClassification:
    is_fosp: bool
    is_sosp: bool
    is_strict_saddle: bool
    min_eigenvalue: float
    grad_norm: float
    tolerances: dict = field(default_factory=dict)

    def label(self) -> str:
        if not self.is_fosp:
            return "non-stationary"
        if self.is_sosp:
            return "sosp"
        if self.is_strict_saddle:
            return "strict-saddle"
        return "fosp"

    def to_dict(self) -> dict:
        return {
            "is_fosp": self.is_fosp,
            "is_sosp": self.is_sosp,
            "is_strict_saddle": self.is_strict_saddle,
            "min_eigenvalue": self.min_eigenvalue,
            "grad_norm": self.grad_norm,
            "label": self.label(),
            "tolerances": dict(self.tolerances),
        }


def classify_point(
    point,
    obj: Objective,
    metric: Optional[MetricFamily] = None,
) -> StationaryClassification:
    """FOSP / SOSP / strict-saddle classification under the point's geometry,
    with the metric rules of ``hessian_spectrum``."""
    report = hessian_spectrum(point, obj, metric)
    sscale = max(1.0, float(np.max(np.abs(report.eigenvalues))))
    lam_min = report.min_eigenvalue
    is_fosp = report.grad_norm <= fosp_threshold(obj, point.X, CLASSIFY_TOL_GRAD)
    is_sosp = bool(is_fosp and lam_min >= -CLASSIFY_TOL_HESS * sscale)
    is_saddle = bool(is_fosp and lam_min <= -CLASSIFY_TOL_SADDLE * sscale)
    return StationaryClassification(
        bool(is_fosp), is_sosp, is_saddle, float(lam_min), float(report.grad_norm),
        {"tol_grad": CLASSIFY_TOL_GRAD, "tol_hess": CLASSIFY_TOL_HESS,
         "tol_saddle": CLASSIFY_TOL_SADDLE},
    )


# ---------------------------------------------------------------------------
# FOSP finder (projected Riemannian gradient descent with Armijo)


@dataclass(frozen=True, eq=False)
class FospResult:
    point: EmbeddedPoint
    converged: bool
    iterations: int
    grad_norm: float
    trace: list  # (iteration, f, |grad|)
    message: str


def _lipschitz_estimate(obj: Objective, x, iters: int = 20, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(x.shape)
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(iters):
        w = obj.ehess_vec(x, v)
        lam = np.linalg.norm(w)
        if lam < 1e-14:
            return 0.0
        v = w / lam
    return float(lam)


def find_fosp(
    obj: Objective,
    init: EmbeddedPoint,
    max_iter: int = 5000,
    tol: float = 1e-8,
) -> FospResult:
    """Riemannian gradient descent with Armijo backtracking and the
    projection retraction, on the embedded manifold of ``init``'s kind.

    Stationary points correspond one-to-one across geometries, so a
    quotient representative of the result is ``lift_point(result.point,
    geometry)``.
    """
    pt = init
    lip = _lipschitz_estimate(obj, pt.X)
    t0 = 1.0 / lip if lip > 1e-12 else 1.0
    fval = obj.value(pt.X)
    grad = riem_grad_embedded(pt, obj)
    gnorm = grad.norm()
    trace = [(0, fval, gnorm)]
    converged = gnorm <= tol
    it = 0
    message = "initial point is already stationary" if converged else ""

    while not converged and it < max_iter:
        it += 1
        step = t0
        accepted = False
        for _ in range(FOSP_BACKTRACKS):
            try:
                cand = retract(pt, grad, -step)
            except (RankError, np.linalg.LinAlgError):
                step *= 0.5
                continue
            fnew = obj.value(cand.X)
            if fnew <= fval - FOSP_ARMIJO * step * gnorm**2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            message = f"line search failed at iteration {it}"
            break
        pt, fval = cand, fnew
        grad = riem_grad_embedded(pt, obj)
        gnorm = grad.norm()
        trace.append((it, fval, gnorm))
        if gnorm <= tol:
            converged = True
            message = f"converged in {it} iterations"

    if not converged and not message:
        message = f"max_iter={max_iter} reached with |grad| = {gnorm:.3e}"
    return FospResult(pt, bool(converged), it, float(gnorm), trace, message)


# ---------------------------------------------------------------------------
# analytic stationary points of the matrix-approximation objective


def analytic_fosps(obj: Objective, r: int):
    """All rank-r stationary points of f(X) = 0.5 ||X - M||^2, as a lazy
    iterator.

    These are the truncations of M onto r-element subsets of its nonzero
    spectrum (positive eigenvalues in the symmetric case, nonzero singular
    values otherwise), in ``itertools.combinations`` order. Requires the
    relevant spectrum values to be pairwise distinct, otherwise the subset
    stationary points are not isolated. The objective, the rank and the gaps
    are checked at the call; each point is built and certified as it is
    drawn, since their number grows as C(p, r).
    """
    if obj.kind != "approx":
        raise ValueError("analytic stationary points require the matrix-approx objective")
    m = -obj.egrad(np.zeros(obj.shape))
    scale = max(np.linalg.norm(m, 2), 1e-300)
    if obj.symmetric:
        w, q = np.linalg.eigh(sym(m))
        order = np.argsort(w)[::-1]
        w, q = w[order], q[:, order]
        keep = np.where(w > 1e-10 * scale)[0]
        vals = w[keep]
        kind = "psd"
    else:
        u_all, s_all, vt_all = np.linalg.svd(m)
        keep = np.where(s_all > 1e-10 * scale)[0]
        vals = s_all[keep]
        kind = "general"
    if len(vals) < r:
        raise RankError(f"target has numerical rank {len(vals)} < r = {r}")
    gaps = np.abs(vals[:, None] - vals[None, :]) + np.eye(len(vals)) * scale
    if np.min(gaps) <= SPECTRUM_GAP_TOL * scale:
        raise ValueError(
            "spectrum values are repeated within tolerance; subset stationary "
            "points are not isolated"
        )

    def certified(subset):
        idx = keep[list(subset)]
        if kind == "psd":
            x = (q[:, idx] * w[idx]) @ q[:, idx].T
        else:
            x = (u_all[:, idx] * s_all[idx]) @ vt_all[idx, :]
        pt = embed_point(x, r, kind)
        gnorm = riem_grad_embedded(pt, obj).norm()
        if gnorm > 1e-10 * (1.0 + scale):
            raise AssertionError(
                f"analytic stationary point failed certification: |grad| = {gnorm:.3e}"
            )
        return pt

    return map(certified, itertools.combinations(range(len(vals)), r))
