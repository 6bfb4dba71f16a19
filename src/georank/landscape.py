"""Landscape connections between the embedded and quotient geometries.

Contains the closed-form gradient conversions valid at every point, Hessian
spectrum assembly on explicit bases, the verification at first-order
stationary points of the per-index sandwich and of the Hessian congruence
H_q = M^T H_f M on those bases, stationary-point classification, a FOSP
finder (Riemannian trust region with truncated CG on the embedded manifold,
whose Hessian-vector products act on factored tangents with no basis, and
which names how each search ended), and the analytic stationary points of
the matrix-approximation objective (the independent oracle used by all
stationarity-dependent checks).
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .embedded import (
    EmbeddedPoint,
    EmbeddedTangent,
    _egrad,
    _hess_vec_flat,
    _invertible_core,
    _project,
    embed_point,
    retract,
    riem_grad_embedded,
    riem_hess_matrix_embedded,
    tangent_basis,
    tangent_project,
)
from .linalg import (
    RANK_TOL,
    ConditioningError,
    RankError,
    below_floor,
    finite,
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
    quotient_dim,
    riem_hess_matrix_quotient,
)
from .transport import forward_map, spectrum_bounds

FOSP_TOL = 1e-8  # gradient norm relative to 1 + ||egrad||_2 at a FOSP
SANDWICH_MARGIN = 1e-8  # a sandwich bound's slack, relative to the spectrum scale
# relative entry error of the Hessian congruence H_q = M^T H_f M at a FOSP
IDENTITY_RTOL = 5e-10
# find_fosp's budget of outer trust-region iterations. Over classify's sweep
# (tests/fosp_sweep.py: completion general 10x8 and psd 10x10, r=2, embedded
# geometry, problem seeds 0-39, 2 starts each) at a budget of 1000, the 146
# converged starts took 7-31 outer iterations and none converged later, while
# the 14 that ran away (sigma_1 past 1,000) cost 1.6-4.4 ms per outer
# iteration on a 2-core Xeon. 100 is three times the slowest converged start
FOSP_BUDGET = 100
FOSP_GRAD_TOL = 1e-10  # find_fosp's absolute bound on |grad|
SPECTRUM_GAP_TOL = 1e-8  # relative gap that keeps analytic FOSPs isolated
ANALYTIC_FOSP_TOL = 1e-10  # an analytic FOSP's |grad|, relative to 1 + ||M||_2
MATCHED_RTOL = 1e-10  # beta - alpha, relative to max(1, beta), of matched coefficients
# classify_point: the smallest eigenvalue relative to the spectrum scale
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
    grad_h.check_base(z)
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
    grad_f.check_base(z.point)
    return gradient_lift_from_ambient(z, metric, grad_f.ambient())


def fosp_threshold(obj: Objective, x) -> float:
    """The FOSP bound on a Riemannian gradient norm at X, FOSP_TOL * (1 +
    ||nabla f(X)||_2), relative to the Euclidean gradient's scale."""
    return FOSP_TOL * (1.0 + float(np.linalg.norm(obj.egrad(x), 2)))


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
    one stack, comes from one matrix builder call, one Euclidean Hessian
    image per basis vector: the one embedded Hessian-vector formula per
    vector, or one ``Objective.ehess_matrix`` call on the differentials; the
    gradient norm is that of the gradient the builder returns, so the
    gradient is evaluated once. The eigenvalues are those of the pencil
    (H, Gram). The report keeps the basis, its Gram matrix and H, on which
    ``verify_sandwich`` checks the Hessian congruence.
    """
    if isinstance(point, EmbeddedPoint):
        if metric is not None:
            raise ValueError("an embedded point takes no metric family")
        geometry, mname = EMBEDDED[point.kind], "euclidean"
        basis = tangent_basis(point)
        gram = np.eye(len(basis))  # the basis is orthonormal
        h, grad = riem_hess_matrix_embedded(point, obj, basis)
        gnorm = grad.norm()
    else:
        if metric is None:
            raise ValueError("quotient geometries need a metric family")
        geometry, mname = point.geometry, metric.name
        basis, gram = horizontal_basis(point, metric)
        w = np.linalg.eigvalsh(finite(gram))  # its condition is w[-1] / w[0]
        if below_floor(w[0], w[-1], RANK_TOL):
            raise ConditioningError(f"basis Gram condition exceeds 1 / RANK_TOL "
                                    f"(eigenvalues {w[0]:.3e}..{w[-1]:.3e})")
        h, grad = riem_hess_matrix_quotient(point, obj, metric, basis)
        gnorm = metric_norm(point, grad, metric)
    eig, _ = gen_sym_eig(h, gram)
    return SpectrumReport(geometry, mname, eig, basis, gram, h, float(gnorm))


# ---------------------------------------------------------------------------
# sandwich verification at FOSPs


def verify_sandwich(
    z: QuotientPoint,
    obj: Objective,
    metric: MetricFamily,
    embedded: SpectrumReport,
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
    norm, and the report records the coupling. The tolerances are the
    module's constants FOSP_TOL, SANDWICH_MARGIN and IDENTITY_RTOL.
    """
    embedded.basis.check_base(z.point, "embedded spectrum")
    quo = hessian_spectrum(z, obj, metric)
    gnorm = quo.grad_norm
    threshold = fosp_threshold(obj, z.X)
    if not gnorm <= threshold:  # a NaN norm is no FOSP
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
        ok = m_lo >= -SANDWICH_MARGIN * scale and m_hi >= -SANDWICH_MARGIN * scale
        per_index.append({"k": k, "lam_f": float(f), "lam_h": float(q), "lo": float(lo),
                          "hi": float(hi), "margin_lo": m_lo, "margin_hi": m_hi,
                          "ok": bool(ok)})
    sandwich_ok = all(row["ok"] for row in per_index)

    # the congruence H_q = M^T H_f M, entry by entry
    identity_tol = IDENTITY_RTOL + gnorm / scale
    m = embedded.basis.flat() @ forward_map(z, quo.basis, metric).flat().T
    root = np.sqrt(np.diag(quo.gram))
    err = np.abs(quo.matrix - m.T @ embedded.matrix @ m) / (scale * np.outer(root, root))
    max_rel = float(np.max(err))
    identity_ok = max_rel <= identity_tol

    matched = (coeffs.beta - coeffs.alpha) <= MATCHED_RTOL * max(1.0, coeffs.beta)
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


def classify_point(
    point,
    obj: Objective,
    metric: Optional[MetricFamily] = None,
) -> dict:
    """FOSP / SOSP / strict-saddle classification under the point's geometry,
    with the metric rules of ``hessian_spectrum``: the flags, the smallest
    eigenvalue, the gradient norm, the label and the tolerances."""
    report = hessian_spectrum(point, obj, metric)
    sscale = max(1.0, float(np.max(np.abs(report.eigenvalues))))
    lam_min = report.min_eigenvalue
    is_fosp = bool(report.grad_norm <= fosp_threshold(obj, point.X))
    is_sosp = bool(is_fosp and lam_min >= -CLASSIFY_TOL_HESS * sscale)
    is_saddle = bool(is_fosp and lam_min <= -CLASSIFY_TOL_SADDLE * sscale)
    label = ("non-stationary" if not is_fosp else "sosp" if is_sosp
             else "strict-saddle" if is_saddle else "fosp")
    return {"is_fosp": is_fosp, "is_sosp": is_sosp, "is_strict_saddle": is_saddle,
            "min_eigenvalue": float(lam_min), "grad_norm": float(report.grad_norm),
            "label": label, "tolerances": {"tol_grad": FOSP_TOL, "tol_hess": CLASSIFY_TOL_HESS,
                                           "tol_saddle": CLASSIFY_TOL_SADDLE}}


# ---------------------------------------------------------------------------
# FOSP finder (Riemannian trust region with truncated CG)


@dataclass(frozen=True, eq=False)
class FospResult:
    point: EmbeddedPoint
    converged: bool
    iterations: int  # outer iterations
    grad_norm: float
    trace: list  # (iteration, f, |grad|), one per outer iteration
    message: str
    outcome: str  # one of FOSP_OUTCOMES
    hess_vecs: int  # Hessian-vector products of the inner solves


# how a search ends: its gradient reached tol, its outer budget ran out, or its
# trust radius fell below RADIUS_FLOOR initial radii
FOSP_OUTCOMES = ("converged", "budget spent", "radius collapsed")
RADIUS_FLOOR = 1e-12
# the initial trust radius, relative to ||X_0||_F, and the largest, in initial
# radii (Manopt's Delta_bar / 8 and Delta_bar). Over classify's sweep (completion
# general 10x8, r=2, problem seeds 0-39, 2 starts each, 200 outer iterations),
# initial radii of 1/8 to 2 ||X_0||_F converged 63-68 of the 80 starts, the most
# at 1. At 1, psd 10x10 converged 78 of 80; at 1000 outer iterations every
# other start of either kind ran away, sigma_1 past 1,000
TR_RADIUS, TR_RADIUS_CAP = 1.0, 8.0
TR_ACCEPT = 0.1  # a step is taken when its ratio of actual to model decrease exceeds this
TR_SHRINK, TR_GROW = 0.25, 0.75  # the ratios below which the radius shrinks, above which it grows
# the inner solve stops at |r| <= |r_0| min(|r_0|, TCG_KAPPA): linear, then quadratic convergence
TCG_KAPPA = 0.1
# the ratio's numerator and denominator both gain this many ulps of max(1, |f|),
# so a step whose decrease is rounding alone reads a ratio near 1, not noise
RHO_REGULARIZATION = 1e3


def _tcg(pt, obj, egrad, grad, radius, max_inner):
    """Steihaug-Toint truncated CG on m(eta) = f + <grad, eta> + <eta, Hess f[eta]> / 2
    over ||eta|| <= radius, in ``EmbeddedTangent.flat`` coordinates: dot products,
    elementwise updates, and each Hessian-vector product ``embedded._hess_vec_flat``,
    the formula of ``riem_hess_vec_embedded``, from flat direction to flat image with
    no tangent object. The singular-core refusal is read once, before the first
    product. Returns eta and Hess f[eta] as tangents, the Hessian-vector products
    taken, and whether eta stopped on the boundary (by negative curvature or by
    leaving it)."""
    sig = _invertible_core(pt)
    g = grad.flat()
    eta = heta = 0.0 * g
    res, rr = g, float(g @ g)
    r0 = np.sqrt(rr)
    delta = -res
    e_e = e_d = 0.0  # <eta, eta>, <eta, delta>
    d_d = rr  # <delta, delta>
    j, boundary = max_inner, False
    for j in range(1, max_inner + 1):
        hd = _hess_vec_flat(pt, obj, sig, egrad, delta)
        d_hd = float(delta @ hd)
        alpha = rr / d_hd if d_hd > 0 else np.inf  # a zero or NaN curvature stops here too
        e_e_next = e_e + 2.0 * alpha * e_d + alpha * alpha * d_d
        if not (d_hd > 0 and e_e_next < radius**2):
            tau = (-e_d + np.sqrt(e_d * e_d + d_d * (radius**2 - e_e))) / d_d
            eta, heta, boundary = eta + tau * delta, heta + tau * hd, True
            break
        e_e = e_e_next
        eta, heta, res = eta + alpha * delta, heta + alpha * hd, res + alpha * hd
        rr_next = float(res @ res)
        if np.sqrt(rr_next) <= r0 * min(r0, TCG_KAPPA):
            break
        beta, rr = rr_next / rr, rr_next
        e_d = beta * (e_d + alpha * d_d)
        d_d = rr + beta * beta * d_d
        delta = beta * delta - res
    return (*(EmbeddedTangent.from_flat(pt, a) for a in (eta, heta)), j, boundary)


def find_fosp(
    obj: Objective,
    init: EmbeddedPoint,
    max_iter: int = FOSP_BUDGET,
    tol: float = FOSP_GRAD_TOL,
) -> FospResult:
    """Riemannian trust region with Steihaug-Toint truncated CG (Absil, Baker
    & Gallivan, FoCM 2007) and the projection retraction, on the embedded
    manifold of ``init``'s kind, until |grad| <= tol or ``max_iter`` outer
    iterations. The model's Hessian is the formula of
    ``riem_hess_vec_embedded``, on flat factored coordinates with no basis
    (``_tcg``). A candidate whose ``retract`` raises (rank lost, or a
    non-finite entry) is refused like one whose ratio of actual to model
    decrease is below TR_SHRINK: the radius falls to a quarter of the
    refused step. The initial radius is TR_RADIUS ||X_0||_F.
    ``tol`` is absolute and ``max_iter`` counts outer iterations; the result
    names its outcome, one of FOSP_OUTCOMES, and counts the inner solves'
    Hessian-vector products.

    Stationary points correspond one-to-one across geometries, so a
    quotient representative of the result is ``lift_point(result.point,
    geometry)``.
    """
    pt = init
    p1, p2 = pt.shape
    max_inner = quotient_dim(EMBEDDED[pt.kind], p1, p2, pt.r)  # CG ends in d steps
    radius = radius0 = TR_RADIUS * float(np.linalg.norm(pt.X))
    fval = obj.value(pt.X)
    egrad = _egrad(pt, obj)
    grad = _project(pt, egrad)
    gnorm = grad.norm()
    trace = [(0, fval, gnorm)]
    it = hess_vecs = 0
    outcome = "converged" if gnorm <= tol else ""
    while not outcome:
        if it == max_iter:
            outcome = "budget spent"
            break
        it += 1
        eta, heta, n_hv, boundary = _tcg(pt, obj, egrad, grad, radius, max_inner)
        hess_vecs += n_hv
        try:
            cand = retract(pt, eta, 1.0)
        except (RankError, np.linalg.LinAlgError):
            cand, fnew = None, np.nan
        else:
            fnew = obj.value(cand.X)
        reg = RHO_REGULARIZATION * np.finfo(float).eps * max(1.0, abs(fval))
        model = reg - grad.inner(eta) - 0.5 * eta.inner(heta)
        rho = (fval - fnew + reg) / model if model > 0 else np.nan
        if not rho >= TR_SHRINK:  # a refused candidate has a NaN ratio
            radius = 0.25 * min(radius, eta.norm())
        elif rho > TR_GROW and boundary:
            radius = min(2.0 * radius, TR_RADIUS_CAP * radius0)
        if rho > TR_ACCEPT:
            pt, fval = cand, fnew
            egrad = _egrad(pt, obj)
            grad = _project(pt, egrad)
            gnorm = grad.norm()
        trace.append((it, fval, gnorm))
        if gnorm <= tol:
            outcome = "converged"
        elif radius < RADIUS_FLOOR * radius0:
            outcome = "radius collapsed"

    message = {"converged": f"converged in {it} iterations",
               "budget spent": f"max_iter={max_iter} reached with |grad| = {gnorm:.3e}",
               "radius collapsed": f"trust radius collapsed at iteration {it} with "
                                   f"|grad| = {gnorm:.3e}"}[outcome]
    return FospResult(pt, outcome == "converged", it, float(gnorm), trace, message,
                      outcome, hess_vecs)


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
    drawn, since their number grows as C(p, r). A point whose gradient norm
    exceeds ANALYTIC_FOSP_TOL (1 + ||M||_2) raises ``ValueError``.
    """
    if obj.kind != "approx":
        raise ValueError("analytic stationary points require the matrix-approx objective")
    m = obj.target
    scale = np.linalg.norm(m, 2)
    if obj.symmetric:
        w, q = np.linalg.eigh(sym(m))
        order = np.argsort(w)[::-1]
        w, q = w[order], q[:, order]
        keep = np.flatnonzero(~below_floor(w, scale, RANK_TOL))
        vals = w[keep]
        kind = "psd"
    else:
        u_all, s_all, vt_all = np.linalg.svd(m)
        keep = np.flatnonzero(~below_floor(s_all, scale, RANK_TOL))
        vals = s_all[keep]
        kind = "general"
    if len(vals) < r:
        raise RankError(f"target has numerical rank {len(vals)} < r = {r}")
    gaps = np.abs(vals[:, None] - vals[None, :]) + np.eye(len(vals)) * scale
    if below_floor(np.min(gaps), scale, SPECTRUM_GAP_TOL):
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
        bound = ANALYTIC_FOSP_TOL * (1.0 + scale)
        if not gnorm <= bound:  # a spectrum too ill-separated to solve to this bound
            raise ValueError(f"analytic stationary point failed certification: |grad| = "
                             f"{gnorm:.3e} > {bound:.3e} = ANALYTIC_FOSP_TOL (1 + ||M||_2)")
        return pt

    return map(certified, itertools.combinations(range(len(vals)), r))
