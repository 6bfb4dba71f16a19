"""Shared builders for randomized test instances, derivative oracles (complex
step and finite differences), and the CLI runner."""

import ctypes
import os
import subprocess
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

import georank
from georank import make_masked_completion, make_matrix_approx, make_matrix_sensing
from georank.cli import TOLERANCES, _build_objective, _check, _plan, _worst
from georank.embedded import (_point_from_factors, project_rank_r, retract,
                               riem_grad_embedded, riem_hess_vec_embedded, tangent_project,
                               truncate_sum)
from georank.flows import flow_field
from georank.objectives import Objective
from georank.landscape import TCG_KAPPA, hessian_spectrum
from georank.linalg import RankError, gen_sym_eig, skew, sym
from georank.quotient import (
    EMBEDDED,
    GEOMETRY_KIND,
    GenQ1,
    GenQ2,
    GenQ3,
    HorizontalVector,
    PsdQ1,
    PsdQ2,
    REGISTRY,
    QuotientPoint,
    Weights,
    _ambient_gradient,
    _dot,
    _qf as qf,
    horizontal_basis,
    metric_choices,
    metric_family,
    metric_inner,
    quotient_point,
    random_horizontal,
    random_point,
    riem_hess_quad_quotient,
)
from georank.transport import forward_map, inverse_map, spectrum_bounds

PSD_QUOTIENTS = ("psd_q1", "psd_q2")
GEN_QUOTIENTS = ("gen_q1", "gen_q2", "gen_q3")
ALL_QUOTIENTS = PSD_QUOTIENTS + GEN_QUOTIENTS


def random_approx_objective(kind, p1, p2, rng):
    a = rng.standard_normal((p1, p2))
    if kind == "psd":
        return make_matrix_approx(sym(a), symmetric=True)
    return make_matrix_approx(a)


def random_objective(kind, p1, p2, name, rng):
    """A random "approx" objective, a "completion" one observing about 60%
    of the entries (a symmetric mask for PSD), or a "sensing" one with
    p1 p2 + 3 Gaussian measurement matrices and observations."""
    if name == "approx":
        return random_approx_objective(kind, p1, p2, rng)
    if name == "sensing":
        m = p1 * p2 + 3
        return make_matrix_sensing(rng.standard_normal((m, p1, p2)),
                                   rng.standard_normal(m), symmetric=kind == "psd")
    target = rng.standard_normal((p1, p2))
    mask = (rng.random((p1, p2)) < 0.6).astype(float)
    if kind == "psd":
        target, mask = sym(target), np.maximum(mask, mask.T)
    return make_masked_completion(target, mask, symmetric=kind == "psd")


def blas_core():
    """The OpenBLAS kernel numpy runs under, such as "SkylakeX" or "Haswell":
    OpenBLAS picks one for the CPU, and ``OPENBLAS_CORETYPE`` overrides it.
    "unknown" when numpy does not bundle OpenBLAS."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def counting(obj):
    """The objective with counters on its Euclidean gradient and Hessian:
    returns it and a dict of call counts, "egrad" and "ehess_vec"."""
    calls = {"egrad": 0, "ehess_vec": 0}

    class Counted(Objective):
        def egrad(self, x):
            calls["egrad"] += 1
            return super().egrad(x)

        def ehess_vec(self, x, z):
            calls["ehess_vec"] += 1
            return super().ehess_vec(x, z)

    return Counted(*(getattr(obj, f.name) for f in fields(Objective))), calls


def symmetrized_sensing(ops, obs):
    """Oracle: symmetric sensing as the average (f(X) + f(X^T))/2 of the
    sensing objective with the operators as given. Returns the value, the
    Euclidean gradient and the Hessian-vector product; on symmetric operators
    and inputs they are the symmetric objective's, bit for bit."""
    ops = np.asarray(ops, dtype=float)
    b = np.asarray(obs, dtype=float).ravel()

    def residuals(x):
        return (np.tensordot(ops, x, axes=([1, 2], [-2, -1]))
                - b.reshape((-1,) + (1,) * (x.ndim - 2)))

    def raw_value(x):
        return 0.5 * np.sum(residuals(x) ** 2, axis=0)

    def raw_egrad(x):
        return np.tensordot(residuals(x), ops, axes=(0, 0))

    def raw_ehess(x, z):
        return np.tensordot(np.tensordot(ops, z, axes=([1, 2], [0, 1])), ops, axes=(0, 0))

    def value(x):
        x = np.asarray(x, dtype=float)
        out = 0.5 * (raw_value(x) + raw_value(x.mT))
        return out if x.ndim > 2 else float(out)

    def egrad(x):
        return 0.5 * (raw_egrad(x) + raw_egrad(x.T).T)

    def ehess_vec(x, z):
        return 0.5 * (raw_ehess(x, z) + raw_ehess(x.T, z.T).T)

    return value, egrad, ehess_vec


# the gradient-descent FOSP search that preceded the trust region, kept as
# its oracle: Riemannian gradient descent with Armijo backtracking and the
# projection retraction, from a first step of 1 / (power-iteration estimate of
# the Euclidean Hessian's norm)
GD_BACKTRACKS = 60  # step halvings per line search
GD_ARMIJO = 1e-4  # sufficient-decrease constant of that line search
GD_FLAT_HESSIAN = 1e-12  # a Hessian norm estimate at most this is 0: a unit first step


def _hessian_norm_estimate(obj, x, iters=20, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(x.shape)
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(iters):
        w = obj.ehess_vec(x, v)
        lam = np.linalg.norm(w)
        if not lam > GD_FLAT_HESSIAN:
            return 0.0
        v = w / lam
    return float(lam)


def gradient_descent_fosp(obj, init, max_iter, tol):
    """Oracle: (point, converged) of gradient descent from ``init`` until
    |grad| <= tol, within ``max_iter`` iterations."""
    pt = init
    lip = _hessian_norm_estimate(obj, pt.X)
    t0 = 1.0 / lip if lip else 1.0
    fval = obj.value(pt.X)
    grad = riem_grad_embedded(pt, obj)
    gnorm = grad.norm()
    for _ in range(max_iter):
        if gnorm <= tol:
            break
        step = t0
        for _ in range(GD_BACKTRACKS):
            try:
                cand = retract(pt, grad, -step)
            except (RankError, np.linalg.LinAlgError):
                step *= 0.5
                continue
            fnew = obj.value(cand.X)
            if fnew <= fval - GD_ARMIJO * step * gnorm**2:
                break
            step *= 0.5
        else:
            return pt, False
        pt, fval = cand, fnew
        grad = riem_grad_embedded(pt, obj)
        gnorm = grad.norm()
    return pt, bool(gnorm <= tol)


# the benchmark's classify panel, run at problem seeds 1 and 2
CLASSIFY_PANEL = {"problem": {"kind": "completion", "case": "general", "p1": 10, "p2": 8,
                              "r": 2}, "geometries": ["gen_embedded"], "max_fosp_points": 2}


def cli_starts(config, seed):
    """The objective and the find_fosp starts of a solver-FOSP CLI report."""
    plan = _plan(config)
    rng = np.random.default_rng(seed)
    obj = _build_objective(plan.problem, rng)
    kind_tag = EMBEDDED[plan.problem["case"]]
    return obj, [plan.point(kind_tag, rng) for _ in range(config["max_fosp_points"])]


def object_tcg(pt, obj, egrad, grad, radius, max_inner):
    """Oracle of ``landscape._tcg``: the same Steihaug-Toint truncated CG in
    tangent-object arithmetic, each update a ``Stack`` operation and each
    inner product ``EmbeddedTangent.inner``. Returns eta, Hess f[eta], the
    Hessian-vector products taken, and whether eta stopped on the boundary."""
    eta = heta = 0.0 * grad
    res, rr = grad, grad.inner(grad)
    r0 = np.sqrt(rr)
    delta = -res
    e_e = e_d = 0.0  # <eta, eta>, <eta, delta>
    d_d = rr  # <delta, delta>
    for j in range(1, max_inner + 1):
        hd = riem_hess_vec_embedded(pt, obj, delta, egrad)
        d_hd = delta.inner(hd)
        alpha = rr / d_hd if d_hd > 0 else np.inf  # a zero or NaN curvature stops here too
        e_e_next = e_e + 2.0 * alpha * e_d + alpha * alpha * d_d
        if not (d_hd > 0 and e_e_next < radius**2):
            tau = (-e_d + np.sqrt(e_d * e_d + d_d * (radius**2 - e_e))) / d_d
            return plus(eta, tau * delta), plus(heta, tau * hd), j, True
        e_e = e_e_next
        eta, heta = plus(eta, alpha * delta), plus(heta, alpha * hd)
        res = plus(res, alpha * hd)
        rr_next = res.inner(res)
        if np.sqrt(rr_next) <= r0 * min(r0, TCG_KAPPA):
            return eta, heta, j, False
        beta, rr = rr_next / rr, rr_next
        e_d = beta * (e_d + alpha * d_d)
        d_d = rr + beta * beta * d_d
        delta = beta * delta - res
    return eta, heta, max_inner, False


def geometry_metric_combos(geometries):
    """(geometry, metric) pairs over every enumerated metric family."""
    for geo in geometries:
        for name in metric_choices(geo):
            yield geo, metric_family(geo, name)


COMPLEX_STEP = 1e-30  # the step's h^2 truncation term lies far below rounding


def complex_step(fn, x, v, h=COMPLEX_STEP):
    """Im fn(X + i h V) / h: the derivative of a real-analytic fn along V,
    exact to rounding, as no difference cancels (Squire & Trapp, SIAM Review
    1998). fn must take a complex argument without conjugating it; its
    result may be a number or an array."""
    return np.imag(fn(np.asarray(x) + 1j * h * np.asarray(v))) / h


def finite_diff_directional(fn, x, v, order, h):
    """Central finite difference of a scalar matrix function along V.

    order 1: (f(X+hV) - f(X-hV)) / (2h)
    order 2: (f(X+hV) - 2 f(X) + f(X-hV)) / h^2
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    fp = float(fn(x + h * v))
    fm = float(fn(x - h * v))
    if order == 1:
        out = (fp - fm) / (2.0 * h)
    elif order == 2:
        f0 = float(fn(x))
        out = (fp - 2.0 * f0 + fm) / h**2
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")
    if not np.isfinite(out):
        raise ValueError("function evaluated to a non-finite value")
    return out


def total_curve(z, theta):
    """Curve t -> quotient point through z with initial velocity theta: the
    factors moved by t along theta, on straight lines with a QR retraction on
    Stiefel factors, and one ``quotient_point`` (checks, frame and X) per
    evaluation. The curve of the finite-difference tests (any t for
    gradients, stationary points for Hessians, where curve-independence
    holds)."""
    theta.check_base(z)
    kinds = [f.kind for f in REGISTRY[z.geometry].factors]

    def curve(t):
        moved = [base + t * a for base, a in zip(z.factors, theta.parts)]
        return quotient_point(z.geometry, *(qf(m) if k == "stiefel" else sym(m) if k == "spd"
                                            else m for k, m in zip(kinds, moved)))

    return curve


def metric_derivative_cs(metric, key, z, parts):
    """Complex step of one weight at z, key "w", "v", "w_inv" or "v_inv",
    along the straight line z + i h ``parts`` in the total space: the weight's
    form (``Weight._form``) of the complex factors, inverted by
    ``np.linalg.inv`` for an inverse weight or an inverse key, so no
    eigendecomposition runs on the complex path."""
    spec = metric.weights[key.removesuffix("_inv")]

    def weight(t):  # the weight at the factors z + t parts
        factors = tuple(f + t * a for f, a in zip(z.factors, parts))
        form = spec._form(QuotientPoint(z.geometry, factors, z.point), None)
        return np.linalg.inv(form) if spec.inverse != key.endswith("_inv") else form

    return complex_step(weight, 0.0, 1.0)


def gauge_act(geometry, parts, g):
    """The gauge action on factors or on tangent components alike: O(r) acts
    by g^T B g on an SPD core and by F g on the other factors; GL(r) acts on
    gen_q1's L by g and on its R by g^-T."""
    if geometry == "gen_q1":
        return (parts[0] @ g, parts[1] @ np.linalg.inv(g).T)
    return tuple(g.T @ a @ g if f.kind == "spd" else a @ g
                 for f, a in zip(REGISTRY[geometry].factors, parts))


def act_on_point(z, g):
    """Move z along its fiber by a gauge element (O(r), or GL(r) for gen_q1)."""
    g = np.asarray(g, dtype=float)
    return quotient_point(z.geometry, *gauge_act(z.geometry, z.factors, g))


def act_on_horizontal(hv, z_new, g):
    """Transport a horizontal lift to the gauge-moved representative."""
    g = np.asarray(g, dtype=float)
    return HorizontalVector(z_new, gauge_act(hv.base.geometry, hv.parts, g))


def embedded_spectrum(pt, obj):
    """The embedded Hessian spectrum at an embedded point, which
    ``verify_sandwich`` takes for every quotient row at that point."""
    return hessian_spectrum(pt, obj)


def spectrum_dim(report):
    """The dimension of the space a ``SpectrumReport`` spans: its number of
    eigenvalues."""
    return len(report.eigenvalues)


def plus(a, b):
    """a + b, for ambient matrices and for ``Stack`` vectors, which have a
    difference but no sum: a - (-b), whose rounding is the sum's."""
    return a - (-b)


def polarize(quad, a, b) -> float:
    """Bilinear form from a quadratic form: (Q(a+b) - Q(a-b)) / 4.

    Works for any vector type supporting - and negation (ambient matrices,
    embedded tangents, horizontal vectors). The library evaluates its Hessian
    forms bilinearly; this is the independent path the tests compare them
    with.
    """
    return (quad(plus(a, b)) - quad(a - b)) / 4.0


def stacked(*vectors):
    """Single vectors at one base point as one stack, in order, of the first
    one's class (a horizontal stack keeps the first one's space)."""
    first = vectors[0]
    return first._new(tuple(map(np.stack, zip(*(v.parts for v in vectors)))))


def pairwise_gram(z, basis, metric):
    """The Gram matrix of a stacked basis, one ``metric_inner`` per pair: the
    oracle of ``horizontal_basis``'s flattened products."""
    d = len(basis)
    return np.array([[metric_inner(z, basis[i], basis[j], metric) for j in range(d)]
                     for i in range(d)])


def pairwise_hess_matrix_embedded(pt, obj, tangents):
    """The embedded Hessian matrix entry by entry: one Euclidean Hessian image
    per row, and per pair its contraction plus the curvature coupling
    <nabla f, Up_i Sigma^-1 Vp_j^T + Up_j Sigma^-1 Vp_i^T>. The oracle of
    ``riem_hess_matrix_embedded``, written from the polarized form rather
    than from the Hessian-vector formula the builder applies."""
    egrad = obj.egrad(pt.X)
    ambs = tangents.ambient()
    ups, right = tangents.Up, np.linalg.solve(pt.Sigma, tangents.Vp.mT)
    h = np.zeros((len(tangents),) * 2)
    for i in range(len(h)):
        image = obj.ehess_vec(pt.X, ambs[i])
        for j in range(i, len(h)):
            coupled = ups[i] @ right[j] + ups[j] @ right[i]
            h[i, j] = h[j, i] = (float(np.sum(image * ambs[j]))
                                 + float(np.sum(egrad * coupled)))
    return h


def pairwise_hess_matrix_quotient(z, obj, metric, vectors):
    """The quotient Hessian matrix entry by entry, each entry the symmetric
    bilinear form of ``QuotientGeometry.hess_matrix`` with its Euclidean term
    contracted from one image per row: the oracle of that builder's
    ``Objective.ehess_matrix``."""
    geo, wt, parts, x = REGISTRY[z.geometry], z.weights(metric), vectors.parts, z.X
    nabla = _ambient_gradient(z, obj.egrad(x))
    grad = geo.grad_lift(z, wt, nabla)
    stiefel = [(i, base, geo.partial(z, nabla, i))
               for i, (f, base) in enumerate(zip(geo.factors, z.factors))
               if f.kind == "stiefel"]
    dw_grad = geo._dw(z, wt, grad)
    diffs = geo.differential(z, parts)
    dws = geo._dw(z, wt, parts)
    h = np.zeros((len(parts[0]),) * 2)
    for i in range(len(h)):
        a, dwa = [c[i] for c in parts], {key: dw[i] for key, dw in dws.items()}
        image = obj.ehess_vec(x, diffs[i])
        for j in range(i, len(h)):
            b, dwb = [c[j] for c in parts], {key: dw[j] for key, dw in dws.items()}
            out = _dot(image, diffs[j])
            out += _dot(nabla, geo.second(z, a, b))
            for k, base, dk in stiefel:
                out -= _dot(dk, base @ sym(a[k].T @ b[k]))
            out -= (geo._dg(wt, dwa, b, grad) + geo._dg(wt, dwb, a, grad)) / 2.0
            out += geo._dg(wt, dw_grad, a, b) / 2.0
            h[i, j] = h[j, i] = out
    return h


def mixed_basis_spectrum(z, obj, metric, rng):
    """Quotient Hessian spectrum assembled by polarization of the quadratic
    form over a random invertible recombination of the pulled-back horizontal
    basis. The spectrum does not depend on the basis, so it must match
    ``hessian_spectrum``, which builds the Hessian matrix directly."""
    basis, gram = horizontal_basis(z, metric)
    d = len(basis)
    c = rng.standard_normal((d, d)) / np.sqrt(d) + np.eye(d)
    mixed = basis._new(tuple(np.tensordot(c.T, a, axes=1) for a in basis.parts))

    def quad(v):
        return riem_hess_quad_quotient(z, obj, metric, v)

    h = np.zeros((d, d))
    for i in range(d):
        h[i, i] = quad(mixed[i])
        for j in range(i + 1, d):
            h[i, j] = h[j, i] = polarize(quad, mixed[i], mixed[j])
    return gen_sym_eig(h, c.T @ gram @ c)[0]


# Hand-written matched frames and canonical lifts, one per geometry, kept as
# oracles for the ones the library derives from each factor map's chain. A
# lift takes a point with a diagonal Sigma and that Sigma's square root.


def hand_frame(geometry, factors):
    """The matched embedded point of a geometry's factors."""
    if geometry == "psd_q1":
        (y,) = factors
        u = qf(y)
        return _point_from_factors("psd", u, u.T @ (y @ y.T) @ u, u)
    if geometry == "psd_q2":
        u, b = factors
        return _point_from_factors("psd", u, b, u)
    if geometry == "gen_q1":
        l, r_ = factors
        u, v = qf(l), qf(r_)
        return _point_from_factors("general", u, (u.T @ l) @ (v.T @ r_).T, v)
    if geometry == "gen_q2":
        u, b, v = factors
        return _point_from_factors("general", u, b, v)
    u, y = factors
    v = qf(y)
    # Sigma = U^T X V = Y^T V for X = U Y^T
    return _point_from_factors("general", u, y.T @ v, v)


HAND_LIFTS = {
    "psd_q1": lambda pt, sig, root: (pt.U @ root,),
    "psd_q2": lambda pt, sig, root: (pt.U, sig),
    "gen_q1": lambda pt, sig, root: (pt.U @ root, pt.V @ root),
    "gen_q2": lambda pt, sig, root: (pt.U, sig, pt.V),
    "gen_q3": lambda pt, sig, root: (pt.U, pt.V @ sig),
}


def hand_lift(geometry, pt):
    """Canonical factors of an embedded point with a diagonal Sigma."""
    sig = pt.Sigma
    return HAND_LIFTS[geometry](pt, sig, np.diag(np.sqrt(np.diag(sig))))


def hand_inner(z, metric, t1, t2):
    """The metric as traces: tr(W a^T b) on Stiefel and free factors,
    tr(W a W b) on the SPD core."""
    wt = z.weights(metric)
    out = 0.0
    for f, a, b in zip(REGISTRY[z.geometry].factors, t1.parts, t2.parts):
        w = getattr(wt, f.weight)
        out += np.trace(w @ a @ w @ b if f.kind == "spd" else w @ a.T @ b)
    return out


# Hand-derived gradient lifts and Hessian forms, one per geometry, kept as
# oracles for the forms the library derives from each factor map's chain.
# Their differential is the library's.


def ehess_quad(obj, x, d):
    """The Euclidean Hessian form <ehess_vec(X, D), D>."""
    return _dot(obj.ehess_vec(x, d), d)


@dataclass(frozen=True, eq=False)
class OracleWeights(Weights):
    """A point's weights with the directional derivatives of each weight and
    of its inverse (d W^-1 = -W^-1 dW W^-1), which the hand forms read."""

    z: QuotientPoint = field(kw_only=True)

    def dw(self, parts):
        return self.metric.weights["w"].deriv(self.z, self.w, parts)

    def dv(self, parts):
        return self.metric.weights["v"].deriv(self.z, self.v, parts)

    def dw_inv(self, parts):
        return -self.w_inv @ self.dw(parts) @ self.w_inv

    def dv_inv(self, parts):
        return -self.v_inv @ self.dv(parts) @ self.v_inv


def oracle_weights(z, metric):
    wt = z.weights(metric)
    return OracleWeights(**{f.name: getattr(wt, f.name) for f in fields(wt) if f.init},
                         z=z)


class HandPsdQ1(PsdQ1):
    def grad_lift(self, z, wt, nabla):
        return (2.0 * nabla @ z.factor("Y") @ wt.w_inv,)

    def hess_quad(self, z, obj, wt, theta, x, nabla):
        yfac = z.factor("Y")
        (ty,) = theta
        out = ehess_quad(obj, x, self.differential(z, theta))
        out += 2.0 * _dot(nabla, ty @ ty.T)
        out += 2.0 * _dot(nabla @ yfac @ wt.dw_inv(theta), ty @ wt.w)
        grad = self.grad_lift(z, wt, nabla)
        out += _dot(wt.dw(grad), ty.T @ ty) / 2.0
        return out


class HandPsdQ2(PsdQ2):
    def grad_lift(self, z, wt, nabla):
        u, b = z.factors
        nu = nabla @ u
        return (2.0 * (nu - u @ (u.T @ nu)) @ b @ wt.v_inv,
                wt.w_inv @ u.T @ nu @ wt.w_inv)

    def hess_quad(self, z, obj, wt, theta, x, nabla):
        u, b = z.factors
        tu, tb = theta
        out = ehess_quad(obj, x, self.differential(z, theta))
        out += 2.0 * _dot(nabla, tu @ b @ tu.T)
        wb, vb = wt.w, wt.v
        inner = (
            2.0 * tu @ tb
            + u @ wt.dw_inv(theta) @ wb @ tb
            + tu @ vb @ wt.dv_inv(theta) @ b
            - tu @ (u.T @ tu) @ b
            - u @ tu.T @ tu @ b
        )
        out += 2.0 * _dot(nabla @ u, inner)
        grad_b = self.grad_lift(z, wt, nabla)[1]
        gdir = (np.zeros_like(u), grad_b)
        out += np.trace(wt.dv(gdir) @ tu.T @ tu) / 2.0
        out += np.trace(sym(wb @ tb @ wt.dw(gdir)) @ tb)
        return out


class HandGenQ1(GenQ1):
    def grad_lift(self, z, wt, nabla):
        lfac, rfac = z.factors
        return (nabla @ rfac @ wt.w_inv, nabla.T @ lfac @ wt.v_inv)

    def hess_quad(self, z, obj, wt, theta, x, nabla):
        lfac, rfac = z.factors
        tl, tr = theta
        out = ehess_quad(obj, x, self.differential(z, theta))
        out += 2.0 * _dot(nabla, tl @ tr.T)
        out += _dot(nabla @ rfac @ wt.dw_inv(theta), tl @ wt.w)
        out += _dot(nabla.T @ lfac @ wt.dv_inv(theta), tr @ wt.v)
        grad = self.grad_lift(z, wt, nabla)
        out += _dot(wt.dw(grad), tl.T @ tl) / 2.0
        out += _dot(wt.dv(grad), tr.T @ tr) / 2.0
        return out


class HandGenQ2(GenQ2):
    def grad_lift(self, z, wt, nabla):
        u, b, v = z.factors
        delta = u.T @ nabla @ v
        mix = (skew(delta) @ b + b @ skew(delta)) / 2.0
        nv = nabla @ v
        ntu = nabla.T @ u
        return (
            (nv - u @ (u.T @ nv)) @ b + u @ mix,
            b @ sym(delta) @ b,
            (ntu - v @ (v.T @ ntu)) @ b - v @ mix,
        )

    def hess_quad(self, z, obj, wt, theta, x, nabla):
        u, b, v = z.factors
        tu, tb, tv = theta
        out = ehess_quad(obj, x, self.differential(z, theta))
        out += 2.0 * _dot(nabla, tu @ b @ tv.T)
        delta = u.T @ nabla @ v
        dprime = tu.T @ nabla @ v
        dsecond = u.T @ nabla @ tv
        utu = u.T @ tu
        vtv = v.T @ tv
        binv = np.linalg.inv(b)
        out += _dot(delta, sym(utu @ utu) @ b + b @ sym(vtv @ utu) - 2.0 * tu.T @ tu @ b) / 2.0
        out += _dot(delta, b @ sym(vtv @ vtv) + sym(utu @ vtv) @ b
                    - 2.0 * b @ tv.T @ tv + 2.0 * tb @ binv @ tb) / 2.0
        out += _dot(dprime, 2.0 * tb - utu @ b - tu.T @ u @ b / 2.0 - vtv @ b / 2.0)
        out += _dot(dsecond, 2.0 * tb - b @ tv.T @ v - b @ vtv / 2.0 - b @ tu.T @ u / 2.0)
        return out


class HandGenQ3(GenQ3):
    def grad_lift(self, z, wt, nabla):
        u, yfac = z.factors
        ny = nabla @ yfac
        return ((ny - u @ (u.T @ ny)) @ wt.v_inv, nabla.T @ u @ wt.w_inv)

    def hess_quad(self, z, obj, wt, theta, x, nabla):
        u, yfac = z.factors
        tu, ty = theta
        out = ehess_quad(obj, x, self.differential(z, theta))
        out += 2.0 * _dot(nabla, tu @ ty.T)
        out -= _dot(u.T @ nabla @ yfac, tu.T @ tu)
        out += _dot(nabla.T @ u @ wt.dw_inv(theta), ty @ wt.w)
        out += _dot(nabla @ yfac @ wt.dv_inv(theta), tu @ wt.v)
        grad_y = self.grad_lift(z, wt, nabla)[1]
        gdir = (np.zeros_like(u), grad_y)
        out += _dot(wt.dw(gdir), ty.T @ ty) / 2.0
        out += _dot(wt.dv(gdir), tu.T @ tu) / 2.0
        return out


HAND = {cls.name: cls() for cls in (HandPsdQ1, HandPsdQ2, HandGenQ1, HandGenQ2,
                                    HandGenQ3)}


def hand_grad_lift(z, metric, nabla):
    """The hand-derived lift of an ambient gradient at z."""
    return HAND[z.geometry].grad_lift(z, oracle_weights(z, metric),
                                      _ambient_gradient(z, nabla))


def hand_hess_quad(z, obj, metric, theta):
    """The hand-derived Hessian form at z along a horizontal theta."""
    x = z.X
    nabla = _ambient_gradient(z, obj.egrad(x))
    return float(HAND[z.geometry].hess_quad(z, obj, oracle_weights(z, metric),
                                            theta.parts, x, nabla))


def trace_points(trace):
    """Every state of a ``FlowTrace`` as an ``EmbeddedPoint``, the start
    point first."""
    return [trace.point(i) for i in range(len(trace))]


def trace_states(trace):
    """The ambient matrices X(t) of a ``FlowTrace``, rank r."""
    return [pt.X for pt in trace_points(trace)]


def dense_flow_states(x0, obj, source, t_final, dt):
    """Oracle for ``flows.integrate_flow``: RK4 on the ambient field, each
    stage point and step end re-factorized by a dense ``project_rank_r`` of
    the formed sum. Returns the ambient states."""
    r, kind = x0.r, x0.kind

    def field(x_ambient):
        return flow_field(project_rank_r(x_ambient, r, kind), obj, source).ambient()

    x = x0.X
    states = [x]
    for _ in range(int(round(t_final / dt))):
        k1 = field(x)
        k2 = field(x + 0.5 * dt * k1)
        k3 = field(x + 0.5 * dt * k2)
        k4 = field(x + dt * k3)
        x = project_rank_r(
            x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), r, kind
        ).X
        states.append(x)
    return states


def sequential_flow(x0, obj, source, t_final, dt):
    """``flows.integrate_flow`` as it was when a trace kept every state as a
    live point: (times, points, degenerate, message)."""
    n_steps = int(round(t_final / dt))
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
            return (times[: k + 1], points, True,
                    f"{cause} at t = {times[k]:.6g}: {exc}")
        points.append(pt)
    return times, points, False, ""


def sequential_compare(x0, obj, source_a, source_b, t_final, dt):
    """Oracle for ``flows.compare_flows``: each flow integrated to its own
    end, one after the other, and the deviations taken from the zipped
    states; its "trace_a" is ``sequential_flow``'s tuple."""
    tr_a = sequential_flow(x0, obj, source_a, t_final, dt)
    tr_b = sequential_flow(x0, obj, source_b, t_final, dt)
    devs = np.array([np.linalg.norm(a.X - b.X) for a, b in zip(tr_a[1], tr_b[1])])
    return {
        "times": tr_a[0][: len(devs)],
        "max_deviation": float(np.max(devs)),
        "degenerate": tr_a[2] or tr_b[2],
        "trace_a": tr_a,
    }


def count_calls(monkeypatch, original):
    """Replace every georank module binding of ``original`` with a wrapper
    that records its positional arguments; returns the list of records."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "georank" or name.startswith("georank."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def dense_forward(z, theta):
    """L(theta) through the dense p1 x p2 differential and its tangent
    projection, O(p^2 r) per vector: the oracle of the factored forward map."""
    return tangent_project(z.point, REGISTRY[z.geometry].differential(z, theta.parts))


def bijection_per_direction(plan, obj, rng):
    """``cli.cmd_bijection`` one direction at a time: one draw, L, L^-1 and
    metric inner product per direction, the oracle of its stacked blocks."""
    trials = plan.counts.get("trials", 3)
    n_vec = plan.counts.get("directions", 200)
    checks = []
    for geometry, mname, metric in plan.quotient_rows:
        roundtrip, slack = [], []
        for _ in range(trials):
            z = plan.point(geometry, rng)
            coeffs = spectrum_bounds(z, metric)
            for _ in range(n_vec):
                theta = random_horizontal(z, metric, rng)
                xi = forward_map(z, theta, metric)
                back = inverse_map(z, xi, metric)
                num = np.sqrt(sum(np.sum((a - b) ** 2)
                                  for a, b in zip(theta.parts, back.parts)))
                roundtrip.append(num / max(theta.raw_norm(), 1e-300))
                q = metric_inner(z, theta, theta, metric)
                nrm2 = xi.norm() ** 2
                ref = max(1.0, coeffs.beta * q)
                slack += [(coeffs.alpha * q - nrm2) / ref, (nrm2 - coeffs.beta * q) / ref]
        worst_rt, worst_slack = _worst(roundtrip), _worst(slack)
        checks.append(_check(f"bijection/{geometry}/{mname}",
                             (worst_rt <= TOLERANCES["roundtrip_rtol"]
                              and worst_slack <= TOLERANCES["bound_slack"]),
                             max_roundtrip_rel_err=worst_rt,
                             max_bound_violation=worst_slack,
                             vectors=n_vec * trials))
    return checks


def kind_of(geometry):
    return GEOMETRY_KIND[geometry]


def hv_gap(a, b):
    """Relative component-wise gap between two horizontal vectors."""
    num = np.sqrt(sum(np.sum((x - y) ** 2) for x, y in zip(a.parts, b.parts)))
    den = max(a.raw_norm(), b.raw_norm(), 1e-300)
    return num / den


def run_cli(args, cwd=None):
    """Run `python -m georank.cli *args` in a child process and capture it.

    The child imports the same georank package as the test process: the
    package's parent directory goes first on the child's PYTHONPATH, ahead of
    any inherited entries. A relative PYTHONPATH or the working directory
    therefore cannot leave the child without georank, or with another copy.
    """
    env = dict(os.environ)
    src = str(Path(georank.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "georank.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )
