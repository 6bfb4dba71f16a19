"""Embedded geometry of the fixed-rank PSD and general matrix manifolds.

Both kinds share one factored form (Vandereycken, SIAM J. Optim. 2013): a
rank-r point is X = U S V^T with orthonormal frames U, V, and a tangent
vector is an r x r core S with p x r factors orthogonal to the frames,

    U S V^T + Up V^T + U Vp^T,   U^T Up = 0,   V^T Vp = 0.

The PSD kind is the symmetric case: V is U and Vp is Up, the same arrays,
and S is symmetric. The manifold dimension is p*r - r(r-1)/2 in the PSD
case and (p1 + p2 - r)*r in the general case. The ambient metric is
Frobenius. Projection, norms, the Hessian matrix and the retraction need
only U and V; the orthogonal complements U_perp and V_perp are built on
first use, by the orthonormal tangent basis.

``project_rank_r`` (and with it ``embed_point`` and ``retract``) truncates
an ambient matrix by a dense p x p eigendecomposition or SVD.
``truncate_sum`` truncates X plus a combination of tangents, each at its
own base point, from their stacked factors, decomposing only a core of
size at most r(1 + 2m) for m tangents; the gradient flows use it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import RankError, orth_complement, stack_blocks, sym, sym_basis, unit_basis
from .objectives import Objective

RANK_GAP_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class EmbeddedPoint:
    """Rank-r point X = U Sigma V^T with cached orthonormal frames and
    invertible r x r core; V is U itself for the PSD kind."""

    kind: str  # "psd" | "general"
    X: np.ndarray
    U: np.ndarray
    Sigma: np.ndarray  # U^T X V
    V: np.ndarray

    def __post_init__(self):
        if self.kind == "psd" and self.V is not self.U:
            raise ValueError("a psd point's V must be its U")

    @property
    def r(self) -> int:
        return self.U.shape[1]

    @property
    def shape(self) -> tuple:
        return self.X.shape

    @cached_property
    def Uperp(self) -> np.ndarray:
        """Orthonormal basis of the complement of span(U), p1 x (p1 - r)."""
        return orth_complement(self.U)

    @cached_property
    def Vperp(self) -> np.ndarray:
        """Orthonormal basis of the complement of span(V), p2 x (p2 - r);
        Uperp itself when V is U."""
        return self.Uperp if self.V is self.U else orth_complement(self.V)


@dataclass(frozen=True, eq=False)
class EmbeddedTangent:
    """Tangent vector in factored form at a fixed point: the core
    S = U^T xi V, Up = (I - U U^T) xi V and Vp = (I - V V^T) xi^T U. For the
    PSD kind Vp is Up itself, and arithmetic keeps the two shared."""

    base: EmbeddedPoint
    S: np.ndarray
    Up: np.ndarray
    Vp: np.ndarray

    def __post_init__(self):
        if self.base.kind == "psd" and self.Vp is not self.Up:
            raise ValueError("a psd tangent's Vp must be its Up")

    def __len__(self):
        return _stack_len(self.S)

    def __getitem__(self, key):
        """The tangents of the stack at ``key`` on its leading axis."""
        up = self.Up[key]
        return EmbeddedTangent(self.base, self.S[key], up,
                               up if self.Vp is self.Up else self.Vp[key])

    def ambient(self) -> np.ndarray:
        pt = self.base
        return pt.U @ self.S @ pt.V.T + self.Up @ pt.V.T + pt.U @ self.Vp.mT

    def flat(self) -> np.ndarray:
        """Coordinates (S, Up, Vp) whose dot product is the Frobenius inner
        product of the ambient matrices: one row per tangent of a stack."""
        lead = self.S.shape[:-2]
        return np.concatenate([a.reshape(*lead, -1) for a in (self.S, self.Up, self.Vp)],
                              axis=-1)

    def norm(self):
        """The Frobenius norm: a float, or one per tangent of a stack."""
        return np.sqrt(sum((a * a).sum(axis=(-2, -1)) for a in (self.S, self.Up, self.Vp)))

    def _combine(self, other, sa, sb):
        if other.base is not self.base:
            raise ValueError("tangent arithmetic requires a common base point")
        up = sa * self.Up + sb * other.Up
        shared = self.Vp is self.Up and other.Vp is other.Up
        vp = up if shared else sa * self.Vp + sb * other.Vp
        return EmbeddedTangent(self.base, sa * self.S + sb * other.S, up, vp)

    def __add__(self, other):
        return self._combine(other, 1.0, 1.0)

    def __sub__(self, other):
        return self._combine(other, 1.0, -1.0)

    def __mul__(self, c):
        up = c * self.Up
        vp = up if self.Vp is self.Up else c * self.Vp
        return EmbeddedTangent(self.base, c * self.S, up, vp)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def _stack_len(a):  # the vector count of a stack, from one of its components
    if a.ndim < 3:
        raise TypeError("a single vector has no len(); a stack has a leading axis")
    return len(a)


def _column_signs(u):
    """Signs that make the largest-magnitude entry of each column of U
    positive; flipping V's columns by the same signs keeps U S V^T."""
    flips = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    flips[flips == 0] = 1.0
    return flips


def _finite(x):
    """x itself; a non-finite entry raises ``np.linalg.LinAlgError`` before
    any decomposition, since LAPACK's SVD need not return on one."""
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError("matrix has a non-finite entry")
    return x


def _top_factors(x, r, kind, left=None, right=None):
    """Top-r factors (U, Sigma, V) of an ambient matrix, with sign-fixed
    frames; V is U for the PSD kind.

    Given orthonormal ``left`` and ``right`` (the same for the PSD kind), x
    is the core of the matrix left @ x @ right^T: the core's frames are
    lifted through them before their signs are fixed, and the rank test
    reads the core's spectrum, which is the matrix's own up to zeros.
    """
    x = _finite(np.asarray(x, dtype=float))
    if kind == "psd":
        if x.shape[0] != x.shape[1]:
            raise ValueError(f"psd kind needs a square matrix, got {x.shape}")
        if np.linalg.norm(x - x.T) > 1e-10 * max(1.0, np.linalg.norm(x)):
            raise ValueError("psd kind requires a symmetric matrix")
        w, q = np.linalg.eigh(_finite(sym(x)))  # sym(x) itself may overflow
        order = np.argsort(w)[::-1]
        w, q = w[order], q[:, order]
        scale = max(np.max(np.abs(w)), 1e-300)
        if w[r - 1] <= RANK_GAP_TOL * scale:
            raise RankError(
                f"matrix is not numerically rank {r} with positive spectrum "
                f"(eigenvalue {r} is {w[r - 1]:.3e})"
            )
        q = q[:, :r] if left is None else left @ q[:, :r]
        u = q * _column_signs(q)
        return u, np.diag(w[:r]), u
    if kind != "general":
        raise ValueError(f"unknown manifold kind {kind!r}")
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if s[r - 1] <= RANK_GAP_TOL * max(s[0], 1e-300):
        raise RankError(
            f"matrix is not numerically rank {r} (singular value {r} is {s[r-1]:.3e})"
        )
    u, v = u[:, :r], vt[:r].T
    if left is not None:
        u, v = left @ u, right @ v
    flips = _column_signs(u)
    return u * flips, np.diag(s[:r]), v * flips


def _point_from_factors(kind, u, sigma, v):
    x = u @ sigma @ v.T
    return EmbeddedPoint(kind, sym(x) if kind == "psd" else x, u, sigma, v)


def embed_point(x, r, kind) -> EmbeddedPoint:
    """Wrap a rank-r matrix as a manifold point with cached factors."""
    x = np.asarray(x, dtype=float)
    u, sigma, v = _top_factors(x, r, kind)
    pt = _point_from_factors(kind, u, sigma, v)
    resid = np.linalg.norm(pt.X - x) / max(np.linalg.norm(x), 1e-300)
    if resid > 1e-10:
        raise RankError(
            f"input is not rank {r}: truncation residual {resid:.3e} exceeds 1e-10"
        )
    return pt


def project_rank_r(x, r, kind) -> EmbeddedPoint:
    """Metric projection of an ambient matrix onto the rank-r manifold
    (truncated eigendecomposition / SVD), without a residual check."""
    u, sigma, v = _top_factors(x, r, kind)
    return _point_from_factors(kind, u, sigma, v)


def truncate_sum(pt: EmbeddedPoint, terms) -> EmbeddedPoint:
    """Rank-r truncation of X + sum_i c_i xi_i, given (c_i, xi_i) pairs whose
    tangents may each sit at its own base point, without forming the sum.

    The sum is L C R^T: X contributes (U, Sigma, V), and a tangent at a
    point with frame (U_b, V_b) contributes [U_b, Up] [[S, I], [I, 0]]
    [V_b, Vp]^T. Reduced QRs of the stacked factors, L = Q_L R_L and
    R = Q_R R_R, leave the core R_L C R_R^T, at most k = r (1 + 2m) square
    for m tangents, whose top-r factors lifted through Q_L and Q_R are those
    of the sum (Absil & Oseledets, "Low-rank retractions: a survey and new
    results", Comput. Optim. Appl. 2015). For the PSD kind the two stacks
    are the same, and so is their QR. Householder QR returns an orthonormal
    Q for a rank-deficient or wide stack, so k >= p needs no other path. The
    rank test and the sign convention are ``project_rank_r``'s.
    """
    r = pt.r
    eye, zero = np.eye(r), np.zeros((r, r))
    lefts, rights, blocks = [pt.U], [pt.V], [pt.Sigma]
    for c, xi in terms:
        base = xi.base
        if base.kind != pt.kind or base.shape != pt.shape or base.r != r:
            raise ValueError("tangent is not at a point of the same manifold")
        lefts += [base.U, xi.Up]
        rights += [base.V, xi.Vp]
        blocks.append(c * np.block([[xi.S, eye], [eye, zero]]))
    core = np.zeros((sum(len(block) for block in blocks),) * 2)
    i = 0
    for block in blocks:
        core[i:i + len(block), i:i + len(block)] = block
        i += len(block)
    q_left, r_left = np.linalg.qr(np.hstack(lefts))
    q_right, r_right = ((q_left, r_left) if pt.kind == "psd"
                        else np.linalg.qr(np.hstack(rights)))
    u, sigma, v = _top_factors(r_left @ core @ r_right.T, r, pt.kind,
                               left=q_left, right=q_right)
    return _point_from_factors(pt.kind, u, sigma, v)


def tangent_project(pt: EmbeddedPoint, z) -> EmbeddedTangent:
    """Orthogonal projection of an ambient matrix onto the tangent space."""
    z = np.asarray(z, dtype=float)
    if z.shape != pt.X.shape:
        raise ValueError(f"expected shape {pt.X.shape}, got {z.shape}")
    if pt.kind == "psd":
        return _tangent_from_products(pt, sym(z) @ pt.U, None)
    return _tangent_from_products(pt, z @ pt.V, z.T @ pt.U)


def _tangent_from_products(pt: EmbeddedPoint, zv, ztu) -> EmbeddedTangent:
    """The tangent projection of an ambient Z from Z V and Z^T U, or stacks of
    them (for the PSD kind, from sym(Z) U as ``zv``): Z itself need not exist."""
    u = pt.U
    s = u.T @ zv
    up = zv - u @ s
    if pt.kind == "psd":
        return EmbeddedTangent(pt, sym(s), up, up)
    return EmbeddedTangent(pt, s, up, ztu - pt.V @ s.mT)


def riem_grad_embedded(pt: EmbeddedPoint, obj: Objective) -> EmbeddedTangent:
    """Riemannian gradient: the tangent projection of the Euclidean gradient."""
    return tangent_project(pt, obj.egrad(pt.X))


def riem_hess_matrix_embedded(pt: EmbeddedPoint, obj: Objective,
                              tangents: EmbeddedTangent) -> np.ndarray:
    """[Hess f[xi_i, xi_j]], the Riemannian Hessian at pt on a stack of
    tangents: the Euclidean Hessian form plus the curvature correction
    coupling the Euclidean gradient with the off-frame factors through
    Sigma^-1,

        Hess f[xi, eta] + <nabla f, Up_xi Sigma^-1 Vp_eta^T + Up_eta Sigma^-1 Vp_xi^T>.

    The stack's base, the gradient and the core's rank are checked once,
    the stack's ambient matrices and Sigma^-1 Vp^T taken in one call each,
    and each row's Euclidean Hessian image at the start of the row: the
    extra memory is the d ambient matrices (d p1 p2 doubles)."""
    if tangents.base is not pt:
        raise ValueError("tangent vector is not based at the given point")
    sig = pt.Sigma
    if np.linalg.svd(sig, compute_uv=False)[-1] <= RANK_GAP_TOL * np.linalg.norm(sig, 2):
        raise RankError("core factor is numerically singular")
    egrad = obj.egrad(pt.X)
    ambs = tangents.ambient()
    ups, right = tangents.Up, np.linalg.solve(sig, tangents.Vp.mT)
    h = np.zeros((len(tangents),) * 2)
    for i in range(len(h)):
        image = obj.ehess_vec(pt.X, ambs[i])
        for j in range(i, len(h)):
            coupled = ups[i] @ right[j] + ups[j] @ right[i]
            h[i, j] = h[j, i] = (float(np.sum(image * ambs[j]))
                                 + float(np.sum(egrad * coupled)))
    return h


def riem_hess_quad_embedded(pt: EmbeddedPoint, obj: Objective,
                            xi: EmbeddedTangent) -> float:
    """Quadratic form of the Riemannian Hessian at pt along xi."""
    return float(riem_hess_matrix_embedded(pt, obj, xi[None])[0, 0])


def retract(pt: EmbeddedPoint, xi: EmbeddedTangent, t: float) -> EmbeddedPoint:
    """Projection retraction: rank-r truncation of X + t * xi."""
    if xi.base is not pt:
        raise ValueError("tangent vector is not based at the given point")
    if not np.isfinite(t):
        raise ValueError("step must be finite")
    return project_rank_r(pt.X + t * xi.ambient(), pt.r, pt.kind)


def tangent_basis(pt: EmbeddedPoint) -> EmbeddedTangent:
    """Frobenius-orthonormal basis of the tangent space as one stack, core
    blocks first, then U_perp E (and V_perp E) for the matrix units E."""
    r = pt.r
    p1, p2 = pt.X.shape
    if pt.kind == "psd":
        # an off-frame factor Up enters the ambient matrix twice
        s, up = stack_blocks((pt.Sigma, pt.U), {0: sym_basis(r)},
                             {1: pt.Uperp @ (unit_basis(p1 - r, r) / np.sqrt(2.0))})
        return EmbeddedTangent(pt, s, up, up)
    return EmbeddedTangent(pt, *stack_blocks(
        (pt.Sigma, pt.U, pt.V), {0: unit_basis(r, r)},
        {1: pt.Uperp @ unit_basis(p1 - r, r)}, {2: pt.Vperp @ unit_basis(p2 - r, r)}))
