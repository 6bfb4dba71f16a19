"""Embedded geometry of the fixed-rank PSD and general matrix manifolds.

Both kinds share one factored form (Vandereycken, SIAM J. Optim. 2013): a
rank-r point is X = U S V^T with orthonormal frames U, V, and a tangent
vector is an r x r core S with p x r factors orthogonal to the frames,

    U S V^T + Up V^T + U Vp^T,   U^T Up = 0,   V^T Vp = 0.

The PSD kind is the symmetric case: a point's V is its U, the same array;
a tangent holds (S, Up) with S symmetric, and its Vp is its Up. The
manifold dimension is p*r - r(r-1)/2 in the PSD case and (p1 + p2 - r)*r
in the general case. The ambient metric is Frobenius. Projection, norms,
the Hessian matrix and the retraction need only U and V; the orthogonal
complements U_perp and V_perp are built on first use, by the orthonormal
tangent basis.

A tangent is a ``Stack``, the one vector type of the package: component
arrays at one base point, one vector or a stack of them on a leading axis,
with the arithmetic, ``len``, indexing and the base-point check written
once. ``quotient.HorizontalVector`` is the other ``Stack``.

``project_rank_r`` (and with it ``embed_point`` and ``retract``) truncates
an ambient matrix by a dense p x p eigendecomposition or SVD.
``truncate_sum`` truncates X plus a combination of tangents from their
factors, decomposing only a core of size at most r(1 + 2m) for m tangents;
the gradient flows use it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (RANK_TOL, RankError, below_floor, finite, is_symmetric,
                     orth_complement, sym, sym_basis)
from .objectives import Objective


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
class Stack:
    """A vector, or a stack of vectors on a leading axis, at one base point,
    held as a tuple of component arrays ``parts``. The arithmetic, ``len``,
    indexing and the base-point check are written here once: a subclass
    adds what its vectors are, and ``_new`` where a result carries more than
    its base and parts."""

    base: object
    parts: tuple

    def check_base(self, base, what=None):
        """Refuse vectors that are not at ``base`` itself; ``what`` names them
        in the message, by default by their class."""
        if self.base is not base:
            raise ValueError(f"{what or type(self).__name__} is not based at the given point")

    def _new(self, parts, other=None):
        """A result of this class at this base, from self (and ``other``, the
        second operand of a sum)."""
        return type(self)(self.base, parts)

    def _combine(self, other, sa, sb):
        other.check_base(self.base)
        return self._new(tuple(sa * a + sb * b for a, b in zip(self.parts, other.parts)),
                         other)

    def __add__(self, other):
        return self._combine(other, 1.0, 1.0)

    def __sub__(self, other):
        return self._combine(other, 1.0, -1.0)

    def __mul__(self, c):
        return self._new(tuple(c * a for a in self.parts))

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __len__(self):
        if self.parts[0].ndim < 3:
            raise TypeError("a single vector has no len(); a stack has a leading axis")
        return len(self.parts[0])

    def __getitem__(self, key):
        """The vectors of the stack at ``key`` on its leading axis."""
        return self._new(tuple(a[key] for a in self.parts))


@dataclass(frozen=True, eq=False)
class EmbeddedTangent(Stack):
    """Tangent vector in factored form at a fixed point: the core
    S = U^T xi V, Up = (I - U U^T) xi V and Vp = (I - V V^T) xi^T U. The
    parts are (S, Up) for the PSD kind, whose Vp is its Up, and (S, Up, Vp)
    for the general kind."""

    def __post_init__(self):
        want = 2 if self.base.kind == "psd" else 3
        if len(self.parts) != want:
            raise ValueError(f"a {self.base.kind} tangent has {want} parts, "
                             f"got {len(self.parts)}")

    S = property(lambda self: self.parts[0])
    Up = property(lambda self: self.parts[1])
    Vp = property(lambda self: self.parts[-1])

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


def _column_signs(u):
    """Signs making the largest-magnitude entry of each column of U positive,
    the first on a tie; V flips by them too."""
    flips = np.sign(u.max(axis=0) + u.min(axis=0))
    if not flips.all():  # a tie of magnitudes: the first of max and min wins
        first = u.argmax(axis=0) <= u.argmin(axis=0)
        flips = np.where(flips == 0, np.where(first, 1.0, -1.0), flips)
    return flips


def _top_factors(x, r, kind, left=None, right=None):
    """Top-r factors (U, Sigma, V) of an ambient matrix, with sign-fixed
    frames; V is U for the PSD kind.

    Given orthonormal ``left`` and ``right`` (the same for the PSD kind), x
    is the core of the matrix left @ x @ right^T: the core's frames are
    lifted through them before their signs are fixed, and the rank test
    reads the core's spectrum, which is the matrix's own up to zeros.
    """
    x = finite(np.asarray(x, dtype=float))
    psd = kind == "psd"
    if psd:
        if x.shape[0] != x.shape[1]:
            raise ValueError(f"psd kind needs a square matrix, got {x.shape}")
        if not is_symmetric(x):
            raise ValueError("psd kind requires a symmetric matrix")
        w, q = np.linalg.eigh(finite(sym(x)))  # sym(x) itself may overflow
        # descending; the top r by an index array, whose copy the lift multiplies
        s, u = w[::-1], q[:, np.arange(-1, -r - 1, -1)]
        scale = max(s[0], -s[-1])  # the largest magnitude
    elif kind == "general":
        u, s, vt = np.linalg.svd(x, full_matrices=False)
        scale = s[0]
    else:
        raise ValueError(f"unknown manifold kind {kind!r}")
    if below_floor(s[r - 1], scale, RANK_TOL):
        what = " with positive spectrum (eigenvalue" if psd else " (singular value"
        raise RankError(f"matrix is not numerically rank {r}{what} {r} is "
                        f"{s[r - 1]:.3e})")
    u = u[:, :r] if left is None else left @ u[:, :r]
    flips = _column_signs(u)
    if not psd:
        v = vt[:r].T if right is None else right @ vt[:r].T
    u = u * flips
    return u, np.diag(s[:r]), u if psd else v * flips


def _point_from_factors(kind, u, sigma, v):
    x = u @ sigma @ v.T
    return EmbeddedPoint(kind, sym(x) if kind == "psd" else x, u, sigma, v)


def embed_point(x, r, kind) -> EmbeddedPoint:
    """Wrap a rank-r matrix as a manifold point with cached factors."""
    x = np.asarray(x, dtype=float)
    u, sigma, v = _top_factors(x, r, kind)
    pt = _point_from_factors(kind, u, sigma, v)
    resid = np.linalg.norm(pt.X - x) / max(np.linalg.norm(x), 1e-300)
    if not resid <= RANK_TOL:
        raise RankError(f"input is not rank {r}: truncation residual {resid:.3e} "
                        f"exceeds RANK_TOL {RANK_TOL:.0e}")
    return pt


def project_rank_r(x, r, kind) -> EmbeddedPoint:
    """Metric projection of an ambient matrix onto the rank-r manifold
    (truncated eigendecomposition / SVD), without a residual check."""
    u, sigma, v = _top_factors(x, r, kind)
    return _point_from_factors(kind, u, sigma, v)


def truncate_sum(pt: EmbeddedPoint, terms) -> EmbeddedPoint:
    """Rank-r truncation of X + sum_i c_i xi_i from (c_i, xi_i) pairs,
    without forming the sum. Each xi_i is a tangent at pt or at a point of
    its own, and c_i a number.

    The sum is L C R^T. X contributes (U, Sigma, V). A tangent at pt shares
    its frames: it adds Up to L and Vp to R, c S to Sigma's block, and c I
    coupling the two. A tangent at a point with frames (U_b, V_b) adds
    [U_b, Up] [[c S, c I], [c I, 0]] [V_b, Vp]^T. Reduced QRs L = Q_L R_L
    and R = Q_R R_R leave the core R_L C R_R^T, k = r (1 + a + 2b) square for
    a tangents at pt and b elsewhere, whose top-r factors lifted through Q_L
    and Q_R are those of the sum (Absil & Oseledets, "Low-rank retractions:
    a survey and new results", Comput. Optim. Appl. 2015). For the PSD kind
    L is R and one QR serves. Householder QR returns an orthonormal Q for a
    rank-deficient or wide L, so k >= p needs no other path. The rank test,
    sign convention and finiteness refusal are ``_top_factors``'.
    """
    r = pt.r
    eye = np.eye(r)
    lefts, rights, blocks = [pt.U], [pt.V], []
    for c, xi in terms:
        base = xi.base
        if base is not pt:
            if base.kind != pt.kind or base.shape != pt.shape or base.r != r:
                raise ValueError("tangent is not at a point of the same manifold")
            lefts.append(base.U)
            rights.append(base.V)
        lefts.append(xi.Up)
        rights.append(xi.Vp)
        blocks.append((base is pt, c * xi.S, c * eye))
    left = np.hstack(lefts)
    k = left.shape[1]
    core = np.zeros((k, k))
    core[:r, :r] = pt.Sigma
    i = r
    for own, cs, ci in blocks:
        if own:  # the frame is X's: c S joins Sigma's block
            j = 0
            core[:r, :r] += cs
        else:  # the frame takes r rows and columns of its own
            j, i = i, i + r
            core[j:i, j:i] = cs
        core[j:j + r, i:i + r] = ci
        core[i:i + r, j:j + r] = ci
        i += r
    q_left, r_left = np.linalg.qr(left)
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
        return EmbeddedTangent(pt, (sym(s), up))
    return EmbeddedTangent(pt, (s, up, ztu - pt.V @ s.mT))


def riem_grad_embedded(pt: EmbeddedPoint, obj: Objective) -> EmbeddedTangent:
    """Riemannian gradient: the tangent projection of the Euclidean gradient."""
    return tangent_project(pt, obj.egrad(pt.X))


def riem_hess_matrix_embedded(pt: EmbeddedPoint, obj: Objective,
                              tangents: EmbeddedTangent):
    """[Hess f[xi_i, xi_j]], the Riemannian Hessian at pt on a stack of
    tangents, and the Riemannian gradient, the tangent projection of the
    Euclidean gradient that the matrix reads. Each entry is the Euclidean
    Hessian form plus the curvature correction coupling the Euclidean
    gradient with the off-frame factors through Sigma^-1,

        Hess f[xi, eta] + <nabla f, Up_xi Sigma^-1 Vp_eta^T + Up_eta Sigma^-1 Vp_xi^T>.

    The gradient is evaluated once; the first term is ``Objective.ehess_matrix``
    on the ambient matrices (d p1 p2 doubles), the correction C + C^T with
    C_ij = <Up_i^T nabla f, Sigma^-1 Vp_j^T>, one product of flattened stacks."""
    tangents.check_base(pt)
    sig = pt.Sigma
    s = np.linalg.svd(sig, compute_uv=False)
    if below_floor(s[-1], s[0], RANK_TOL):
        raise RankError("core factor is numerically singular")
    egrad = obj.egrad(pt.X)
    h = obj.ehess_matrix(pt.X, tangents.ambient())
    c = ((tangents.Up.mT @ egrad).reshape(len(h), -1)
         @ np.linalg.solve(sig, tangents.Vp.mT).reshape(len(h), -1).T)
    h += c + c.T
    return h, tangent_project(pt, egrad)


def riem_hess_quad_embedded(pt: EmbeddedPoint, obj: Objective,
                            xi: EmbeddedTangent) -> float:
    """Quadratic form of the Riemannian Hessian at pt along xi."""
    return float(riem_hess_matrix_embedded(pt, obj, xi[None])[0][0, 0])


def retract(pt: EmbeddedPoint, xi: EmbeddedTangent, t: float) -> EmbeddedPoint:
    """Projection retraction: rank-r truncation of X + t * xi."""
    xi.check_base(pt)
    if not np.isfinite(t):
        raise ValueError("step must be finite")
    return project_rank_r(pt.X + t * xi.ambient(), pt.r, pt.kind)


def tangent_basis(pt: EmbeddedPoint) -> EmbeddedTangent:
    """Frobenius-orthonormal basis of the tangent space as one stack, core
    blocks first, then U_perp E (and V_perp E) for the matrix units E, row by
    row: each copies one column of U_perp (or V_perp) into one column."""
    r = pt.r
    psd = pt.kind == "psd"
    core = sym_basis(r) if psd else np.eye(r * r).reshape(-1, r, r)
    perps = (pt.Uperp,) if psd else (pt.Uperp, pt.Vperp)
    # an off-frame factor Up of the PSD kind enters the ambient matrix twice
    scale = 1.0 / np.sqrt(2.0) if psd else 1.0
    d = len(core) + sum(perp.shape[1] for perp in perps) * r
    s = np.zeros((d, r, r))
    s[:len(core)] = core
    factors, start = [], len(core)
    for perp in perps:
        n = perp.shape[1] * r
        i, j = np.divmod(np.arange(n), r)
        f = np.zeros((d, perp.shape[0], r))
        f[start + np.arange(n), :, j] = perp[:, i].T * scale
        factors.append(f)
        start += n
    return EmbeddedTangent(pt, (s, *factors))
