"""Embedded geometry of the fixed-rank PSD and general matrix manifolds.

Both kinds share one factored form (Vandereycken, SIAM J. Optim. 2013): a
rank-r point is X = U S V^T with orthonormal frames U, V, and a tangent
vector is an r x r core S with p x r factors orthogonal to the frames,

    U S V^T + Up V^T + U Vp^T,   U^T Up = 0,   V^T Vp = 0.

The PSD kind is the symmetric case: a point's V is its U, the same array;
its X is the one symmetric product W W^T with W = U chol(Sigma), so X is
exactly symmetric, and so is a symmetric objective's gradient at X, which
the gradients project with no p x p symmetrizing pass. Every truncated
point has a diagonal Sigma = diag(s) and forms W = U sqrt(s), or X =
(U s) V^T for the general kind, columnwise with no Cholesky; a quotient
frame's core takes the Cholesky route. A tangent holds
(S, Up) with S symmetric, and its Vp is its Up. The
manifold dimension is p*r - r(r-1)/2 in the PSD case and (p1 + p2 - r)*r
in the general case. The ambient metric is Frobenius. Projection, norms,
the Hessian matrix and the retraction need only U and V; the orthogonal
complements U_perp and V_perp are built on first use, by the orthonormal
tangent basis.

A tangent is a ``Stack``, the one vector type of the package: component
arrays at one base point, one vector or a stack of them on a leading axis,
with the arithmetic, ``len``, indexing and the base-point check written
once. ``quotient.HorizontalVector`` is the other ``Stack``.

The Hessian applied to a tangent has one formula, ``_hess_vec_flat``, on
the flat coordinates of ``EmbeddedTangent.flat`` in and out.
``riem_hess_vec_embedded`` is its tangent-level entry; the trust region's
inner solve (``landscape._tcg``) calls the formula itself, with no tangent
object per product, and refuses a singular core once per solve; and
``riem_hess_matrix_embedded`` applies it to a stack one row at a time, with
no curvature term or ambient stack of its own.

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

    @cached_property
    def core_singular_values(self) -> np.ndarray:
        """Singular values of Sigma, which the Hessian's core refusal reads."""
        return np.linalg.svd(self.Sigma, compute_uv=False)


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
        return _ambient(self.base, self.S, self.Up, self.Vp)

    def flat(self) -> np.ndarray:
        """Coordinates (S, Up, Vp) whose dot product is the Frobenius inner
        product of the ambient matrices: one row per tangent of a stack."""
        return _flat(self.S, self.Up, self.Vp)

    @classmethod
    def from_flat(cls, pt, f):
        """The inverse of ``flat``: the tangent at pt whose parts are views of
        f, reading the first of a PSD layout's two Up blocks."""
        return cls(pt, _flat_parts(pt, f))

    def norm(self):
        """The Frobenius norm: a float, or one per tangent of a stack."""
        return np.sqrt(sum((a * a).sum(axis=(-2, -1)) for a in (self.S, self.Up, self.Vp)))

    def inner(self, other) -> float:
        """The Frobenius inner product of two tangents' ambient matrices."""
        other.check_base(self.base)
        return float(self.flat() @ other.flat())


def _ambient(pt, s, up, vp) -> np.ndarray:
    """U S V^T + Up V^T + U Vp^T, the ambient matrix of the tangent at pt with
    parts (S, Up, Vp)."""
    return pt.U @ s @ pt.V.T + up @ pt.V.T + pt.U @ vp.mT


def _flat(s, up, vp) -> np.ndarray:
    """``EmbeddedTangent.flat`` of the parts (S, Up, Vp)."""
    lead = s.shape[:-2]
    return np.concatenate([a.reshape(*lead, -1) for a in (s, up, vp)], axis=-1)


def _flat_parts(pt, f) -> tuple:
    """The parts of the tangent at pt whose flat coordinates are f, as views
    of f: (S, Up) for the PSD kind, which reads the first Up block, and
    (S, Up, Vp) for the general kind."""
    (p1, p2), r = pt.shape, pt.r
    if f.shape[-1] != r * (r + p1 + p2):
        raise ValueError(f"expected {r * (r + p1 + p2)} flat coordinates, got {f.shape[-1]}")
    cuts = (0, r * r, r * (r + p1), None)[:3 if pt.kind == "psd" else 4]
    return tuple(f[..., a:b].reshape(*f.shape[:-1], -1, r) for a, b in zip(cuts, cuts[1:]))


def _column_signs(u):
    """Signs making the largest-magnitude entry of each column of U positive,
    the first on a tie, and a zero column's +1; V flips by them too."""
    first = u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])]
    return np.where(first < 0, -1.0, 1.0)


def _top_factors(x, r, kind, left=None, right=None):
    """Top-r factors (U, Sigma, V) of an ambient matrix, with sign-fixed
    frames; V is U for the PSD kind.

    Given orthonormal ``left`` and ``right`` (the same for the PSD kind), x
    is the core of the matrix left @ x @ right^T: the core's frames are
    lifted through them before their signs are fixed, and the rank test
    reads the core's spectrum, which is the matrix's own up to zeros.
    Sigma is diagonal, so ``_point_from_factors`` forms the point
    columnwise, with no Cholesky and no product with Sigma.
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
    """The point with factors (U, Sigma, V). A PSD point's X is W W^T with
    W = U chol(Sigma): numpy forms a product with its own transpose as one
    symmetric rank-k update, so X is exactly symmetric. Sigma is positive
    diagonal from a truncation and SPD from a quotient frame. A diagonal
    Sigma = diag(s) takes its factor columnwise, W = U sqrt(s) and, for the
    general kind, X = (U s) V^T, with no Cholesky and no product with a
    diagonal matrix: the same bits, since the product's other terms are
    exact zeros and the Cholesky factor of diag(s) is diag(sqrt(s)). Any
    other PSD core goes to Cholesky, and one that it refuses, a diagonal
    with a nonpositive entry among them, raises RankError."""
    s = np.diagonal(sigma)
    diagonal = np.count_nonzero(sigma) == np.count_nonzero(s)
    if kind != "psd":
        return EmbeddedPoint(kind, (u * s if diagonal else u @ sigma) @ v.T, u, sigma, v)
    if diagonal and (s > 0).all():
        w = u * np.sqrt(s)
    else:
        try:
            w = u @ np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise RankError("core of a psd point is not positive definite") from exc
    return EmbeddedPoint(kind, w @ w.T, u, sigma, v)


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
    left = np.concatenate(lefts, axis=1)
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
                        else np.linalg.qr(np.concatenate(rights, axis=1)))
    u, sigma, v = _top_factors(r_left @ core @ r_right.T, r, pt.kind,
                               left=q_left, right=q_right)
    return _point_from_factors(pt.kind, u, sigma, v)


def tangent_project(pt: EmbeddedPoint, z) -> EmbeddedTangent:
    """Orthogonal projection of an ambient matrix onto the tangent space."""
    z = np.asarray(z, dtype=float)
    if z.shape != pt.X.shape:
        raise ValueError(f"expected shape {pt.X.shape}, got {z.shape}")
    return _project(pt, _read_ambient(pt.kind, z))


def _project(pt: EmbeddedPoint, z) -> EmbeddedTangent:
    """The tangent projection of an ambient Z as ``_read_ambient`` gives it."""
    return EmbeddedTangent(pt, _projected_parts(pt, z))


def _projected_parts(pt: EmbeddedPoint, z) -> tuple:
    """The parts of ``_project``'s tangent, with no tangent built."""
    if pt.kind == "psd":
        return _parts_from_products(pt, z @ pt.U, None)
    return _parts_from_products(pt, z @ pt.V, z.T @ pt.U)


def _read_ambient(kind: str, z, symmetric: bool = False) -> np.ndarray:
    """An ambient Z as the geometries of ``kind`` read it. A PSD tangent space
    and the symmetrized objective that the PSD geometries see read only the
    symmetric part of Z; ``symmetric`` says Z is exactly symmetric already
    and skips that pass."""
    return sym(z) if kind == "psd" and not symmetric else z


def _egrad(pt: EmbeddedPoint, obj: Objective) -> np.ndarray:
    """nabla f(X) as the point's geometries read it. A symmetric objective's
    gradient at a PSD point's exactly symmetric X is exactly symmetric
    already (see ``Objective``), so only another objective's gradient is
    symmetrized."""
    return _read_ambient(pt.kind, obj.egrad(pt.X), obj.symmetric)


def _parts_from_products(pt: EmbeddedPoint, zv, ztu) -> tuple:
    """The parts of the tangent projection of an ambient Z from Z V and Z^T U,
    or stacks of them (for the PSD kind, from sym(Z) U as ``zv``): Z itself
    need not exist."""
    u = pt.U
    s = u.T @ zv
    up = zv - u @ s
    if pt.kind == "psd":
        return sym(s), up
    return s, up, ztu - pt.V @ s.mT


def riem_grad_embedded(pt: EmbeddedPoint, obj: Objective) -> EmbeddedTangent:
    """Riemannian gradient: the tangent projection of the Euclidean gradient."""
    return _project(pt, _egrad(pt, obj))


def riem_hess_matrix_embedded(pt: EmbeddedPoint, obj: Objective,
                              tangents: EmbeddedTangent):
    """[Hess f[xi_i, xi_j]], the Riemannian Hessian at pt on a stack of
    tangents, and the Riemannian gradient, the tangent projection of the
    Euclidean gradient that the matrix reads. After one singular-core
    refusal and one gradient, ``_hess_vec_flat`` takes each row of the
    stack's flat coordinates F to its image, a row of G, and the matrix is
    sym(F G^T): one p1 x p2 Euclidean Hessian image is live at a time."""
    tangents.check_base(pt)
    sig = _invertible_core(pt)
    egrad = _egrad(pt, obj)
    f = tangents.flat()
    images = np.array([_hess_vec_flat(pt, obj, sig, egrad, row) for row in f])
    return sym(f @ images.T), _project(pt, egrad)


def _invertible_core(pt: EmbeddedPoint) -> np.ndarray:
    """pt.Sigma, refused when numerically singular: the Hessian's curvature
    term solves with it."""
    s = pt.core_singular_values
    if below_floor(s[-1], s[0], RANK_TOL):
        raise RankError("core factor is numerically singular")
    return pt.Sigma


def riem_hess_vec_embedded(pt: EmbeddedPoint, obj: Objective, xi: EmbeddedTangent,
                           egrad=None) -> EmbeddedTangent:
    """Hess f(X)[xi], the Riemannian Hessian at pt applied to one tangent
    (Vandereycken 2013, Prop. 2.3): ``_hess_vec_flat`` on xi's flat
    coordinates, after the singular-core refusal, which this entry applies on
    every call. ``egrad`` is nabla f as ``_egrad`` gives it, when the caller
    has it, so that a solver evaluates it once per point."""
    xi.check_base(pt)
    sig = _invertible_core(pt)
    z = _egrad(pt, obj) if egrad is None else egrad
    return EmbeddedTangent.from_flat(pt, _hess_vec_flat(pt, obj, sig, z, xi.flat()))


def _hess_vec_flat(pt: EmbeddedPoint, obj: Objective, sig, egrad, f) -> np.ndarray:
    """The one embedded Hessian-vector formula, on flat coordinates in and
    out (``EmbeddedTangent.flat``), with no tangent object: the tangent
    projection of the Euclidean Hessian image of xi, plus the curvature term
    coupling nabla f with the off-frame factors, in factored form with
    Z = nabla f (``egrad``) and P_perp = I - U U^T (or I - V V^T), so no
    complement is formed:

        Up += P_perp Z Vp Sigma^-T,   Vp += P_perp Z^T Up Sigma^-1.

    For the PSD kind Vp is Up and Sigma is symmetric, the ambient matrix
    counts Up twice, and the two terms are one: Up += P_perp sym(Z) Up
    Sigma^-1, where Z as ``_egrad`` gives it is symmetric. ``sig`` is Sigma
    as ``_invertible_core`` returned it: the caller refuses a singular core,
    ``riem_hess_vec_embedded`` on every call, the trust region's inner
    solve once per solve and ``riem_hess_matrix_embedded`` once per matrix."""
    parts = _flat_parts(pt, f)
    s, up, vp = parts[0], parts[1], parts[-1]
    h = _projected_parts(pt, _read_ambient(pt.kind, obj.ehess_vec(pt.X, _ambient(pt, s, up, vp))))
    u = pt.U
    if pt.kind == "psd":
        a = np.linalg.solve(sig, (egrad @ up).T).T
        hup = h[1] + a - u @ (u.T @ a)
        return _flat(h[0], hup, hup)
    v = pt.V
    a = np.linalg.solve(sig, (egrad @ vp).T).T
    b = np.linalg.solve(sig.T, (egrad.T @ up).T).T
    return _flat(h[0], h[1] + a - u @ (u.T @ a), h[2] + b - v @ (v.T @ b))


def riem_hess_quad_embedded(pt: EmbeddedPoint, obj: Objective,
                            xi: EmbeddedTangent) -> float:
    """Quadratic form of the Riemannian Hessian at pt along xi,
    <xi, Hess f[xi]>."""
    return xi.inner(riem_hess_vec_embedded(pt, obj, xi))


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
