"""Quotient geometries for fixed-rank matrices.

Five factorization-based total spaces are supported, each quotiented by the
factorization's invariance group:

    psd_q1   X = Y Y^T            Y full column rank,    gauge O(r)
    psd_q2   X = U B U^T          U Stiefel, B SPD,      gauge O(r)
    gen_q1   X = L R^T            L, R full column rank, gauge GL(r)
    gen_q2   X = U B V^T          U, V Stiefel, B SPD,   gauge O(r)
    gen_q3   X = U Y^T            U Stiefel, Y full rank, gauge O(r)

Each geometry is one ``QuotientGeometry`` subclass in ``REGISTRY``, holding
its factors (each Stiefel, SPD or free), its factor map as a product chain
(e.g. ("U", "B", "U^T")), its metric families as plain weight specs
(``Weight``), and the paper's formulas particular to it. The base class
derives from the chain, once for all five, the matched frame, the canonical
lift, the metric, the factor map's first and second differentials, each
factor's partial derivative, the gradient lift and the Hessian's matrix on a
stack of vectors, and writes the operations that depend only on a factor's
kind. The public functions below check their arguments and make one registry
call; ``riem_hess_matrix_quotient`` builds a point's Hessian matrix on a
basis, computing the gradient, its lift and the basis's differentials and
weight derivatives once each.

No geometry writes a basis of its horizontal space: ``horizontal_basis`` is
the horizontal lift L^-1(E_i) of the embedded orthonormal basis E, through
each geometry's ``inverse`` (the registry method that
``transport.inverse_map`` checks and calls). The horizontal spaces
themselves are those of ``vertical`` and ``horizontal_project``.

A quotient point caches the embedded-geometry frame built from its own
factors, so transports to the embedded tangent space are free of rotation
ambiguity, and one ``Weights`` record per metric family used at it: the
weights and their inverses, and the constants that
``QuotientGeometry.constants`` builds on first use (P^-1, B^-1, gen_q3's
(Y^T V)^-1 and the factored Sylvester operators of L^-1 and of the q1
vertical projections).

Horizontal vectors are stored in ambient total-space coordinates, one
component per factor, as an ``embedded.Stack``, whose arithmetic, indexing
and base-point check they share with the embedded tangents. Those the
library makes (projections, bases, gradient lifts, ``transport.inverse_map``)
are horizontal by construction and record the metric family they were made
under, like every other quotient quantity keyed by (point, family). A vector
built by the caller has no record, and one made under another family is
checked as if it had none: once, by ``horizontal_vector``, where a function
needs it horizontal, and a relative defect above 1e-8 is an error. Nothing
is silently re-projected.
"""

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from typing import NamedTuple, Optional

import numpy as np

from .embedded import (
    EmbeddedPoint,
    EmbeddedTangent,
    Stack,
    _egrad,
    _parts_from_products,
    _point_from_factors,
    _read_ambient,
    embed_point,
    project_rank_r,
    tangent_basis,
)
from .linalg import (RANK_TOL, ConditioningError, SymmetricSylvester, below_floor,
                     check_orthonormal, is_symmetric, skew, spd_functions, sym)
from .objectives import Objective

HORIZ_TOL = 1e-8
DIAGONAL_RTOL = 1e-12  # a core's off-diagonal norm, relative to its own, read as 0

# embedded geometry of each matrix kind
EMBEDDED = {"psd": "psd_embedded", "general": "gen_embedded"}


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True, eq=False)
class QuotientPoint:
    """A total-space representative plus its matched embedded frame, and
    the ``Weights`` of each metric family used at it."""

    geometry: str
    factors: tuple
    point: EmbeddedPoint  # embedded view of the represented X, frame-matched
    _weights: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def X(self) -> np.ndarray:
        return self.point.X

    @property
    def r(self) -> int:
        return self.point.r

    def factor(self, name: str) -> np.ndarray:
        return self.factors[REGISTRY[self.geometry].names.index(name)]

    def weights(self, metric: "MetricFamily") -> "Weights":
        """The metric's ``Weights`` at this point, evaluated on first use and
        kept per family object."""
        _check_metric(self, metric)
        if metric not in self._weights:
            self._weights[metric] = Weights.at(self, metric)
        return self._weights[metric]


def _read_only(a):
    """Read-only view of a cached value, which every caller of a point shares."""
    view = a.view()
    view.flags.writeable = False
    return view


def _qf(a):
    """QR orthonormal factor with positive diagonal R."""
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


# the factor checks, by kind
def _check_full_rank(a, name):
    s = np.linalg.svd(a, compute_uv=False)
    if below_floor(s[-1], s[0], RANK_TOL):
        raise ValueError(f"factor {name} is numerically rank deficient")


def _check_stiefel(u, name):
    check_orthonormal(u, f"factor {name} does not have orthonormal columns")


def _check_spd(b, name):
    if not is_symmetric(b):
        raise ValueError(f"factor {name} is not symmetric")
    w = np.linalg.eigvalsh(sym(b))
    if below_floor(w[0], w[-1], RANK_TOL):
        raise ValueError(f"factor {name} is not positive definite")


_CHECKS = {"stiefel": _check_stiefel, "spd": _check_spd, "free": _check_full_rank}


def _geometry(geometry: str) -> "QuotientGeometry":
    if geometry not in REGISTRY:
        raise ValueError(f"unknown quotient geometry {geometry!r}")
    return REGISTRY[geometry]


def quotient_point(geometry: str, *factors) -> QuotientPoint:
    """Build a quotient point from raw factors, caching a matched frame."""
    geo = _geometry(geometry)
    factors = tuple(np.asarray(f, dtype=float) for f in factors)
    if len(factors) != len(geo.factors):
        raise ValueError(f"{geometry} expects factors {geo.names}")
    factors = geo.checked(factors)
    return QuotientPoint(geometry, factors, geo.frame(factors))


def lift_point(x_pt: EmbeddedPoint, geometry: str) -> QuotientPoint:
    """Canonical factorized representative of an embedded point.

    Lifts reuse the embedded point's own frame, so the lifted point and
    ``x_pt`` form a matched pair for the tangent-space transports.
    """
    geo = _geometry(geometry)
    if geo.kind != x_pt.kind:
        raise ValueError(f"{geometry} cannot represent a {x_pt.kind} point")

    sig = x_pt.Sigma
    if np.linalg.norm(sig - np.diag(np.diag(sig))) > DIAGONAL_RTOL * np.linalg.norm(sig):
        # canonical lifts need a spectral frame; rebuild one from X
        x_pt = embed_point(x_pt.X, x_pt.r, x_pt.kind)
    return QuotientPoint(geometry, geo.lift(x_pt), x_pt)


def random_point(geometry: str, p1: int, p2: int, r: int,
                 rng: np.random.Generator):
    """Random point of any geometry, embedded or quotient.

    Embedded points truncate a Gaussian product of rank r (A A^T for PSD).
    Quotient points draw each SPD core first, as C C^T + I/2 with C Gaussian,
    then the other factors in order, Gaussian with p1 and then p2 rows
    (orthonormalized for Stiefel factors).
    """
    if geometry == EMBEDDED["psd"]:
        a = rng.standard_normal((p1, r))
        return project_rank_r(a @ a.T, r, "psd")
    if geometry == EMBEDDED["general"]:
        return project_rank_r(
            rng.standard_normal((p1, r)) @ rng.standard_normal((r, p2)), r,
            "general",
        )
    geo = _geometry(geometry)
    drawn, rows = {}, iter((p1, p2))
    for f in sorted(geo.factors, key=lambda f: f.kind != "spd"):
        if f.kind == "spd":
            c = rng.standard_normal((r, r))
            drawn[f.name] = c @ c.T + 0.5 * np.eye(r)
        else:
            a = rng.standard_normal((next(rows), r))
            drawn[f.name] = _qf(a) if f.kind == "stiefel" else a
    return quotient_point(geometry, *(drawn[f.name] for f in geo.factors))


# ---------------------------------------------------------------------------
# metric families


@dataclass(frozen=True)
class Weight:
    """Spec of one SPD weight matrix of a total-space metric.

    ``form`` is "I" (identity), "FtF" (c F^T F), "B" (the SPD factor itself)
    or "B2" (c B^2), where F or B is the factor named ``factor``; with
    ``inverse`` the weight is the inverse of that matrix. Each form has an
    analytic directional derivative, which the Hessian formulas need.
    """

    form: str
    factor: str = ""
    c: float = 1.0
    inverse: bool = False

    def values(self, z: QuotientPoint) -> tuple:
        """The weight and its inverse at z, from one inversion: none for the
        identity, and the form itself is an inverse weight's inverse. The
        "B2" form inverts B, and (c B^2)^-1 = B^-1 B^-1 / c, so its SPD floor
        reads B's condition, not its square."""
        f = self._form(z, None)
        if self.form == "I":
            return f, f
        if self.form == "B2":
            b_inv = spd_functions(z.factor(self.factor))
            f_inv = sym(b_inv @ b_inv) / self.c
        else:
            f_inv = spd_functions(f)
        return (f_inv, f) if self.inverse else (f, f_inv)

    def deriv(self, z: QuotientPoint, w: np.ndarray, parts) -> np.ndarray:
        """Derivative along ``parts``, one per vector of a stack; ``w`` is the value."""
        d = self._form(z, parts)
        return -w @ d @ w if self.inverse else d

    def _form(self, z, parts):
        """The matrix before inversion, or its derivative along ``parts``."""
        if self.form == "I":
            return np.eye(z.r) if parts is None else np.zeros((z.r, z.r))
        f = z.factor(self.factor)
        df = None if parts is None else parts[REGISTRY[z.geometry].names.index(self.factor)]
        if self.form == "B":
            return f if df is None else df
        if self.form == "FtF":
            return self.c * f.T @ f if df is None else self.c * (df.mT @ f + f.T @ df)
        return self.c * f @ f if df is None else self.c * (df @ f + f @ df)


IDENTITY = Weight("I")
B_INVERSE = Weight("B", "B", inverse=True)  # W_B of the polar families


@dataclass(frozen=True, eq=False)
class MetricFamily:
    """One enumerated choice of weights ("w", and "v" where the geometry has
    a second weight) defining the total-space metric of a geometry."""

    geometry: str
    name: str
    description: str
    weights: dict = field(repr=False)


@dataclass(frozen=True, eq=False)
class Weights:
    """What a point determines under one metric family: the weights, their
    inverses and ``constants``, the geometry's constants at the point under
    the metric, which ``QuotientGeometry.constants`` fills on first use. It
    holds no reference to the point, which caches it, so a point is freed as
    soon as it is dropped."""

    metric: MetricFamily
    w: np.ndarray
    w_inv: np.ndarray
    v: Optional[np.ndarray] = None
    v_inv: Optional[np.ndarray] = None
    constants: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def at(cls, z: QuotientPoint, metric: MetricFamily) -> "Weights":
        values = {}
        for key, spec in metric.weights.items():
            values[key], values[f"{key}_inv"] = map(_read_only, spec.values(z))
        return cls(metric, **values)


def metric_choices(geometry: str):
    """Names of the enumerated metric families for a quotient geometry."""
    return list(_geometry(geometry).families)


def metric_family(geometry: str, name: str) -> MetricFamily:
    choices = metric_choices(geometry)
    if name not in choices:
        raise ValueError(
            f"metric {name!r} not in the enumerated families for {geometry}: {choices}"
        )
    return REGISTRY[geometry].families[name]


def _check_metric(z: QuotientPoint, metric: MetricFamily):
    if metric.geometry != z.geometry:
        raise ValueError(
            f"metric for {metric.geometry} used with a {z.geometry} point"
        )


# ---------------------------------------------------------------------------
# horizontal vectors


@dataclass(frozen=True, eq=False)
class HorizontalVector(Stack):
    """Ambient-coordinate tangent components in the horizontal space at the
    base point.

    ``space`` records the metric family whose horizontal space holds the
    components by construction. The library functions that make horizontal
    vectors set it, and ``+``, ``-`` and ``*`` keep it when both operands
    share it. A vector built by the caller has none; the functions that
    need a horizontal input under a family check any vector that does not
    record that family, once.
    """

    space: object = field(default=None, repr=False)

    def _new(self, parts, other=None):
        keep = other is None or other.space is self.space
        return HorizontalVector(self.base, parts, self.space if keep else None)

    def raw_norm(self):
        """Frobenius norm of the components, one per vector of a stack."""
        return _norm(self.parts)


def _norm(parts):
    return np.sqrt(sum((a * a).sum(axis=(-2, -1)) for a in parts))


def project_total_tangent(z: QuotientPoint, parts) -> tuple:
    """Project raw matrices onto the total-space tangent space at z.

    Stiefel components get the usual tangent projection, SPD components are
    symmetrized, and full-rank factor components are unconstrained.
    """
    parts = tuple(np.asarray(a, dtype=float) for a in parts)
    return REGISTRY[z.geometry].project_tangent(z, parts)


def _vertical(z: QuotientPoint, tangent, metric: MetricFamily):
    return REGISTRY[z.geometry].vertical(z, tangent, z.weights(metric))


def vertical_project(z: QuotientPoint, parts, metric: MetricFamily):
    """Vertical component of a total-space tangent vector, or of each in a
    stack; each must be within 1e-8 (relative) of the tangent space.

    The decomposition is the direct sum T = V + H: the returned tuple lies in
    the vertical space and ``parts - vertical`` lies in the horizontal space.
    For the q1 geometries (whose horizontal space is metric-orthogonal to the
    vertical space) the metric enters through the weight matrices and the two
    components are also orthogonal under the total-space metric.
    """
    parts = tuple(np.asarray(a, dtype=float) for a in parts)
    tangent = project_total_tangent(z, parts)
    off = _norm(tuple(a - b for a, b in zip(parts, tangent)))
    if not np.all(off <= HORIZ_TOL * np.maximum(_norm(parts), 1e-300)):
        raise ValueError("input is not tangent to the total space")
    return _vertical(z, tangent, metric)


def horizontal_project(z: QuotientPoint, parts, metric: MetricFamily) -> HorizontalVector:
    """Horizontal component of a total-space tangent vector (see
    ``vertical_project`` for the decomposition convention)."""
    parts = project_total_tangent(z, parts)
    hor = tuple(a - b for a, b in zip(parts, _vertical(z, parts, metric)))
    return HorizontalVector(z, hor, metric)


def horizontal_vector(z: QuotientPoint, *parts, metric: MetricFamily) -> HorizontalVector:
    """The horizontality gate: wrap components as a horizontal vector.

    Components within 1e-8 (relative) of the horizontal space are accepted
    as given and the result records that space; anything further off is an
    error, in a stack on a leading axis each vector's own. Nothing is
    re-projected.
    """
    parts = tuple(np.asarray(a, dtype=float) for a in parts)
    # distance from the horizontal space, relative to the norm: one tangent
    # projection and one vertical projection
    tangent = project_total_tangent(z, parts)
    off = tuple(a - b for a, b in zip(parts, tangent))
    defect = np.max(_norm(off + _vertical(z, tangent, metric))
                    / np.maximum(_norm(parts), 1e-300))
    if not defect <= HORIZ_TOL:
        raise ValueError(
            f"components are not horizontal (relative defect {defect:.3e})"
        )
    return HorizontalVector(z, parts, metric)


def _as_horizontal(z: QuotientPoint, theta: HorizontalVector, metric):
    """theta itself if a library function made it under ``metric`` at z, else
    the gate's verdict on its components."""
    theta.check_base(z)
    if theta.space is metric:
        return theta
    return horizontal_vector(z, *theta.parts, metric=metric)


def random_horizontal(
    z: QuotientPoint, metric: MetricFamily, rng: np.random.Generator,
    n: Optional[int] = None,
) -> HorizontalVector:
    """Gaussian tangent draw projected onto the horizontal space; with ``n``,
    a stack of n on a leading axis, from one draw that is bitwise the stream
    of n single calls (vector after vector, factor after factor)."""
    lead = () if n is None else (n,)
    sizes = [f.size for f in z.factors]
    draw = rng.standard_normal(lead + (sum(sizes),))
    raw = tuple(a.reshape(lead + f.shape) for f, a in
                zip(z.factors, np.split(draw, np.cumsum(sizes)[:-1], axis=-1)))
    return horizontal_project(z, raw, metric)


# ---------------------------------------------------------------------------
# metric, gradient, Hessian and basis: checks plus one registry call


def metric_inner(
    z: QuotientPoint, t1: HorizontalVector, t2: HorizontalVector,
    metric: MetricFamily,
):
    """Total-space Riemannian metric on two tangent vectors at z: a float, or
    one per vector where either is a stack (two stacks pair up in order)."""
    t1.check_base(z)
    t2.check_base(z)
    return REGISTRY[z.geometry].inner(z.weights(metric), t1.parts, t2.parts)


def metric_norm(z, t, metric):
    """sqrt g(t, t): a float, or one per vector of a stack."""
    return np.sqrt(np.maximum(metric_inner(z, t, t, metric), 0.0))


def _ambient_gradient(z: QuotientPoint, nabla) -> np.ndarray:
    """An ambient gradient as z's geometry reads it (``_read_ambient``)."""
    return _read_ambient(GEOMETRY_KIND[z.geometry], np.asarray(nabla, dtype=float))


def gradient_lift_from_ambient(
    z: QuotientPoint, metric: MetricFamily, nabla
) -> HorizontalVector:
    """Closed-form horizontal lift induced by an ambient gradient-like matrix.

    Applied to the Euclidean gradient this is the lifted Riemannian gradient
    of h; applied to the ambient form of the embedded Riemannian gradient it
    realizes the quotient side of the gradient-conversion identities.
    """
    return _gradient_lift(z, metric, _ambient_gradient(z, nabla))


def _gradient_lift(z: QuotientPoint, metric: MetricFamily, nabla) -> HorizontalVector:
    """The horizontal lift of an ambient gradient as ``_read_ambient`` gives
    it: symmetric for the PSD kind."""
    parts = REGISTRY[z.geometry].grad_lift(z, z.weights(metric), nabla)
    return HorizontalVector(z, parts, metric)


def riem_grad_quotient(
    z: QuotientPoint, obj: Objective, metric: MetricFamily
) -> HorizontalVector:
    """Horizontal lift of the Riemannian gradient of the induced quotient
    objective h([Z]) = f(X(Z)).

    Derived from the factor map's chain; the defining property
    g(grad, theta) = D h(Z)[theta] holds for every horizontal theta.
    """
    return _gradient_lift(z, metric, _egrad(z.point, obj))


def riem_hess_matrix_quotient(z: QuotientPoint, obj: Objective, metric: MetricFamily,
                              vectors: HorizontalVector):
    """The matrix [Hess h[theta_i, theta_j]] of the lifted Riemannian Hessian
    of h at z on a stack of horizontal vectors theta_i, checked once, and the
    lifted Riemannian gradient that the matrix reads (see
    ``QuotientGeometry.hess_matrix``)."""
    parts = _as_horizontal(z, vectors, metric).parts
    h, grad = REGISTRY[z.geometry].hess_matrix(z, obj, z.weights(metric), parts)
    return h, HorizontalVector(z, grad, metric)


def riem_hess_quad_quotient(
    z: QuotientPoint, obj: Objective, metric: MetricFamily, theta: HorizontalVector
) -> float:
    """Quadratic form of the lifted Riemannian Hessian of h along theta."""
    return float(riem_hess_matrix_quotient(z, obj, metric, theta[None])[0][0, 0])


def horizontal_basis(z: QuotientPoint, metric: MetricFamily):
    """Basis of the horizontal space, as one stack, plus its metric Gram
    matrix: the horizontal lift b_i = L^-1(E_i) of the embedded orthonormal
    basis E at the matched point, one formula for every geometry.

    Since L(b_i) = E_i, the Gram's condition is at most beta/alpha of
    ``transport.spectrum_bounds``: it belongs to the metric, not the basis.
    """
    wt = z.weights(metric)
    geo = REGISTRY[z.geometry]
    parts = geo.inverse(z, tangent_basis(z.point), wt)
    return HorizontalVector(z, parts, metric), geo.gram(wt, parts)


def geometries(kind: str) -> tuple:
    """Every geometry of a matrix kind: the embedded one, then the quotients."""
    return (EMBEDDED[kind],) + tuple(
        name for name, geo in REGISTRY.items() if geo.kind == kind
    )


def quotient_dim(geometry: str, p1: int, p2: int, r: int) -> int:
    """Dimension of the quotient manifold (= its horizontal spaces)."""
    if geometry in geometries("psd"):
        return p1 * r - (r * r - r) // 2
    if geometry in geometries("general"):
        return (p1 + p2 - r) * r
    raise ValueError(f"unknown geometry {geometry!r}")


# ---------------------------------------------------------------------------
# the geometries


def _dot(a, b):
    return float(np.sum(a * b))


def _b_inverse(z, wt):
    """B^-1 at z: the weight W itself where the family's W is B^-1, which
    ``Weights.at`` has inverted already."""
    if wt.metric.weights["w"] == B_INVERSE:
        return wt.w
    return _read_only(spd_functions(z.factor("B")))


def _extremes(m):
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[-1]), float(s[0])


class Factor(NamedTuple):
    name: str
    kind: str  # "stiefel" | "spd" | "free"
    weight: str  # metric weight acting on this factor's components


class QuotientGeometry:
    """One quotient geometry: the total space of its factors, the gauge
    group, the metric families, the horizontal space, and the lifts.

    A subclass sets ``name``, ``kind`` ("psd" or "general"), ``factors``,
    ``chain`` (the factor map as a product of factor names, "F^T" for a
    transposed link, e.g. ("U", "B", "U^T") for X = U B U^T) and ``metrics``
    (family name -> (description, {weight key: Weight})).

    From the chain, the factor kinds and the weights, the base class derives
    the matched frame, the canonical lift, the metric and its Gram matrix,
    the differential and second differential of the factor map, each
    factor's partial derivative, the gradient lift, the Hessian's matrix on
    a stack of vectors and L(theta). A subclass adds the paper's formulas
    particular to it, on raw component tuples and the point's ``Weights`` ``wt``:

    - ``vertical(z, parts, wt)`` where the vertical part depends on the
      metric (the base class covers O(r) acting with a Stiefel factor);
    - ``grad_lift(z, wt, nabla)`` where the base lift is not horizontal;
    - ``build_constants(z, wt)``, where the geometry has constants: those
      at z under the metric, a dict of read-only values, which
      ``constants`` keeps in ``wt``;
    - ``inverse(z, xi, wt)``: the inverse of L on the embedded tangent space;
    - ``bounds(z, wt)``: (alpha, beta) with alpha g <= ||L||^2 <= beta g,
      read from the factors and the weights record alone;
    - ``grad_embedded(z, wt, grad)``: ambient embedded gradient from a lift.
    """

    def __init__(self):
        self.families = {
            name: MetricFamily(self.name, name, description, weights)
            for name, (description, weights) in self.metrics.items()
        }
        # resolved once: each link as (factor position, transposed), the end links'
        # factors, each factor's lift frame (0: U, 1: V), the free-factor links
        self.names = tuple(f.name for f in self.factors)
        self.links = tuple((self.names.index(link.removesuffix("^T")), link.endswith("^T"))
                           for link in self.chain)
        self.ends = (self.links[0][0], self.links[-1][0])
        self.sides = tuple(int(i != self.ends[0]) for i in range(len(self.factors)))
        self.free_links = sum(self.factors[i].kind == "free" for i, _ in self.links)

    def frame(self, factors):
        """The matched ``EmbeddedPoint``: U is the first link's factor if it
        is Stiefel, else its QR factor, V likewise from the last link's (U
        itself for the PSD kind), and Sigma the chain with its end links read
        as U^T F and (V^T F)^T, or dropped where F is the frame itself."""
        i, j = self.ends
        u = factors[i] if self.factors[i].kind == "stiefel" else _qf(factors[i])
        v = (u if self.kind == "psd" else factors[j] if self.factors[j].kind == "stiefel"
             else _qf(factors[j]))
        core = self._chain(factors, lo=1, hi=len(self.links) - 1)
        if u is not factors[i]:
            core.insert(0, u.T @ factors[i])
        if v is not factors[j]:
            core.append((v.T @ factors[j]).T)
        return _point_from_factors(self.kind, u, reduce(np.matmul, core), v)

    def lift(self, x_pt):
        """Canonical factors of a point with a spectral (diagonal) Sigma: U
        for the first link's factor and V for the others, times Sigma^(1/k) on
        a free factor, where k <= 2 links read free factors; Sigma for the SPD core."""
        sig, frames = x_pt.Sigma, (x_pt.U, x_pt.V)
        root = sig if self.free_links < 2 else np.diag(np.sqrt(np.diag(sig)))
        return tuple(sig if f.kind == "spd" else frames[side] if f.kind == "stiefel"
                     else frames[side] @ root for f, side in zip(self.factors, self.sides))

    def constants(self, z, wt) -> dict:
        """The geometry's constants at z under wt's metric, built on first use
        and kept in ``wt``: the gradient lift and L need only the weights, and
        an ill-separated operator must not fail them (its refusal names the family)."""
        if not wt.constants:
            try:
                wt.constants.update(self.build_constants(z, wt))
            except ConditioningError as exc:
                raise ConditioningError(f"{self.name}/{wt.metric.name}: {exc}") from exc
        return wt.constants

    def _chain(self, base, read=None, lo=0, hi=None):
        """The links lo..hi-1 of the chain as matrices, the link at position k
        read from the tangent ``read[k]`` where ``read`` maps k, and from the
        factors ``base`` elsewhere."""
        read = read or {}
        return [read.get(k, base)[i].mT if transposed else read.get(k, base)[i]
                for k, (i, transposed) in enumerate(self.links[lo:hi], lo)]

    def _product(self, base, read=None, lo=0, hi=None):
        """Product of the links lo..hi-1 of the chain (see ``_chain``)."""
        return reduce(np.matmul, self._chain(base, read, lo, hi))

    def differential(self, z, theta):
        """D pi[theta]: the sum over links of the product with that link
        read from theta."""
        return sum(self._product(z.factors, {k: theta}) for k in range(len(self.links)))

    def second(self, z, a, b=None):
        """D^2 pi[a, b], with b = a when omitted: over link pairs i < j, the
        product with link i read from a and link j from b, plus the product
        with the two swapped."""
        b = a if b is None else b
        return sum(self._product(z.factors, {i: a, j: b})
                   + self._product(z.factors, {i: b, j: a})
                   for i, j in combinations(range(len(self.links)), 2))

    def partial(self, z, nabla, index):
        """Partial derivative of <nabla, pi> in the factor at ``index``: over
        that factor's links, (left product)^T nabla (right product)^T,
        transposed where the link is."""
        out = 0.0
        for k, (i, transposed) in enumerate(self.links):
            if i != index:
                continue
            g = nabla
            if k > 0:
                g = self._product(z.factors, hi=k).T @ g
            if k < len(self.links) - 1:
                g = g @ self._product(z.factors, lo=k + 1).T
            out = out + (g.T if transposed else g)
        return out

    def grad_lift(self, z, wt, nabla):
        """Lift of an ambient gradient: d_F W_F^-1 on a free factor,
        (I - F F^T) d_F W_F^-1 on a Stiefel factor and W^-1 sym(d_B) W^-1 on
        the SPD core, with d_F the partial derivative and W_F its weight."""
        out = []
        for i, (f, base) in enumerate(zip(self.factors, z.factors)):
            d = self.partial(z, nabla, i)
            w_inv = getattr(wt, f.weight + "_inv")
            if f.kind == "spd":
                out.append(w_inv @ sym(d) @ w_inv)
                continue
            if f.kind == "stiefel":
                d = d - base @ (base.T @ d)
            out.append(d @ w_inv)
        return tuple(out)

    def _dw(self, z, wt, zeta):
        """Each non-identity weight's derivative at z along ``zeta`` (or a stack)."""
        return {key: spec.deriv(z, getattr(wt, key), zeta)
                for key, spec in wt.metric.weights.items() if spec.form != "I"}

    def _dg(self, wt, dws, a, b):
        """Dg[zeta](a, b) from the weight derivatives ``dws`` = _dw(z, wt, zeta):
        tr(DW_F a_F^T b_F) on Stiefel and free factors, tr(DW a W b) +
        tr(W a DW b) on the SPD core (every DW is symmetric)."""
        out = 0.0
        for f, fa, fb in zip(self.factors, a, b):
            dw = dws.get(f.weight)
            if dw is None:
                continue
            if f.kind == "spd":
                w = getattr(wt, f.weight)
                out += _dot(dw, fa @ w @ fb) + _dot(w, fa @ dw @ fb)
            else:
                out += _dot(dw, fa.T @ fb)
        return out

    def hess_matrix(self, z, obj, wt, parts):
        """[Hess h[a_i, a_j]] on the stacked components ``parts``, and the
        gradient lift G that it reads; each entry is the symmetric bilinear form

            Hess f[D pi a, D pi b] + <nabla f, D^2 pi[a, b]>
            - sum over Stiefel F of <d_F, F sym(a_F^T b_F)>
            - (Dg[a](b, G) + Dg[b](a, G)) / 2 + Dg[G](a, b) / 2:

        the Euclidean Hessian along the differential, the gradient against
        the second differential, the Stiefel normal term and the metric's
        Koszul terms, with G the gradient lift. nabla f, G, the Stiefel
        partials and DW[G] are computed once, the stack's differentials
        (d p1 p2 doubles) and DWs in one call each, the first term by
        ``Objective.ehess_matrix`` and the others in a pair loop."""
        nabla = _egrad(z.point, obj)
        grad = self.grad_lift(z, wt, nabla)
        stiefel = [(i, base, self.partial(z, nabla, i))
                   for i, (f, base) in enumerate(zip(self.factors, z.factors))
                   if f.kind == "stiefel"]
        dw_grad = self._dw(z, wt, grad)
        diffs = self.differential(z, parts)
        dws = self._dw(z, wt, parts)
        h = obj.ehess_matrix(z.X, diffs)
        for i in range(len(h)):
            a, dwa = [c[i] for c in parts], {key: dw[i] for key, dw in dws.items()}
            for j in range(i, len(h)):
                b, dwb = [c[j] for c in parts], {key: dw[j] for key, dw in dws.items()}
                out = h[i, j] + _dot(nabla, self.second(z, a, b))
                for k, base, dk in stiefel:
                    out -= _dot(dk, base @ sym(a[k].T @ b[k]))
                out -= (self._dg(wt, dwa, b, grad) + self._dg(wt, dwb, a, grad)) / 2.0
                out += self._dg(wt, dw_grad, a, b) / 2.0
                h[i, j] = h[j, i] = out
        return h, grad

    def lowered(self, wt, parts):
        """Each component with the metric's weights applied, so that the
        metric is its elementwise product with a second vector: a W on
        Stiefel and free factors, W a W on the (symmetric) SPD core."""
        ws = [getattr(wt, f.weight) for f in self.factors]
        return [w @ a @ w if f.kind == "spd" else a @ w
                for f, w, a in zip(self.factors, ws, parts)]

    def inner(self, wt, t1, t2):
        """The metric on two tangent vectors. The components of either may
        carry a leading stack axis, giving one value per stacked vector."""
        return sum((a * b).sum(axis=(-2, -1)) for a, b in zip(self.lowered(wt, t1), t2))

    def gram(self, wt, parts):
        """The metric's Gram matrix of the stacked components ``parts``, one
        flattened product of lowered components against components per factor."""
        n = len(parts[0])
        return sym(sum(a.reshape(n, -1) @ b.reshape(n, -1).T
                       for a, b in zip(self.lowered(wt, parts), parts)))

    def checked(self, factors):
        """Validate factors: each finite, then by kind; SPD factors are symmetrized."""
        for f, a in zip(self.factors, factors):
            if not np.isfinite(a).all():
                raise ValueError(f"factor {f.name} has a non-finite entry")
            _CHECKS[f.kind](a, f.name)
        return tuple(sym(a) if f.kind == "spd" else a
                     for f, a in zip(self.factors, factors))

    def project_tangent(self, z, parts):
        return tuple(a - base @ sym(base.T @ a) if f.kind == "stiefel"
                     else sym(a) if f.kind == "spd" else a
                     for f, base, a in zip(self.factors, z.factors, parts))

    def vertical(self, z, parts, wt):
        """Vertical part under O(r) with a Stiefel factor: F Omega on the
        Stiefel and free factors, B Omega - Omega B on the SPD core, with
        Omega the mean of U^T theta_U over the Stiefel factors."""
        omega = np.mean([f.T @ a for k, f, a in zip(self.factors, z.factors, parts)
                         if k.kind == "stiefel"], axis=0)
        return tuple(f @ omega - omega @ f if k.kind == "spd" else f @ omega
                     for k, f in zip(self.factors, z.factors))

    def forward(self, z, theta):
        """L(theta): the factor map's differential X_theta, which lies in the
        embedded tangent space at X, in that space's factored form, read from
        X_theta V and U^T X_theta: each link's product is multiplied out from
        the frame's side, so no p1 x p2 matrix is formed."""
        pt = z.point
        xv = xtu = 0.0
        for k in range(len(self.links)):
            chain = self._chain(z.factors, {k: theta})
            xv = xv + reduce(lambda acc, a: a @ acc, reversed(chain), pt.V)
            xtu = xtu + reduce(np.matmul, chain, pt.U.T).mT
        if self.kind == "psd":
            xv = (xv + xtu) / 2.0  # sym(X_theta) U, as V is U
        return EmbeddedTangent(pt, _parts_from_products(pt, xv, xtu))



class PsdQ1(QuotientGeometry):
    name, kind = "psd_q1", "psd"
    factors = (Factor("Y", "free", "w"),)
    chain = ("Y", "Y^T")
    metrics = {
        "flat": ("W_Y = I", {"w": IDENTITY}),
        "double-gram": ("W_Y = 2 Y^T Y", {"w": Weight("FtF", "Y", 2.0)}),
        "inverse-gram": ("W_Y = (Y^T Y)^-1",
                         {"w": Weight("FtF", "Y", inverse=True)}),
    }

    def build_constants(self, z, wt):
        """P = U_frame^T Y (invertible r x r), P^-1 and M X + X M factored,
        M = P^-T W P^-1."""
        p = _read_only(z.point.U.T @ z.factor("Y"))
        pinv = _read_only(np.linalg.inv(p))
        m = sym(pinv.T @ wt.w @ pinv)
        return {"p": p, "pinv": pinv, "sylvester": SymmetricSylvester(m, m)}

    def vertical(self, z, parts, wt):
        u, c = z.point.U, self.constants(z, wt)
        op = c["sylvester"]
        a = u.T @ parts[0] @ c["p"].T
        omega = op.solve(2.0 * skew(a @ op.a))
        return (u @ omega @ c["pinv"].T,)

    def inverse(self, z, xi, wt):
        c = self.constants(z, wt)
        op = c["sylvester"]
        s_prime = op.solve(op.a @ xi.S)
        return ((z.point.U @ s_prime + xi.Up) @ c["pinv"].T,)

    def bounds(self, z, wt):
        # the extreme eigenvalues of M^-1 = P W^-1 P^T
        la = self.constants(z, wt)["sylvester"].la
        return 2.0 / float(la[-1]), 4.0 / float(la[0])

    def grad_embedded(self, z, wt, grad):
        yfac = z.factor("Y")
        (g,) = grad
        a = g @ wt.w @ np.linalg.pinv(yfac)
        proj_out = np.eye(yfac.shape[0]) - yfac @ np.linalg.pinv(yfac)
        return (a + a.T @ proj_out) / 2.0


class PsdQ2(QuotientGeometry):
    name, kind = "psd_q2", "psd"
    factors = (Factor("U", "stiefel", "v"), Factor("B", "spd", "w"))
    chain = ("U", "B", "U^T")
    metrics = {
        "polar": ("V_B = I, W_B = B^-1",
                  {"v": IDENTITY, "w": B_INVERSE}),
        "matched": ("V_B = 2 B^2, W_B = I",
                    {"v": Weight("B2", "B", 2.0), "w": IDENTITY}),
    }

    def build_constants(self, z, wt):
        """B^-1."""
        return {"binv": _b_inverse(z, wt)}

    def inverse(self, z, xi, wt):
        return (xi.Up @ self.constants(z, wt)["binv"], sym(xi.S))

    def bounds(self, z, wt):
        """sigma(V^-1/2 B) as sigma(C^T B), C C^T = V^-1 by Cholesky: under
        matched, V^-1 = B^-1 B^-1 / 2, so the floor reads B, not 2 B^2."""
        lo_w, hi_w = _extremes(wt.w_inv)
        lo_vb, hi_vb = _extremes(np.linalg.cholesky(wt.v_inv).T @ z.factor("B"))
        return min(lo_w**2, 2.0 * lo_vb**2), max(hi_w**2, 2.0 * hi_vb**2)

    def grad_embedded(self, z, wt, grad):
        u, b = z.factors
        gu, gb = grad
        a = gu @ wt.v @ self.constants(z, wt)["binv"] @ u.T / 2.0
        return a + a.T + u @ wt.w @ gb @ wt.w @ u.T


class GenQ1(QuotientGeometry):
    name, kind = "gen_q1", "general"
    factors = (Factor("L", "free", "w"), Factor("R", "free", "v"))
    chain = ("L", "R^T")
    metrics = {
        "inverse-gram": ("W = (L^T L)^-1, V = (R^T R)^-1",
                         {"w": Weight("FtF", "L", inverse=True),
                          "v": Weight("FtF", "R", inverse=True)}),
        "crossed-gram": ("W = R^T R, V = L^T L",
                         {"w": Weight("FtF", "R"), "v": Weight("FtF", "L")}),
    }

    def build_constants(self, z, wt):
        """P1 = U^T L, P2 = V^T R, their inverses and M2 X + X M1 factored,
        M1 = P1 V^-1 P1^T and M2 = P2 W^-1 P2^T; L^-1 solves its transpose."""
        p1 = _read_only(z.point.U.T @ z.factor("L"))
        p2 = _read_only(z.point.V.T @ z.factor("R"))
        m1, m2 = sym(p1 @ wt.v_inv @ p1.T), sym(p2 @ wt.w_inv @ p2.T)
        return {"p1": p1, "p2": p2, "p1inv": _read_only(np.linalg.inv(p1)),
                "p2inv": _read_only(np.linalg.inv(p2)),
                "sylvester": SymmetricSylvester(m2, m1)}

    def vertical(self, z, parts, wt):
        u, v = z.point.U, z.point.V
        c = self.constants(z, wt)
        op = c["sylvester"]
        a1 = u.T @ parts[0] @ c["p2"].T
        a2 = v.T @ parts[1] @ c["p1"].T
        sv = op.solve(a1.mT @ op.b - op.a @ a2).mT
        return (u @ sv @ c["p2inv"].T, -v @ sv.mT @ c["p1inv"].T)

    def inverse(self, z, xi, wt):
        pt, c = z.point, self.constants(z, wt)
        op = c["sylvester"]
        # M1 S' + S' M2 = S, solved as its transpose
        s_prime = op.solve(xi.S.mT).mT
        tl = (pt.U @ s_prime @ op.a + xi.Up) @ c["p2inv"].T
        tr = (pt.V @ s_prime.mT @ op.b + xi.Vp) @ c["p1inv"].T
        return (tl, tr)

    def bounds(self, z, wt):
        op = self.constants(z, wt)["sylvester"]
        return (float(min(op.la[0], op.lb[0])),
                2.0 * float(max(op.la[-1], op.lb[-1])))

    def grad_embedded(self, z, wt, grad):
        lfac, rfac = z.factors
        gl, gr = grad
        rp = np.linalg.pinv(rfac)
        lp = np.linalg.pinv(lfac)
        return gl @ wt.w @ rp + (gr @ wt.v @ lp).T @ (
            np.eye(rfac.shape[0]) - rfac @ rp
        )


class GenQ2(QuotientGeometry):
    name, kind = "gen_q2", "general"
    factors = (Factor("U", "stiefel", "v"), Factor("B", "spd", "w"),
               Factor("V", "stiefel", "v"))
    chain = ("U", "B", "V^T")
    metrics = {
        "polar": ("V_B = I, W_B = B^-1",
                  {"v": IDENTITY, "w": B_INVERSE}),
    }

    def build_constants(self, z, wt):
        """B^-1 and B X + X B factored, for the inverse and the gradient
        conversion."""
        b = z.factor("B")
        return {"binv": _b_inverse(z, wt), "sylvester": SymmetricSylvester(b, b)}

    def grad_lift(self, z, wt, nabla):
        """The base lift plus (U mix, 0, -V mix), mix = (K B + B K)/2 with
        K = skew(U^T nabla V), which makes it horizontal."""
        u, b, v = z.factors
        k = skew(u.T @ nabla @ v)
        mix = (k @ b + b @ k) / 2.0
        gu, gb, gv = super().grad_lift(z, wt, nabla)
        return (gu + u @ mix, gb, gv - v @ mix)

    def inverse(self, z, xi, wt):
        u, _, v = z.factors
        c = self.constants(z, wt)
        binv = c["binv"]
        omega = c["sylvester"].solve(skew(xi.S))
        tu = xi.Up @ binv + u @ omega
        tv = xi.Vp @ binv - v @ omega
        return (tu, sym(xi.S), tv)

    def bounds(self, z, wt):
        """(sigma_r^2, 2 sigma_1^2) of X: derived for polar's weights only,
        whose W^-1 is B, and sigma(X) = lambda(B)."""
        if wt.metric.weights != self.families["polar"].weights:
            raise ValueError(f"gen_q2 has bounds for polar only, not {wt.metric.name!r}")
        lo, hi = _extremes(wt.w_inv)
        return lo**2, 2.0 * hi**2

    def grad_embedded(self, z, wt, grad):
        u, _, v = z.factors
        gu, gb, gv = grad
        c = self.constants(z, wt)
        binv = c["binv"]
        # skew part of Delta solves B K + K B = 2 gu^T U with K = skew(Delta)^T
        k = c["sylvester"].solve(2.0 * gu.T @ u)
        delta = binv @ gb @ binv + k.T
        pgu = gu - u @ (u.T @ gu)
        pgv = gv - v @ (v.T @ gv)
        return pgu @ binv @ v.T + u @ delta @ v.T + (pgv @ binv @ u.T).T


class GenQ3(QuotientGeometry):
    name, kind = "gen_q3", "general"
    factors = (Factor("U", "stiefel", "v"), Factor("Y", "free", "w"))
    chain = ("U", "Y^T")
    metrics = {
        "flat": ("V_Y = I, W_Y = I", {"v": IDENTITY, "w": IDENTITY}),
        "inverse-gram": ("V_Y = I, W_Y = (Y^T Y)^-1",
                         {"v": IDENTITY, "w": Weight("FtF", "Y", inverse=True)}),
        "matched": ("V_Y = Y^T Y, W_Y = I",
                    {"v": Weight("FtF", "Y"), "w": IDENTITY}),
    }

    def build_constants(self, z, wt):
        """(Y^T V)^-1, V the frame of Y (invertible r x r)."""
        return {"cinv": _read_only(np.linalg.inv(z.factor("Y").T @ z.point.V))}

    def inverse(self, z, xi, wt):
        tu = xi.Up @ self.constants(z, wt)["cinv"]
        ty = z.point.V @ xi.S.mT + xi.Vp
        return (tu, ty)

    def bounds(self, z, wt):
        """sigma(Y V^-1/2) as sigma(Y C), C C^T = V^-1 by Cholesky."""
        lo_w, hi_w = _extremes(wt.w_inv)
        lo_y, hi_y = _extremes(z.factor("Y") @ np.linalg.cholesky(wt.v_inv))
        return min(lo_w, lo_y**2), max(hi_w, hi_y**2)

    def grad_embedded(self, z, wt, grad):
        u, yfac = z.factors
        gu, gy = grad
        return gu @ wt.v @ np.linalg.pinv(yfac) + (gy @ wt.w @ u.T).T


REGISTRY = {geo.name: geo for geo in (PsdQ1(), PsdQ2(), GenQ1(), GenQ2(), GenQ3())}
# matrix kind of every geometry, embedded and quotient
GEOMETRY_KIND = {name: kind for kind, name in EMBEDDED.items()}
GEOMETRY_KIND.update((name, geo.kind) for name, geo in REGISTRY.items())
