"""Dense linear-algebra utilities shared by the geometry modules.

Everything here is pure and operates on plain ``numpy`` arrays, with dense
factorizations. The geometries call them on r x r cores, on p x r frames
and, for the bases and the projections onto the manifold, on p x p
matrices; the gradient flows avoid the last by truncating from factors
(``embedded.truncate_sum``).

The geometries' Sylvester operators are symmetric, and their coefficients
depend only on the point and the metric: ``SymmetricSylvester`` factors one
with an eigendecomposition of each coefficient, once per (point, metric),
kept in the point's ``quotient.Weights`` record for the metric, and each
solve is then a few r x r products. ``solve_sylvester`` is the
general Kronecker-vectorized solver, which no geometry calls; the tests
hold the factored solver to it.

Each numerical acceptance rule of the library is one constant and one
owner, here unless named otherwise:

- symmetry: ``is_symmetric``, relative asymmetry within ``SPD_TOL``;
- rank floor: ``below_floor`` with ``RANK_TOL``, for a truncation's rank gap,
  a point's factors and core, and a basis Gram's conditioning;
- SPD weight floor: ``spd_functions`` and ``gen_sym_eig``, ``below_floor``
  with ``SPD_TOL``;
- orthonormality: ``check_orthonormal``, ``ORTHONORMAL_TOL``;
- Sylvester separation: ``below_floor`` with ``SYLVESTER_SEP_TOL``;
- horizontality: ``quotient.horizontal_vector``, ``quotient.HORIZ_TOL``.

A NaN fails every rule, and an eigenvalue floor reads finite input only.
"""

from typing import NamedTuple

import numpy as np

SYLVESTER_SEP_TOL = 1e-12  # relative spectral separation of A and -B
ORTHONORMAL_TOL = 1e-12  # ||U^T U - I||_F per sqrt(r) accepted as orthonormal
SPD_TOL = 1e-12  # relative asymmetry and eigenvalue floor of an SPD or Gram matrix
RANK_TOL = 1e-10  # smallest relative singular value or eigenvalue of a full-rank matrix


class RankError(ValueError):
    """A matrix does not have the numerical rank an operation requires."""


class ConditioningError(np.linalg.LinAlgError):
    """A linear system is too close to singular to solve reliably."""


def finite(x):
    """x itself; a non-finite entry raises ``np.linalg.LinAlgError`` before
    any decomposition, since LAPACK's SVD need not return on one."""
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError("matrix has a non-finite entry")
    return x


def _as_matrix(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def sym(x) -> np.ndarray:
    """Symmetric part (X + X^T)/2 of a square matrix, or of each in a stack."""
    x = np.asarray(x, dtype=float)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"sym requires square matrices, got shape {x.shape}")
    return (x + x.mT) / 2.0


def frobenius(x) -> np.ndarray:
    """Frobenius norm of a matrix, or one per matrix of a stack."""
    flat = x.reshape(x.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat))


def skew(x) -> np.ndarray:
    """Skew-symmetric part (X - X^T)/2 of a square matrix, or of each in a stack."""
    x = np.asarray(x, dtype=float)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"skew requires square matrices, got shape {x.shape}")
    return (x - x.mT) / 2.0


def solve_sylvester(a, b, c) -> np.ndarray:
    """Solve A X + X B = C by a Kronecker-vectorized dense solve.

    The general solver, for small coefficients that need not be symmetric,
    by an O((mn)^3) dense solve per call; the geometries' symmetric
    operators use ``SymmetricSylvester``, which factors each once. Raises
    ``ConditioningError`` when the spectra of A and -B come within
    ``SYLVESTER_SEP_TOL`` of each other relative to the problem scale, which
    is exactly when the equation loses its unique solution.
    """
    a = _as_matrix(a)
    b = _as_matrix(b)
    c = _as_matrix(c)
    m, n = c.shape
    if a.shape != (m, m) or b.shape != (n, n):
        raise ValueError(
            f"incompatible Sylvester shapes: A {a.shape}, B {b.shape}, C {c.shape}"
        )
    scale = np.linalg.norm(a, 2) + np.linalg.norm(b, 2)
    alpha = np.linalg.eigvals(a)
    beta = np.linalg.eigvals(b)
    _check_separation(np.min(np.abs(alpha[:, None] + beta[None, :])), scale)
    k = np.kron(np.eye(n), a) + np.kron(b.T, np.eye(m))
    x = np.linalg.solve(k, c.reshape(-1, order="F"))
    return x.reshape((m, n), order="F")


def below_floor(low, high, tol):
    """Whether low <= tol max(high, 1e-300), elementwise: the one floor rule,
    under which a NaN is below every floor."""
    return ~np.greater(low, tol * np.maximum(high, 1e-300))


def _check_separation(gap, scale):
    """Refuse a Sylvester equation whose spectra of A and -B come within
    SYLVESTER_SEP_TOL of each other relative to the scale, and say by how much."""
    if below_floor(gap, scale, SYLVESTER_SEP_TOL):
        gap = gap / max(scale, 1e-300)
        raise ConditioningError(
            f"spectra of A and -B overlap (relative separation {gap:.3e} <= "
            f"SYLVESTER_SEP_TOL {SYLVESTER_SEP_TOL:.0e}); Sylvester equation has "
            "no unique solution")


def _frozen(a) -> np.ndarray:
    a.flags.writeable = False
    return a


class SymmetricSylvester:
    """A X + X B = C for symmetric A (m x m) and B (n x n), factored once.

    The constructor takes one ``eigh`` of A and of B (one in all when B is
    A) and checks the separation once, with the rule of ``solve_sylvester``:
    ``ConditioningError`` when min |la_i + lb_j| <= SYLVESTER_SEP_TOL
    (||A||_2 + ||B||_2), the norms read from the eigenvalues. Each ``solve``
    is then Qa ((Qa^T C Qb) / (la_i + lb_j)) Qb^T. The stored arrays are
    read-only, since every caller of a cached factor shares them.
    """

    def __init__(self, a, b):
        same = b is a
        self.a = _frozen(_symmetric(a, "A"))
        self.b = self.a if same else _frozen(_symmetric(b, "B"))
        self.la, self.qa = map(_frozen, np.linalg.eigh(self.a))
        self.lb, self.qb = ((self.la, self.qa) if same
                            else map(_frozen, np.linalg.eigh(self.b)))
        denom = self.la[:, None] + self.lb[None, :]
        scale = np.max(np.abs(self.la)) + np.max(np.abs(self.lb))
        _check_separation(np.min(np.abs(denom)), scale)
        self.denom = _frozen(denom)

    def solve(self, c) -> np.ndarray:
        """X with A X + X B = C, for one C or a stack of them on leading axes."""
        c = np.asarray(c, dtype=float)
        if c.shape[-2:] != self.denom.shape:
            raise ValueError(
                f"incompatible Sylvester shapes: A {self.a.shape}, B {self.b.shape}, "
                f"C {c.shape}"
            )
        return self.qa @ ((self.qa.T @ c @ self.qb) / self.denom) @ self.qb.T


def is_symmetric(x) -> bool:
    """Whether a square matrix, or each of a stack, is symmetric within
    SPD_TOL, relative to max(1, ||X||_F); one with a NaN is not."""
    return bool((frobenius(x - x.mT) <= SPD_TOL * np.maximum(1.0, frobenius(x))).all())


def _symmetric(x, name) -> np.ndarray:
    """The symmetric part of a finite square matrix that is symmetric within
    SPD_TOL."""
    x = _as_matrix(x)
    if x.shape[0] != x.shape[1] or x.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty square matrix, got {x.shape}")
    if not is_symmetric(finite(x)):
        raise ValueError(f"{name} is not symmetric")
    return sym(x)


def check_orthonormal(u, message):
    """Raise ``ValueError(message)`` unless U, or each matrix of a stack, has
    orthonormal columns: ||U^T U - I||_F <= ORTHONORMAL_TOL max(1, sqrt(r))."""
    r = u.shape[-1]
    tol = ORTHONORMAL_TOL * max(1.0, np.sqrt(r))
    if not (frobenius(u.mT @ u - np.eye(r)) <= tol).all():
        raise ValueError(message)


def orth_complement(u) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(U).

    U must be p x r with orthonormal columns; the result is p x (p-r) with
    orthonormal columns satisfying U^T U_perp = 0. For r = p the result is an
    empty p x 0 matrix.
    """
    u = _as_matrix(u)
    p, r = u.shape
    if r > p:
        raise ValueError(f"complement needs r <= p, got shape {u.shape}")
    check_orthonormal(u, "input columns are not orthonormal")
    if r == p:
        return np.zeros((p, 0))
    # Rows r..p of V^T in the full SVD of U^T span the null space of U^T.
    _, _, vt = np.linalg.svd(u.T, full_matrices=True)
    return vt[r:].T


class SpdFunctions(NamedTuple):
    sqrt: np.ndarray
    inv: np.ndarray
    inv_sqrt: np.ndarray


def spd_functions(b) -> SpdFunctions:
    """Square root, inverse and inverse square root of an SPD matrix, else
    RankError; a non-finite entry raises ``np.linalg.LinAlgError``."""
    w, v = np.linalg.eigh(_symmetric(b, "matrix"))
    if below_floor(w[0], w[-1], SPD_TOL):
        raise RankError("matrix is not positive definite")
    sq = (v * np.sqrt(w)) @ v.T
    inv = (v / w) @ v.T
    inv_sq = (v / np.sqrt(w)) @ v.T
    return SpdFunctions(sym(sq), sym(inv), sym(inv_sq))


def gen_sym_eig(h, g):
    """Eigenvalues/eigenvectors of the pencil H v = lambda G v, G SPD.

    Solved by Cholesky whitening: with G = L L^T the pencil reduces to the
    ordinary symmetric problem L^-1 H L^-T. Returned eigenvalues are in
    descending order and the eigenvectors (columns) are G-orthonormal.
    """
    h = _as_matrix(h)
    g = _as_matrix(g)
    if h.shape != g.shape or h.shape[0] != h.shape[1]:
        raise ValueError(f"H {h.shape} and G {g.shape} must be square and equal")
    wg = np.linalg.eigvalsh(sym(finite(g)))
    if below_floor(wg[0], wg[-1], SPD_TOL):
        raise ConditioningError(
            f"Gram matrix is not safely positive definite (eigs {wg[0]:.3e}..{wg[-1]:.3e})"
        )
    ell = np.linalg.cholesky(sym(g))
    middle = np.linalg.solve(ell, np.linalg.solve(ell, sym(h)).T).T
    w, q = np.linalg.eigh(sym(middle))
    order = np.argsort(w)[::-1]
    w = w[order]
    q = q[:, order]
    vecs = np.linalg.solve(ell.T, q)
    return w, vecs


def sym_basis(r) -> np.ndarray:
    """Frobenius-orthonormal basis of the symmetric r x r matrices: a
    (r(r+1)/2, r, r) stack, over the upper triangle row by row."""
    i, j = np.triu_indices(r)
    out = np.zeros((len(i), r, r))
    k = np.arange(len(i))
    out[k, i, j] = out[k, j, i] = np.where(i == j, 1.0, 1.0 / np.sqrt(2.0))
    return out
