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
"""

from typing import NamedTuple

import numpy as np

SYLVESTER_SEP_TOL = 1e-12  # relative spectral separation of A and -B
ORTHONORMAL_TOL = 1e-12  # ||U^T U - I|| per sqrt(r) accepted as orthonormal
SPD_TOL = 1e-12  # relative asymmetry and eigenvalue floor of an SPD matrix
GRAM_PD_TOL = 1e-12  # relative eigenvalue floor of a Gram matrix


class RankError(ValueError):
    """A matrix does not have the numerical rank an operation requires."""


class ConditioningError(np.linalg.LinAlgError):
    """A linear system is too close to singular to solve reliably."""


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
    gap = np.min(np.abs(alpha[:, None] + beta[None, :]))
    if gap <= SYLVESTER_SEP_TOL * max(scale, 1e-300):
        raise ConditioningError(
            f"spectra of A and -B overlap (separation {gap:.3e}); "
            "Sylvester equation has no unique solution"
        )
    k = np.kron(np.eye(n), a) + np.kron(b.T, np.eye(m))
    x = np.linalg.solve(k, c.reshape(-1, order="F"))
    return x.reshape((m, n), order="F")


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
        gap = np.min(np.abs(denom))
        if gap <= SYLVESTER_SEP_TOL * max(scale, 1e-300):
            raise ConditioningError(
                f"spectra of A and -B overlap (separation {gap:.3e}); "
                "Sylvester equation has no unique solution"
            )
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


def _symmetric(x, name) -> np.ndarray:
    """The symmetric part of a square matrix that is symmetric within SPD_TOL."""
    x = _as_matrix(x)
    if x.shape[0] != x.shape[1] or x.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty square matrix, got {x.shape}")
    if np.linalg.norm(x - x.T) > SPD_TOL * max(1.0, np.linalg.norm(x)):
        raise ValueError(f"{name} is not symmetric")
    return sym(x)


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
    defect = np.linalg.norm(u.T @ u - np.eye(r)) if r > 0 else 0.0
    if defect > ORTHONORMAL_TOL * max(1.0, np.sqrt(r)):
        raise ValueError("input columns are not orthonormal")
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
    """Matrix square root, inverse, and inverse square root of an SPD matrix."""
    b = _as_matrix(b)
    if b.shape[0] != b.shape[1]:
        raise ValueError(f"SPD functions require a square matrix, got {b.shape}")
    if np.linalg.norm(b - b.T) > SPD_TOL * max(1.0, np.linalg.norm(b)):
        raise ValueError("matrix is not symmetric")
    w, v = np.linalg.eigh(sym(b))
    if w[0] <= SPD_TOL * max(w[-1], 0.0):
        raise ValueError("matrix is not positive definite")
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
    wg = np.linalg.eigvalsh(sym(g))
    if wg[0] <= GRAM_PD_TOL * max(wg[-1], 0.0):
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


def skew_basis(r) -> np.ndarray:
    """Frobenius-orthonormal basis of the skew-symmetric r x r matrices: a
    (r(r-1)/2, r, r) stack, over the strict upper triangle row by row."""
    i, j = np.triu_indices(r, 1)
    out = np.zeros((len(i), r, r))
    k = np.arange(len(i))
    out[k, i, j] = 1.0 / np.sqrt(2.0)
    out[k, j, i] = -1.0 / np.sqrt(2.0)
    return out


def unit_basis(m, n) -> np.ndarray:
    """The m x n matrix units E_ij, row-major: an (m n, m, n) stack."""
    return np.eye(m * n).reshape(m * n, m, n)


def stack_blocks(like, *blocks) -> tuple:
    """Stacked vectors whose components are shaped like the arrays ``like``,
    from blocks in order: each block maps a component's position to a stack,
    and its vectors are zero in the other components."""
    counts = [len(next(iter(block.values()))) for block in blocks]
    return tuple(np.concatenate([block.get(i, np.zeros((n,) + np.shape(a)))
                                 for block, n in zip(blocks, counts)])
                 for i, a in enumerate(like))
