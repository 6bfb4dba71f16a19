"""Least-squares objectives f(X) = 0.5 ||A(X) - b||^2, held as data.

Every geometry module consumes objectives through ``value``, ``egrad`` and
``ehess_vec``, and the quotient Hessian matrix also through ``ehess_matrix``.
Objectives are immutable after construction and evaluations are pure.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import is_symmetric, sym


@dataclass(frozen=True, eq=False)
class Objective:
    """f(X) = 0.5 ||A(X) - b||^2 on the ambient matrix space.

    ``kind`` names the operator A and ``op`` holds it: "approx" is the
    identity (``op`` None), "completion" the entrywise 0/1 mask ``op``, and
    "sensing" the m measurement matrices ``op`` of shape (m, p1, p2), with
    A(X)_i = <A_i, X>. ``target`` is b: the p1 x p2 matrix M of the first
    two, the m observations of sensing.

    ``value`` and ``egrad`` take a complex X, with no conjugation, so
    Im f(X + i h V) / h is the derivative along V (the complex step).

    ``ehess_vec(X, Z)`` applies the Euclidean Hessian at X to the direction Z;
    it is linear in Z and self-adjoint in the Frobenius inner product, so
    ``ehess_matrix``, the Euclidean term of the quotient Hessian matrix,
    takes one image per vector of a stack. When
    ``symmetric`` is set the objective satisfies f(X) = f(X^T), which the PSD
    geometries rely on: symmetric sensing holds symmetrized operators and
    returns the symmetric part of its gradient and Hessian images, and the
    other kinds hold an exactly symmetric target (and mask). So ``egrad``
    at an exactly symmetric X is exactly symmetric, entrywise for approx
    and completion and through the adjoint for sensing, and the PSD
    geometries read it with no symmetrizing pass of their own.
    """

    kind: str
    shape: tuple
    symmetric: bool
    target: np.ndarray = field(repr=False)
    op: np.ndarray | None = field(default=None, repr=False)

    def _check(self, x, stack=False) -> np.ndarray:
        x = np.asarray(x)
        x = x if np.iscomplexobj(x) else x.astype(float, copy=False)
        if (x.shape[-2:] if stack else x.shape) != self.shape:
            raise ValueError(f"objective expects shape {self.shape}, got {x.shape}")
        return x

    def _residual(self, x) -> np.ndarray:
        """A(X) - b for X or a stack of them; sensing's on the leading axis."""
        if self.kind == "sensing":
            return self._measure(x) - self.target.reshape((-1,) + (1,) * (x.ndim - 2))
        return x - self.target if self.op is None else self.op * (x - self.target)

    def _measure(self, x) -> np.ndarray:
        """The m sensing measurements A(X) of X, or of a stack of them. A
        complex X goes through one real contraction as its real and imaginary
        parts stacked, so the operator is read once and never copied to complex."""
        if np.iscomplexobj(x):
            out = self._measure(np.stack([x.real, x.imag]))
            return out[:, 0] + 1j * out[:, 1]
        return np.tensordot(self.op, x, axes=([1, 2], [-2, -1]))

    def _adjoint(self, y) -> np.ndarray:
        """A^T y for m sensing measurements y, symmetric for a symmetric
        objective; a complex y as in ``_measure``."""
        if np.iscomplexobj(y):
            out = self._adjoint(np.stack([y.real, y.imag], axis=1))
            return out[0] + 1j * out[1]
        out = np.tensordot(y, self.op, axes=(0, 0))
        return sym(out) if self.symmetric else out

    def value(self, x):
        """f(X): a float (complex for a complex X), or one per matrix of a
        stack on leading axes."""
        res = self._residual(x := self._check(x, stack=True))
        out = 0.5 * np.sum(res**2, axis=0 if self.kind == "sensing" else (-2, -1))
        return out if x.ndim > 2 else out.item()

    def egrad(self, x) -> np.ndarray:
        # A^T (A(X) - b); the mask is 0/1, so the completion residual is its own image
        res = self._residual(self._check(x))
        return self._adjoint(res) if self.kind == "sensing" else res

    def ehess_vec(self, x, z) -> np.ndarray:
        self._check(x)
        z = self._check(z)
        if self.kind == "sensing":
            return self._adjoint(self._measure(z))
        return z if self.op is None else self.op * z

    def ehess_matrix(self, x, z) -> np.ndarray:
        """[<ehess_vec(X, Z_i), Z_j>] on a stack Z, symmetric: each row takes
        one Hessian image and contracts it with the stack's rows from its own
        on, in one product, so one image is live at a time."""
        flat = z.reshape(len(z), -1)
        h = np.empty((len(z),) * 2)
        for i in range(len(h)):
            h[i, i:] = h[i:, i] = flat[i:] @ self.ehess_vec(x, z[i]).ravel()
        return h


def _objective(kind, target, op, symmetric) -> Objective:
    """The factories' one validation path: finite data of matching shapes,
    square and symmetric data for a symmetric objective."""
    target = np.asarray(target, dtype=float)
    if op is not None:
        op = np.asarray(op, dtype=float)
    if not all(np.all(np.isfinite(a)) for a in (target, op) if a is not None):
        raise ValueError(f"{kind} data (target, mask or operators) must be finite")
    if kind == "sensing":
        if op.ndim != 3:
            raise ValueError("operators must be a list of equally-shaped matrices")
        target = target.ravel()
        if len(target) != op.shape[0]:
            raise ValueError(f"{op.shape[0]} operators but {len(target)} observations")
        shape = op.shape[1:]
    else:
        shape = target.shape
        if op is not None and op.shape != shape:
            raise ValueError(f"mask shape {op.shape} != target shape {shape}")
        if op is not None and not np.all((op == 0) | (op == 1)):
            raise ValueError("mask entries must be 0 or 1")
    if symmetric:
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"a symmetric objective requires square matrices, got {shape}")
        if kind == "sensing":
            op = op + op.mT
            op *= 0.5
        elif not is_symmetric(target):
            raise ValueError("symmetric objective requires a symmetric target")
        elif op is not None and np.any(op != op.T):
            raise ValueError("symmetric objective requires a symmetric mask")
        else:
            target = sym(target)
    return Objective(kind, shape, symmetric, target, op)


def make_matrix_approx(m, symmetric: bool = False) -> Objective:
    """f(X) = 0.5 ||X - M||_F^2, the canonical test objective.

    Its rank-r stationary structure is known in closed form (truncations of
    M onto eigenvalue/singular-value subsets), which makes it the reference
    instance for every stationarity-dependent check.
    """
    return _objective("approx", m, None, symmetric)


def make_masked_completion(m, mask, symmetric: bool = False) -> Objective:
    """f(X) = 0.5 ||mask o (X - M)||_F^2 (entrywise observation mask)."""
    return _objective("completion", m, mask, symmetric)


def make_matrix_sensing(operators, observations, symmetric: bool = False) -> Objective:
    """f(X) = 0.5 sum_i (<A_i, X> - b_i)^2 for measurement matrices A_i.

    With the symmetric flag each A_i is replaced by its symmetric part, which
    leaves values on symmetric matrices unchanged.
    """
    return _objective("sensing", observations, operators, symmetric)


def load_matrix_csv(path) -> np.ndarray:
    """Read a dense matrix from comma-separated rows (no header)."""
    out = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"non-finite entries in {path}")
    return out
