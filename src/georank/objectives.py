"""Euclidean objectives f, grad f, and Hessian-vector products.

Every geometry module consumes objectives through the same three oracles:
``value``, ``egrad`` and ``ehess_vec``. Objectives are immutable after
construction and evaluations are pure.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True, eq=False)
class Objective:
    """Smooth objective on the ambient matrix space.

    ``ehess_vec(X, Z)`` applies the Euclidean Hessian at X to the direction Z;
    it is linear in Z and self-adjoint in the Frobenius inner product, so the
    Hessian matrix builders take one image per basis vector. When
    ``symmetric`` is set the objective satisfies f(X) = f(X^T), which the PSD
    geometries rely on.
    """

    shape: tuple
    symmetric: bool
    kind: str
    _value: Callable = field(repr=False)
    _egrad: Callable = field(repr=False)
    _ehess: Callable = field(repr=False)

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != self.shape:
            raise ValueError(f"objective expects shape {self.shape}, got {x.shape}")
        return x

    def value(self, x) -> float:
        return float(self._value(self._check(x)))

    def egrad(self, x) -> np.ndarray:
        return self._egrad(self._check(x))

    def ehess_vec(self, x, z) -> np.ndarray:
        return self._ehess(self._check(x), self._check(z))


def _symmetrized(obj: Objective) -> Objective:
    """Wrap an objective as (f(X) + f(X^T))/2, which agrees with f on
    symmetric matrices but has symmetric gradients everywhere."""

    def value(x):
        return 0.5 * (obj._value(x) + obj._value(x.T))

    def egrad(x):
        return 0.5 * (obj._egrad(x) + obj._egrad(x.T).T)

    def ehess(x, z):
        return 0.5 * (obj._ehess(x, z) + obj._ehess(x.T, z.T).T)

    return Objective(obj.shape, True, obj.kind, value, egrad, ehess)


def make_matrix_approx(m, symmetric: bool = False) -> Objective:
    """f(X) = 0.5 ||X - M||_F^2, the canonical test objective.

    Its rank-r stationary structure is known in closed form (truncations of
    M onto eigenvalue/singular-value subsets), which makes it the reference
    instance for every stationarity-dependent check.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("target matrix must be finite")
    if symmetric and np.linalg.norm(m - m.T) > 1e-12 * max(1.0, np.linalg.norm(m)):
        raise ValueError("symmetric objective requires a symmetric target")

    return Objective(
        m.shape,
        symmetric,
        "approx",
        lambda x: 0.5 * np.sum((x - m) ** 2),
        lambda x: x - m,
        lambda x, z: z,
    )


def make_masked_completion(m, mask, symmetric: bool = False) -> Objective:
    """f(X) = 0.5 ||mask o (X - M)||_F^2 (entrywise observation mask)."""
    m = np.asarray(m, dtype=float)
    mask = np.asarray(mask, dtype=float)
    if mask.shape != m.shape:
        raise ValueError(f"mask shape {mask.shape} != target shape {m.shape}")
    if not np.all((mask == 0) | (mask == 1)):
        raise ValueError("mask entries must be 0 or 1")
    if symmetric:
        if np.linalg.norm(m - m.T) > 1e-12 * max(1.0, np.linalg.norm(m)):
            raise ValueError("symmetric objective requires a symmetric target")
        if np.any(mask != mask.T):
            raise ValueError("symmetric objective requires a symmetric mask")

    return Objective(
        m.shape,
        symmetric,
        "completion",
        lambda x: 0.5 * np.sum((mask * (x - m)) ** 2),
        lambda x: mask * (x - m),
        lambda x, z: mask * z,
    )


def make_matrix_sensing(operators, observations, symmetric: bool = False) -> Objective:
    """f(X) = 0.5 sum_i (<A_i, X> - b_i)^2 for measurement matrices A_i.

    With the symmetric flag the objective is replaced by its symmetrization
    (f(X) + f(X^T))/2, which leaves values on symmetric matrices unchanged.
    """
    ops = np.asarray(operators, dtype=float)
    b = np.asarray(observations, dtype=float).ravel()
    if ops.ndim != 3:
        raise ValueError("operators must be a list of equally-shaped matrices")
    if len(b) != ops.shape[0]:
        raise ValueError(f"{ops.shape[0]} operators but {len(b)} observations")
    shape = ops.shape[1:]

    def residuals(x):
        return np.tensordot(ops, x, axes=([1, 2], [0, 1])) - b

    obj = Objective(
        shape,
        False,
        "sensing",
        lambda x: 0.5 * np.sum(residuals(x) ** 2),
        lambda x: np.tensordot(residuals(x), ops, axes=(0, 0)),
        lambda x, z: np.tensordot(
            np.tensordot(ops, z, axes=([1, 2], [0, 1])), ops, axes=(0, 0)
        ),
    )
    if symmetric:
        if shape[0] != shape[1]:
            raise ValueError("symmetric sensing requires square operators")
        obj = _symmetrized(obj)
    return obj


def load_matrix_csv(path) -> np.ndarray:
    """Read a dense matrix from comma-separated rows (no header)."""
    out = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"non-finite entries in {path}")
    return out
