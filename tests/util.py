"""Shared builders for randomized test instances, finite-difference oracles,
and the CLI runner."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import georank
from georank import make_matrix_approx
from georank.landscape import hessian_spectrum
from georank.linalg import gen_sym_eig, polarize, sym
from georank.quotient import (
    EMBEDDED,
    GEOMETRY_KIND,
    HorizontalVector,
    _qf as qf,
    horizontal_basis,
    metric_choices,
    metric_family,
    random_point,
    riem_hess_quad_quotient,
    total_curve,
)

PSD_QUOTIENTS = ("psd_q1", "psd_q2")
GEN_QUOTIENTS = ("gen_q1", "gen_q2", "gen_q3")
ALL_QUOTIENTS = PSD_QUOTIENTS + GEN_QUOTIENTS


def random_approx_objective(kind, p1, p2, rng):
    a = rng.standard_normal((p1, p2))
    if kind == "psd":
        return make_matrix_approx(sym(a), symmetric=True)
    return make_matrix_approx(a)


def geometry_metric_combos(geometries):
    """(geometry, metric) pairs over every enumerated metric family."""
    for geo in geometries:
        for name in metric_choices(geo):
            yield geo, metric_family(geo, name)


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


def metric_derivative_fd(metric, key, z, parts, h=1e-6):
    """Central difference of one weight at z, key "w", "v", "w_inv" or
    "v_inv", moving the factors along the total-space curve with velocity
    ``parts``."""
    curve = total_curve(z, HorizontalVector(z, tuple(np.asarray(p) for p in parts)))
    plus = getattr(curve(h).weights(metric), key)
    minus = getattr(curve(-h).weights(metric), key)
    return (plus - minus) / (2.0 * h)


def embedded_spectrum(pt, obj):
    """The embedded Hessian spectrum at an embedded point, which
    ``verify_sandwich`` takes for every quotient row at that point."""
    return hessian_spectrum(pt, obj, EMBEDDED[pt.kind])


def mixed_basis_spectrum(z, obj, metric, rng):
    """Quotient Hessian spectrum assembled by polarization over a random
    invertible recombination of the structured horizontal basis. The spectrum
    does not depend on the basis, so it must match ``hessian_spectrum``."""
    basis, gram = horizontal_basis(z, metric)
    d = len(basis)
    c = rng.standard_normal((d, d)) / np.sqrt(d) + np.eye(d)
    mixed = []
    for j in range(d):
        v = basis[0] * c[0, j]
        for i in range(1, d):
            v = v + basis[i] * c[i, j]
        mixed.append(v)

    def quad(v):
        return riem_hess_quad_quotient(z, obj, metric, v)

    h = np.zeros((d, d))
    for i in range(d):
        h[i, i] = quad(mixed[i])
        for j in range(i + 1, d):
            h[i, j] = h[j, i] = polarize(quad, mixed[i], mixed[j])
    return gen_sym_eig(h, c.T @ gram @ c)[0]


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
