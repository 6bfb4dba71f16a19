"""Shared builders for randomized test instances, finite-difference oracles,
and the CLI runner."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import georank
from georank import make_matrix_approx
from georank.linalg import sym
from georank.quotient import (
    GEOMETRY_KIND,
    HorizontalVector,
    _qf as qf,
    metric_choices,
    metric_family,
    random_point,
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
