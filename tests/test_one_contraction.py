"""One Euclidean-Hessian contraction for both Hessian matrix builders.

The embedded and the quotient Hessian matrices share one term, the
Euclidean Hessian form <nabla^2 f[xi_i], xi_j> on the stack's ambient
matrices (the differentials on the quotient side).
``Objective.ehess_matrix`` computes it, one image per row contracted with
the stack in one product, and both builders read it from there. The
embedded builder has no Python loop: its curvature coupling is one product
of two flattened stacks. The per-entry loops they replaced are oracles in
``util``. ``src/georank/`` is parsed, not imported, for the structural
guards.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from georank.embedded import riem_hess_matrix_embedded, tangent_basis, tangent_project
from georank.quotient import (EMBEDDED, horizontal_basis, random_point,
                              riem_hess_matrix_quotient)

from util import (PSD_QUOTIENTS, GEN_QUOTIENTS, geometry_metric_combos,
                  pairwise_hess_matrix_embedded, pairwise_hess_matrix_quotient,
                  random_objective, stacked)

SOURCE = Path(__file__).resolve().parent.parent / "src" / "georank"
QUOTIENTS = {"psd": PSD_QUOTIENTS, "general": GEN_QUOTIENTS}
# (p1, p2, r) per kind; the last has r = p (r = p2 for the general kind)
SIZES = {"psd": [(5, 5, 2), (4, 4, 4)], "general": [(5, 4, 2), (4, 3, 3)]}
OBJECTIVES = ("approx", "completion", "sensing")


def _function(path, name):
    """The AST of the function or method ``name`` in a module of the package."""
    tree = ast.parse((SOURCE / path).read_text())
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _cases(kind, rng):
    for p1, p2, r in SIZES[kind]:
        for name in OBJECTIVES:
            yield p1, p2, r, random_objective(kind, p1, p2, name, rng)


def _close(h, oracle):
    assert h.shape == oracle.shape
    assert np.array_equal(h, h.T)
    scale = np.max(np.abs(oracle))
    assert scale > 0.0
    assert np.max(np.abs(h - oracle)) <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["psd", "general"])
def test_ehess_matrix_is_the_pairwise_form(kind):
    rng = np.random.default_rng(40)
    for p1, p2, _, obj in _cases(kind, rng):
        x = rng.standard_normal((p1, p2))
        z = rng.standard_normal((7, p1, p2))
        oracle = np.array([[float(np.sum(obj.ehess_vec(x, a) * b)) for b in z] for a in z])
        _close(obj.ehess_matrix(x, z), oracle)


@pytest.mark.parametrize("kind", ["psd", "general"])
def test_embedded_builder_matches_the_pair_loop(kind):
    # at random points, where the gradient and so the curvature coupling is live
    rng = np.random.default_rng(41)
    for p1, p2, r, obj in _cases(kind, rng):
        pt = random_point(EMBEDDED[kind], p1, p2, r, rng)
        for tangents in (tangent_basis(pt),
                         stacked(*(tangent_project(pt, rng.standard_normal((p1, p2)))
                                   for _ in range(6)))):
            h, _ = riem_hess_matrix_embedded(pt, obj, tangents)
            _close(h, pairwise_hess_matrix_embedded(pt, obj, tangents))


@pytest.mark.parametrize("kind", ["psd", "general"])
def test_quotient_builder_matches_the_pair_loop(kind):
    rng = np.random.default_rng(42)
    for p1, p2, r, obj in _cases(kind, rng):
        for geometry, metric in geometry_metric_combos(QUOTIENTS[kind]):
            z = random_point(geometry, p1, p2, r, rng)
            basis, _ = horizontal_basis(z, metric)
            h, _ = riem_hess_matrix_quotient(z, obj, metric, basis)
            _close(h, pairwise_hess_matrix_quotient(z, obj, metric, basis))


def test_embedded_builder_has_no_loop():
    body = _function("embedded.py", "riem_hess_matrix_embedded")
    loops = (ast.For, ast.While, ast.comprehension)
    assert [node.lineno for node in ast.walk(body) if isinstance(node, loops)] == []


def test_builders_reach_ehess_vec_only_through_ehess_matrix():
    # the one function that takes a Euclidean Hessian image itself is the
    # embedded Hessian-vector formula, which applies the Hessian to a single
    # tangent's flat coordinates and builds no matrix
    vec_users = {"embedded.py": ["_hess_vec_flat"], "quotient.py": []}
    for path, allowed in vec_users.items():
        tree = ast.parse((SOURCE / path).read_text())
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        users = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 and any(isinstance(node, ast.Attribute) and node.attr == "ehess_vec"
                         for node in ast.walk(fn))]
        assert users == allowed, path
        assert "ehess_matrix" in names, path
