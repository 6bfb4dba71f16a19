"""One Euclidean-Hessian contraction for the quotient Hessian matrix, and one
Hessian-vector formula for the embedded one.

The quotient Hessian matrix reads its Euclidean term, the Euclidean Hessian
form <nabla^2 f[xi_i], xi_j> on the stack's differentials, from
``Objective.ehess_matrix``, one image per row contracted with the stack in
one product. The embedded Hessian matrix is the one embedded Hessian-vector
formula, ``embedded._hess_vec_flat``, applied to the stack's flat
coordinates one row at a time and contracted with them: it states no
curvature term of its own and forms no stack of ambient matrices, so its
memory stays below one such stack. The per-entry loops the builders
replaced are oracles in ``util``. ``src/georank/`` is parsed, not imported,
for the structural guards.
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from georank.embedded import (riem_hess_matrix_embedded, riem_hess_vec_embedded,
                              tangent_basis, tangent_project)
from georank.linalg import sym
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


@pytest.mark.parametrize("kind", ["psd", "general"])
def test_embedded_builder_is_the_hessian_vector_product_on_the_basis(kind):
    # bit for bit: the builder's rows are the tangent-level product's images
    rng = np.random.default_rng(43)
    for p1, p2, r, obj in _cases(kind, rng):
        pt = random_point(EMBEDDED[kind], p1, p2, r, rng)
        basis = tangent_basis(pt)
        f = basis.flat()
        g = np.array([riem_hess_vec_embedded(pt, obj, basis[i]).flat()
                      for i in range(len(basis))])
        h, _ = riem_hess_matrix_embedded(pt, obj, basis)
        assert np.array_equal(h, sym(f @ g.T)), (p1, p2, r, obj.kind)


@pytest.mark.parametrize("kind, p1, p2", [("psd", 60, 60), ("general", 50, 40)])
def test_embedded_builder_holds_no_ambient_stack(kind, p1, p2):
    # a stack of d ambient matrices, which the builder never forms, would
    # alone pass the limit
    rng = np.random.default_rng(44)
    obj = random_objective(kind, p1, p2, "completion", rng)
    pt = random_point(EMBEDDED[kind], p1, p2, 3, rng)
    basis = tangent_basis(pt)
    tracemalloc.start()
    try:
        riem_hess_matrix_embedded(pt, obj, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(basis) * p1 * p2 * 8


def test_only_the_hessian_vector_formula_takes_a_hessian_image():
    # in embedded.py one function applies the Euclidean Hessian and solves
    # with the core, and none builds the Euclidean Hessian's matrix; the
    # quotient builder takes its Euclidean term from ehess_matrix alone
    def users(path, predicate):
        tree = ast.parse((SOURCE / path).read_text())
        return [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                and any(predicate(node) for node in ast.walk(fn))]

    def reads(attr):
        return lambda node: isinstance(node, ast.Attribute) and node.attr == attr

    def solves(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.solve"

    assert users("embedded.py", reads("ehess_vec")) == ["_hess_vec_flat"]
    assert users("embedded.py", solves) == ["_hess_vec_flat"]
    assert users("embedded.py", reads("ehess_matrix")) == []
    assert users("quotient.py", reads("ehess_vec")) == []
    assert users("quotient.py", reads("ehess_matrix")) != []
