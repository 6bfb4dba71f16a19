"""PSD points and gradients symmetric by construction, and no p x p
symmetrizing pass in a PSD flow step.

A PSD point's X is one symmetric product W W^T (``embedded._point_from_factors``),
exactly symmetric. A symmetric objective holds an exactly symmetric target,
so its Euclidean gradient at such an X is exactly symmetric, and both
Riemannian gradients read it as it is: they equal the ``tangent_project`` and
``gradient_lift_from_ambient`` routes, which symmetrize for arbitrary
callers, bit for bit. The work guard counts ``linalg.sym`` calls on p x p
matrices during one RK4 step.
"""

import numpy as np
import pytest

from georank import flows, linalg
from georank.embedded import (_point_from_factors, project_rank_r, riem_grad_embedded,
                              tangent_project, truncate_sum)
from georank.objectives import make_masked_completion, make_matrix_approx
from georank.quotient import (gradient_lift_from_ambient, lift_point, random_point,
                              riem_grad_quotient)

from util import PSD_QUOTIENTS, count_calls, geometry_metric_combos, random_objective

# p exceeds 8r, the largest core that truncate_sum decomposes in a step
P, R = 30, 3
OBJECTIVES = ("approx", "completion", "sensing")


def _points(rng):
    """PSD points from each of the three builders, a truncation of an
    ambient matrix, a truncation from factors and each quotient frame, with
    the quotient points at each: the canonical lifts of a truncation, the
    frame's own point."""
    a = rng.standard_normal((P, R))
    pt = project_rank_r(a @ a.T, R, "psd")
    xi = tangent_project(pt, rng.standard_normal((P, P)))
    for source, emb in (("project_rank_r", pt), ("truncate_sum", truncate_sum(pt, [(0.1, xi)]))):
        yield source, emb, [lift_point(emb, geometry) for geometry in PSD_QUOTIENTS]
    for geometry in PSD_QUOTIENTS:
        z = random_point(geometry, P, P, R, rng)
        yield geometry, z.point, [z]


def _exactly_symmetric(a):
    return np.array_equal(a, a.T)


def _same_parts(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.parts, b.parts, strict=True))


@pytest.mark.parametrize("name", OBJECTIVES)
def test_points_and_gradients_are_exactly_symmetric(name):
    rng = np.random.default_rng(60)
    obj = random_objective("psd", P, P, name, rng)
    for source, pt, zs in _points(rng):
        for x in [pt.X] + [z.X for z in zs]:
            assert _exactly_symmetric(x), source
            assert _exactly_symmetric(obj.egrad(x)), source


@pytest.mark.parametrize("name", OBJECTIVES)
def test_riemannian_gradients_equal_the_symmetrizing_routes(name):
    rng = np.random.default_rng(61)
    obj = random_objective("psd", P, P, name, rng)
    for source, pt, zs in _points(rng):
        assert _same_parts(riem_grad_embedded(pt, obj),
                           tangent_project(pt, obj.egrad(pt.X))), source
        for z in zs:
            for _, metric in geometry_metric_combos([z.geometry]):
                assert _same_parts(riem_grad_quotient(z, obj, metric),
                                   gradient_lift_from_ambient(z, metric, obj.egrad(z.X))), (
                                       source, z.geometry, metric.name)


@pytest.mark.parametrize("make", [
    lambda m: make_matrix_approx(m, symmetric=True),
    lambda m: make_masked_completion(m, np.ones_like(m), symmetric=True),
], ids=["approx", "completion"])
def test_nearly_symmetric_target_is_stored_symmetrized(make):
    rng = np.random.default_rng(62)
    m = linalg.sym(rng.standard_normal((P, P)))
    m[0, 1] += 1e-13 * np.linalg.norm(m)  # within SPD_TOL, so accepted
    obj = make(m)
    assert np.array_equal(obj.target, linalg.sym(m))
    assert _exactly_symmetric(obj.target) and not _exactly_symmetric(m)
    # an exactly symmetric target, as the CLI builds, is stored bit for bit
    assert np.array_equal(make(obj.target).target, obj.target)


def test_a_refused_core_is_a_rank_error():
    # a diagonal core takes its factor columnwise, another core Cholesky's:
    # either refusal is a RankError
    u = np.linalg.qr(np.random.default_rng(63).standard_normal((P, 2)))[0]
    for core in (np.diag([1.0, -1.0]), np.diag([1.0, 0.0]), np.array([[1.0, 2.0], [2.0, 1.0]])):
        with pytest.raises(linalg.RankError):
            _point_from_factors("psd", u, core, u)


# the PSD flows of the paper's identities: the embedded one, the matched one
# that equals it, and the one that differs from it by P_U grad f P_U
SOURCES = [("psd_embedded", None), ("psd_q2", "matched"), ("psd_q1", "double-gram")]


@pytest.mark.parametrize("name", ["approx", "completion"])
@pytest.mark.parametrize("source", SOURCES, ids=lambda s: "/".join(filter(None, s)))
def test_a_psd_flow_step_makes_no_square_symmetrizing_pass(source, name, monkeypatch):
    # sensing is left out: its Euclidean gradient is the symmetric part of
    # the adjoint, one p x p pass that belongs to the objective
    rng = np.random.default_rng(64)
    obj = random_objective("psd", P, P, name, rng)
    pt = random_point("psd_embedded", P, P, R, rng)
    calls = count_calls(monkeypatch, linalg.sym)
    square = lambda: sum(np.shape(args[0])[-2:] == (P, P) for args in calls)  # noqa: E731
    tangent_project(pt, obj.egrad(pt.X))  # the counter sees a p x p pass
    assert square() == 1
    calls.clear()
    flows._step(pt, obj, source, 1e-2)
    assert square() == 0
