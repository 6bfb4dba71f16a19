"""One decomposition of a point's core, its refusal on every call, and no
per-call work that a point or a product does not need.

Both embedded Hessians solve with Sigma, and ``embedded._invertible_core``
refuses a numerically singular one. The singular values it reads are a
``cached_property`` of the point, so a trust-region search that applies the
Hessian many times at one point decomposes that point's r x r core once.
The work guard counts ``np.linalg.svd`` calls on r x r inputs over
``find_fosp`` runs on the benchmark's classify panel at problem seed 2:
2,262 at a fresh SVD per product, one per point with the cache. The refusal
itself is not cached: ``riem_hess_vec_embedded`` and the matrix builder
raise at a singular core on every call.

The inner solve applies the Hessian to flat coordinates
(``embedded._hess_vec_flat``), so a product builds no ``EmbeddedTangent``:
on the same starts, a tangent per product made 7,129 for 2,262 products. A
truncated point's core is diagonal, so its PSD factor W = U sqrt(s) takes no
Cholesky factorization: one RK4 step truncates four points.
"""

import numpy as np
import pytest

from georank import embedded, flows, landscape
from georank.embedded import (EmbeddedPoint, EmbeddedTangent, riem_hess_matrix_embedded,
                              riem_hess_vec_embedded, tangent_basis)
from georank.landscape import find_fosp
from georank.linalg import RankError
from georank.objectives import make_matrix_approx

from util import CLASSIFY_PANEL, cli_starts, count_calls, random_objective, random_point


def test_one_core_svd_per_point_whose_hessian_is_applied(monkeypatch):
    obj, starts = cli_starts(CLASSIFY_PANEL, 2)
    r = CLASSIFY_PANEL["problem"]["r"]
    svd, core_svds, points = np.linalg.svd, [], []
    hess_vec = landscape._hess_vec_flat

    def counted_svd(a, *args, **kwargs):
        if np.shape(a) == (r, r):
            core_svds.append(a)
        return svd(a, *args, **kwargs)

    def recorded(pt, obj, sig, egrad, f):
        points.append(pt)
        return hess_vec(pt, obj, sig, egrad, f)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(landscape, "_hess_vec_flat", recorded)
    hess_vecs = sum(find_fosp(obj, x0).hess_vecs for x0 in starts)
    distinct = len({id(pt) for pt in points})  # the list keeps every point alive
    assert hess_vecs == len(points) > 10 * distinct
    assert 0 < len(core_svds) <= distinct


def test_no_tangent_is_built_per_hessian_vector_product(monkeypatch):
    # a search builds the gradient at its start and, per outer iteration, eta,
    # Hess eta and the gradient at an accepted point: none per product
    obj, starts = cli_starts(CLASSIFY_PANEL, 2)
    built, post_init = [], EmbeddedTangent.__post_init__

    def counted(self):
        built.append(self.base)
        post_init(self)

    monkeypatch.setattr(EmbeddedTangent, "__post_init__", counted)
    results = [find_fosp(obj, x0) for x0 in starts]
    hess_vecs = sum(res.hess_vecs for res in results)
    iterations = sum(res.iterations for res in results)
    assert hess_vecs > 10 * iterations
    assert 0 < len(built) <= len(starts) + 3 * iterations


def test_a_psd_flow_step_makes_no_cholesky_factorization(monkeypatch):
    rng = np.random.default_rng(82)
    obj = random_objective("psd", 30, 30, "completion", rng)
    pt = random_point("psd_embedded", 30, 30, 3, rng)
    cholesky, truncations = np.linalg.cholesky, count_calls(monkeypatch, embedded.truncate_sum)
    factorizations = []

    def counted_cholesky(a, *args, **kwargs):
        factorizations.append(a)
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    end = flows._step(pt, obj, ("psd_embedded", None), 1e-2)
    assert len(truncations) == 4
    assert factorizations == []
    w = end.U * np.sqrt(np.diag(end.Sigma))
    assert np.array_equal(end.X, w @ w.T)


def _singular_core_points():
    """A point of each kind whose Sigma has condition 1e17."""
    u, _ = np.linalg.qr(np.random.default_rng(80).standard_normal((6, 2)))
    v, _ = np.linalg.qr(np.random.default_rng(81).standard_normal((5, 2)))
    sigma = np.diag([1.0, 1e-17])
    yield EmbeddedPoint("psd", u @ sigma @ u.T, u, sigma, u)
    yield EmbeddedPoint("general", u @ sigma @ v.T, u, sigma, v)


@pytest.mark.parametrize("pt", list(_singular_core_points()), ids=["psd", "general"])
def test_singular_core_is_refused_on_every_call(pt):
    obj = make_matrix_approx(np.ones(pt.shape), symmetric=pt.kind == "psd")
    basis = tangent_basis(pt)
    for _ in range(3):
        with pytest.raises(RankError, match="singular"):
            riem_hess_vec_embedded(pt, obj, basis[0])
        with pytest.raises(RankError, match="singular"):
            riem_hess_matrix_embedded(pt, obj, basis)
    assert "core_singular_values" in vars(pt)  # decomposed once, refused each time
