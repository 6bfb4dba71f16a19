"""One decomposition of a point's core, and its refusal on every call.

Both embedded Hessians solve with Sigma, and ``embedded._invertible_core``
refuses a numerically singular one. The singular values it reads are a
``cached_property`` of the point, so a trust-region search that applies the
Hessian many times at one point decomposes that point's r x r core once.
The work guard counts ``np.linalg.svd`` calls on r x r inputs over
``find_fosp`` runs on the benchmark's classify panel at problem seed 2:
2,262 at a fresh SVD per product, one per point with the cache. The refusal
itself is not cached: a singular core raises on every call.
"""

import numpy as np
import pytest

from georank import landscape
from georank.embedded import (EmbeddedPoint, riem_hess_matrix_embedded,
                              riem_hess_vec_embedded, tangent_basis)
from georank.landscape import find_fosp
from georank.linalg import RankError
from georank.objectives import make_matrix_approx

from util import CLASSIFY_PANEL, cli_starts


def test_one_core_svd_per_point_whose_hessian_is_applied(monkeypatch):
    obj, starts = cli_starts(CLASSIFY_PANEL, 2)
    r = CLASSIFY_PANEL["problem"]["r"]
    svd, core_svds, points = np.linalg.svd, [], []

    def counted_svd(a, *args, **kwargs):
        if np.shape(a) == (r, r):
            core_svds.append(a)
        return svd(a, *args, **kwargs)

    def recorded(pt, obj, xi, egrad):
        points.append(pt)
        return riem_hess_vec_embedded(pt, obj, xi, egrad)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(landscape, "riem_hess_vec_embedded", recorded)
    hess_vecs = sum(find_fosp(obj, x0).hess_vecs for x0 in starts)
    distinct = len({id(pt) for pt in points})  # the list keeps every point alive
    assert hess_vecs == len(points) > 10 * distinct
    assert 0 < len(core_svds) <= distinct


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
