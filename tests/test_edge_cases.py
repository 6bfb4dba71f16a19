"""Degenerate shapes (r = p, rank 1, wide matrices), objectives with
non-identity Euclidean Hessians, and NaN operands at the validation gates."""

import dataclasses

import numpy as np
import pytest

from georank import landscape
from georank.landscape import analytic_fosps, find_fosp, hessian_spectrum, verify_sandwich
from georank.linalg import (SymmetricSylvester, _check_separation, check_orthonormal,
                            gen_sym_eig, spd_functions)
from georank.objectives import (
    make_masked_completion,
    make_matrix_approx,
    make_matrix_sensing,
)
from georank.quotient import (
    EMBEDDED,
    horizontal_basis,
    horizontal_vector,
    lift_point,
    metric_family,
    metric_inner,
    quotient_dim,
    random_horizontal,
    riem_grad_quotient,
    riem_hess_quad_quotient,
    vertical_project,
)
from georank.transport import forward_map, inverse_map, spectrum_bounds

from util import (
    GEN_QUOTIENTS,
    PSD_QUOTIENTS,
    counting,
    embedded_spectrum,
    geometry_metric_combos,
    hv_gap,
    kind_of,
    random_approx_objective,
    random_point,
    spectrum_dim,
    total_curve,
)


def _exercise(kind, p1, p2, r, rng):
    """Full pipeline at one shape: bases, gradients, Hessians, transports."""
    obj = random_approx_objective(kind, p1, p2, rng)
    tag = EMBEDDED[kind]
    pt = random_point(tag, p1, p2, r, rng)
    rep = hessian_spectrum(pt, obj)
    assert spectrum_dim(rep) == quotient_dim(tag, p1, p2, r)
    geos = PSD_QUOTIENTS if kind == "psd" else GEN_QUOTIENTS
    for geo, met in geometry_metric_combos(geos):
        z = random_point(geo, p1, p2, r, rng)
        basis, _ = horizontal_basis(z, met)
        assert len(basis) == quotient_dim(geo, p1, p2, r)
        theta = random_horizontal(z, met, rng)
        riem_grad_quotient(z, obj, met)
        riem_hess_quad_quotient(z, obj, met, theta)
        xi = forward_map(z, theta, met)
        assert hv_gap(theta, inverse_map(z, xi, met)) <= 1e-9
        co = spectrum_bounds(z, met)
        q = metric_inner(z, theta, theta, met)
        ref = max(1.0, co.beta * q)
        assert co.alpha * q - xi.norm() ** 2 <= 1e-9 * ref
        assert xi.norm() ** 2 - co.beta * q <= 1e-9 * ref


class TestDegenerateShapes:
    def test_full_rank_psd(self):
        # r = p: empty orthogonal complements everywhere
        _exercise("psd", 3, 3, 3, np.random.default_rng(0))

    def test_rank_one_psd(self):
        _exercise("psd", 5, 5, 1, np.random.default_rng(1))

    def test_wide_general(self):
        # p2 > p1
        _exercise("general", 3, 5, 2, np.random.default_rng(2))

    def test_full_rank_general(self):
        _exercise("general", 4, 4, 4, np.random.default_rng(3))

    def test_rank_equals_narrow_side(self):
        _exercise("general", 6, 2, 2, np.random.default_rng(4))


class TestNonIdentityHessianObjectives:
    """The landscape connections hold for any smooth objective; the
    approximation instance has an identity Euclidean Hessian, so these
    exercise the quadratic-form machinery with genuinely coupled Hessians
    at numerically certified stationary points."""

    def test_masked_completion_sandwich_psd(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((5, 2))
        truth = a @ a.T
        mask = (rng.random((5, 5)) < 0.85)
        mask = np.clip(np.triu(mask) + np.triu(mask).T, 0, 1).astype(float)
        obj = make_masked_completion(truth, mask, symmetric=True)
        res = find_fosp(obj, random_point("psd_embedded", 5, 5, 2, rng),
                        max_iter=30000, tol=1e-12)
        assert res.converged
        emb = embedded_spectrum(res.point, obj)
        for geo, met in geometry_metric_combos(PSD_QUOTIENTS):
            rep = verify_sandwich(lift_point(res.point, geo), obj, met, emb)
            assert rep["passed"], f"{geo}/{met.name}"
            assert rep["identity_max_rel_err"] <= 1e-10

    def test_matrix_sensing_sandwich_general(self):
        rng = np.random.default_rng(22)
        p1, p2, r = 5, 4, 2
        truth = rng.standard_normal((p1, r)) @ rng.standard_normal((r, p2))
        ops = rng.standard_normal((3 * (p1 + p2) * r, p1, p2))
        obs = np.tensordot(ops, truth, axes=([1, 2], [0, 1]))
        obj = make_matrix_sensing(ops, obs)
        res = find_fosp(obj, random_point("gen_embedded", p1, p2, r, rng),
                        max_iter=30000, tol=1e-12)
        assert res.converged
        emb = embedded_spectrum(res.point, obj)
        for geo, met in geometry_metric_combos(GEN_QUOTIENTS):
            rep = verify_sandwich(lift_point(res.point, geo), obj, met, emb)
            assert rep["passed"], f"{geo}/{met.name}"
            assert rep["identity_max_rel_err"] <= 1e-10

    def test_completion_gradient_fd_all_geometries(self):
        rng = np.random.default_rng(23)
        mask = (rng.random((5, 4)) < 0.8).astype(float)
        obj = make_masked_completion(rng.standard_normal((5, 4)), mask)
        h = 1e-5
        for geo, met in geometry_metric_combos(GEN_QUOTIENTS):
            z = random_point(geo, 5, 4, 2, rng)
            grad = riem_grad_quotient(z, obj, met)
            basis, _ = horizontal_basis(z, met)
            lhs, rhs = [], []
            for b in basis:
                lhs.append(metric_inner(z, grad, b, met))
                c = total_curve(z, b)
                rhs.append((obj.value(c(h).X) - obj.value(c(-h).X)) / (2 * h))
            lhs, rhs = np.array(lhs), np.array(rhs)
            worst = np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(rhs)), 1e-300)
            assert worst <= 1e-6, f"{geo}/{met.name}: {worst:.2e}"


class TestPsdSymmetrizationConvention:
    """PSD geometries treat any objective as its symmetrization, whose
    gradient at a symmetric point is the symmetric part of the raw one."""

    def test_asymmetric_target_matches_symmetrized(self):
        from georank.flows import flow_field
        from georank.linalg import sym
        from georank.objectives import make_matrix_approx as approx

        rng = np.random.default_rng(31)
        m = rng.standard_normal((5, 5))
        raw = approx(m)                      # asymmetric target, no flag
        symmetrized = approx(sym(m), symmetric=True)
        for geo, met in geometry_metric_combos(PSD_QUOTIENTS):
            z = random_point(geo, 5, 5, 2, rng)
            g1 = riem_grad_quotient(z, raw, met)
            g2 = riem_grad_quotient(z, symmetrized, met)
            assert hv_gap(g1, g2) <= 1e-13
            theta = random_horizontal(z, met, rng)
            q1 = riem_hess_quad_quotient(z, raw, met, theta)
            q2 = riem_hess_quad_quotient(z, symmetrized, met, theta)
            assert abs(q1 - q2) <= 1e-12 * max(1.0, abs(q2))
        pt = random_point("psd_embedded", 5, 5, 2, rng)
        d = flow_field(pt, raw, ("psd_q1", "double-gram")).ambient() - flow_field(
            pt, symmetrized, ("psd_q1", "double-gram")
        ).ambient()
        assert np.linalg.norm(d) <= 1e-13


def test_approx_spectrum_structure_psd():
    # at the truncation onto eigenvalue subset T of diag M, the embedded
    # spectrum consists of 1 (core directions) and 1 - m_j/m_i for pairs
    # (i in T, j not in T); brute-force value check at a known saddle
    m = np.diag([4.0, 2.0, 1.0])
    obj = make_matrix_approx(m, symmetric=True)
    from georank.embedded import embed_point

    pt = embed_point(np.diag([0.0, 2.0, 0.0]), 1, "psd")
    rep = hessian_spectrum(pt, obj)
    expected = sorted([1.0, 1.0 - 4.0 / 2.0, 1.0 - 1.0 / 2.0], reverse=True)
    np.testing.assert_allclose(rep.eigenvalues, expected, atol=1e-12)


def test_approx_spectrum_structure_general():
    # in the general case the curvature correction couples the two off-space
    # blocks, splitting each (i in T, j not in T) pair into two eigenvalues
    # 1 +/- sigma_j/sigma_i; off-space rows beyond the target rank give 1
    m = np.vstack([np.diag([3.0, 2.0, 1.0]), np.zeros((1, 3))])
    obj = make_matrix_approx(m)
    from georank.embedded import embed_point

    x = np.zeros((4, 3))
    x[0, 0] = 3.0  # truncation onto the top singular triplet
    pt = embed_point(x, 1, "general")
    rep = hessian_spectrum(pt, obj)
    expected = sorted(
        [1.0, 1.0 + 2.0 / 3.0, 1.0 - 2.0 / 3.0, 1.0 + 1.0 / 3.0,
         1.0 - 1.0 / 3.0, 1.0],
        reverse=True,
    )
    np.testing.assert_allclose(rep.eigenvalues, expected, atol=1e-12)


def _nan_components(gate):
    """A psd_q2 point (5 x 5, r = 2) and all-NaN components there, through
    ``gate`` under the polar family."""
    z = random_point("psd_q2", 5, 5, 2, np.random.default_rng(0))
    parts = tuple(np.full_like(a, np.nan) for a in z.factors)
    return gate(z, parts, metric_family("psd_q2", "polar"))


def _sandwich_at_nan_gradient(monkeypatch):
    """verify_sandwich at an analytic FOSP whose quotient gradient norm reads NaN."""
    obj = random_approx_objective("psd", 5, 5, np.random.default_rng(0))
    pt = next(analytic_fosps(obj, 2))
    spectrum = hessian_spectrum(pt, obj)
    real = landscape.hessian_spectrum
    monkeypatch.setattr(landscape, "hessian_spectrum", lambda *args: dataclasses.replace(
        real(*args), grad_norm=np.nan))
    verify_sandwich(lift_point(pt, "psd_q2"), obj, metric_family("psd_q2", "polar"),
                    spectrum)


def _spectrum_at_nan_gram(monkeypatch):
    """hessian_spectrum at a psd_q2 point whose basis Gram reads NaN; the
    gate refuses it before the objective is evaluated."""
    obj, calls = counting(random_approx_objective("psd", 5, 5, np.random.default_rng(0)))
    z = random_point("psd_q2", 5, 5, 2, np.random.default_rng(0))
    real = landscape.horizontal_basis

    def nan_gram(*args):
        basis, gram = real(*args)
        return basis, np.where(np.eye(len(gram)) == 1, np.nan, gram)

    monkeypatch.setattr(landscape, "horizontal_basis", nan_gram)
    try:
        hessian_spectrum(z, obj, metric_family("psd_q2", "polar"))
    finally:
        assert calls == {"egrad": 0, "ehess_vec": 0}, calls


# each gate's rule reads "value <= tol" as a pass, or refuses a non-finite
# operand first (then saying so), so a NaN value fails it
@pytest.mark.parametrize("gate, match", [
    pytest.param(lambda mp: _nan_components(
        lambda z, parts, metric: horizontal_vector(z, *parts, metric=metric)), None,
        id="horizontal_vector"),
    pytest.param(lambda mp: _nan_components(vertical_project), None, id="vertical_project"),
    pytest.param(lambda mp: spd_functions([[np.nan, 0.0], [0.0, 1.0]]), None,
                 id="spd_functions"),
    pytest.param(lambda mp: check_orthonormal(np.full((4, 2), np.nan), "not orthonormal"),
                 None, id="check_orthonormal"),
    pytest.param(lambda mp: SymmetricSylvester(np.array([[np.nan, 0.0], [0.0, 1.0]]),
                                               np.eye(2)),
                 None, id="SymmetricSylvester"),
    pytest.param(lambda mp: _check_separation(np.nan, 1.0), None, id="sylvester-separation"),
    pytest.param(_sandwich_at_nan_gradient, None, id="verify_sandwich-fosp"),
    pytest.param(lambda mp: gen_sym_eig(np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]),
                 "non-finite", id="gen_sym_eig"),
    pytest.param(_spectrum_at_nan_gram, "non-finite", id="hessian_spectrum-gram"),
])
def test_nan_fails_the_gate(gate, match, monkeypatch):
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=match):
        gate(monkeypatch)
