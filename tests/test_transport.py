"""Bijections between horizontal and embedded tangent spaces, and their
norm bounds."""

import numpy as np
import pytest

from georank.embedded import EmbeddedTangent, tangent_project
from georank.linalg import skew, sym
from georank.quotient import (
    HorizontalVector,
    metric_family,
    metric_inner,
    quotient_point,
    random_horizontal,
)
from georank.transport import forward_map, inverse_map, spectrum_bounds

from util import (
    ALL_QUOTIENTS,
    geometry_metric_combos,
    hv_gap,
    kind_of,
    random_point,
)

SIZES = {"psd": (6, 6), "general": (5, 4)}
R = 2


def _instance(geometry, rng):
    p1, p2 = SIZES[kind_of(geometry)]
    return random_point(geometry, p1, p2, R, rng)


def _random_tangent(pt, rng):
    return tangent_project(pt, rng.standard_normal(pt.X.shape))


class TestForwardMap:
    def test_psd_q2_core_block_only(self):
        rng = np.random.default_rng(0)
        met = metric_family("psd_q2", "polar")
        z = _instance("psd_q2", rng)
        tb = sym(rng.standard_normal((R, R)))
        theta = HorizontalVector(z, (np.zeros((6, R)), tb))
        xi = forward_map(z, theta, met)
        u = z.factor("U")
        np.testing.assert_allclose(xi.ambient(), u @ tb @ u.T, atol=1e-12)

    def test_gen_q3_y_block_only(self):
        rng = np.random.default_rng(1)
        met = metric_family("gen_q3", "flat")
        z = _instance("gen_q3", rng)
        ty = rng.standard_normal((4, R))
        theta = HorizontalVector(z, (np.zeros((5, R)), ty))
        xi = forward_map(z, theta, met)
        np.testing.assert_allclose(xi.ambient(), z.factor("U") @ ty.T, atol=1e-12)

    def test_matches_product_rule_differential(self):
        # L(theta) equals the derivative of the factor product along theta
        rng = np.random.default_rng(2)
        h = 1e-6
        from georank.quotient import total_curve

        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z = _instance(geo, rng)
            theta = random_horizontal(z, met, rng)
            xi = forward_map(z, theta, met)
            curve = total_curve(z, theta)
            fd = (curve(h).X - curve(-h).X) / (2 * h)
            err = np.linalg.norm(xi.ambient() - fd) / max(np.linalg.norm(fd), 1e-300)
            assert err <= 1e-6, f"{geo}/{met.name}: {err:.2e}"

    def test_lands_in_tangent_space(self):
        rng = np.random.default_rng(3)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z = _instance(geo, rng)
            theta = random_horizontal(z, met, rng)
            amb = forward_map(z, theta, met).ambient()
            reproj = tangent_project(z.point, amb).ambient()
            assert np.linalg.norm(amb - reproj) <= 1e-10 * np.linalg.norm(amb)

    def test_non_horizontal_rejected(self):
        rng = np.random.default_rng(40)
        met = metric_family("gen_q3", "flat")
        z = _instance("gen_q3", rng)
        omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
        vertical = HorizontalVector(
            z, (z.factor("U") @ omega, z.factor("Y") @ omega)
        )
        with pytest.raises(ValueError):
            forward_map(z, vertical, met)

    def test_linear(self):
        rng = np.random.default_rng(4)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z = _instance(geo, rng)
            t1 = random_horizontal(z, met, rng)
            t2 = random_horizontal(z, met, rng)
            lhs = forward_map(z, 2.0 * t1 - 0.5 * t2, met).ambient()
            rhs = (
                2.0 * forward_map(z, t1, met).ambient()
                - 0.5 * forward_map(z, t2, met).ambient()
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestInverseMap:
    def test_psd_q2_closed_blocks(self):
        rng = np.random.default_rng(5)
        met = metric_family("psd_q2", "polar")
        z = _instance("psd_q2", rng)
        xi = _random_tangent(z.point, rng)
        theta = inverse_map(z, xi, met)
        b = z.factor("B")
        np.testing.assert_allclose(
            theta.parts[0], xi.Up @ np.linalg.inv(b), atol=1e-11
        )
        np.testing.assert_allclose(theta.parts[1], xi.S, atol=1e-12)

    def test_gen_q2_symmetric_core_kills_rotation(self):
        # with symmetric S the skew part vanishes, so Omega' = 0 and S' = S
        rng = np.random.default_rng(6)
        met = metric_family("gen_q2", "polar")
        z = _instance("gen_q2", rng)
        s = sym(rng.standard_normal((R, R)))
        xi = EmbeddedTangent(z.point, s, z.point.Uperp @ rng.standard_normal((3, R)),
                             z.point.Vperp @ rng.standard_normal((2, R)))
        theta = inverse_map(z, xi, met)
        u, v = z.factor("U"), z.factor("V")
        np.testing.assert_allclose(u.T @ theta.parts[0], 0, atol=1e-12)
        np.testing.assert_allclose(v.T @ theta.parts[2], 0, atol=1e-12)
        np.testing.assert_allclose(theta.parts[1], s, atol=1e-12)

    def test_roundtrips(self):
        rng = np.random.default_rng(7)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z = _instance(geo, rng)
            for _ in range(10):
                theta = random_horizontal(z, met, rng)
                back = inverse_map(z, forward_map(z, theta, met), met)
                assert hv_gap(theta, back) <= 1e-9, f"{geo}/{met.name}"
                xi = _random_tangent(z.point, rng)
                again = forward_map(z, inverse_map(z, xi, met), met)
                num = np.linalg.norm(again.ambient() - xi.ambient())
                assert num <= 1e-9 * max(np.linalg.norm(xi.ambient()), 1e-300)

    def test_sylvester_side_conditions(self):
        rng = np.random.default_rng(8)
        # psd_q1: S' + S'^T = S and S' M symmetric for M = P^-T W P^-1
        for name in ("flat", "double-gram", "inverse-gram"):
            met = metric_family("psd_q1", name)
            z = _instance("psd_q1", rng)
            xi = _random_tangent(z.point, rng)
            theta = inverse_map(z, xi, met)
            p = z.point.U.T @ z.factor("Y")
            pinv = np.linalg.inv(p)
            s_prime = z.point.U.T @ theta.parts[0] @ p.T
            np.testing.assert_allclose(s_prime + s_prime.T, xi.S, atol=1e-10)
            m = pinv.T @ z.weights(met).w @ pinv
            np.testing.assert_allclose(skew(s_prime @ m), 0, atol=1e-10)
        # gen_q2: Omega' skew and S' symmetric
        met = metric_family("gen_q2", "polar")
        z = _instance("gen_q2", rng)
        xi = _random_tangent(z.point, rng)
        theta = inverse_map(z, xi, met)
        omega = z.factor("U").T @ theta.parts[0]
        np.testing.assert_allclose(omega + omega.T, 0, atol=1e-10)
        np.testing.assert_allclose(theta.parts[1], theta.parts[1].T, atol=1e-10)

    def test_frame_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        met = metric_family("psd_q1", "flat")
        z = _instance("psd_q1", rng)
        other = random_point("psd_embedded", 6, 6, R, rng)
        xi = _random_tangent(other, rng)
        with pytest.raises(ValueError):
            inverse_map(z, xi, met)


class TestSpectrumBounds:
    def test_closed_forms_match_weight_tables(self):
        rng = np.random.default_rng(10)
        # psd_q1 flat: (2 sigma_r(X), 4 sigma_1(X))
        z = _instance("psd_q1", rng)
        s = np.linalg.svd(z.X, compute_uv=False)
        co = spectrum_bounds(z, metric_family("psd_q1", "flat"))
        assert co.alpha == pytest.approx(2 * s[R - 1], rel=1e-10)
        assert co.beta == pytest.approx(4 * s[0], rel=1e-10)
        # psd_q1 double-gram: (1, 2)
        co = spectrum_bounds(z, metric_family("psd_q1", "double-gram"))
        assert (co.alpha, co.beta) == (pytest.approx(1.0, rel=1e-10),
                                       pytest.approx(2.0, rel=1e-10))
        # psd_q2 polar: (sigma_r^2, 2 sigma_1^2); matched: (1, 1)
        z = _instance("psd_q2", rng)
        s = np.linalg.svd(z.X, compute_uv=False)
        co = spectrum_bounds(z, metric_family("psd_q2", "polar"))
        assert co.alpha == pytest.approx(s[R - 1] ** 2, rel=1e-10)
        assert co.beta == pytest.approx(2 * s[0] ** 2, rel=1e-10)
        co = spectrum_bounds(z, metric_family("psd_q2", "matched"))
        assert (co.alpha, co.beta) == (pytest.approx(1.0, rel=1e-9),
                                       pytest.approx(1.0, rel=1e-9))
        # gen_q1: inverse-gram (sigma_r^2, 2 sigma_1^2); crossed-gram (1, 2)
        z = _instance("gen_q1", rng)
        s = np.linalg.svd(z.X, compute_uv=False)
        co = spectrum_bounds(z, metric_family("gen_q1", "inverse-gram"))
        assert co.alpha == pytest.approx(s[R - 1] ** 2, rel=1e-9)
        assert co.beta == pytest.approx(2 * s[0] ** 2, rel=1e-9)
        co = spectrum_bounds(z, metric_family("gen_q1", "crossed-gram"))
        assert (co.alpha, co.beta) == (pytest.approx(1.0, rel=1e-9),
                                       pytest.approx(2.0, rel=1e-9))
        # gen_q2 polar: (sigma_r^2, 2 sigma_1^2)
        z = _instance("gen_q2", rng)
        s = np.linalg.svd(z.X, compute_uv=False)
        co = spectrum_bounds(z, metric_family("gen_q2", "polar"))
        assert co.alpha == pytest.approx(s[R - 1] ** 2, rel=1e-10)
        assert co.beta == pytest.approx(2 * s[0] ** 2, rel=1e-10)
        # gen_q3 rows
        z = _instance("gen_q3", rng)
        s = np.linalg.svd(z.X, compute_uv=False)
        co = spectrum_bounds(z, metric_family("gen_q3", "flat"))
        assert co.alpha == pytest.approx(min(s[R - 1] ** 2, 1.0), rel=1e-10)
        assert co.beta == pytest.approx(max(s[0] ** 2, 1.0), rel=1e-10)
        co = spectrum_bounds(z, metric_family("gen_q3", "inverse-gram"))
        assert co.alpha == pytest.approx(s[R - 1] ** 2, rel=1e-9)
        assert co.beta == pytest.approx(s[0] ** 2, rel=1e-9)
        co = spectrum_bounds(z, metric_family("gen_q3", "matched"))
        assert (co.alpha, co.beta) == (pytest.approx(1.0, rel=1e-9),
                                       pytest.approx(1.0, rel=1e-9))

    def test_bounds_hold_on_samples(self):
        rng = np.random.default_rng(11)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z = _instance(geo, rng)
            co = spectrum_bounds(z, met)
            assert 0 <= co.alpha <= co.beta
            for _ in range(200):
                theta = random_horizontal(z, met, rng)
                q = metric_inner(z, theta, theta, met)
                n2 = forward_map(z, theta, met).norm() ** 2
                ref = max(1.0, co.beta * q)
                assert co.alpha * q - n2 <= 1e-10 * ref
                assert n2 - co.beta * q <= 1e-10 * ref

    def test_interval_sign_split(self):
        co = spectrum_bounds(
            quotient_point("psd_q1", np.array([[1.0], [1.0]])),
            metric_family("psd_q1", "flat"),
        )
        lo, hi = co.interval(2.0)
        assert lo == pytest.approx(2 * co.alpha) and hi == pytest.approx(2 * co.beta)
        lo, hi = co.interval(-2.0)
        assert lo == pytest.approx(-2 * co.beta) and hi == pytest.approx(-2 * co.alpha)
