"""Quotient geometries: lifts, fibers, projections, metrics, gradients,
Hessian quadratic forms, horizontal bases, gauge equivariance."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from georank.embedded import embed_point, tangent_basis
from georank.linalg import ConditioningError, SymmetricSylvester, spd_functions, sym
from georank.objectives import make_matrix_approx
from georank.quotient import (
    REGISTRY,
    HorizontalVector,
    MetricFamily,
    Weight,
    Weights,
    horizontal_basis,
    horizontal_project,
    horizontal_vector,
    lift_point,
    metric_family,
    metric_inner,
    metric_norm,
    project_total_tangent,
    quotient_dim,
    quotient_point,
    random_horizontal,
    riem_grad_quotient,
    riem_hess_matrix_quotient,
    riem_hess_quad_quotient,
    vertical_project,
)
from georank.transport import forward_map, inverse_map, spectrum_bounds

from util import (
    ALL_QUOTIENTS,
    GEN_QUOTIENTS,
    act_on_horizontal,
    act_on_point,
    count_calls,
    counting,
    geometry_metric_combos,
    hv_gap,
    kind_of,
    metric_derivative_cs,
    oracle_weights,
    pairwise_gram,
    qf,
    random_approx_objective,
    random_point,
    total_curve,
)

SIZES = {"psd": (6, 6), "general": (5, 4)}
R = 2


def _instance(geometry, rng, r=R):
    p1, p2 = SIZES[kind_of(geometry)]
    return random_point(geometry, p1, p2, r, rng)


def _same_matrix(z1, z2):
    """Whether two representatives encode the same matrix (same fiber)."""
    return np.linalg.norm(z1.X - z2.X) <= 1e-8 * np.linalg.norm(z1.X)


def _objective(geometry, rng):
    p1, p2 = SIZES[kind_of(geometry)]
    return random_approx_objective(kind_of(geometry), p1, p2, rng)


class TestLiftPoint:
    def test_psd_q1_rank1(self):
        pt = embed_point(np.diag([4.0, 0.0]), 1, "psd")
        z = lift_point(pt, "psd_q1")
        y = z.factor("Y")
        np.testing.assert_allclose(np.abs(y), [[2.0], [0.0]], atol=1e-12)

    def test_psd_q2_rank1(self):
        pt = embed_point(np.diag([4.0, 0.0]), 1, "psd")
        z = lift_point(pt, "psd_q2")
        np.testing.assert_allclose(np.abs(z.factor("U")), [[1.0], [0.0]], atol=1e-12)
        np.testing.assert_allclose(z.factor("B"), [[4.0]], atol=1e-12)

    def test_all_variants_reconstruct(self):
        rng = np.random.default_rng(0)
        xp = embed_point((lambda a: a @ a.T)(rng.standard_normal((6, 2))), 2, "psd")
        xg = embed_point(
            rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4)), 2, "general"
        )
        for geo in ALL_QUOTIENTS:
            src = xp if kind_of(geo) == "psd" else xg
            z = lift_point(src, geo)
            rel = np.linalg.norm(z.X - src.X) / np.linalg.norm(src.X)
            assert rel <= 1e-10
            assert z.point is src  # matched frame

    def test_kind_mismatch(self):
        rng = np.random.default_rng(1)
        xg = embed_point(
            rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4)), 2, "general"
        )
        with pytest.raises(ValueError):
            lift_point(xg, "psd_q1")


class TestFactorChecks:
    # a non-finite entry is refused before the kind's check, which a NaN
    # passes (a Stiefel check's comparison is False on it) or fails with a
    # message about something else
    @pytest.mark.parametrize("geo,name,bad", [
        ("gen_q3", "U", np.nan), ("gen_q1", "L", np.inf), ("gen_q1", "L", np.nan),
        ("psd_q2", "B", np.nan), ("psd_q1", "Y", -np.inf), ("gen_q2", "V", np.nan),
    ])
    def test_non_finite_factor_is_refused(self, geo, name, bad):
        z = random_point(geo, 6, 6 if geo.startswith("psd") else 5, R,
                         np.random.default_rng(0))
        factors = [f.copy() for f in z.factors]
        factors[REGISTRY[geo].names.index(name)][0, 0] = bad
        with pytest.raises(ValueError, match=f"factor {name} has a non-finite entry"):
            quotient_point(geo, *factors)

    @pytest.mark.parametrize("geo,name,message", [
        ("gen_q3", "Y", "is numerically rank deficient"),
        ("gen_q3", "U", "does not have orthonormal columns"),
        ("psd_q2", "B", "is not positive definite"),
    ])
    def test_each_kind_refuses_its_bad_factor(self, geo, name, message):
        # a free factor with two equal columns, a Stiefel factor scaled by
        # 1.001, a negated SPD core
        z = random_point(geo, 6, 6 if geo.startswith("psd") else 5, R,
                         np.random.default_rng(1))
        factors = [f.copy() for f in z.factors]
        i = REGISTRY[geo].names.index(name)
        kind = REGISTRY[geo].factors[i].kind
        if kind == "free":
            factors[i][:, 1] = factors[i][:, 0]
        else:
            factors[i] *= 1.001 if kind == "stiefel" else -1.0
        with pytest.raises(ValueError, match=f"factor {name} {message}"):
            quotient_point(geo, *factors)


class TestSameFiber:
    def test_rotation_stays_on_fiber(self):
        rng = np.random.default_rng(2)
        z = _instance("psd_q1", rng)
        o = qf(rng.standard_normal((R, R)))
        assert _same_matrix(z, quotient_point("psd_q1", z.factor("Y") @ o))

    def test_gl_action_gen_q1(self):
        rng = np.random.default_rng(3)
        z = _instance("gen_q1", rng)
        m = np.diag([2.0, 0.5])
        z2 = quotient_point(
            "gen_q1", z.factor("L") @ m, z.factor("R") @ np.linalg.inv(m).T
        )
        assert _same_matrix(z, z2)

    def test_scaling_leaves_fiber(self):
        rng = np.random.default_rng(4)
        z = _instance("psd_q1", rng)
        assert not _same_matrix(z, quotient_point("psd_q1", 2.0 * z.factor("Y")))


class TestProjections:
    def test_horizontal_input_unchanged(self):
        rng = np.random.default_rng(6)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z = _instance(geo, rng)
            theta = random_horizontal(z, met, rng)
            again = horizontal_project(z, theta.parts, met)
            assert hv_gap(theta, again) < 1e-11
            vert = vertical_project(z, theta.parts, met)
            assert np.sqrt(sum(np.sum(v**2) for v in vert)) < 1e-11 * theta.raw_norm()

    def test_psd_q1_vertical_space(self):
        rng = np.random.default_rng(7)
        met = metric_family("psd_q1", "double-gram")
        z = _instance("psd_q1", rng)
        omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
        theta = (z.factor("Y") @ omega,)
        vert = vertical_project(z, theta, met)
        np.testing.assert_allclose(vert[0], theta[0], atol=1e-12)
        hor = horizontal_project(z, theta, met)
        assert hor.raw_norm() < 1e-12

    def test_direct_sum_decomposition(self):
        rng = np.random.default_rng(8)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            for _ in range(5):
                z = _instance(geo, rng)
                raw = project_total_tangent(
                    z, tuple(rng.standard_normal(f.shape) for f in z.factors)
                )
                vert = vertical_project(z, raw, met)
                hor = horizontal_project(z, raw, met)
                recomposed = tuple(v + h for v, h in zip(vert, hor.parts))
                err = np.sqrt(
                    sum(np.sum((a - b) ** 2) for a, b in zip(raw, recomposed))
                )
                scale = np.sqrt(sum(np.sum(a**2) for a in raw))
                assert err <= 1e-10 * scale
                horizontal_vector(z, *hor.parts, metric=met)

    def test_q1_orthogonality_of_parts(self):
        rng = np.random.default_rng(9)
        for geo in ("psd_q1", "gen_q1"):
            for _, met in geometry_metric_combos([geo]):
                z = _instance(geo, rng)
                raw = tuple(rng.standard_normal(f.shape) for f in z.factors)
                vert = HorizontalVector(z, vertical_project(z, raw, met))
                hor = horizontal_project(z, raw, met)
                cross = metric_inner(z, vert, hor, met)
                scale = max(
                    metric_norm(z, vert, met) * metric_norm(z, hor, met), 1e-300
                )
                assert abs(cross) <= 1e-10 * scale

    @pytest.mark.parametrize("spread,family", [(1e-7, "flat"), (1e-4, "inverse-gram")])
    def test_psd_q1_nearly_parallel_columns_rejected(self, spread, family):
        # nearly parallel factor columns make P, and so M = P^-T W P^-1,
        # ill-conditioned: cond(M) is cond(P)^2 for the flat metric and
        # cond(P)^4 for the inverse Gram one, past the separation tolerance
        rng = np.random.default_rng(55)
        z = quotient_point("psd_q1", np.ones((6, 2)) + spread * rng.standard_normal((6, 2)))
        with pytest.raises(ConditioningError):
            vertical_project(z, (rng.standard_normal((6, 2)),),
                             metric_family("psd_q1", family))

    def test_nearly_parallel_refusal_names_the_metric(self):
        # the refusal gives the separation relative to the operator's scale,
        # against the tolerance, and names the geometry and metric family
        rng = np.random.default_rng(55)
        rng.standard_normal((6, 6))  # the draw of a 6 x 6 psd objective
        z = quotient_point("psd_q1", np.ones((6, 2)) + 1e-6 * rng.standard_normal((6, 2)))
        with pytest.raises(ConditioningError) as info:
            horizontal_basis(z, metric_family("psd_q1", "flat"))
        message = str(info.value)
        assert message.startswith("psd_q1/flat: spectra of A and -B overlap")
        gap = float(message.split("relative separation ")[1].split()[0])
        assert 0 <= gap <= 1e-12
        assert "<= SYLVESTER_SEP_TOL 1e-12" in message

    def test_non_tangent_rejected(self):
        rng = np.random.default_rng(10)
        z = _instance("psd_q2", rng)
        bad = (rng.standard_normal((6, 2)), rng.standard_normal((2, 2)))
        with pytest.raises(ValueError):
            vertical_project(z, bad, metric_family("psd_q2", "polar"))


# spd_functions calls per Weights.at: one inversion per weight form other
# than the identity, whose inverse is itself; an inverse weight's inverse is
# its form, and the B2 form's is B^-1 B^-1 / c
WEIGHT_INVERSIONS = {
    ("psd_q1", "flat"): 0, ("psd_q1", "double-gram"): 1, ("psd_q1", "inverse-gram"): 1,
    ("psd_q2", "polar"): 1, ("psd_q2", "matched"): 1,
    ("gen_q1", "inverse-gram"): 2, ("gen_q1", "crossed-gram"): 2,
    ("gen_q2", "polar"): 1,
    ("gen_q3", "flat"): 0, ("gen_q3", "inverse-gram"): 1, ("gen_q3", "matched"): 1,
}


class TestWeights:
    def test_one_inversion_per_non_identity_form(self, monkeypatch):
        assert set(WEIGHT_INVERSIONS) == {(geo, met.name) for geo, met
                                          in geometry_metric_combos(ALL_QUOTIENTS)}
        calls = count_calls(monkeypatch, spd_functions)
        rng = np.random.default_rng(40)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z = _instance(geo, rng)
            calls.clear()
            wt = Weights.at(z, met)
            assert len(calls) == WEIGHT_INVERSIONS[geo, met.name], (geo, met.name)
            for key, spec in met.weights.items():
                w, w_inv = getattr(wt, key), getattr(wt, f"{key}_inv")
                np.testing.assert_allclose(w @ w_inv, np.eye(R), atol=1e-12)
                if spec.form == "I":
                    assert np.array_equal(w, np.eye(R)) and np.array_equal(w_inv, np.eye(R))
                elif spec.inverse:
                    assert np.array_equal(w_inv, spec._form(z, None))


class TestMetricInner:
    def test_flat_reduces_to_frobenius(self):
        rng = np.random.default_rng(11)
        met = metric_family("psd_q1", "flat")
        z = _instance("psd_q1", rng)
        t1 = random_horizontal(z, met, rng)
        t2 = random_horizontal(z, met, rng)
        ref = np.sum(t1.parts[0] * t2.parts[0])
        assert metric_inner(z, t1, t2, met) == pytest.approx(ref, rel=1e-12)

    def test_psd_q2_b_block_norm(self):
        rng = np.random.default_rng(12)
        met = metric_family("psd_q2", "polar")
        z = _instance("psd_q2", rng)
        tb = sym(rng.standard_normal((R, R)))
        theta = HorizontalVector(z, (np.zeros((6, R)), tb))
        binv_h = np.linalg.cholesky(np.linalg.inv(z.factor("B")))
        ref = np.sum((binv_h.T @ tb @ binv_h) ** 2)
        got = metric_inner(z, theta, theta, met)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_positive_definite_on_horizontal(self):
        rng = np.random.default_rng(13)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z = _instance(geo, rng)
            theta = random_horizontal(z, met, rng)
            assert metric_inner(z, theta, theta, met) > 0

    def test_gauge_invariance(self):
        rng = np.random.default_rng(14)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z = _instance(geo, rng)
            g = (
                rng.standard_normal((R, R)) + 2 * np.eye(R)
                if geo == "gen_q1"
                else qf(rng.standard_normal((R, R)))
            )
            z2 = act_on_point(z, g)
            t1 = random_horizontal(z, met, rng)
            t2 = random_horizontal(z, met, rng)
            lhs = metric_inner(z, t1, t2, met)
            rhs = metric_inner(
                z2, act_on_horizontal(t1, z2, g), act_on_horizontal(t2, z2, g), met
            )
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_base_mismatch_rejected(self):
        rng = np.random.default_rng(15)
        met = metric_family("psd_q1", "flat")
        z1, z2 = _instance("psd_q1", rng), _instance("psd_q1", rng)
        t1 = random_horizontal(z1, met, rng)
        t2 = random_horizontal(z2, met, rng)
        with pytest.raises(ValueError):
            metric_inner(z1, t1, t2, met)

    def test_caller_family_with_a_registry_name_has_its_own_weights(self):
        # the point keeps weights per family object, not per family name
        rng = np.random.default_rng(16)
        z = random_point("psd_q1", 5, 5, R, rng)
        y, t = z.factor("Y"), rng.standard_normal((5, R))
        theta = HorizontalVector(z, (t,))
        flat = metric_family("psd_q1", "flat")
        scaled = MetricFamily("psd_q1", "flat", "W_Y = 5 Y^T Y",
                              {"w": Weight("FtF", "Y", 5.0)})
        assert metric_inner(z, theta, theta, flat) == pytest.approx(
            np.sum(t * t), rel=1e-12)
        assert metric_inner(z, theta, theta, scaled) == pytest.approx(
            5.0 * np.trace(y.T @ y @ t.T @ t), rel=1e-12)


class TestRiemGrad:
    def test_zero_at_factorized_stationary_point(self):
        obj = make_matrix_approx(np.diag([3.0, 1.0]), symmetric=True)
        z = quotient_point("psd_q1", np.array([[np.sqrt(3.0)], [0.0]]))
        g = riem_grad_quotient(z, obj, metric_family("psd_q1", "flat"))
        assert g.raw_norm() < 1e-14

    def test_flat_metric_closed_value(self):
        obj = make_matrix_approx(np.diag([3.0, 1.0]), symmetric=True)
        z = quotient_point("psd_q1", np.array([[1.0], [0.0]]))
        g = riem_grad_quotient(z, obj, metric_family("psd_q1", "flat"))
        np.testing.assert_allclose(g.parts[0], [[-4.0], [0.0]], atol=1e-13)

    def test_result_is_horizontal(self):
        rng = np.random.default_rng(16)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z = _instance(geo, rng)
            obj = _objective(geo, rng)
            g = riem_grad_quotient(z, obj, met)
            horizontal_vector(z, *g.parts, metric=met)

    def test_defining_property_finite_difference(self):
        # g(grad, theta) = d/dt h(curve) for every horizontal basis direction
        rng = np.random.default_rng(17)
        h = 1e-5
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            obj = _objective(geo, rng)
            worst = 0.0
            for _ in range(3):
                z = _instance(geo, rng)
                g = riem_grad_quotient(z, obj, met)
                basis, _ = horizontal_basis(z, met)
                lhs, rhs = [], []
                for b in basis:
                    lhs.append(metric_inner(z, g, b, met))
                    curve = total_curve(z, b)
                    rhs.append(
                        (obj.value(curve(h).X) - obj.value(curve(-h).X)) / (2 * h)
                    )
                lhs, rhs = np.array(lhs), np.array(rhs)
                worst = max(
                    worst,
                    np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(rhs)), 1e-300),
                )
            assert worst <= 1e-6, f"{geo}: {worst:.2e}"

    @pytest.mark.parametrize("geo", ALL_QUOTIENTS)
    def test_curve_agrees_with_its_velocity_to_first_order(self, geo):
        # the total-space curve (QR retraction on Stiefel factors) against
        # its velocity, over t = 1e-2 ... 1e-4: the represented X(t) within
        # O(t^2) of X + t D pi[theta], and where a Stiefel factor moves off
        # its straight line, the factors within O(t^2) of z + t theta
        rng = np.random.default_rng(19)
        z = _instance(geo, rng)
        _, met = next(geometry_metric_combos([geo]))
        theta = random_horizontal(z, met, rng)
        theta = theta * (1.0 / theta.raw_norm())
        curve = total_curve(z, theta)
        velocity = REGISTRY[geo].differential(z, theta.parts)
        steps = (1e-2, 1e-3, 1e-4)
        gaps = [[np.linalg.norm(curve(t).X - z.X - t * velocity) for t in steps]]
        if any(f.kind == "stiefel" for f in REGISTRY[geo].factors):
            gaps.append([np.sqrt(sum(np.sum((a - b - t * c) ** 2) for a, b, c in zip(
                curve(t).factors, z.factors, theta.parts))) for t in steps])
        for errs in gaps:
            slopes = np.log10(np.divide(errs[:-1], errs[1:]))
            assert min(slopes) >= 1.9, slopes

    def test_curve_rejects_a_vector_at_another_point(self):
        rng = np.random.default_rng(18)
        met = metric_family("gen_q3", "flat")
        z, other = _instance("gen_q3", rng), _instance("gen_q3", rng)
        with pytest.raises(ValueError, match="not based"):
            total_curve(z, random_horizontal(other, met, rng))

    def test_gauge_equivariance(self):
        # the lift at a moved representative is the moved lift
        rng = np.random.default_rng(18)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            obj = _objective(geo, rng)
            z = _instance(geo, rng)
            g = (
                rng.standard_normal((R, R)) + 2 * np.eye(R)
                if geo == "gen_q1"
                else qf(rng.standard_normal((R, R)))
            )
            z2 = act_on_point(z, g)
            moved = act_on_horizontal(riem_grad_quotient(z, obj, met), z2, g)
            direct = riem_grad_quotient(z2, obj, met)
            assert hv_gap(moved, direct) <= 1e-10


class TestRiemHess:
    def test_zero_direction(self):
        rng = np.random.default_rng(19)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z = _instance(geo, rng)
            obj = _objective(geo, rng)
            zero = HorizontalVector(z, tuple(np.zeros(f.shape) for f in z.factors))
            assert riem_hess_quad_quotient(z, obj, met, zero) == 0.0

    def test_worked_value_at_stationary_point(self):
        # full-rank PSD factorization, flat weight, at Y = [sqrt(3); 0] for
        # M = diag(3,1): direction [0;1] gives 6 + 2*(-1) = 4
        obj = make_matrix_approx(np.diag([3.0, 1.0]), symmetric=True)
        z = quotient_point("psd_q1", np.array([[np.sqrt(3.0)], [0.0]]))
        theta = HorizontalVector(z, (np.array([[0.0], [1.0]]),))
        quad = riem_hess_quad_quotient(z, obj, metric_family("psd_q1", "flat"), theta)
        assert quad == pytest.approx(4.0, rel=1e-12)

    def test_second_difference_at_stationary_points(self):
        rng = np.random.default_rng(20)
        h = 1e-4
        cases = {
            "psd": make_matrix_approx(
                np.diag([3.0, 2.0, 1.0, 0.5, 0.25, 0.1]), symmetric=True
            ),
            "general": make_matrix_approx(
                np.vstack([np.diag([3.0, 2.0, 1.0, 0.5]), np.zeros((1, 4))])
            ),
        }
        fosp = {
            "psd": embed_point(np.diag([3.0, 2.0, 0, 0, 0, 0.0]), 2, "psd"),
            "general": embed_point(
                np.vstack([np.diag([3.0, 0.0, 1.0, 0.0]), np.zeros((1, 4))]),
                2,
                "general",
            ),
        }
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            kind = kind_of(geo)
            obj = cases[kind]
            z = lift_point(fosp[kind], geo)
            worst = 0.0
            for _ in range(10):
                theta = random_horizontal(z, met, rng)
                quad = riem_hess_quad_quotient(z, obj, met, theta)
                c = total_curve(z, theta)
                fd = (obj.value(c(h).X) - 2 * obj.value(c(0.0).X)
                      + obj.value(c(-h).X)) / h**2
                worst = max(worst, abs(quad - fd) / max(abs(quad), abs(fd), 1.0))
            assert worst <= 1e-6, f"{geo}/{met.name}: {worst:.2e}"

    def test_flat_metric_second_difference_anywhere(self):
        # with the identity weight the total space is Euclidean and the
        # horizontal space is orthogonal to the fiber, so the lifted Hessian
        # equals the straight-line second difference at every point
        rng = np.random.default_rng(30)
        met = metric_family("psd_q1", "flat")
        obj = _objective("psd_q1", rng)
        h = 1e-4
        for _ in range(5):
            z = _instance("psd_q1", rng)
            theta = random_horizontal(z, met, rng)
            quad = riem_hess_quad_quotient(z, obj, met, theta)
            y = z.factor("Y")

            def along(t):
                c = y + t * theta.parts[0]
                return obj.value(c @ c.T)

            fd = (along(h) - 2 * along(0.0) + along(-h)) / h**2
            assert quad == pytest.approx(fd, rel=1e-6)

    def test_gauge_invariance_off_stationary(self):
        # exercises the metric-derivative terms, which vanish at FOSPs
        rng = np.random.default_rng(21)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            obj = _objective(geo, rng)
            z = _instance(geo, rng)
            g = (
                rng.standard_normal((R, R)) + 2 * np.eye(R)
                if geo == "gen_q1"
                else qf(rng.standard_normal((R, R)))
            )
            z2 = act_on_point(z, g)
            theta = random_horizontal(z, met, rng)
            q1 = riem_hess_quad_quotient(z, obj, met, theta)
            q2 = riem_hess_quad_quotient(
                z2, obj, met, act_on_horizontal(theta, z2, g)
            )
            assert q1 == pytest.approx(q2, rel=1e-10)

    def test_vector_at_another_representative_rejected(self):
        # the same horizontal vector moved to a gauge-moved representative of
        # the same matrix, alone or in a stack there, before the objective is
        # evaluated
        rng = np.random.default_rng(23)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z = _instance(geo, rng)
            obj, calls = counting(_objective(geo, rng))
            g = (
                rng.standard_normal((R, R)) + 2 * np.eye(R)
                if geo == "gen_q1"
                else qf(rng.standard_normal((R, R)))
            )
            z2 = act_on_point(z, g)
            here = random_horizontal(z, met, rng)
            there = act_on_horizontal(here, z2, g)
            for vectors in (there[None], random_horizontal(z2, met, rng, 2)):
                with pytest.raises(ValueError, match="not based"):
                    riem_hess_matrix_quotient(z, obj, met, vectors)
            with pytest.raises(ValueError, match="not based"):
                riem_hess_quad_quotient(z, obj, met, there)
            assert calls == {"egrad": 0, "ehess_vec": 0}, geo

    def test_non_horizontal_rejected(self):
        rng = np.random.default_rng(22)
        met = metric_family("psd_q2", "polar")
        z = _instance("psd_q2", rng)
        obj = _objective("psd_q2", rng)
        bad = HorizontalVector(
            z, (z.factor("U") @ np.array([[0.0, 1.0], [-1.0, 0.0]]),
                np.zeros((R, R)))
        )
        with pytest.raises(ValueError):
            riem_hess_quad_quotient(z, obj, met, bad)


class TestConnectionOracle:
    """Independent Hessian check at NON-stationary points for the metric
    families built from standard factor metrics, where the total-space
    connection is textbook material: Euclidean on full-rank factors,
    projected ambient derivative on Stiefel (Frobenius metric), and the
    affine-invariant correction on SPD blocks. The lifted Hessian then
    pairs the covariant derivative of the gradient-lift field with the
    direction; the field derivative comes from central differences.

    This is the only oracle with power over the gradient-coupled terms
    away from stationary points (they vanish at FOSPs and are individually
    gauge-equivariant). The weighted families have nonstandard connections
    and stay validated by the stationary-point and equivariance checks.
    """

    CASES = [
        ("psd_q1", "flat", "psd", 6, 6, 101),
        ("psd_q2", "polar", "psd", 6, 6, 102),
        ("gen_q2", "polar", "general", 5, 4, 103),
        ("gen_q3", "flat", "general", 5, 4, 104),
    ]

    @staticmethod
    def _covariant_grad_derivative(z, obj, met, theta, h=1e-6):
        def st_proj(u, a):
            return a - u @ sym(u.T @ a)

        curve = total_curve(z, theta)
        gp = riem_grad_quotient(curve(h), obj, met).parts
        gm = riem_grad_quotient(curve(-h), obj, met).parts
        dg = [(a - b) / (2 * h) for a, b in zip(gp, gm)]
        g0 = riem_grad_quotient(z, obj, met).parts
        geo = z.geometry
        if geo == "psd_q1":
            return (dg[0],)
        if geo == "psd_q2":
            u, b = z.factors
            binv = np.linalg.inv(b)
            corr = sym(theta.parts[1] @ binv @ g0[1])
            return (st_proj(u, dg[0]), dg[1] - corr)
        if geo == "gen_q2":
            u, b, v = z.factors
            binv = np.linalg.inv(b)
            corr = sym(theta.parts[1] @ binv @ g0[1])
            return (st_proj(u, dg[0]), dg[1] - corr, st_proj(v, dg[2]))
        u, _ = z.factors
        return (st_proj(u, dg[0]), dg[1])

    @pytest.mark.parametrize("geo,mname,kind,p1,p2,seed", CASES)
    def test_hessian_matches_connection_pairing(self, geo, mname, kind, p1, p2,
                                                seed):
        rng = np.random.default_rng(seed)
        met = metric_family(geo, mname)
        obj = random_approx_objective(kind, p1, p2, rng)
        worst = 0.0
        for _ in range(10):
            z = random_point(geo, p1, p2, R, rng)
            theta = random_horizontal(z, met, rng)
            quad = riem_hess_quad_quotient(z, obj, met, theta)
            cov = self._covariant_grad_derivative(z, obj, met, theta)
            # pairing a horizontal direction drops the horizontal projection
            oracle = metric_inner(z, HorizontalVector(z, cov), theta, met)
            worst = max(worst, abs(quad - oracle) / max(abs(quad), abs(oracle), 1.0))
        assert worst <= 1e-7, f"{geo}/{mname}: {worst:.2e}"


class TestMetricDerivatives:
    def test_analytic_matches_complex_step(self):
        rng = np.random.default_rng(23)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z = _instance(geo, rng)
            theta = random_horizontal(z, met, rng)
            wt = oracle_weights(z, met)
            for key in met.weights:
                for name in (key, f"{key}_inv"):
                    analytic = getattr(wt, f"d{name}")(theta.parts)
                    cs = metric_derivative_cs(met, name, z, theta.parts)
                    err = np.linalg.norm(analytic - cs) / max(np.linalg.norm(cs), 1.0)
                    # measured at most 1.0e-15 (4.4e-10 by central differences)
                    assert err <= 1e-13, f"{geo}/{met.name}/d{name}: {err:.2e}"


class TestHorizontalBasis:
    def test_counts(self):
        rng = np.random.default_rng(24)
        met = metric_family("psd_q1", "flat")
        z = random_point("psd_q1", 5, 5, 2, rng)
        assert len(horizontal_basis(z, met)[0]) == 9
        assert quotient_dim("psd_q1", 5, 5, 2) == 9
        met = metric_family("gen_q2", "polar")
        z = random_point("gen_q2", 4, 3, 2, rng)
        assert len(horizontal_basis(z, met)[0]) == 10
        assert quotient_dim("gen_q2", 4, 3, 2) == 10

    def test_membership_span_and_gram(self):
        rng = np.random.default_rng(25)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z = _instance(geo, rng)
            basis, gram = horizontal_basis(z, met)
            p1, p2 = SIZES[kind_of(geo)]
            assert len(basis) == quotient_dim(geo, p1, p2, R)
            for b in basis:
                horizontal_vector(z, *b.parts, metric=met)
            stacked = np.array(
                [np.concatenate([p.ravel() for p in b.parts]) for b in basis]
            )
            assert np.linalg.matrix_rank(stacked, tol=1e-10) == len(basis)
            eigs = np.linalg.eigvalsh(gram)
            assert eigs[0] > 0
            np.testing.assert_allclose(gram, gram.T, atol=1e-12)
            # the flattened products are the pairwise metric to rounding
            pairwise = pairwise_gram(z, basis, met)
            assert np.max(np.abs(gram - pairwise)) <= 1e-14 * np.max(np.abs(pairwise))

    def test_pulls_back_the_embedded_basis(self):
        # L(b_i) = E_i: the basis is the horizontal lift of the embedded
        # orthonormal basis at the matched point
        rng = np.random.default_rng(26)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z = _instance(geo, rng)
            basis, _ = horizontal_basis(z, met)
            err = forward_map(z, basis, met).flat() - tangent_basis(z.point).flat()
            assert np.max(np.abs(err)) <= 1e-13, (geo, met.name)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gram_condition_is_at_most_the_metrics(self, seed):
        # alpha g <= ||L theta||^2 <= beta g and L(b_i) = E_i bound the
        # Gram's spectrum by [1/beta, 1/alpha]
        rng = np.random.default_rng(seed)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            p1, p2 = (40, 40) if kind_of(geo) == "psd" else (30, 20)
            z = random_point(geo, p1, p2, 3, rng)
            co = spectrum_bounds(z, met)
            cond = np.linalg.cond(horizontal_basis(z, met)[1])
            assert cond <= (1 + 1e-6) * co.beta / co.alpha, (geo, met.name, cond)

    def test_memory_at_general_40_by_30(self):
        # d = 201: the stacked basis, its Gram and their temporaries peak at
        # about 1.2 MB; a (d, d, r, r) broadcast of the Gram's products
        # would add 2.9 MB
        rng = np.random.default_rng(27)
        for geo, met in geometry_metric_combos(GEN_QUOTIENTS):
            z = random_point(geo, 40, 30, 3, rng)
            assert len(horizontal_basis(z, met)[0]) == 201
            tracemalloc.start()
            try:
                horizontal_basis(z, met)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2e6, (geo, met.name, peak)


class TestFiberInvariance:
    def test_objective_and_norms_along_fiber(self):
        rng = np.random.default_rng(26)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            obj = _objective(geo, rng)
            z = _instance(geo, rng)
            g = (
                rng.standard_normal((R, R)) + 2 * np.eye(R)
                if geo == "gen_q1"
                else qf(rng.standard_normal((R, R)))
            )
            z2 = act_on_point(z, g)
            assert _same_matrix(z, z2)
            assert obj.value(z.X) == pytest.approx(obj.value(z2.X), rel=1e-12)
            theta = random_horizontal(z, met, rng)
            theta2 = act_on_horizontal(theta, z2, g)
            horizontal_vector(z2, *theta2.parts, metric=met)
            assert metric_norm(z, theta, met) == pytest.approx(
                metric_norm(z2, theta2, met), rel=1e-10
            )


def test_point_is_freed_without_the_cyclic_collector():
    # the cached weights hold no reference back to their point, so dropping
    # the last reference frees the point (and its embedded frame) at once
    z = random_point("psd_q1", 5, 5, 2, np.random.default_rng(30))
    z.weights(metric_family("psd_q1", "double-gram"))
    ref = weakref.ref(z)
    gc.disable()
    try:
        del z
        assert ref() is None
    finally:
        gc.enable()


def _constants(z):
    """Every constants record that a point's weights hold, once built."""
    return [wt.constants for wt in z._weights.values() if wt.constants]


def _roundtrip(z, met, rng):
    """A vertical projection and an L^-1 at z, which build its operators."""
    raw = project_total_tangent(z, tuple(rng.standard_normal(f.shape) for f in z.factors))
    vertical_project(z, raw, met)
    inverse_map(z, forward_map(z, random_horizontal(z, met, rng), met), met)


class TestOperatorCache:
    """The Sylvester operators of L^-1, of the q1 vertical projections and
    of gen_q2's B are factored once per (point, metric), and kept, with
    P^-1, B^-1 and gen_q3's (Y^T V)^-1, in the one record of the weights."""

    def test_each_metric_family_has_its_own_factor(self):
        rng = np.random.default_rng(31)
        for geo in ("psd_q1", "gen_q1"):
            z = _instance(geo, rng)
            names = list(REGISTRY[geo].families)
            for name in names:
                _roundtrip(z, metric_family(geo, name), rng)
            ops = [z.weights(metric_family(geo, name)).constants["sylvester"]
                   for name in names]
            assert all(isinstance(op, SymmetricSylvester) for op in ops)
            assert len({id(op) for op in ops}) == len(names) == len(_constants(z))
            assert not np.allclose(ops[0].a, ops[1].a)

    def test_gradient_and_forward_map_build_no_operator(self):
        # nearly parallel columns put the inverse Gram operator past the
        # separation tolerance; the lift and L do not need it, and still work
        rng = np.random.default_rng(55)
        z = quotient_point("psd_q1", np.ones((6, 2)) + 1e-4 * rng.standard_normal((6, 2)))
        met = metric_family("psd_q1", "inverse-gram")
        obj = make_matrix_approx(sym(rng.standard_normal((6, 6))), symmetric=True)
        grad = riem_grad_quotient(z, obj, met)
        forward_map(z, grad, met)
        assert not _constants(z)
        with pytest.raises(ConditioningError):
            inverse_map(z, forward_map(z, grad, met), met)

    @pytest.mark.parametrize("geo", ["psd_q2", "gen_q2"])
    def test_b_inverse_is_inverted_once(self, geo, monkeypatch):
        # under polar W is B^-1, and the constants take it from the weights;
        # psd_q2/matched has W = I and inverts B for its constants
        rng = np.random.default_rng(35)
        z = _instance(geo, rng)
        inverted = count_calls(monkeypatch, spd_functions)
        for name in REGISTRY[geo].families:
            wt = z.weights(metric_family(geo, name))
            before = len(inverted)
            binv = REGISTRY[geo].constants(z, wt)["binv"]
            assert np.array_equal(binv, spd_functions(z.factor("B")))
            assert (binv is wt.w) == (name == "polar")
            assert len(inverted) - before == (name != "polar")

    @pytest.mark.parametrize("geo", sorted(REGISTRY))
    def test_cached_arrays_are_read_only(self, geo):
        rng = np.random.default_rng(33)
        z = _instance(geo, rng)
        for _, met in geometry_metric_combos([geo]):
            _roundtrip(z, met, rng)
        records = _constants(z)
        assert len(records) == len(REGISTRY[geo].families)
        for record in records:
            for value in record.values():
                arrays = [value] if isinstance(value, np.ndarray) else [
                    value.a, value.b, value.la, value.qa, value.lb, value.qb, value.denom]
                for a in arrays:
                    assert not a.flags.writeable
                    with pytest.raises(ValueError):
                        a[...] = 0.0

    @pytest.mark.parametrize("geo", sorted(REGISTRY))
    def test_point_with_factored_operators_is_freed(self, geo):
        rng = np.random.default_rng(34)
        z = _instance(geo, rng)
        for _, met in geometry_metric_combos([geo]):
            _roundtrip(z, met, rng)
        assert _constants(z)
        ref = weakref.ref(z)
        gc.disable()
        try:
            del z
            assert ref() is None
        finally:
            gc.enable()
