"""Cross-geometry landscape connections: gradient conversions, spectra,
sandwich verification, classification, solver, analytic stationary points."""

import numpy as np
import pytest

from georank import landscape
from georank.embedded import embed_point, project_rank_r, retract, riem_grad_embedded
from georank.linalg import skew
from georank.landscape import (
    analytic_fosps,
    classify_point,
    find_fosp,
    grad_embedded_from_quotient,
    grad_quotient_from_embedded,
    hessian_spectrum,
    verify_sandwich,
)
from georank.objectives import make_masked_completion, make_matrix_approx
from georank.quotient import (
    REGISTRY,
    HorizontalVector,
    lift_point,
    metric_family,
    metric_norm,
    quotient_point,
    riem_grad_quotient,
)

from util import (
    ALL_QUOTIENTS,
    counting,
    embedded_spectrum,
    geometry_metric_combos,
    hv_gap,
    kind_of,
    mixed_basis_spectrum,
    random_approx_objective,
    random_point,
)

SIZES = {"psd": (6, 6), "general": (5, 4)}
R = 2

PSD_M3 = np.diag([3.0, 2.0, 1.0])
GEN_M43 = np.vstack([np.diag([3.0, 2.0, 1.0]), np.zeros((1, 3))])


class TestGradConversions:
    def test_zero_maps_to_zero(self):
        rng = np.random.default_rng(0)
        met = metric_family("psd_q1", "flat")
        z = random_point("psd_q1", 6, 6, R, rng)
        zero = HorizontalVector(z, (np.zeros((6, R)),))
        out = grad_embedded_from_quotient(z, zero, met)
        assert out.norm() == 0.0

    def test_worked_diag_example_both_ways(self):
        # Y = [1; 0], M = diag(3, 1), flat weight: quotient lift [-4; 0]
        # corresponds to the embedded gradient diag(-2, 0)
        obj = make_matrix_approx(np.diag([3.0, 1.0]), symmetric=True)
        z = quotient_point("psd_q1", np.array([[1.0], [0.0]]))
        met = metric_family("psd_q1", "flat")
        gq = riem_grad_quotient(z, obj, met)
        np.testing.assert_allclose(gq.parts[0], [[-4.0], [0.0]], atol=1e-13)
        ge = grad_embedded_from_quotient(z, gq, met)
        np.testing.assert_allclose(ge.ambient(), np.diag([-2.0, 0.0]), atol=1e-13)
        back = grad_quotient_from_embedded(z, ge, met)
        np.testing.assert_allclose(back.parts[0], [[-4.0], [0.0]], atol=1e-13)

    def test_identities_at_random_nonstationary_points(self):
        rng = np.random.default_rng(1)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            p1, p2 = SIZES[kind_of(geo)]
            obj = random_approx_objective(kind_of(geo), p1, p2, rng)
            for _ in range(50):
                z = random_point(geo, p1, p2, R, rng)
                ge = riem_grad_embedded(z.point, obj)
                assert ge.norm() > 1e-6  # genuinely non-stationary
                gq = riem_grad_quotient(z, obj, met)
                conv = grad_embedded_from_quotient(z, gq, met)
                rel = (conv - ge).norm() / max(ge.norm(), 1e-300)
                assert rel <= 1e-10, f"{geo}/{met.name}: {rel:.2e}"
                back = grad_quotient_from_embedded(z, ge, met)
                assert hv_gap(back, gq) <= 1e-10, f"{geo}/{met.name}"

    def test_roundtrip_on_gradients(self):
        rng = np.random.default_rng(2)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            p1, p2 = SIZES[kind_of(geo)]
            obj = random_approx_objective(kind_of(geo), p1, p2, rng)
            z = random_point(geo, p1, p2, R, rng)
            gq = riem_grad_quotient(z, obj, met)
            there = grad_embedded_from_quotient(z, gq, met)
            roundtrip = grad_embedded_from_quotient(
                z, grad_quotient_from_embedded(z, there, met), met
            )
            assert (roundtrip - there).norm() <= 1e-10 * max(there.norm(), 1e-300)


class TestHessianSpectrum:
    def test_embedded_worked_example(self):
        # brute-force 2x2 oracle at the rank-1 stationary point diag(3,0) of
        # M = diag(3,1): the core direction gives 1, the off-space direction
        # gives the Rayleigh quotient (4/3)/2 = 2/3
        obj = make_matrix_approx(np.diag([3.0, 1.0]), symmetric=True)
        pt = embed_point(np.diag([3.0, 0.0]), 1, "psd")
        rep = hessian_spectrum(pt, obj)
        np.testing.assert_allclose(rep.eigenvalues, [1.0, 2.0 / 3.0], atol=1e-12)

    def test_zero_objective(self):
        rng = np.random.default_rng(3)
        obj = make_matrix_approx(np.zeros((5, 4)))
        zero_obj = make_masked_completion(np.zeros((5, 4)), np.zeros((5, 4)))
        pt = random_point("gen_embedded", 5, 4, R, rng)
        rep = hessian_spectrum(pt, zero_obj)
        np.testing.assert_allclose(rep.eigenvalues, 0, atol=1e-14)

    def test_basis_mix_invariance(self):
        rng = np.random.default_rng(4)
        for geo, met in geometry_metric_combos(("psd_q1", "gen_q2")):
            p1, p2 = SIZES[kind_of(geo)]
            obj = random_approx_objective(kind_of(geo), p1, p2, rng)
            z = random_point(geo, p1, p2, R, rng)
            a = hessian_spectrum(z, obj, met).eigenvalues
            b = mixed_basis_spectrum(z, obj, met, np.random.default_rng(99))
            scale = max(1.0, np.max(np.abs(a)))
            assert np.max(np.abs(a - b)) <= 1e-8 * scale

    def test_dimensions(self):
        rng = np.random.default_rng(5)
        obj = random_approx_objective("psd", 6, 6, rng)
        z = random_point("psd_q1", 6, 6, R, rng)
        rep = hessian_spectrum(z, obj, metric_family("psd_q1", "flat"))
        assert rep.dim == 6 * R - (R * R - R) // 2

    def test_ill_conditioned_gram_rejected(self):
        from georank.linalg import ConditioningError

        rng = np.random.default_rng(55)
        obj = random_approx_objective("psd", 6, 6, rng)
        # nearly parallel factor columns make the q1 Gram matrix explode
        y = np.ones((6, 2)) + 1e-4 * rng.standard_normal((6, 2))
        z = quotient_point("psd_q1", y)
        obj, calls = counting(obj)
        with pytest.raises(ConditioningError):
            hessian_spectrum(z, obj, metric_family("psd_q1", "flat"))
        # the Gram is checked before any Hessian or gradient work
        assert calls == {"egrad": 0, "ehess_vec": 0}, calls

    def test_metric_must_match_the_point(self):
        # the point names its geometry: an embedded one takes no metric, a
        # quotient one needs its family
        obj = make_matrix_approx(PSD_M3, symmetric=True)
        pt = next(analytic_fosps(obj, 1))
        met = metric_family("psd_q1", "flat")
        for fn in (hessian_spectrum, classify_point):
            with pytest.raises(ValueError, match="no metric family"):
                fn(pt, obj, met)
            with pytest.raises(ValueError, match="need a metric family"):
                fn(lift_point(pt, "psd_q1"), obj)


class TestVerifySandwich:
    def test_all_metric_rows_at_all_fosps_psd(self):
        obj = make_matrix_approx(np.diag([3.0, 2.0, 1.0, 0.5, 0.25]), symmetric=True)
        fosps = list(analytic_fosps(obj, 2))
        assert len(fosps) == 10
        spectra = [embedded_spectrum(pt, obj) for pt in fosps[:4]]
        for geo, met in geometry_metric_combos(("psd_q1", "psd_q2")):
            for pt, emb in zip(fosps[:4], spectra):
                rep = verify_sandwich(lift_point(pt, geo), obj, met, emb)
                assert rep["passed"], f"{geo}/{met.name}"

    def test_all_metric_rows_at_all_fosps_general(self):
        obj = make_matrix_approx(GEN_M43)
        fosps = list(analytic_fosps(obj, 2))
        assert len(fosps) == 3
        spectra = [embedded_spectrum(pt, obj) for pt in fosps]
        for geo, met in geometry_metric_combos(("gen_q1", "gen_q2", "gen_q3")):
            for pt, emb in zip(fosps, spectra):
                rep = verify_sandwich(lift_point(pt, geo), obj, met, emb)
                assert rep["passed"], f"{geo}/{met.name}"

    def test_matched_metrics_have_equal_spectra(self):
        obj = make_matrix_approx(np.diag([3.0, 2.0, 1.0, 0.5, 0.25]), symmetric=True)
        pt = list(analytic_fosps(obj, 2))[2]
        rep = verify_sandwich(lift_point(pt, "psd_q2"), obj,
                              metric_family("psd_q2", "matched"),
                              embedded_spectrum(pt, obj))
        assert rep["matched_coefficients"]
        assert rep["matched_spectra_rel_gap"] <= 1e-8
        objg = make_matrix_approx(GEN_M43)
        ptg = list(analytic_fosps(objg, 2))[1]
        repg = verify_sandwich(lift_point(ptg, "gen_q3"), objg,
                               metric_family("gen_q3", "matched"),
                               embedded_spectrum(ptg, objg))
        assert repg["matched_coefficients"]
        assert repg["matched_spectra_rel_gap"] <= 1e-8

    def test_embedded_spectrum_of_another_space_rejected(self):
        obj = make_matrix_approx(np.diag([3.0, 2.0, 1.0, 0.5, 0.25]), symmetric=True)
        z = lift_point(list(analytic_fosps(obj, 2))[0], "psd_q1")
        met = metric_family("psd_q1", "flat")
        other_geometry = hessian_spectrum(z, obj, met)
        other_dim = embedded_spectrum(list(analytic_fosps(obj, 1))[0], obj)
        assert other_geometry.dim == embedded_spectrum(z.point, obj).dim
        for spectrum in (other_geometry, other_dim):
            with pytest.raises(ValueError, match="embedded spectrum"):
                verify_sandwich(z, obj, met, spectrum)

    def test_embedded_spectrum_of_another_point_with_the_same_matrix_rejected(self):
        # the congruence reads the embedded report's basis, which only the
        # very point the quotient representative is matched to can supply
        obj = make_matrix_approx(np.diag([3.0, 2.0, 1.0, 0.5, 0.25]), symmetric=True)
        pt = list(analytic_fosps(obj, 2))[0]
        twin = embed_point(pt.X, 2, "psd")
        np.testing.assert_array_equal(twin.X, pt.X)
        with pytest.raises(ValueError, match="embedded spectrum"):
            verify_sandwich(lift_point(pt, "psd_q2"), obj,
                            metric_family("psd_q2", "polar"),
                            embedded_spectrum(twin, obj))

    def test_gradient_count_does_not_grow_with_directions(self):
        # no directions are drawn: the congruence reads the two spectra's
        # matrices, so a call takes three gradients, the quotient spectrum's
        # form and lift and the FOSP threshold's scale
        obj, calls = counting(make_matrix_approx(GEN_M43))
        pt = list(analytic_fosps(obj, 2))[1]
        emb = embedded_spectrum(pt, obj)
        met = metric_family("gen_q3", "inverse-gram")
        counts = []
        for _ in range(3):
            calls["egrad"] = 0
            verify_sandwich(lift_point(pt, "gen_q3"), obj, met, emb)
            counts.append(calls["egrad"])
        assert counts == [3, 3, 3], counts

    def test_skew_block_fault_in_gen_q2_form_fails(self, monkeypatch):
        # a fault confined to gen_q2's skew block of the horizontal basis, at
        # 1e-6 of the form, fails the identity on every FOSP
        geo = REGISTRY["gen_q2"]
        original = type(geo).hess_matrix

        def perturbed(self, z, obj, wt, parts):
            u = z.factors[0]
            skews = np.array([skew(u.T @ a[0]).ravel() for a in parts])
            return original(self, z, obj, wt, parts) + 1e-6 * skews @ skews.T

        monkeypatch.setattr(type(geo), "hess_matrix", perturbed)
        met = metric_family("gen_q2", "polar")
        for shape in ((6, 5), (10, 8)):
            obj = make_matrix_approx(np.random.default_rng(31).standard_normal(shape))
            for pt in analytic_fosps(obj, 2):
                rep = verify_sandwich(lift_point(pt, "gen_q2"), obj, met,
                                      embedded_spectrum(pt, obj))
                assert rep["identity_max_rel_err"] > rep["identity_tol"], shape
                assert not rep["passed"], shape

    def test_non_fosp_rejected(self):
        rng = np.random.default_rng(9)
        obj = random_approx_objective("psd", 6, 6, rng)
        z = random_point("psd_q1", 6, 6, R, rng)
        with pytest.raises(ValueError):
            verify_sandwich(z, obj, metric_family("psd_q1", "flat"),
                            embedded_spectrum(z.point, obj))


class TestClassify:
    def test_rank1_truncations_of_diag321(self):
        obj = make_matrix_approx(PSD_M3, symmetric=True)
        fosps = analytic_fosps(obj, 1)
        labels = [classify_point(pt, obj).label() for pt in fosps]
        assert labels == ["sosp", "strict-saddle", "strict-saddle"]

    def test_agreement_across_geometries(self):
        obj = make_matrix_approx(PSD_M3, symmetric=True)
        for pt in analytic_fosps(obj, 1):
            ref = classify_point(pt, obj).label()
            for geo, met in geometry_metric_combos(("psd_q1", "psd_q2")):
                got = classify_point(lift_point(pt, geo), obj, met).label()
                assert got == ref, f"{geo}/{met.name}"

    def test_general_case_agreement(self):
        obj = make_matrix_approx(GEN_M43)
        labels = []
        for pt in analytic_fosps(obj, 1):
            ref = classify_point(pt, obj).label()
            labels.append(ref)
            for geo, met in geometry_metric_combos(
                ("gen_q1", "gen_q2", "gen_q3")
            ):
                got = classify_point(lift_point(pt, geo), obj, met).label()
                assert got == ref, f"{geo}/{met.name}"
        assert labels == ["sosp", "strict-saddle", "strict-saddle"]

    def test_nonstationary_label(self):
        rng = np.random.default_rng(10)
        obj = random_approx_objective("psd", 6, 6, rng)
        pt = random_point("psd_embedded", 6, 6, R, rng)
        cls = classify_point(pt, obj)
        assert cls.label() == "non-stationary"
        assert not (cls.is_sosp or cls.is_strict_saddle)


class TestFindFosp:
    def test_converges_to_truncation_residual(self):
        rng = np.random.default_rng(11)
        obj = make_matrix_approx(PSD_M3, symmetric=True)
        a = rng.standard_normal((3, 1))
        res = find_fosp(obj, project_rank_r(a @ a.T, 1, "psd"))
        assert res.converged
        # generic initialization reaches the best rank-1 approximation,
        # leaving residual (2^2 + 1^2)/2
        assert obj.value(res.point.X) == pytest.approx(2.5, abs=1e-6)

    def test_initial_fosp_returns_immediately(self):
        obj = make_matrix_approx(PSD_M3, symmetric=True)
        pt = list(analytic_fosps(obj, 1))[0]
        res = find_fosp(obj, pt)
        assert res.converged and res.iterations == 0

    def test_limits_match_analytic_fosps(self):
        rng = np.random.default_rng(12)
        obj = make_matrix_approx(PSD_M3, symmetric=True)
        fosps = list(analytic_fosps(obj, 1))
        for _ in range(5):
            a = rng.standard_normal((3, 1))
            res = find_fosp(obj, project_rank_r(a @ a.T, 1, "psd"))
            assert res.converged and res.grad_norm <= 1e-8
            assert min(np.linalg.norm(res.point.X - f.X) for f in fosps) <= 1e-6

    def test_monotone_decrease(self):
        rng = np.random.default_rng(13)
        obj = random_approx_objective("general", 5, 4, rng)
        res = find_fosp(obj, random_point("gen_embedded", 5, 4, 2, rng))
        values = [t[1] for t in res.trace]
        assert all(b <= a + 1e-14 for a, b in zip(values, values[1:]))

    def test_masked_completion_instance(self):
        rng = np.random.default_rng(14)
        truth = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
        mask = (rng.random((5, 4)) < 0.8).astype(float)
        obj = make_masked_completion(truth, mask)
        res = find_fosp(obj, random_point("gen_embedded", 5, 4, 2, rng), max_iter=5000)
        assert res.converged and res.grad_norm <= 1e-8

    def test_quotient_geometry_returns_lift(self):
        # the search runs on the embedded manifold; its result lifts to a
        # stationary representative of any quotient geometry
        rng = np.random.default_rng(15)
        obj = make_matrix_approx(PSD_M3, symmetric=True)
        a = rng.standard_normal((3, 1))
        res = find_fosp(obj, project_rank_r(a @ a.T, 1, "psd"))
        assert res.converged
        z = lift_point(res.point, "psd_q2")
        assert z.geometry == "psd_q2" and z.point is res.point
        met = metric_family("psd_q2", "polar")
        assert metric_norm(z, riem_grad_quotient(z, obj, met), met) <= 1e-7

    def test_line_search_halves_the_step_on_a_non_finite_candidate(self, monkeypatch):
        # a step that overflows X makes the retraction raise LinAlgError
        steps = []

        def overflowing_once(pt, xi, t):
            steps.append(t)
            if len(steps) == 1:
                raise np.linalg.LinAlgError("matrix has a non-finite entry")
            return retract(pt, xi, t)

        monkeypatch.setattr(landscape, "retract", overflowing_once)
        rng = np.random.default_rng(17)
        obj = make_matrix_approx(PSD_M3, symmetric=True)
        a = rng.standard_normal((3, 1))
        res = find_fosp(obj, project_rank_r(a @ a.T, 1, "psd"))
        assert res.converged and steps[1] == 0.5 * steps[0]

    def test_exhausted_budget_is_a_result_not_an_error(self):
        rng = np.random.default_rng(16)
        obj = make_matrix_approx(PSD_M3, symmetric=True)
        a = rng.standard_normal((3, 1))
        res = find_fosp(obj, project_rank_r(a @ a.T, 1, "psd"),
                        max_iter=2, tol=1e-14)
        assert not res.converged
        assert res.iterations == 2
        assert "max_iter" in res.message
        assert res.point is not None and len(res.trace) == 3


class TestAnalyticFosps:
    def test_diag321_truncations(self):
        obj = make_matrix_approx(PSD_M3, symmetric=True)
        pts = analytic_fosps(obj, 1)
        got = sorted(np.round(np.diag(p.X), 8).tolist() for p in pts)
        expected = sorted([[3.0, 0, 0], [0, 2.0, 0], [0, 0, 1.0]])
        assert got == expected

    def test_full_rank_single_point(self):
        obj = make_matrix_approx(PSD_M3, symmetric=True)
        pts = list(analytic_fosps(obj, 3))
        assert len(pts) == 1
        np.testing.assert_allclose(pts[0].X, PSD_M3, atol=1e-12)

    def test_each_point_classifies_as_fosp(self):
        obj = make_matrix_approx(np.diag([3.0, 2.0, 1.0, 0.5]), symmetric=True)
        for pt in analytic_fosps(obj, 2):
            assert classify_point(pt, obj).is_fosp

    def test_points_are_certified_as_drawn(self, monkeypatch):
        # C(14, 3) = 364 stationary points; drawing the first certifies one
        obj = make_matrix_approx(np.diag(np.arange(14.0, -16.0, -1.0)), symmetric=True)
        certified = []

        def counted(pt, objective):
            certified.append(pt)
            return riem_grad_embedded(pt, objective)

        monkeypatch.setattr(landscape, "riem_grad_embedded", counted)
        points = analytic_fosps(obj, 3)
        assert certified == []
        first = next(points)
        assert len(certified) == 1 and certified[0] is first
        assert sum(1 for _ in points) == 363 and len(certified) == 364

    def test_repeated_spectrum_rejected(self):
        obj = make_matrix_approx(np.diag([2.0, 2.0, 1.0]), symmetric=True)
        with pytest.raises(ValueError):
            analytic_fosps(obj, 1)

    def test_wrong_objective_kind_rejected(self):
        obj = make_masked_completion(np.eye(3), np.ones((3, 3)), symmetric=True)
        with pytest.raises(ValueError):
            analytic_fosps(obj, 1)
