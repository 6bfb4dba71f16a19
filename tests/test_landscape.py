"""Cross-geometry landscape connections: gradient conversions, spectra,
sandwich verification, classification, solver, analytic stationary points."""

import numpy as np
import pytest

from georank import landscape
from georank.cli import run
from georank.embedded import (EmbeddedTangent, _hess_vec_flat, embed_point, project_rank_r,
                              retract, riem_grad_embedded)
from georank.linalg import RankError, skew
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
from georank.transport import spectrum_bounds

from util import (
    ALL_QUOTIENTS,
    CLASSIFY_PANEL,
    cli_starts,
    counting,
    embedded_spectrum,
    geometry_metric_combos,
    gradient_descent_fosp,
    hv_gap,
    kind_of,
    mixed_basis_spectrum,
    object_tcg,
    random_approx_objective,
    random_point,
    spectrum_dim,
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
        assert spectrum_dim(rep) == 6 * R - (R * R - R) // 2

    @staticmethod
    def _nearly_parallel(eps):
        # nearly parallel factor columns: the flat q1 metric's beta/alpha,
        # and so the basis Gram's condition, grows as eps^-2
        rng = np.random.default_rng(55)
        obj = random_approx_objective("psd", 6, 6, rng)
        y = np.ones((6, 2)) + eps * rng.standard_normal((6, 2))
        return obj, quotient_point("psd_q1", y), metric_family("psd_q1", "flat")

    def test_ill_conditioned_gram_rejected(self):
        from georank.linalg import ConditioningError

        # beta/alpha = 6.2e10; at 1e-6 the Sylvester operator of L^-1
        # would refuse the point before the Gram is formed
        obj, z, met = self._nearly_parallel(1e-5)
        obj, calls = counting(obj)
        with pytest.raises(ConditioningError, match="basis Gram condition"):
            hessian_spectrum(z, obj, met)
        # the Gram is checked before any Hessian or gradient work
        assert calls == {"egrad": 0, "ehess_vec": 0}, calls

    def test_gram_condition_is_the_metrics(self):
        # at beta/alpha = 6.2e8 the point is within 1 / RANK_TOL, and the
        # pulled-back basis's Gram has the metric's condition, not more
        obj, z, met = self._nearly_parallel(1e-4)
        rep = hessian_spectrum(z, obj, met)
        co = spectrum_bounds(z, met)
        assert np.linalg.cond(rep.gram) <= 1.01 * co.beta / co.alpha
        assert np.linalg.cond(rep.gram) >= 0.99 * co.beta / co.alpha

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
        assert spectrum_dim(other_geometry) == spectrum_dim(embedded_spectrum(z.point, obj))
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
        # matrices, so a call takes two gradients, the quotient spectrum's
        # (its form and its lift share one) and the FOSP threshold's scale
        obj, calls = counting(make_matrix_approx(GEN_M43))
        pt = list(analytic_fosps(obj, 2))[1]
        emb = embedded_spectrum(pt, obj)
        met = metric_family("gen_q3", "inverse-gram")
        counts = []
        for _ in range(3):
            calls["egrad"] = 0
            verify_sandwich(lift_point(pt, "gen_q3"), obj, met, emb)
            counts.append(calls["egrad"])
        assert counts == [2, 2, 2], counts

    def test_skew_block_fault_in_gen_q2_form_fails(self, monkeypatch, tmp_path):
        # a fault confined to gen_q2's skew block of the horizontal basis, at
        # 1e-6 of the form, fails the identity on every FOSP
        geo = REGISTRY["gen_q2"]
        original = type(geo).hess_matrix

        def perturbed(self, z, obj, wt, parts):
            u = z.factors[0]
            skews = skew(u.T @ parts[0]).reshape(len(parts[0]), -1)
            h, grad = original(self, z, obj, wt, parts)
            return h + 1e-6 * skews @ skews.T, grad

        monkeypatch.setattr(type(geo), "hess_matrix", perturbed)
        met = metric_family("gen_q2", "polar")
        for shape in ((6, 5), (10, 8)):
            obj = make_matrix_approx(np.random.default_rng(31).standard_normal(shape))
            for pt in analytic_fosps(obj, 2):
                rep = verify_sandwich(lift_point(pt, "gen_q2"), obj, met,
                                      embedded_spectrum(pt, obj))
                assert rep["identity_max_rel_err"] > rep["identity_tol"], shape
                assert not rep["passed"], shape
        # the benchmark's verify-sandwich problem, general 10x8, r=2, through
        # the CLI and its default tolerance, at the first four FOSPs
        config = {"problem": {"kind": "approx", "case": "general", "p1": 10, "p2": 8,
                              "r": 2}, "geometries": ["gen_q2"]}
        for seed in (1, 2, 3):
            report, status = run("verify-sandwich", config, seed=seed,
                                 out_path=tmp_path / f"{seed}.json", no_timestamp=True)
            assert status == 1 and len(report["checks"]) == 4, seed
            for check in report["checks"]:
                rep = check["details"]
                assert rep["identity_max_rel_err"] > rep["identity_tol"], seed
                assert not rep["passed"], seed

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
        labels = [classify_point(pt, obj)["label"] for pt in fosps]
        assert labels == ["sosp", "strict-saddle", "strict-saddle"]

    def test_agreement_across_geometries(self):
        obj = make_matrix_approx(PSD_M3, symmetric=True)
        for pt in analytic_fosps(obj, 1):
            ref = classify_point(pt, obj)["label"]
            for geo, met in geometry_metric_combos(("psd_q1", "psd_q2")):
                got = classify_point(lift_point(pt, geo), obj, met)["label"]
                assert got == ref, f"{geo}/{met.name}"

    def test_general_case_agreement(self):
        obj = make_matrix_approx(GEN_M43)
        labels = []
        for pt in analytic_fosps(obj, 1):
            ref = classify_point(pt, obj)["label"]
            labels.append(ref)
            for geo, met in geometry_metric_combos(
                ("gen_q1", "gen_q2", "gen_q3")
            ):
                got = classify_point(lift_point(pt, geo), obj, met)["label"]
                assert got == ref, f"{geo}/{met.name}"
        assert labels == ["sosp", "strict-saddle", "strict-saddle"]

    def test_nonstationary_label(self):
        rng = np.random.default_rng(10)
        obj = random_approx_objective("psd", 6, 6, rng)
        pt = random_point("psd_embedded", 6, 6, R, rng)
        cls = classify_point(pt, obj)
        assert cls["label"] == "non-stationary"
        assert not (cls["is_sosp"] or cls["is_strict_saddle"])


def _psd_m3_start(seed):
    """The rank-1 search on PSD_M3 from the rank-1 start drawn at ``seed``."""
    a = np.random.default_rng(seed).standard_normal((3, 1))
    return make_matrix_approx(PSD_M3, symmetric=True), project_rank_r(a @ a.T, 1, "psd")


def _general_approx_start():
    rng = np.random.default_rng(13)
    obj = random_approx_objective("general", 5, 4, rng)
    return obj, random_point("gen_embedded", 5, 4, 2, rng)


def _masked_completion_start():
    rng = np.random.default_rng(14)
    truth = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
    mask = (rng.random((5, 4)) < 0.8).astype(float)
    return (make_masked_completion(truth, mask),
            random_point("gen_embedded", 5, 4, 2, rng))


def _oracle_problems():
    """(name, objective, start) of every search compared with the
    gradient-descent oracle: TestFindFosp's problems, the benchmark's classify
    panel (problem seeds 1 and 2) and the classify.completion golden config."""
    for seed in (11, 15, 16, 17):
        yield (f"psd-m3-seed{seed}", *_psd_m3_start(seed))
    rng = np.random.default_rng(12)
    obj = make_matrix_approx(PSD_M3, symmetric=True)
    for i in range(5):
        a = rng.standard_normal((3, 1))
        yield f"psd-m3-seed12-start{i}", obj, project_rank_r(a @ a.T, 1, "psd")
    yield ("general-approx", *_general_approx_start())
    yield ("masked-completion", *_masked_completion_start())
    golden = {"problem": {"kind": "completion", "case": "general", "p1": 6, "p2": 5,
                          "r": 2}, "max_fosp_points": 1}
    for name, config, seed in (("panel", CLASSIFY_PANEL, 1), ("panel", CLASSIFY_PANEL, 2),
                               ("golden-classify-completion", golden, 3)):
        obj, starts = cli_starts(config, seed)
        for i, x0 in enumerate(starts):
            yield f"{name}-seed{seed}-start{i}", obj, x0


# gradient descent misses to |grad| <= 1e-12 from these starts, within 40,000
# iterations: on general-approx its line search fails, and panel seed 2's
# start 0 runs away under both searches
GD_MISSES = {"general-approx", "panel-seed2-start0"}
ORACLE_PROBLEMS = {name: (obj, x0) for name, obj, x0 in _oracle_problems()
                   if name not in GD_MISSES}


def _saddle_start(kind):
    """The rank-1 search on PSD_M3 (or GEN_M43) from 1e-3 off the truncation
    to its smallest spectrum value, a strict saddle."""
    m = PSD_M3 if kind == "psd" else GEN_M43
    obj = make_matrix_approx(m, symmetric=kind == "psd")
    *_, saddle = analytic_fosps(obj, 1)
    z = np.random.default_rng(0).standard_normal(m.shape)
    return obj, project_rank_r(saddle.X + 1e-3 * (z + z.T if kind == "psd" else z), 1, kind)


# every oracle problem, with the two gradient descent misses, and a saddle
# start of each kind; each start named in TCG_EXITS ends at least one inner
# solve on the boundary in the way named, and a saddle start its first
TCG_PROBLEMS = {name: (obj, x0) for name, obj, x0 in _oracle_problems()}
TCG_PROBLEMS.update({f"{kind}-saddle": _saddle_start(kind) for kind in ("psd", "general")})
TCG_EXITS = {"psd-saddle": "negative curvature", "general-saddle": "negative curvature",
             "psd-m3-seed12-start2": "left the region", "masked-completion": "left the region",
             "panel-seed2-start0": "left the region"}


class TestFindFosp:
    def test_converges_to_truncation_residual(self):
        res = find_fosp(*_psd_m3_start(11))
        assert res.converged and res.outcome == "converged"
        # generic initialization reaches the best rank-1 approximation,
        # leaving residual (2^2 + 1^2)/2
        assert res.trace[-1][1] == pytest.approx(2.5, abs=1e-6)

    def test_initial_fosp_returns_immediately(self):
        obj = make_matrix_approx(PSD_M3, symmetric=True)
        pt = list(analytic_fosps(obj, 1))[0]
        res = find_fosp(obj, pt)
        assert res.converged and res.iterations == 0 and res.hess_vecs == 0

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
        res = find_fosp(*_general_approx_start())
        values = [t[1] for t in res.trace]
        assert all(b <= a + 1e-14 for a, b in zip(values, values[1:]))

    def test_masked_completion_instance(self):
        res = find_fosp(*_masked_completion_start(), max_iter=5000)
        assert res.converged and res.grad_norm <= 1e-8

    def test_quotient_geometry_returns_lift(self):
        # the search runs on the embedded manifold; its result lifts to a
        # stationary representative of any quotient geometry
        obj, x0 = _psd_m3_start(15)
        res = find_fosp(obj, x0)
        assert res.converged
        z = lift_point(res.point, "psd_q2")
        assert z.geometry == "psd_q2" and z.point is res.point
        met = metric_family("psd_q2", "polar")
        assert metric_norm(z, riem_grad_quotient(z, obj, met), met) <= 1e-7

    def test_refused_retraction_shrinks_the_radius(self, monkeypatch):
        # a step that overflows X makes the retraction raise LinAlgError: the
        # candidate is refused, the point stays, and the next step is at most
        # a quarter of the refused one
        steps = []

        def overflowing_once(pt, xi, t):
            steps.append((pt, t * xi.norm()))
            if len(steps) == 1:
                raise np.linalg.LinAlgError("matrix has a non-finite entry")
            return retract(pt, xi, t)

        monkeypatch.setattr(landscape, "retract", overflowing_once)
        obj, x0 = _psd_m3_start(17)
        res = find_fosp(obj, x0)
        assert res.converged
        assert steps[0][0] is steps[1][0] is x0
        assert res.trace[1][1] == res.trace[0][1]
        assert steps[1][1] <= 0.25 * steps[0][1]

    def test_zero_curvature_stops_the_inner_solve_on_the_boundary(self, monkeypatch):
        # a model with no curvature along the gradient has no minimizer inside
        # the region: the inner solve steps along -grad to the boundary
        monkeypatch.setattr(landscape, "_hess_vec_flat",
                            lambda pt, obj, sig, egrad, f: 0.0 * f)
        obj, x0 = _psd_m3_start(11)
        grad = riem_grad_embedded(x0, obj)
        eta, heta, hess_vecs, boundary = landscape._tcg(x0, obj, obj.egrad(x0.X), grad,
                                                        0.5, 10)
        assert boundary and hess_vecs == 1 and heta.norm() == 0
        assert np.allclose(eta.flat(), -0.5 * grad.flat() / grad.norm(), rtol=0, atol=1e-15)

    def test_radius_collapses_when_every_candidate_is_refused(self, monkeypatch):
        def refused(pt, xi, t):
            raise RankError("matrix is not numerically rank 1")

        monkeypatch.setattr(landscape, "retract", refused)
        obj, x0 = _psd_m3_start(17)
        res = find_fosp(obj, x0)
        assert not res.converged and res.outcome == "radius collapsed"
        assert res.point is x0 and res.iterations < 100
        assert "collapsed" in res.message

    def test_exhausted_budget_is_a_result_not_an_error(self):
        res = find_fosp(*_psd_m3_start(16), max_iter=2, tol=1e-14)
        assert not res.converged and res.outcome == "budget spent"
        assert res.iterations == 2
        assert "max_iter" in res.message
        assert res.point is not None and len(res.trace) == 3
        assert res.hess_vecs >= 2

    @pytest.mark.parametrize("name", ORACLE_PROBLEMS)
    def test_matches_gradient_descent_where_it_converges(self, name):
        # both searches to |grad| <= 1e-12: at the CLI's 1e-10, gradient
        # descent stops 1.1e-7 short on the golden config, whose FOSP's
        # smallest Hessian eigenvalue is 8.8e-4; there it takes about 27,000
        # iterations
        obj, x0 = ORACLE_PROBLEMS[name]
        gd_point, gd_converged = gradient_descent_fosp(obj, x0, max_iter=40000, tol=1e-12)
        assert gd_converged
        res = find_fosp(obj, x0, max_iter=landscape.FOSP_BUDGET, tol=1e-12)
        assert res.converged
        assert np.linalg.norm(res.point.X - gd_point.X) <= 1e-8

    @pytest.mark.parametrize("name", TCG_PROBLEMS)
    def test_flat_inner_solve_matches_the_object_oracle(self, name, monkeypatch):
        # every inner solve of the search, repeated in tangent-object
        # arithmetic from the same arguments, returns the same bits; a PSD
        # solve's two copies of Up stay bit-equal in each direction it reads
        # and in each image and result it returns
        flat, from_flat, hess_vec = landscape._tcg, EmbeddedTangent.from_flat, _hess_vec_flat
        exits, curvatures = [], []

        def same_up_blocks(pt, f):
            if pt.kind == "psd":
                p, r = pt.shape[0], pt.r
                assert np.array_equal(f[r * r:r * (r + p)], f[r * (r + p):])

        def checked_from_flat(pt, f):
            same_up_blocks(pt, f)
            return from_flat(pt, f)

        def recorded_hess_vec(pt, obj, sig, egrad, f):
            same_up_blocks(pt, f)
            hf = hess_vec(pt, obj, sig, egrad, f)
            same_up_blocks(pt, hf)
            curvatures.append(float(f @ hf))
            return hf

        def checked(pt, obj, egrad, grad, radius, max_inner):
            got = flat(pt, obj, egrad, grad, radius, max_inner)
            want = object_tcg(pt, obj, egrad, grad, radius, max_inner)
            for a, b in zip(got[:2], want[:2]):
                assert all(np.array_equal(x, y) for x, y in zip(a.parts, b.parts, strict=True))
            assert got[2:] == want[2:]
            exits.append("interior" if not got[3] else
                         "negative curvature" if curvatures[-1] <= 0 else "left the region")
            return got

        monkeypatch.setattr(EmbeddedTangent, "from_flat", staticmethod(checked_from_flat))
        monkeypatch.setattr(landscape, "_hess_vec_flat", recorded_hess_vec)
        monkeypatch.setattr(landscape, "_tcg", checked)
        obj, x0 = TCG_PROBLEMS[name]
        res = find_fosp(obj, x0, max_iter=landscape.FOSP_BUDGET, tol=1e-12)
        assert res.hess_vecs == len(curvatures) > 0
        if name in TCG_EXITS:
            assert TCG_EXITS[name] in exits
        if name.endswith("saddle"):
            assert hessian_spectrum(x0, obj).min_eigenvalue < 0
            assert exits[0] == "negative curvature"


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
            assert classify_point(pt, obj)["is_fosp"]

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
