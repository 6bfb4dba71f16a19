"""Embedded fixed-rank geometry: factors, projections, gradients, Hessians,
retraction, bases."""

import warnings

import numpy as np
import pytest

from georank import linalg
from georank.embedded import (
    EmbeddedPoint,
    _column_signs,
    EmbeddedTangent,
    embed_point,
    project_rank_r,
    retract,
    riem_grad_embedded,
    riem_hess_matrix_embedded,
    riem_hess_quad_embedded,
    tangent_basis,
    tangent_project,
    truncate_sum,
)
from georank.flows import integrate_flow
from georank.landscape import find_fosp
from georank.linalg import RankError, sym
from georank.objectives import make_matrix_approx
from georank.quotient import EMBEDDED, lift_point, random_horizontal
from georank.transport import forward_map, inverse_map

from util import (
    ALL_QUOTIENTS,
    PSD_QUOTIENTS,
    count_calls,
    counting,
    geometry_metric_combos,
    kind_of,
    polarize,
    random_approx_objective,
    random_point,
    stacked,
)


class TestEmbedPoint:
    def test_rank1_diag(self):
        pt = embed_point(np.diag([3.0, 0.0]), 1, "psd")
        assert abs(abs(pt.U[0, 0]) - 1.0) < 1e-14
        np.testing.assert_allclose(pt.Sigma, [[3.0]], atol=1e-14)

    def test_rank2_span(self):
        pt = embed_point(np.diag([2.0, 1.0, 0.0]), 2, "psd")
        proj = pt.U @ pt.U.T
        expect = np.diag([1.0, 1.0, 0.0])
        np.testing.assert_allclose(proj, expect, atol=1e-12)

    def test_general_matches_svd(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))
        pt = embed_point(x, 2, "general")
        u, s, vt = np.linalg.svd(x)
        # same subspaces up to rotation
        np.testing.assert_allclose(pt.U @ pt.U.T, u[:, :2] @ u[:, :2].T, atol=1e-10)
        np.testing.assert_allclose(pt.V @ pt.V.T, vt[:2].T @ vt[:2], atol=1e-10)
        np.testing.assert_allclose(pt.X, x, atol=1e-12)

    def test_reconstruction_and_frames(self):
        rng = np.random.default_rng(1)
        pt = random_point("psd_embedded", 6, 6, 2, rng)
        np.testing.assert_allclose(pt.U @ pt.Sigma @ pt.U.T, pt.X, atol=1e-12)
        full = np.hstack([pt.U, pt.Uperp])
        np.testing.assert_allclose(full.T @ full, np.eye(6), atol=1e-12)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            embed_point(np.diag([3.0, 0.0]), 2, "psd")

    def test_asymmetric_psd_rejected(self):
        with pytest.raises(ValueError):
            embed_point(np.array([[1.0, 1.0], [0.0, 0.0]]), 1, "psd")

    def test_full_rank_input_rejected_but_projectable(self):
        x = np.diag([3.0, 2.0, 1.0])
        with pytest.raises(RankError):
            embed_point(x, 2, "psd")
        pt = project_rank_r(x, 2, "psd")
        np.testing.assert_allclose(pt.X, np.diag([3.0, 2.0, 0.0]), atol=1e-12)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 2))
        x = a @ a.T
        p1 = embed_point(x, 2, "psd")
        p2 = embed_point(x.copy(), 2, "psd")
        np.testing.assert_array_equal(p1.U, p2.U)
        cols = np.abs(p1.U).argmax(axis=0)
        assert all(p1.U[cols[j], j] > 0 for j in range(2))


# (kind, p1, p2, r): a generic rank, r = p (empty complements), and r = p2 < p1
SHAPES = [("psd", 5, 5, 2), ("general", 5, 4, 2), ("psd", 4, 4, 4),
          ("general", 4, 4, 4), ("general", 5, 4, 4)]


class TestTangentProject:
    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for kind, p1, p2, r in SHAPES:
            pt = random_point(EMBEDDED[kind], p1, p2, r, rng)
            z = rng.standard_normal((p1, p2))
            once = tangent_project(pt, z)
            twice = tangent_project(pt, once.ambient())
            np.testing.assert_allclose(once.ambient(), twice.ambient(), atol=1e-12)
            np.testing.assert_allclose(once.S, twice.S, atol=1e-12)
            np.testing.assert_allclose(once.Up, twice.Up, atol=1e-12)
            if kind == "general":
                np.testing.assert_allclose(once.Vp, twice.Vp, atol=1e-12)

    def test_norm_is_ambient_frobenius_norm(self):
        rng = np.random.default_rng(18)
        for kind, p1, p2, r in SHAPES:
            pt = random_point(EMBEDDED[kind], p1, p2, r, rng)
            xi = tangent_project(pt, rng.standard_normal((p1, p2)))
            amb_norm = np.linalg.norm(xi.ambient())
            assert xi.norm() == pytest.approx(amb_norm, rel=1e-12)
            assert xi.flat() @ xi.flat() == pytest.approx(amb_norm**2, rel=1e-12)
            # the off-frame factors are orthogonal to the frame
            np.testing.assert_allclose(pt.U.T @ xi.Up, 0, atol=1e-12)
            if kind == "general":
                np.testing.assert_allclose(pt.V.T @ xi.Vp, 0, atol=1e-12)

    def test_normal_block_annihilated(self):
        rng = np.random.default_rng(4)
        pt = random_point("gen_embedded", 5, 4, 2, rng)
        z = pt.Uperp @ rng.standard_normal((3, 2)) @ pt.Vperp.T
        xi = tangent_project(pt, z)
        assert xi.ambient() == pytest.approx(np.zeros((5, 4)), abs=1e-13)

    def test_self_adjoint(self):
        rng = np.random.default_rng(5)
        for kind, p1, p2 in [("psd", 6, 6), ("general", 5, 4)]:
            pt = random_point(EMBEDDED[kind], p1, p2, 2, rng)
            z = rng.standard_normal((p1, p2))
            w = rng.standard_normal((p1, p2))
            if kind == "psd":
                z, w = sym(z), sym(w)
            pz = tangent_project(pt, z).ambient()
            pw = tangent_project(pt, w).ambient()
            # residual orthogonal to the tangent space
            assert abs(np.sum((z - pz) * pw)) < 1e-11
            assert abs(np.sum(pz * w) - np.sum(z * pw)) < 1e-11

    def test_psd_tangent_symmetric(self):
        rng = np.random.default_rng(6)
        pt = random_point("psd_embedded", 5, 5, 2, rng)
        xi = tangent_project(pt, rng.standard_normal((5, 5)))
        amb = xi.ambient()
        np.testing.assert_allclose(amb, amb.T, atol=1e-13)


class TestRiemGrad:
    def test_zero_at_truncation(self):
        # Eckart-Young: the truncation of M is stationary for 0.5||X - M||^2
        rng = np.random.default_rng(7)
        m = sym(rng.standard_normal((5, 5)))
        obj = make_matrix_approx(m, symmetric=True)
        pt = project_rank_r(m, 2, "psd")
        assert riem_grad_embedded(pt, obj).norm() < 1e-12

    def test_block_values(self):
        obj = make_matrix_approx(np.diag([3.0, 1.0]), symmetric=True)
        pt = embed_point(np.diag([1.0, 0.0]), 1, "psd")
        g = riem_grad_embedded(pt, obj)
        np.testing.assert_allclose(g.S, [[-2.0]], atol=1e-14)
        np.testing.assert_allclose(g.Up, [[0.0], [0.0]], atol=1e-14)

    def test_fd_along_retraction(self):
        rng = np.random.default_rng(8)
        h = 1e-5
        for kind, p1, p2 in [("psd", 6, 6), ("general", 5, 4)]:
            m = rng.standard_normal((p1, p2))
            obj = make_matrix_approx(sym(m) if kind == "psd" else m,
                                     symmetric=kind == "psd")
            pt = random_point(EMBEDDED[kind], p1, p2, 2, rng)
            g = riem_grad_embedded(pt, obj)
            lhs, rhs = [], []
            for b in tangent_basis(pt):
                lhs.append(np.sum(g.ambient() * b.ambient()))
                fp = obj.value(retract(pt, b, h).X)
                fm = obj.value(retract(pt, b, -h).X)
                rhs.append((fp - fm) / (2 * h))
            lhs, rhs = np.array(lhs), np.array(rhs)
            assert np.max(np.abs(lhs - rhs)) <= 1e-6 * max(np.max(np.abs(rhs)), 1e-300)


class TestRiemHess:
    def test_zero_direction(self):
        rng = np.random.default_rng(9)
        pt = random_point("psd_embedded", 4, 4, 2, rng)
        obj = make_matrix_approx(sym(rng.standard_normal((4, 4))), symmetric=True)
        xi = EmbeddedTangent(pt, (np.zeros((2, 2)), np.zeros((4, 2))))
        assert riem_hess_quad_embedded(pt, obj, xi) == 0.0

    def test_worked_correction_value(self):
        # S = 0, Up = U_perp at the rank-1 stationary point of M = diag(3, 1):
        # quad = ||xi||^2 + 2 <grad, Up Sigma^-1 Up^T> = 2 - 2/3
        obj = make_matrix_approx(np.diag([3.0, 1.0]), symmetric=True)
        pt = embed_point(np.diag([3.0, 0.0]), 1, "psd")
        xi = EmbeddedTangent(pt, (np.array([[0.0]]), pt.Uperp))
        assert riem_hess_quad_embedded(pt, obj, xi) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_equals_euclidean_when_gradient_vanishes(self):
        # at r = rank(M) the residual is zero and the correction term drops
        rng = np.random.default_rng(10)
        a = rng.standard_normal((5, 2))
        m = a @ a.T
        obj = make_matrix_approx(m, symmetric=True)
        pt = embed_point(m, 2, "psd")
        for _ in range(5):
            xi = tangent_project(pt, sym(rng.standard_normal((5, 5))))
            quad = riem_hess_quad_embedded(pt, obj, xi)
            assert quad == pytest.approx(np.sum(xi.ambient() ** 2), rel=1e-10)

    @pytest.mark.parametrize("kind", ["psd", "general"])
    def test_second_difference_at_fosp(self, kind):
        # curve-independence of the quadratic form holds at stationary points.
        # The general FOSP keeps sigma_1 and sigma_3 of M, so its gradient
        # -2 e2 e2^T couples Up and Vp through Sigma^-1: the form differs from
        # the Euclidean one by that curvature term
        rng = np.random.default_rng(11)
        if kind == "psd":
            m = np.diag([3.0, 2.0, 1.0, 0.5])
            obj = make_matrix_approx(m, symmetric=True)
            pt = embed_point(np.diag([3.0, 2.0, 0.0, 0.0]), 2, "psd")
        else:
            m = np.eye(5, 4) * [3.0, 2.0, 1.0, 0.5]
            obj = make_matrix_approx(m)
            pt = embed_point(np.eye(5, 4) * [3.0, 0.0, 1.0, 0.0], 2, "general")
        h = 1e-4
        for _ in range(10):
            z = rng.standard_normal(pt.shape)
            xi = tangent_project(pt, sym(z) if kind == "psd" else z)
            quad = riem_hess_quad_embedded(pt, obj, xi)
            fd = (obj.value(retract(pt, xi, h).X) - 2 * obj.value(pt.X)
                  + obj.value(retract(pt, xi, -h).X)) / h**2
            assert abs(quad - fd) <= 1e-6 * max(abs(quad), abs(fd), 1.0)
            if kind == "general":
                amb = xi.ambient()
                curvature = quad - float(np.sum(obj.ehess_vec(pt.X, amb) * amb))
                assert abs(curvature) > 1e-2 * abs(quad)


    @pytest.mark.parametrize("kind", ["psd", "general"])
    def test_bilinear_form_is_the_polarized_quadratic_form(self, kind):
        # form(a, b) = form(b, a) = (Q(a+b) - Q(a-b))/4 with Q the quadratic
        # form, at non-stationary points, where the curvature term is live;
        # form(a, b) and form(b, a) come from two builds, on [a, b] and [b, a]
        rng = np.random.default_rng(12)
        for p1, p2, r in [(6, 5, 2), (5, 4, 1), (7, 3, 3)]:
            p2 = p1 if kind == "psd" else p2
            pt = random_point(EMBEDDED[kind], p1, p2, r, rng)
            obj = random_approx_objective(kind, p1, p2, rng)

            def quad(v):
                return riem_hess_quad_embedded(pt, obj, v)

            for _ in range(3):
                a, b = (tangent_project(pt, rng.standard_normal((p1, p2)))
                        for _ in range(2))
                scale = sum(abs(quad(v)) for v in (a, b, a + b, a - b))
                value = riem_hess_matrix_embedded(pt, obj, stacked(a, b))[0][0, 1]
                swapped = riem_hess_matrix_embedded(pt, obj, stacked(b, a))[0][0, 1]
                assert abs(value - swapped) <= 1e-12 * scale
                assert abs(value - polarize(quad, a, b)) <= 1e-12 * scale

    @pytest.mark.parametrize("kind", ["psd", "general"])
    def test_tangent_at_another_point_rejected(self, kind):
        # alone or among tangents at pt, before the objective is evaluated;
        # a twin point with the same matrix is another point too
        rng = np.random.default_rng(14)
        p1, p2 = (5, 5) if kind == "psd" else (5, 4)
        pt = random_point(EMBEDDED[kind], p1, p2, 2, rng)
        obj, calls = counting(random_approx_objective(kind, p1, p2, rng))
        here = tangent_project(pt, rng.standard_normal((p1, p2)))
        for other in (random_point(EMBEDDED[kind], p1, p2, 2, rng),
                      embed_point(pt.X, 2, kind)):
            there = tangent_project(other, rng.standard_normal((p1, p2)))
            for tangents in (there[None], stacked(there, there)):
                with pytest.raises(ValueError, match="not based"):
                    riem_hess_matrix_embedded(pt, obj, tangents)
            with pytest.raises(ValueError, match="not based"):
                riem_hess_quad_embedded(pt, obj, there)
        assert calls == {"egrad": 0, "ehess_vec": 0}


class TestRetract:
    def test_zero_step(self):
        rng = np.random.default_rng(12)
        pt = random_point("gen_embedded", 5, 4, 2, rng)
        xi = tangent_project(pt, rng.standard_normal((5, 4)))
        np.testing.assert_allclose(retract(pt, xi, 0.0).X, pt.X, atol=1e-12)

    def test_tangent_at_another_point_rejected(self):
        rng = np.random.default_rng(15)
        pt, other = (random_point("gen_embedded", 5, 4, 2, rng) for _ in range(2))
        xi = tangent_project(other, rng.standard_normal((5, 4)))
        with pytest.raises(ValueError, match="not based"):
            retract(pt, xi, 1e-3)

    def test_core_block_step_exact(self):
        # X + t U S U^T is already rank r, so the projection returns it
        rng = np.random.default_rng(13)
        pt = random_point("psd_embedded", 5, 5, 2, rng)
        s = sym(rng.standard_normal((2, 2)))
        xi = EmbeddedTangent(pt, (s, np.zeros((5, 2))))
        t = 1e-3
        out = retract(pt, xi, t)
        np.testing.assert_allclose(out.X, pt.X + t * xi.ambient(), atol=1e-12)

    def test_first_order_agreement(self):
        rng = np.random.default_rng(14)
        pt = random_point("gen_embedded", 5, 4, 2, rng)
        xi = tangent_project(pt, rng.standard_normal((5, 4)))
        errs = []
        for t in [1e-2, 5e-3, 2.5e-3, 1.25e-3]:
            errs.append(np.linalg.norm(retract(pt, xi, t).X - pt.X - t * xi.ambient()))
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert min(slopes) >= 1.9  # O(t^2) behaviour


class TestTruncateSum:
    """The factored truncation of X + sum c_i xi_i against ``project_rank_r``
    of the formed sum."""

    @staticmethod
    def _terms(pt, n, rng):
        """(c, xi) pairs, each xi the projection of a Gaussian matrix onto
        the tangent space at a fresh random point, scaled so that the sum
        moves X by at most 0.4 sigma_r(X) and stays rank r (PSD: positive)."""
        p1, p2 = pt.shape
        sigma_r = np.min(np.abs(np.diag(pt.Sigma)))
        terms = []
        for _ in range(n):
            base = random_point(EMBEDDED[pt.kind], p1, p2, pt.r, rng)
            xi = tangent_project(base, rng.standard_normal((p1, p2)))
            terms.append((rng.uniform(0.02, 0.1) * sigma_r / xi.norm(), xi))
        return terms

    @staticmethod
    def _dense(pt, terms):
        total = pt.X + sum(c * xi.ambient() for c, xi in terms)
        return project_rank_r(total, pt.r, pt.kind)

    @staticmethod
    def _close_to_dense(got, want):
        assert np.linalg.norm(got.X - want.X) <= 1e-12 * np.linalg.norm(want.X)
        assert (np.linalg.norm(got.Sigma - want.Sigma)
                <= 1e-12 * np.linalg.norm(want.Sigma))
        # the same sign convention, so the frames agree column by column
        np.testing.assert_allclose(got.U, want.U, atol=1e-9)
        if want.kind == "general":
            np.testing.assert_allclose(got.V, want.V, atol=1e-9)

    GRID = [
        ("psd", 8, 8, 2),
        ("general", 8, 6, 2),
        ("psd", 6, 6, 2),       # 4 tangents stack 18 columns, wider than p
        ("psd", 3, 3, 3),       # r = p
        ("general", 4, 3, 3),   # r = p2
        ("general", 12, 3, 2),  # small p2
    ]

    @pytest.mark.parametrize("kind,p1,p2,r", GRID)
    @pytest.mark.parametrize("n_terms", [1, 4])
    def test_matches_dense_truncation(self, kind, p1, p2, r, n_terms):
        rng = np.random.default_rng(100 * p1 + 10 * p2 + r + n_terms)
        pt = random_point(EMBEDDED[kind], p1, p2, r, rng)
        terms = self._terms(pt, n_terms, rng)
        self._close_to_dense(truncate_sum(pt, terms), self._dense(pt, terms))

    @pytest.mark.parametrize("kind,p1,p2", [("psd", 8, 8), ("general", 8, 6)])
    def test_first_order_agreement(self, kind, p1, p2):
        # the retraction R(t xi) = truncate_sum(pt, [(t, xi)]) agrees with its
        # velocity to first order: ||R(t xi) - (X + t xi)|| = O(t^2) over
        # t = 1e-2 ... 1e-4, for a unit tangent at pt
        rng = np.random.default_rng(41)
        pt = random_point(EMBEDDED[kind], p1, p2, 2, rng)
        xi = tangent_project(pt, rng.standard_normal((p1, p2)))
        xi = xi * (1.0 / xi.norm())
        errs = [np.linalg.norm(truncate_sum(pt, [(t, xi)]).X - pt.X - t * xi.ambient())
                for t in (1e-2, 1e-3, 1e-4)]
        slopes = np.log10(np.divide(errs[:-1], errs[1:]))
        assert min(slopes) >= 1.9, slopes

    @pytest.mark.parametrize("kind,p1,p2", [("psd", 5, 5), ("general", 5, 4)])
    def test_rank_deficient_sum_raises_in_both_paths(self, kind, p1, p2):
        # the core step -diag(0, sigma_2) removes the second direction of X
        rng = np.random.default_rng(32)
        pt = random_point(EMBEDDED[kind], p1, p2, 2, rng)
        s = -np.diag([0.0, pt.Sigma[1, 1]])
        offs = (np.zeros((p1, 2)),) if kind == "psd" else (np.zeros((p1, 2)),
                                                            np.zeros((p2, 2)))
        terms = [(1.0, EmbeddedTangent(pt, (s, *offs)))]
        with pytest.raises(RankError):
            self._dense(pt, terms)
        with pytest.raises(RankError):
            truncate_sum(pt, terms)

    @pytest.mark.parametrize("kind,p1,p2,qrs", [("psd", 6, 6, 1), ("general", 6, 5, 2)])
    def test_psd_stacks_share_one_qr(self, monkeypatch, kind, p1, p2, qrs):
        rng = np.random.default_rng(39)
        pt = random_point(EMBEDDED[kind], p1, p2, 2, rng)
        terms = self._terms(pt, 2, rng)
        shapes, original = [], np.linalg.qr

        def counted(a, *args, **kwargs):
            shapes.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        truncate_sum(pt, terms)
        assert len(shapes) == qrs

    def test_tangent_of_another_manifold_rejected(self):
        rng = np.random.default_rng(33)
        pt = random_point("gen_embedded", 5, 4, 2, rng)
        other = random_point("gen_embedded", 5, 3, 2, rng)
        xi = tangent_project(other, rng.standard_normal((5, 3)))
        with pytest.raises(ValueError):
            truncate_sum(pt, [(1.0, xi)])


class TestTopFactors:
    def test_column_signs_first_entry_wins_a_tie(self):
        # the largest magnitude is made positive; on a tie the first entry
        # of that magnitude decides, and a zero column gets +1
        u = np.array([[0.5, -0.5, 0.0, 0.2],
                      [-0.5, 0.5, 0.0, -0.3],
                      [0.1, 0.1, 0.0, 0.1]])
        assert np.array_equal(_column_signs(u), [1.0, -1.0, 1.0, -1.0])
        assert np.array_equal(_column_signs(-u), [-1.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("kind,what", [("psd", "eigenvalue 2"),
                                           ("general", "singular value 2")])
    def test_rank_refusal_names_the_value(self, kind, what):
        a = np.random.default_rng(9).standard_normal(6)
        with pytest.raises(RankError, match=f"not numerically rank 2.*{what}"):
            project_rank_r(np.outer(a, a), 2, kind)


class TestNonFinite:
    """A matrix with a non-finite entry is refused before any decomposition,
    with the error that the flows read as divergence."""

    # at r = 2 the psd eigendecomposition returns NaN factors, and LAPACK's
    # SVD need not return at all
    @pytest.mark.parametrize("kind,diag", [("psd", [np.inf, 1.0, 1.0, 0.0]),
                                           ("general", [np.inf, 1.0, 1.0])])
    def test_projection(self, kind, diag):
        # refused before any arithmetic on the entries, so with no warning
        with warnings.catch_warnings(), pytest.raises(np.linalg.LinAlgError,
                                                      match="non-finite"):
            warnings.simplefilter("error")
            project_rank_r(np.diag(diag), 2, kind)

    def test_overflowing_truncated_sum(self):
        rng = np.random.default_rng(34)
        pt = random_point("psd_embedded", 6, 6, 2, rng)
        xi = tangent_project(pt, rng.standard_normal((6, 6)))
        with np.errstate(over="ignore"), pytest.raises(np.linalg.LinAlgError,
                                                       match="non-finite"):
            truncate_sum(pt, [(1e308, xi)])


class TestOneForm:
    """The PSD kind is the symmetric case of the general factored form: a
    point's V is its U, and a tangent holds (S, Up), its Vp being its Up."""

    def test_library_made_psd_objects_share_their_factors(self):
        rng = np.random.default_rng(35)
        obj = random_approx_objective("psd", 6, 6, rng)
        pt = embed_point(random_point("psd_embedded", 6, 6, 2, rng).X, 2, "psd")
        points = [pt]
        tangents = [tangent_project(pt, rng.standard_normal((6, 6))),
                    riem_grad_embedded(pt, obj), *tangent_basis(pt)]
        for geometry, metric in geometry_metric_combos(PSD_QUOTIENTS):
            for z in (random_point(geometry, 6, 6, 2, rng), lift_point(pt, geometry)):
                points.append(z.point)
                tangents.append(forward_map(z, random_horizontal(z, metric, rng),
                                            metric))
        a, b, c = tangents[0], tangents[1], tangents[-1]
        tangents += [a + b, a - b, 0.5 * a, a * 2.0, -a]
        points += [truncate_sum(pt, [(1e-3, a), (1e-3, c)]), retract(pt, b, 1e-3)]
        for q in points:
            assert q.V is q.U and q.Vperp is q.Uperp
        for xi in tangents:
            assert len(xi.parts) == 2 and xi.Vp is xi.Up

    def test_general_tangent_sharing_its_zero_factors_adds_by_value(self):
        rng = np.random.default_rng(38)
        pt = random_point("gen_embedded", 5, 5, 2, rng)
        zero = np.zeros((5, 2))
        core = EmbeddedTangent(pt, (rng.standard_normal((2, 2)), zero, zero))
        xi = tangent_project(pt, rng.standard_normal((5, 5)))
        for got, want in [(core + xi, core.ambient() + xi.ambient()),
                          (xi - core, xi.ambient() - core.ambient())]:
            np.testing.assert_allclose(got.ambient(), want, atol=1e-12)

    @pytest.mark.parametrize("kind,parts", [("psd", 2), ("general", 3)])
    def test_tangent_refuses_a_wrong_part_count(self, kind, parts):
        # a PSD tangent is (S, Up), its Vp being its Up; a separate Vp would
        # stand for a non-symmetric matrix, whose flat() and norm() disagree
        rng = np.random.default_rng(36)
        pt = random_point(EMBEDDED[kind], 5, 5, 2, rng)
        xi = tangent_project(pt, rng.standard_normal((5, 5)))
        assert len(xi.parts) == parts
        for wrong in (xi.parts[:-1], xi.parts + (xi.Up.copy(),)):
            with pytest.raises(ValueError, match=f"a {kind} tangent has {parts} parts"):
                EmbeddedTangent(pt, wrong)

    def test_psd_point_needs_v_to_be_u(self):
        rng = np.random.default_rng(37)
        pt = random_point("psd_embedded", 5, 5, 2, rng)
        with pytest.raises(ValueError, match="V must be its U"):
            EmbeddedPoint("psd", pt.X, pt.U, pt.Sigma, pt.U.copy())


class TestTangentBasis:
    def test_psd_count(self):
        rng = np.random.default_rng(15)
        pt = random_point("psd_embedded", 5, 5, 2, rng)
        assert len(tangent_basis(pt)) == 9  # pr - r(r-1)/2

    def test_general_count(self):
        rng = np.random.default_rng(16)
        pt = random_point("gen_embedded", 4, 3, 2, rng)
        assert len(tangent_basis(pt)) == 10  # (p1 + p2 - r) r

    def test_orthonormal(self):
        rng = np.random.default_rng(17)
        for kind, p1, p2 in [("psd", 5, 5), ("general", 4, 3)]:
            basis = tangent_basis(random_point(EMBEDDED[kind], p1, p2, 2, rng))
            ambs = [b.ambient() for b in basis]
            gram = np.array([[np.sum(a * b) for b in ambs] for a in ambs])
            np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-12)


def test_orthogonal_complements_only_for_bases(monkeypatch):
    """Flows, the FOSP search, projection, the Hessian form and the maps L
    and L^-1 work on the factors U and V alone; only a basis builds U_perp."""
    calls = count_calls(monkeypatch, linalg.orth_complement)

    rng = np.random.default_rng(19)
    objs = {kind: make_matrix_approx(sym(rng.standard_normal((6, 6)))
                                     if kind == "psd" else rng.standard_normal((6, 5)),
                                     symmetric=kind == "psd")
            for kind in ("psd", "general")}
    # the two embedded sources and the four quotient pairs the CLI compares
    for geometry, metric in (("psd_embedded", None), ("psd_q1", "double-gram"),
                             ("psd_q2", "matched"), ("gen_embedded", None),
                             ("gen_q1", "crossed-gram"), ("gen_q3", "matched")):
        kind = kind_of(geometry)
        x0 = random_point(EMBEDDED[kind], 6, 5, 2, rng)
        integrate_flow(x0, objs[kind], (geometry, metric), 0.04, 0.01)
    for kind, obj in objs.items():
        find_fosp(obj, random_point(EMBEDDED[kind], 6, 5, 2, rng),
                  max_iter=20)
    for geometry, metric in geometry_metric_combos(ALL_QUOTIENTS):
        obj = objs[kind_of(geometry)]
        z = random_point(geometry, 6, 5, 2, rng)
        xi = forward_map(z, random_horizontal(z, metric, rng), metric)
        inverse_map(z, xi, metric)
        riem_hess_quad_embedded(z.point, obj, xi)
        tangent_project(z.point, rng.standard_normal(z.X.shape))
    assert calls == []

    tangent_basis(random_point("gen_embedded", 6, 5, 2, rng))
    assert [u.shape for u, in calls] == [(6, 2), (5, 2)]
