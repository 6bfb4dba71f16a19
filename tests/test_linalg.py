"""Dense linear-algebra utilities.

Independent oracles: scipy.linalg.solve_sylvester (Bartels-Stewart) for the
Kronecker and the factored symmetric solvers, scipy.linalg.eigh(H, G) for
the whitened pencil solver.
"""

import numpy as np
import pytest
import scipy.linalg

from georank.linalg import (
    ConditioningError,
    SymmetricSylvester,
    gen_sym_eig,
    orth_complement,
    skew,
    solve_sylvester,
    spd_functions,
    sym,
)

from util import finite_diff_directional, polarize


class TestSymSkew:
    def test_sym_definition(self):
        np.testing.assert_allclose(
            sym([[1.0, 2.0], [3.0, 4.0]]), [[1.0, 2.5], [2.5, 4.0]]
        )

    def test_sym_fixed_point_and_zero(self):
        s = np.array([[2.0, -1.0], [-1.0, 5.0]])
        np.testing.assert_array_equal(sym(s), s)
        np.testing.assert_array_equal(sym(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_skew_definition(self):
        np.testing.assert_allclose(
            skew([[1.0, 2.0], [3.0, 4.0]]), [[0.0, -0.5], [0.5, 0.0]]
        )

    def test_skew_on_symmetric_and_skew(self):
        s = np.array([[2.0, -1.0], [-1.0, 5.0]])
        np.testing.assert_array_equal(skew(s), np.zeros((2, 2)))
        k = np.array([[0.0, 3.0], [-3.0, 0.0]])
        np.testing.assert_array_equal(skew(k), k)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal((5, 5))
            np.testing.assert_allclose(sym(x) + skew(x), x, atol=1e-15)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            sym(np.ones((2, 3)))
        with pytest.raises(ValueError):
            skew(np.ones((2, 3)))


class TestSylvester:
    def test_scaled_identity(self):
        x = solve_sylvester(2 * np.eye(2), 2 * np.eye(2), np.diag([4.0, 8.0]))
        np.testing.assert_allclose(x, np.diag([1.0, 2.0]), atol=1e-13)

    def test_diagonal_decoupling(self):
        a, b = np.diag([1.0, 2.0]), np.diag([3.0, 4.0])
        x = solve_sylvester(a, b, np.ones((2, 2)))
        expected = [[1 / 4, 1 / 5], [1 / 5, 1 / 6]]
        np.testing.assert_allclose(x, expected, atol=1e-14)

    def test_spd_symmetric_case(self):
        rng = np.random.default_rng(1)
        c0 = rng.standard_normal((4, 4))
        a = c0 @ c0.T + 2 * np.eye(4)
        c = sym(rng.standard_normal((4, 4)))
        x = solve_sylvester(a, a, c)
        np.testing.assert_allclose(x, x.T, atol=1e-12)
        resid = np.linalg.norm(a @ x + x @ a - c)
        assert resid <= 1e-10 * (2 * np.linalg.norm(a, 2)) * np.linalg.norm(x)

    def test_residual_invariant_many_instances(self):
        # well-separated random instances up to 20x20
        rng = np.random.default_rng(2)
        for _ in range(1000):
            m = int(rng.integers(1, 21))
            n = int(rng.integers(1, 21))
            a = rng.standard_normal((m, m)) + 6 * np.eye(m)
            b = rng.standard_normal((n, n)) + 6 * np.eye(n)
            c = rng.standard_normal((m, n))
            x = solve_sylvester(a, b, c)
            scale = np.linalg.norm(a, 2) + np.linalg.norm(b, 2)
            resid = np.linalg.norm(a @ x + x @ b - c)
            assert resid <= 1e-10 * scale * max(np.linalg.norm(x), 1e-10)

    def test_against_bartels_stewart(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            a = rng.standard_normal((5, 5)) + 4 * np.eye(5)
            b = rng.standard_normal((3, 3)) + 4 * np.eye(3)
            c = rng.standard_normal((5, 3))
            ours = solve_sylvester(a, b, c)
            ref = scipy.linalg.solve_sylvester(a, b, c)
            np.testing.assert_allclose(ours, ref, atol=1e-10)

    def test_overlapping_spectra_rejected(self):
        a = np.diag([1.0, 2.0])
        with pytest.raises(ConditioningError):
            solve_sylvester(a, -a, np.ones((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_sylvester(np.eye(2), np.eye(3), np.ones((3, 2)))


def _symmetric_with_spectrum(eigs, rng):
    q, _ = np.linalg.qr(rng.standard_normal((len(eigs), len(eigs))))
    return sym((q * eigs) @ q.T)


class TestSymmetricSylvester:
    # eigenvalue intervals of A and of B; in the indefinite case A's in
    # [-3, -1] u [6, 8] and B's in [4, 5] u [-4.5, -4] keep every
    # la_i + lb_j at least 1 away from 0
    SPECTRA = {
        "spd": ([(1.0, 4.0)], [(1.0, 4.0)]),
        "indefinite": ([(-3.0, -1.0), (6.0, 8.0)], [(4.0, 5.0), (-4.5, -4.0)]),
    }

    @staticmethod
    def _draw(intervals, n, rng):
        lo, hi = np.array(intervals)[rng.integers(0, len(intervals), n)].T
        return _symmetric_with_spectrum(rng.uniform(lo, hi), rng)

    @pytest.mark.parametrize("case", ["spd", "indefinite"])
    def test_agrees_with_bartels_stewart_and_kronecker(self, case):
        rng = np.random.default_rng(7)
        spec_a, spec_b = self.SPECTRA[case]
        sizes = [(1, 1), (1, 5), (20, 20), (20, 3)]
        sizes += [tuple(int(k) for k in rng.integers(1, 21, 2)) for _ in range(40)]
        for m, n in sizes:
            a, b = self._draw(spec_a, m, rng), self._draw(spec_b, n, rng)
            c = rng.standard_normal((m, n))
            x = SymmetricSylvester(a, b).solve(c)
            for ref in (scipy.linalg.solve_sylvester(a, b, c), solve_sylvester(a, b, c)):
                np.testing.assert_allclose(x, ref, rtol=0,
                                           atol=1e-10 * max(1.0, np.max(np.abs(ref))))

    def test_one_factor_serves_every_right_hand_side(self):
        rng = np.random.default_rng(8)
        a = self._draw([(1.0, 4.0)], 4, rng)
        op = SymmetricSylvester(a, a)
        for _ in range(5):
            c = rng.standard_normal((4, 4))
            x = op.solve(c)
            assert np.linalg.norm(a @ x + x @ a - c) <= 1e-12 * np.linalg.norm(c)

    def test_overlapping_spectra_rejected(self):
        a = np.diag([1.0, 2.0])
        with pytest.raises(ConditioningError):
            SymmetricSylvester(a, -a)

    def test_shape_mismatch(self):
        op = SymmetricSylvester(np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            op.solve(np.ones((3, 2)))
        with pytest.raises(ValueError):
            SymmetricSylvester(np.ones((2, 3)), np.eye(3))

    def test_unsymmetric_coefficient_rejected(self):
        with pytest.raises(ValueError):
            SymmetricSylvester(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))


class TestOrthComplement:
    def test_e1_in_r2(self):
        u = np.array([[1.0], [0.0]])
        c = orth_complement(u)
        assert c.shape == (2, 1)
        assert abs(abs(c[1, 0]) - 1.0) < 1e-14 and abs(c[0, 0]) < 1e-14

    def test_full_basis_gives_empty(self):
        c = orth_complement(np.eye(4))
        assert c.shape == (4, 0)

    def test_random_complement(self):
        rng = np.random.default_rng(5)
        for p, r in [(6, 2), (8, 5), (7, 1)]:
            u = np.linalg.qr(rng.standard_normal((p, r)))[0]
            c = orth_complement(u)
            assert c.shape == (p, p - r)
            np.testing.assert_allclose(u.T @ c, 0, atol=1e-13)
            full = np.hstack([u, c])
            np.testing.assert_allclose(full.T @ full, np.eye(p), atol=1e-12)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            orth_complement(np.ones((3, 2)))


class TestSpdFunctions:
    def test_diagonal(self):
        out = spd_functions(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(out.sqrt, np.diag([2.0, 3.0]), atol=1e-13)
        np.testing.assert_allclose(out.inv, np.diag([0.25, 1 / 9]), atol=1e-13)
        np.testing.assert_allclose(out.inv_sqrt, np.diag([0.5, 1 / 3]), atol=1e-13)

    def test_identity(self):
        out = spd_functions(np.eye(3))
        for m in out:
            np.testing.assert_allclose(m, np.eye(3), atol=1e-14)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(6)
        c = rng.standard_normal((5, 5))
        b = c @ c.T + 0.5 * np.eye(5)
        out = spd_functions(b)
        np.testing.assert_allclose(out.sqrt @ out.sqrt, b,
                                   atol=1e-10 * np.linalg.norm(b))
        np.testing.assert_allclose(out.inv @ b, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(out.inv_sqrt @ b @ out.inv_sqrt, np.eye(5),
                                   atol=1e-10)

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError):
            spd_functions(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            spd_functions(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestGenSymEig:
    def test_diagonal_ratio(self):
        w, _ = gen_sym_eig(np.diag([2.0, 6.0]), np.diag([1.0, 2.0]))
        np.testing.assert_allclose(w, [3.0, 2.0], atol=1e-13)

    def test_identity_gram(self):
        rng = np.random.default_rng(7)
        h = sym(rng.standard_normal((5, 5)))
        w, v = gen_sym_eig(h, np.eye(5))
        ref = np.sort(np.linalg.eigvalsh(h))[::-1]
        np.testing.assert_allclose(w, ref, atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(5), atol=1e-12)

    def test_whitening_oracle(self):
        rng = np.random.default_rng(8)
        h = sym(rng.standard_normal((4, 4)))
        c = rng.standard_normal((4, 4))
        g = c @ c.T + 0.5 * np.eye(4)
        w, v = gen_sym_eig(h, g)
        ref = np.sort(scipy.linalg.eigh(h, g, eigvals_only=True))[::-1]
        np.testing.assert_allclose(w, ref, atol=1e-11)
        # eigenvectors solve the pencil and are G-orthonormal
        np.testing.assert_allclose(h @ v, g @ v @ np.diag(w), atol=1e-10)
        np.testing.assert_allclose(v.T @ g @ v, np.eye(4), atol=1e-11)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            h = sym(rng.standard_normal((4, 4)))
            cc = rng.standard_normal((4, 4))
            g = cc @ cc.T + np.eye(4)
            c = rng.standard_normal((4, 4)) + 2 * np.eye(4)
            w1, _ = gen_sym_eig(h, g)
            w2, _ = gen_sym_eig(c.T @ h @ c, c.T @ g @ c)
            np.testing.assert_allclose(w1, w2, rtol=1e-10, atol=1e-12)

    def test_non_spd_gram_rejected(self):
        with pytest.raises(ConditioningError):
            gen_sym_eig(np.eye(2), np.diag([1.0, 0.0]))


class TestFiniteDiff:
    def test_quadratic_order1_exact(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 3))
        v = rng.standard_normal((3, 3))
        fn = lambda m: 0.5 * np.sum(m**2)
        out = finite_diff_directional(fn, x, v, 1, 1e-4)
        assert abs(out - np.sum(x * v)) < 1e-8

    def test_quadratic_order2_exact(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 3))
        v = rng.standard_normal((3, 3))
        fn = lambda m: 0.5 * np.sum(m**2)
        out = finite_diff_directional(fn, x, v, 2, 1e-4)
        assert abs(out - np.sum(v**2)) < 1e-6

    def test_cubic_trace(self):
        # d/dt tr((I + tV)^3) = 3 tr(X^2 V) = 6 at X = V = I_2
        fn = lambda m: np.trace(m @ m @ m)
        out = finite_diff_directional(fn, np.eye(2), np.eye(2), 1, 1e-4)
        assert abs(out - 6.0) < 1e-6

    def test_bad_step_and_order(self):
        fn = lambda m: float(np.sum(m))
        with pytest.raises(ValueError):
            finite_diff_directional(fn, np.eye(2), np.eye(2), 1, 0.0)
        with pytest.raises(ValueError):
            finite_diff_directional(fn, np.eye(2), np.eye(2), 3, 1e-4)


def test_polarize_recovers_bilinear():
    rng = np.random.default_rng(12)
    a = sym(rng.standard_normal((4, 4)))
    quad = lambda v: float(v @ a @ v)
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    assert abs(polarize(quad, x, y) - x @ a @ y) < 1e-12
