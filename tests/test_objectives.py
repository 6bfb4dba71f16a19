"""Euclidean objective oracles, validated against finite differences."""

import numpy as np
import pytest

from georank.linalg import sym
from georank.objectives import (
    load_matrix_csv,
    make_masked_completion,
    make_matrix_approx,
    make_matrix_sensing,
)

from util import finite_diff_directional, symmetrized_sensing


def _check_egrad_fd(obj, x, rng, n_dirs=20, rtol=1e-6):
    g = obj.egrad(x)
    worst = 0.0
    for _ in range(n_dirs):
        v = rng.standard_normal(x.shape)
        fd = finite_diff_directional(obj.value, x, v, 1, 1e-5)
        ref = float(np.sum(g * v))
        worst = max(worst, abs(fd - ref) / max(abs(ref), abs(fd), 1e-300))
    assert worst <= rtol


class TestMatrixApprox:
    def test_zero_target(self):
        obj = make_matrix_approx(np.zeros((2, 2)))
        assert obj.value(np.zeros((2, 2))) == 0.0
        np.testing.assert_array_equal(obj.egrad(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_diag_gradient(self):
        obj = make_matrix_approx(np.diag([3.0, 1.0]), symmetric=True)
        np.testing.assert_allclose(
            obj.egrad(np.diag([3.0, 0.0])), np.diag([0.0, -1.0])
        )

    def test_gradient_fd(self):
        rng = np.random.default_rng(0)
        obj = make_matrix_approx(rng.standard_normal((4, 3)))
        _check_egrad_fd(obj, rng.standard_normal((4, 3)), rng)

    def test_symmetric_flag_requires_symmetric_target(self):
        with pytest.raises(ValueError):
            make_matrix_approx(np.array([[0.0, 1.0], [0.0, 0.0]]), symmetric=True)

    def test_shape_guard(self):
        obj = make_matrix_approx(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            obj.value(np.zeros((3, 3)))


class TestMaskedCompletion:
    def test_full_mask_equals_approx(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 4))
        x = rng.standard_normal((3, 4))
        full = make_masked_completion(m, np.ones((3, 4)))
        ref = make_matrix_approx(m)
        assert abs(full.value(x) - ref.value(x)) < 1e-14
        np.testing.assert_allclose(full.egrad(x), ref.egrad(x))

    def test_empty_mask_is_zero(self):
        rng = np.random.default_rng(2)
        obj = make_masked_completion(rng.standard_normal((3, 3)), np.zeros((3, 3)))
        x = rng.standard_normal((3, 3))
        assert obj.value(x) == 0.0
        np.testing.assert_array_equal(obj.egrad(x), np.zeros((3, 3)))

    def test_hessian_matches_gradient_fd(self):
        rng = np.random.default_rng(3)
        mask = (rng.random((4, 4)) < 0.6).astype(float)
        obj = make_masked_completion(rng.standard_normal((4, 4)), mask)
        x = rng.standard_normal((4, 4))
        worst = 0.0
        for _ in range(10):
            z = rng.standard_normal((4, 4))
            h = 1e-5
            fd = (obj.egrad(x + h * z) - obj.egrad(x - h * z)) / (2 * h)
            hv = obj.ehess_vec(x, z)
            worst = max(worst, np.linalg.norm(fd - hv) / max(np.linalg.norm(hv), 1e-300))
        assert worst <= 1e-5

    def test_bad_mask_rejected(self):
        with pytest.raises(ValueError):
            make_masked_completion(np.zeros((2, 2)), 0.5 * np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        # every value of the objective would be NaN or inf
        m = np.zeros((3, 2))
        m[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            make_masked_completion(m, np.ones((3, 2)))


class TestMatrixSensing:
    @pytest.mark.parametrize("where", ["operators", "observations"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, where, bad):
        ops, obs = np.ones((2, 3, 3)), np.ones(2)
        (ops if where == "operators" else obs).flat[1] = bad
        with pytest.raises(ValueError, match="finite"):
            make_matrix_sensing(ops, obs)

    def test_single_operator(self):
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        obj = make_matrix_sensing([a], [0.0])
        assert abs(obj.value(np.eye(2)) - 0.5) < 1e-14
        np.testing.assert_allclose(obj.egrad(np.eye(2)), a)

    def test_consistent_system_is_stationary(self):
        rng = np.random.default_rng(4)
        xstar = rng.standard_normal((3, 3))
        ops = rng.standard_normal((6, 3, 3))
        obs = np.tensordot(ops, xstar, axes=([1, 2], [0, 1]))
        obj = make_matrix_sensing(ops, obs)
        assert obj.value(xstar) < 1e-24
        np.testing.assert_allclose(obj.egrad(xstar), 0, atol=1e-12)

    def test_gradient_fd(self):
        rng = np.random.default_rng(5)
        ops = rng.standard_normal((5, 3, 4))
        obj = make_matrix_sensing(ops, rng.standard_normal(5))
        _check_egrad_fd(obj, rng.standard_normal((3, 4)), rng)

    def test_symmetrized_flag(self):
        rng = np.random.default_rng(6)
        ops = rng.standard_normal((4, 3, 3))
        obj = make_matrix_sensing(ops, rng.standard_normal(4), symmetric=True)
        x = rng.standard_normal((3, 3))
        assert abs(obj.value(x) - obj.value(x.T)) < 1e-13
        xs = sym(x)
        g = obj.egrad(xs)
        np.testing.assert_allclose(g, g.T, atol=1e-13)


def _psd_sensing(p, rng, r=3):
    """Symmetric sensing data as the CLI draws it: 3 (2p) r operators, and
    the observations of a rank-r PSD truth. At p = 30 the unsymmetrized
    gradient of these operators is asymmetric in its last bits."""
    ops = rng.standard_normal((6 * p * r, p, p))
    a = rng.standard_normal((p, r))
    return ops, np.tensordot(ops, a @ a.T, axes=([1, 2], [0, 1]))


@pytest.mark.parametrize("p", [6, 30, 60])
def test_psd_sensing_is_the_symmetrized_objective_bit_for_bit(p):
    # symmetric operators and inputs: the value, gradient and Hessian image
    # are those of (f(X) + f(X^T))/2 to the last bit. On a stack the oracle
    # is not one sum: tensordot reads the stack as a view and its transpose
    # as a copy, so its two halves round differently, and the stack is held
    # to the oracle's rounding only
    rng = np.random.default_rng(p)
    ops, obs = _psd_sensing(p, rng)
    ops = sym(ops)
    obj = make_matrix_sensing(ops, obs, symmetric=True)
    value, egrad, ehess_vec = symmetrized_sensing(ops, obs)
    x, z = sym(rng.standard_normal((2, p, p)))
    assert obj.value(x) == value(x)
    assert np.array_equal(obj.egrad(x), egrad(x))
    assert np.array_equal(obj.ehess_vec(x, z), ehess_vec(x, z))
    stack = sym(rng.standard_normal((2, 3, p, p)))
    want = value(stack)
    assert np.all(np.abs(obj.value(stack) - want) <= 4 * np.finfo(float).eps * want)


@pytest.mark.parametrize("p", [6, 30, 60])
def test_psd_sensing_symmetrizes_raw_operators(p):
    # asymmetric operators: on symmetric inputs the objective is the
    # symmetrized one up to rounding
    rng = np.random.default_rng(100 + p)
    ops, obs = _psd_sensing(p, rng)
    obj = make_matrix_sensing(ops, obs, symmetric=True)
    value, egrad, ehess_vec = symmetrized_sensing(ops, obs)
    x, z = sym(rng.standard_normal((2, p, p)))
    stack = sym(rng.standard_normal((2, 3, p, p)))
    for got, want in [(obj.value(x), value(x)), (obj.value(stack), value(stack)),
                      (obj.egrad(x), egrad(x)), (obj.ehess_vec(x, z), ehess_vec(x, z))]:
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


class TestSharedInvariants:
    def _objectives(self, rng):
        mask = (rng.random((4, 4)) < 0.7).astype(float)
        ops = rng.standard_normal((5, 4, 4))
        return [
            make_matrix_approx(rng.standard_normal((4, 4))),
            make_masked_completion(rng.standard_normal((4, 4)), mask),
            make_matrix_sensing(ops, rng.standard_normal(5)),
            make_matrix_sensing(ops, rng.standard_normal(5), symmetric=True),
        ]

    def test_hessian_self_adjoint(self):
        rng = np.random.default_rng(7)
        for obj in self._objectives(rng):
            x = rng.standard_normal((4, 4))
            for _ in range(5):
                z1 = rng.standard_normal((4, 4))
                z2 = rng.standard_normal((4, 4))
                lhs = np.sum(obj.ehess_vec(x, z1) * z2)
                rhs = np.sum(z1 * obj.ehess_vec(x, z2))
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_hessian_linear(self):
        rng = np.random.default_rng(8)
        for obj in self._objectives(rng):
            x = rng.standard_normal((4, 4))
            z1 = rng.standard_normal((4, 4))
            z2 = rng.standard_normal((4, 4))
            lhs = obj.ehess_vec(x, 2.0 * z1 - 3.0 * z2)
            rhs = 2.0 * obj.ehess_vec(x, z1) - 3.0 * obj.ehess_vec(x, z2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_symmetric_objectives_transpose_invariant(self):
        rng = np.random.default_rng(9)
        m = sym(rng.standard_normal((4, 4)))
        mask = (rng.random((4, 4)) < 0.7).astype(float)
        mask = np.clip(np.triu(mask) + np.triu(mask).T, 0, 1)
        for obj in [
            make_matrix_approx(m, symmetric=True),
            make_masked_completion(m, mask, symmetric=True),
        ]:
            x = sym(rng.standard_normal((4, 4))) + 0.3 * rng.standard_normal((4, 4))
            assert abs(obj.value(x) - obj.value(x.T)) < 1e-12


@pytest.mark.parametrize("kind", ["approx", "completion", "sensing"])
@pytest.mark.parametrize("symmetric", [False, True])
def test_stacked_values_are_each_matrix_s(kind, symmetric):
    # value takes a stack on leading axes and returns one value per matrix;
    # one matrix still gives a float
    rng = np.random.default_rng(11)
    target = sym(rng.standard_normal((4, 4)))
    if kind == "approx":
        obj = make_matrix_approx(target, symmetric=symmetric)
    elif kind == "completion":
        mask = (rng.random((4, 4)) < 0.7).astype(float)
        obj = make_masked_completion(target, np.maximum(mask, mask.T), symmetric=symmetric)
    else:
        obj = make_matrix_sensing(rng.standard_normal((6, 4, 4)), rng.standard_normal(6),
                                  symmetric=symmetric)
    xs = rng.standard_normal((2, 3, 4, 4))
    values = obj.value(xs)
    assert values.shape == (2, 3)
    for i in np.ndindex(2, 3):
        single = obj.value(xs[i])
        assert type(single) is float
        assert abs(values[i] - single) <= 1e-13 * abs(single)
    with pytest.raises(ValueError, match="expects shape"):
        obj.value(xs[..., :3])


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    m = rng.standard_normal((3, 4))
    path = tmp_path / "target.csv"
    np.savetxt(path, m, delimiter=",")
    np.testing.assert_allclose(load_matrix_csv(path), m, atol=1e-12)


def test_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\nfoo,bar\n")
    with pytest.raises(ValueError):
        load_matrix_csv(path)
