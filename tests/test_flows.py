"""Gradient flows in ambient coordinates and their cross-geometry identities."""

import numpy as np
import pytest

from georank import embedded
from georank.embedded import project_rank_r
from georank.flows import (
    compare_flows,
    flow_field,
    integrate_flow,
)
from georank.linalg import sym
from georank.objectives import make_masked_completion, make_matrix_approx
from georank.quotient import EMBEDDED, lift_point, metric_inner, riem_grad_quotient

from util import (GEN_QUOTIENTS, PSD_QUOTIENTS, count_calls, dense_flow_states,
                  geometry_metric_combos, random_objective, random_point)

PSD_M = np.diag([3.0, 2.0, 1.0, 0.5])
GEN_M = np.vstack([np.diag([3.0, 2.0, 1.0]), np.zeros((1, 3))])


def _psd_setup(rng, r=2):
    obj = make_matrix_approx(PSD_M, symmetric=True)
    a = rng.standard_normal((4, r))
    return obj, project_rank_r(a @ a.T, r, "psd")


def _gen_setup(rng, r=2):
    obj = make_matrix_approx(GEN_M)
    x0 = project_rank_r(
        rng.standard_normal((4, r)) @ rng.standard_normal((r, 3)), r, "general"
    )
    return obj, x0


class TestFlowField:
    def test_identical_pairs_pointwise(self):
        rng = np.random.default_rng(0)
        obj, pt = _psd_setup(rng)
        a = flow_field(pt, obj, ("psd_embedded", None)).ambient()
        b = flow_field(pt, obj, ("psd_q2", "matched")).ambient()
        np.testing.assert_allclose(a, b, atol=1e-12)
        objg, ptg = _gen_setup(rng)
        a = flow_field(ptg, objg, ("gen_embedded", None)).ambient()
        b = flow_field(ptg, objg, ("gen_q3", "matched")).ambient()
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_q1_difference_is_double_projection(self):
        rng = np.random.default_rng(1)
        obj, pt = _psd_setup(rng)
        diff = flow_field(pt, obj, ("psd_embedded", None)).ambient() - flow_field(
            pt, obj, ("psd_q1", "double-gram")
        ).ambient()
        pu = pt.U @ pt.U.T
        np.testing.assert_allclose(diff, pu @ obj.egrad(pt.X) @ pu, atol=1e-12)
        objg, ptg = _gen_setup(rng)
        diffg = flow_field(ptg, objg, ("gen_embedded", None)).ambient() - flow_field(
            ptg, objg, ("gen_q1", "crossed-gram")
        ).ambient()
        pu = ptg.U @ ptg.U.T
        pv = ptg.V @ ptg.V.T
        np.testing.assert_allclose(diffg, pu @ objg.egrad(ptg.X) @ pv, atol=1e-12)

    def test_embedded_field_is_negative_gradient(self):
        rng = np.random.default_rng(2)
        obj, pt = _psd_setup(rng)
        from georank.embedded import riem_grad_embedded

        np.testing.assert_allclose(
            flow_field(pt, obj, ("psd_embedded", None)).ambient(),
            -riem_grad_embedded(pt, obj).ambient(),
            atol=1e-13,
        )

    def test_unknown_source_rejected(self):
        rng = np.random.default_rng(3)
        obj, pt = _psd_setup(rng)
        for source in (("psd_q1", "nope"), ("psd_q1", None), ("nope", None)):
            with pytest.raises(ValueError):
                flow_field(pt, obj, source)

    def test_every_family_flow_descends_at_the_quotient_rate(self):
        # d/dt f(X) = <nabla f, -L(grad h)> = -g(grad h, grad h): the field is
        # the image under L of the negative gradient lift
        rng = np.random.default_rng(12)
        cases = {"psd": (6, 6, PSD_QUOTIENTS), "general": (6, 5, GEN_QUOTIENTS)}
        worst = 0.0
        for kind, (p1, p2, quotients) in cases.items():
            for r in (1, 2, 3):
                for name in ("approx", "completion"):
                    obj = random_objective(kind, p1, p2, name, rng)
                    pt = random_point(EMBEDDED[kind], p1, p2, r, rng)
                    nabla = obj.egrad(pt.X)
                    if kind == "psd":
                        nabla = sym(nabla)
                    for geo, met in geometry_metric_combos(quotients):
                        z = lift_point(pt, geo)
                        grad = riem_grad_quotient(z, obj, met)
                        rate = -metric_inner(z, grad, grad, met)
                        field = flow_field(pt, obj, (geo, met.name)).ambient()
                        err = abs(np.sum(nabla * field) - rate) / abs(rate)
                        worst = max(worst, err)
        assert worst <= 1e-12

    def test_kind_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        _, pt = _psd_setup(rng)
        obj = make_matrix_approx(PSD_M, symmetric=True)
        with pytest.raises(ValueError):
            flow_field(pt, obj, ("gen_embedded", None))


class TestIntegrateFlow:
    def test_zero_field_constant_trace(self):
        rng = np.random.default_rng(5)
        pt = random_point("psd_embedded", 4, 4, 2, rng)
        zero_obj = make_masked_completion(np.zeros((4, 4)), np.zeros((4, 4)),
                                          symmetric=True)
        trace = integrate_flow(pt, zero_obj, ("psd_embedded", None), 0.2, 0.01)
        for x in trace.states:
            np.testing.assert_allclose(x, pt.X, atol=1e-12)

    def test_energy_decreases(self):
        rng = np.random.default_rng(6)
        obj, pt = _psd_setup(rng)
        for source in (("psd_embedded", None), ("psd_q2", "polar")):
            trace = integrate_flow(pt, obj, source, 1.0, 1e-2)
            energies = np.array([obj.value(x) for x in trace.states])
            assert np.all(np.diff(energies) <= 1e-12), source
            assert energies[-1] < energies[0], source

    def test_states_stay_rank_r(self):
        rng = np.random.default_rng(7)
        obj, pt = _psd_setup(rng)
        trace = integrate_flow(pt, obj, ("psd_q1", "double-gram"), 0.5, 1e-2)
        for x in trace.states[::10]:
            s = np.linalg.svd(x, compute_uv=False)
            assert s[1] > 1e-10 * s[0]
            resid = np.linalg.norm(project_rank_r(x, 2, "psd").X - x)
            assert resid <= 1e-10 * max(np.linalg.norm(x), 1.0)

    def test_richardson_order(self):
        # halving dt should cut the trajectory error ~16x (RK4)
        rng = np.random.default_rng(8)
        obj, pt = _psd_setup(rng)
        ref = integrate_flow(pt, obj, ("psd_embedded", None), 0.5, 0.0025)
        e = []
        for dt in (0.02, 0.01):
            tr = integrate_flow(pt, obj, ("psd_embedded", None), 0.5, dt)
            e.append(np.linalg.norm(tr.states[-1] - ref.states[-1]))
        assert e[0] / e[1] > 8.0

    def test_rank_collapse_returns_partial_trace(self):
        # flowing toward a rank-1 target drives sigma_2 to zero exponentially
        # while sigma_1 stays near 1, so the rank-gap tolerance must trip
        obj = make_matrix_approx(np.diag([1.0, 0.0, 0.0]), symmetric=True)
        x0 = project_rank_r(np.diag([1.0, 1e-8, 0.0]), 2, "psd")
        trace = integrate_flow(x0, obj, ("psd_embedded", None), 50.0, 0.05)
        assert trace.degenerate
        assert len(trace.states) >= 1
        assert "rank" in trace.message

    def test_no_step_rejected(self):
        # round(T / dt) = 0 steps would return a one-state trace that
        # compares nothing
        rng = np.random.default_rng(13)
        obj, pt = _psd_setup(rng)
        with pytest.raises(ValueError, match="no RK4 step"):
            integrate_flow(pt, obj, ("psd_embedded", None), 0.004, 0.01)

    def test_trace_keeps_the_points_of_its_states(self):
        rng = np.random.default_rng(14)
        obj, pt = _gen_setup(rng)
        trace = integrate_flow(pt, obj, ("gen_q1", "crossed-gram"), 0.05, 0.01)
        assert trace.points[0] is pt
        assert len(trace.points) == len(trace.times) == 6
        for point, x in zip(trace.points, trace.states):
            assert point.X is x


def _sources(kind):
    quotients = PSD_QUOTIENTS if kind == "psd" else GEN_QUOTIENTS
    return [(EMBEDDED[kind], None)] + [
        (geo, met.name) for geo, met in geometry_metric_combos(quotients)]


@pytest.mark.parametrize("kind,p1,p2", [("psd", 6, 6), ("general", 6, 5)])
def test_factored_rk4_matches_the_dense_oracle(kind, p1, p2):
    """Every state of every source (2 embedded, 11 quotient families) agrees
    with RK4 on the ambient field re-factorized by dense projections."""
    rng = np.random.default_rng(15)
    obj = random_objective(kind, p1, p2, "completion", rng)
    x0 = random_point(EMBEDDED[kind], p1, p2, 2, rng)
    for source in _sources(kind):
        states = integrate_flow(x0, obj, source, 0.2, 0.02).states
        oracle = dense_flow_states(x0, obj, source, 0.2, 0.02)
        assert len(states) == len(oracle) == 11
        for x, want in zip(states, oracle):
            assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want), source


@pytest.mark.parametrize("kind,p1,p2,r", [("psd", 40, 40, 3), ("general", 30, 20, 2)])
def test_flows_decompose_no_ambient_matrix(monkeypatch, kind, p1, p2, r):
    """A flow step truncates from factors: no dense ``project_rank_r``, and
    no eigh or SVD of a matrix with min(p1, p2) rows and columns."""
    rng = np.random.default_rng(16)
    obj = random_objective(kind, p1, p2, "completion", rng)
    x0 = random_point(EMBEDDED[kind], p1, p2, r, rng)
    calls = count_calls(monkeypatch, embedded.project_rank_r)
    sizes = []
    for name in ("eigh", "svd"):
        original = getattr(np.linalg, name)

        def sized(a, *args, _original=original, **kwargs):
            sizes.append(min(np.shape(a)[-2:]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, sized)
    for source in _sources(kind):
        # steps small enough for the stiffest (gram-weighted) families
        trace = integrate_flow(x0, obj, source, 5e-4, 1e-4)
        assert len(trace.states) == 6 and not trace.degenerate, source
    assert len(calls) == 0
    assert sizes and max(sizes) < min(p1, p2)


class TestCompareFlows:
    def test_identical_pair_deviation(self):
        rng = np.random.default_rng(9)
        obj, pt = _psd_setup(rng)
        out = compare_flows(pt, obj, ("psd_embedded", None),
                            ("psd_q2", "matched"), 1.0, 1e-3)
        assert out["max_deviation"] <= 1e-9

    def test_gen_identical_pair_deviation(self):
        rng = np.random.default_rng(10)
        obj, pt = _gen_setup(rng)
        out = compare_flows(pt, obj, ("gen_embedded", None),
                            ("gen_q3", "matched"), 1.0, 1e-3)
        assert out["max_deviation"] <= 1e-9

    def test_q1_pair_deviation_positive_but_field_identity_exact(self):
        rng = np.random.default_rng(11)
        obj, pt = _psd_setup(rng)
        out = compare_flows(pt, obj, ("psd_embedded", None),
                            ("psd_q1", "double-gram"), 1.0, 1e-2)
        assert out["max_deviation"] > 1e-4  # genuinely different trajectories
        for x in out["trace_a"].states[::20]:
            p = project_rank_r(x, 2, "psd")
            d = flow_field(p, obj, ("psd_embedded", None)).ambient() - flow_field(
                p, obj, ("psd_q1", "double-gram")
            ).ambient()
            pu = p.U @ p.U.T
            resid = np.linalg.norm(d - pu @ obj.egrad(p.X) @ pu)
            assert resid <= 1e-10 * max(1.0, np.linalg.norm(d))
