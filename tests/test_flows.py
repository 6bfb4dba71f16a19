"""Gradient flows in ambient coordinates and their cross-geometry identities."""

import tracemalloc

import numpy as np
import pytest

from georank.cli import FLOW_PAIRS

from georank import embedded, quotient
from georank.embedded import project_rank_r
from georank.flows import (
    compare_flows,
    flow_field,
    integrate_flow,
)
from georank.linalg import RankError, sym
from georank.objectives import make_masked_completion, make_matrix_approx
from georank.quotient import EMBEDDED, lift_point, metric_inner, riem_grad_quotient

from util import (GEN_QUOTIENTS, PSD_QUOTIENTS, count_calls, dense_flow_states,
                  geometry_metric_combos, random_objective, random_point,
                  sequential_compare, trace_points, trace_states)

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
        for x in trace_states(trace):
            np.testing.assert_allclose(x, pt.X, atol=1e-12)

    def test_energy_decreases(self):
        rng = np.random.default_rng(6)
        obj, pt = _psd_setup(rng)
        for source in (("psd_embedded", None), ("psd_q2", "polar")):
            trace = integrate_flow(pt, obj, source, 1.0, 1e-2)
            energies = np.array([obj.value(x) for x in trace_states(trace)])
            assert np.all(np.diff(energies) <= 1e-12), source
            assert energies[-1] < energies[0], source

    def test_states_stay_rank_r(self):
        rng = np.random.default_rng(7)
        obj, pt = _psd_setup(rng)
        trace = integrate_flow(pt, obj, ("psd_q1", "double-gram"), 0.5, 1e-2)
        for x in trace_states(trace)[::10]:
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
            e.append(np.linalg.norm(trace_states(tr)[-1] - trace_states(ref)[-1]))
        assert e[0] / e[1] > 8.0

    @pytest.mark.parametrize("source", [("psd_embedded", None), ("psd_q2", "matched")],
                             ids=["psd_embedded", "psd_q2-matched"])
    def test_rank_collapse_returns_partial_trace(self, source):
        # flowing toward a rank-1 target drives sigma_2 to zero exponentially
        # while sigma_1 stays near 1, so the rank-gap tolerance must trip; the
        # matched flow is the embedded one and trips it at the same step, in
        # truncate_sum's rank test, at t = 4.6
        obj = make_matrix_approx(np.diag([1.0, 0.0, 0.0]), symmetric=True)
        x0 = project_rank_r(np.diag([1.0, 1e-8, 0.0]), 2, "psd")
        trace = integrate_flow(x0, obj, source, 50.0, 0.05)
        assert trace.degenerate
        assert len(trace_states(trace)) >= 1
        assert trace.message.startswith("rank collapse at t = ")
        out = compare_flows(x0, obj, ("psd_embedded", None), source, 50.0, 0.05)
        assert out["degenerate"]

    def test_a_refused_weight_inversion_ends_the_flow_as_rank_collapse(self, monkeypatch):
        # a matched step inverts B once per stage; refusing the first
        # inversion of the third step ends the flow there, as far as it got,
        # with the refusal as its cause, not as an exception
        rng = np.random.default_rng(8)
        obj, x0 = _psd_setup(rng)
        inverted, spd_functions = [], quotient.spd_functions

        def refusing_from_the_third_step(b):
            inverted.append(b)
            if len(inverted) > 8:
                raise RankError("matrix is not positive definite")
            return spd_functions(b)

        monkeypatch.setattr(quotient, "spd_functions", refusing_from_the_third_step)
        source = ("psd_q2", "matched")
        trace = integrate_flow(x0, obj, source, 0.5, 0.05)
        assert trace.degenerate and len(trace) == 3
        assert trace.message == "rank collapse at t = 0.1: matrix is not positive definite"
        inverted.clear()
        out = compare_flows(x0, obj, ("psd_embedded", None), source, 0.5, 0.05)
        assert out["degenerate"]

    def test_matched_flow_runs_as_far_as_the_embedded_one(self):
        # V_B = 2 B^2 squares the core's condition; its inverse is taken from
        # B^-1, so the SPD floor reads B's sigma_2 / sigma_1 = 1e-8 and the
        # start point is no refusal
        obj = make_matrix_approx(np.diag([1.0, 0.0, 0.0]), symmetric=True)
        x0 = project_rank_r(np.diag([1.0, 1e-8, 0.0]), 2, "psd")
        emb = integrate_flow(x0, obj, ("psd_embedded", None), 50.0, 0.05)
        matched = integrate_flow(x0, obj, ("psd_q2", "matched"), 50.0, 0.05)
        assert not matched.message.startswith("rank collapse at t = 0:")
        assert len(matched) == len(emb) > 1
        assert matched.message == emb.message

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
        assert trace_points(trace)[0] is pt
        assert len(trace) == len(trace_points(trace)) == len(trace.times) == 6
        assert len(trace.factors) == 5
        for i, (point, x) in enumerate(zip(trace_points(trace), trace_states(trace))):
            assert np.array_equal(point.X, x)
            assert np.array_equal(trace.point(i - 6).X, x)


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
        states = trace_states(integrate_flow(x0, obj, source, 0.2, 0.02))
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
        assert len(trace_states(trace)) == 6 and not trace.degenerate, source
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
        for x in trace_states(out["trace_a"])[::20]:
            p = project_rank_r(x, 2, "psd")
            d = flow_field(p, obj, ("psd_embedded", None)).ambient() - flow_field(
                p, obj, ("psd_q1", "double-gram")
            ).ambient()
            pu = p.U @ p.U.T
            resid = np.linalg.norm(d - pu @ obj.egrad(p.X) @ pu)
            assert resid <= 1e-10 * max(1.0, np.linalg.norm(d))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_matches_sequential(out, want):
    """``compare_flows``' result is the sequential oracle's, bit for bit, in
    every trace-a state's X, U, Sigma and V."""
    assert _same_bits(out["max_deviation"], want["max_deviation"])
    assert _same_bits(out["times"], want["times"])
    assert out["degenerate"] is want["degenerate"]
    trace, (times, points, degenerate, message) = out["trace_a"], want["trace_a"]
    assert _same_bits(trace.times, times)
    assert (trace.degenerate, trace.message) == (degenerate, message)
    assert len(trace) == len(points)
    for i, expected in enumerate(points):
        got = trace.point(i)
        for name in ("X", "U", "Sigma", "V"):
            assert _same_bits(getattr(got, name), getattr(expected, name)), (i, name)


@pytest.mark.parametrize("kind,p1,p2", [("psd", 6, 6), ("general", 6, 5)])
@pytest.mark.parametrize("name", ["approx", "completion"])
def test_lockstep_comparison_matches_the_sequential_oracle(kind, p1, p2, name):
    rng = np.random.default_rng(17)
    obj = random_objective(kind, p1, p2, name, rng)
    x0 = random_point(EMBEDDED[kind], p1, p2, 2, rng)
    emb, matched, q1 = FLOW_PAIRS[kind]
    for other in (matched, q1):
        out = compare_flows(x0, obj, emb, other, 1.0, 1e-2)
        want = sequential_compare(x0, obj, emb, other, 1.0, 1e-2)
        assert not want["degenerate"] and len(want["times"]) == 101
        _assert_matches_sequential(out, want)


# the rank-collapse setup of ``test_rank_collapse_returns_partial_trace``: the
# embedded flow collapses at t = 4.6, psd_q1/double-gram at t = 2.3, and the
# psd_q1/flat flow keeps rank 2 to t = 10
COLLAPSE = {"emb": ("psd_embedded", None), "gram": ("psd_q1", "double-gram"),
            "flat": ("psd_q1", "flat")}


@pytest.mark.parametrize("a,b,lengths", [
    ("flat", "emb", (201, 93)),  # only b degenerates: a runs to its own end
    ("emb", "flat", (93, 201)),  # only a degenerates
    ("emb", "gram", (93, 47)),  # both, b first
    ("gram", "emb", (47, 93)),  # both, a first
])
def test_one_sided_collapse_matches_the_sequential_oracle(a, b, lengths):
    obj = make_matrix_approx(np.diag([1.0, 0.0, 0.0]), symmetric=True)
    x0 = project_rank_r(np.diag([1.0, 1e-8, 0.0]), 2, "psd")
    out = compare_flows(x0, obj, COLLAPSE[a], COLLAPSE[b], 10.0, 0.05)
    want = sequential_compare(x0, obj, COLLAPSE[a], COLLAPSE[b], 10.0, 0.05)
    assert len(want["trace_a"][1]) == lengths[0]
    assert len(want["times"]) == min(lengths)
    assert want["degenerate"]
    _assert_matches_sequential(out, want)


def test_comparison_memory_does_not_grow_with_dense_states():
    """Ten times the steps adds only factor-sized states: the tracemalloc
    peak of ``compare_flows`` grows by at most 4 (p1 + p2) r doubles per
    extra step, where keeping each step's two p1 x p2 states would add
    2 p1 p2 (20 times as many at this size)."""
    p, r = 60, 3
    rng = np.random.default_rng(18)
    obj = random_objective("psd", p, p, "completion", rng)
    x0 = random_point("psd_embedded", p, p, r, rng)
    emb, matched, _ = FLOW_PAIRS["psd"]
    peaks = {}
    for n_steps in (20, 200):
        tracemalloc.start()
        try:
            out = compare_flows(x0, obj, emb, matched, n_steps * 1e-2, 1e-2)
            peaks[n_steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not out["degenerate"] and len(out["times"]) == n_steps + 1
    per_step = (peaks[200] - peaks[20]) / 180
    assert per_step <= 4 * (p + p) * r * 8, f"{per_step:.0f} bytes per extra step"
