"""Bijections between horizontal and embedded tangent spaces, their norm
bounds, and the stacked transports that ``bijection-roundtrip`` maps its
directions with."""

import copy
import os
import tracemalloc

import numpy as np
import pytest

from georank import cli, quotient
from georank.embedded import EmbeddedTangent, tangent_project
from georank.linalg import skew, sym
from georank.quotient import (
    HorizontalVector,
    metric_family,
    metric_inner,
    project_total_tangent,
    quotient_point,
    random_horizontal,
    vertical_project,
)
from georank.transport import forward_map, inverse_map, spectrum_bounds

from util import (
    ALL_QUOTIENTS,
    bijection_per_direction,
    dense_forward,
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


# every family at the sizes above, and at r = p and at a small p2 (r = p2)
STACK_SHAPES = {"psd": [(6, 6, 2), (3, 3, 3)],
                "general": [(5, 4, 2), (3, 3, 3), (7, 2, 2)]}
STACK_CASES = [pytest.param(geo, met, shape,
                            id=f"{geo}-{met.name}-{'x'.join(map(str, shape))}")
               for geo, met in geometry_metric_combos(ALL_QUOTIENTS)
               for shape in STACK_SHAPES[kind_of(geo)]]
N_STACK = 6


def _vector(stack, i):
    """Vector i of a stacked horizontal vector, in the stack's space."""
    return HorizontalVector(stack.base, tuple(a[i] for a in stack.parts), stack.space)


def _rel(a, b):
    a, b = np.ravel(a), np.ravel(b)
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def _stack_instance(geo, shape, seed=50):
    rng = np.random.default_rng(seed)
    return random_point(geo, *shape, rng), rng


class TestStacks:
    """A stack of n directions at one base point maps as n single vectors."""

    @pytest.mark.parametrize("geo,met,shape", STACK_CASES)
    def test_block_draw_is_the_stream_of_single_draws(self, geo, met, shape,
                                                        monkeypatch):
        z, rng = _stack_instance(geo, shape)
        twin = copy.deepcopy(rng)
        raws = []
        project = quotient.horizontal_project
        def recording(z, raw, metric):
            raws.append(raw)
            return project(z, raw, metric)

        monkeypatch.setattr(quotient, "horizontal_project", recording)
        stack = random_horizontal(z, met, rng, N_STACK)
        singles = [random_horizontal(z, met, twin) for _ in range(N_STACK)]
        assert rng.bit_generator.state == twin.bit_generator.state
        block, *single_raws = raws
        for i, raw in enumerate(single_raws):
            for a, b in zip(block, raw):
                assert np.array_equal(a[i], b)
        for i, single in enumerate(singles):
            assert hv_gap(_vector(stack, i), single) <= 1e-13

    @pytest.mark.parametrize("geo,met,shape", STACK_CASES)
    def test_stacked_maps_match_single_vectors(self, geo, met, shape):
        z, rng = _stack_instance(geo, shape)
        stack = random_horizontal(z, met, rng, N_STACK)
        xi = forward_map(z, stack, met)
        back = inverse_map(z, xi, met)
        q = metric_inner(z, stack, stack, met)
        flat, norms = xi.flat(), xi.norm()
        assert flat.shape[0] == q.shape[0] == norms.shape[0] == N_STACK
        for i in range(N_STACK):
            theta = _vector(stack, i)
            one = forward_map(z, theta, met)
            assert _rel(flat[i], one.flat()) <= 1e-13
            assert abs(norms[i] - one.norm()) <= 1e-13 * one.norm()
            assert hv_gap(_vector(back, i), inverse_map(z, one, met)) <= 1e-13
            single_q = metric_inner(z, theta, theta, met)
            assert abs(q[i] - single_q) <= 1e-13 * abs(single_q)
            assert abs(back.raw_norm()[i] - _vector(back, i).raw_norm()) <= (
                1e-13 * _vector(back, i).raw_norm())

    @pytest.mark.parametrize("geo,met,shape", STACK_CASES)
    def test_one_vector_stack_is_the_single_call(self, geo, met, shape):
        z, rng = _stack_instance(geo, shape)
        twin = copy.deepcopy(rng)
        stack = random_horizontal(z, met, rng, 1)
        single = random_horizontal(z, met, twin)
        assert all(a.shape == (1,) + b.shape for a, b in zip(stack.parts, single.parts))
        assert hv_gap(_vector(stack, 0), single) <= 1e-13
        assert _rel(forward_map(z, stack, met).flat()[0],
                    forward_map(z, single, met).flat()) <= 1e-13
        assert np.ndim(metric_inner(z, single, single, met)) == 0
        assert np.ndim(forward_map(z, single, met).norm()) == 0

    @pytest.mark.parametrize("geo,met,shape", STACK_CASES)
    def test_factored_forward_matches_the_dense_differential(self, geo, met, shape):
        z, rng = _stack_instance(geo, shape)
        stack = random_horizontal(z, met, rng, N_STACK)
        flat = forward_map(z, stack, met).flat()
        for i in range(N_STACK):
            assert _rel(flat[i], dense_forward(z, _vector(stack, i)).flat()) <= 1e-12

    @pytest.mark.parametrize("geo,met,shape", STACK_CASES)
    def test_gate_measures_each_vector_of_a_stack(self, geo, met, shape):
        # one nearly-zero vertical vector among unit horizontal ones: pooled
        # over the stack its defect would be about 1e-9, below the gate's
        # 1e-8; as its own vector it is wholly vertical
        z, rng = _stack_instance(geo, shape)
        stack = random_horizontal(z, met, rng, 4)
        parts = [a / stack.raw_norm()[:, None, None] for a in stack.parts]
        gauss = tuple(rng.standard_normal(f.shape) for f in z.factors)
        raw = project_total_tangent(z, gauss)
        vert = vertical_project(z, raw, met)
        scale = 1e-9 / np.sqrt(sum(np.sum(a**2) for a in vert))
        for a, v in zip(parts, vert):
            a[2] = scale * v
        forward_map(z, HorizontalVector(z, tuple(a[[0, 1, 3]] for a in parts)), met)
        with pytest.raises(ValueError, match="not horizontal"):
            forward_map(z, HorizontalVector(z, tuple(parts)), met)


BIJECTION = {
    "psd": {"kind": "approx", "case": "psd", "p1": 6, "r": 2},
    "general": {"kind": "approx", "case": "general", "p1": 6, "p2": 5, "r": 2},
}


def _bijection_inputs(problem, directions, seed=3):
    plan = cli._plan({"problem": problem, "trials": 2, "directions": directions})
    rng = np.random.default_rng(seed)
    return plan, cli._build_objective(plan.problem, rng), rng


class TestBijectionBlocks:
    """``bijection-roundtrip`` maps its directions in blocks of at most
    ``cli.DIRECTION_BLOCK``, which the per-direction loop of
    ``util.bijection_per_direction`` checks."""

    # 70 directions: one full block and a short one per trial
    @pytest.mark.parametrize("case", sorted(BIJECTION))
    def test_blocks_sample_what_the_per_direction_loop_samples(self, case):
        assert cli.DIRECTION_BLOCK < 70 < 2 * cli.DIRECTION_BLOCK
        plan, obj, rng = _bijection_inputs(BIJECTION[case], 70)
        twin = copy.deepcopy(rng)
        blocked = cli.cmd_bijection(plan, obj, rng)
        looped = bijection_per_direction(plan, obj, twin)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert [c["name"] for c in blocked] == [c["name"] for c in looped]
        for b, l in zip(blocked, looped):
            assert b["passed"] and l["passed"]
            assert b["details"]["vectors"] == l["details"]["vectors"] == 140
            for key in ("max_roundtrip_rel_err", "max_bound_violation"):
                assert abs(b["details"][key] - l["details"][key]) <= 1e-13

    def test_nan_in_one_direction_fails_its_row(self, monkeypatch):
        # every row maps its stacks through cli.forward_map; poison direction
        # 5 of each block
        def poisoned(z, theta, metric):
            xi = forward_map(z, theta, metric)
            s = xi.S.copy()
            s[5] = np.nan
            return EmbeddedTangent(xi.base, s, xi.Up, xi.Vp)

        monkeypatch.setattr(cli, "forward_map", poisoned)
        plan, obj, rng = _bijection_inputs(BIJECTION["general"], 20)
        checks = cli.cmd_bijection(plan, obj, rng)
        assert checks and not any(c["passed"] for c in checks)
        assert all(np.isnan(c["details"]["max_bound_violation"]) for c in checks)

    # D14's bounds mutants on the golden bijection configs (seed 3, 2 trials
    # of 20 directions): the rows each must fail, as at the per-direction loop
    MUTANTS = [("GenQ1", 1.0, 0.7, {"bijection/gen_q1/crossed-gram"}),
               ("PsdQ1", 1.3, 1.0, {"bijection/psd_q1/double-gram",
                                    "bijection/psd_q1/inverse-gram"}),
               ("GenQ3", 1.3, 1.0, {"bijection/gen_q3/flat",
                                    "bijection/gen_q3/matched"})]

    @pytest.mark.parametrize("cls,fa,fb,expected", MUTANTS, ids=[m[0] for m in MUTANTS])
    def test_bounds_mutants_fail_their_rows(self, cls, fa, fb, expected, monkeypatch):
        klass = getattr(quotient, cls)
        bounds = klass.bounds

        def mutant(self, z, wt):
            alpha, beta = bounds(self, z, wt)
            return fa * alpha, fb * beta

        monkeypatch.setattr(klass, "bounds", mutant)
        failed = set()
        for problem in BIJECTION.values():
            report, _ = cli.run("bijection-roundtrip",
                                {"problem": problem, "trials": 2, "directions": 20},
                                seed=3, out_path=os.devnull, no_timestamp=True)
            failed |= {c["name"] for c in report["checks"] if not c["passed"]}
        assert failed == expected


PSD_FAMILIES = list(geometry_metric_combos(("psd_q1", "psd_q2")))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStackMemory:
    def test_bijection_memory_does_not_grow_with_directions(self):
        # the benchmark's pointwise general config: 60 x 40, r = 4, 2 trials
        # of 300 directions; one direction's dense differential alone is
        # 19 KB, and one 300-vector stack traced 7.1 MB
        problem = {"kind": "completion", "case": "general", "p1": 60, "p2": 40, "r": 4}
        plan, obj, rng = _bijection_inputs(problem, 300, seed=1)
        assert _traced_peak(cli.cmd_bijection, plan, obj, rng) <= 2.5e6

    @pytest.mark.parametrize("geo,met", PSD_FAMILIES,
                             ids=lambda v: getattr(v, "name", v))
    def test_forward_map_forms_no_p_by_p_matrix(self, geo, met):
        z, rng = _stack_instance(geo, (400, 400, 2))
        stack = random_horizontal(z, met, rng, 8)
        assert _traced_peak(forward_map, z, stack, met) < 400 * 400 * 8
