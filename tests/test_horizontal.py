"""Horizontal by construction.

The library functions that make horizontal vectors record the metric family
they were made under on the vector, and the functions that need a horizontal
input under that family trust that record. A vector built by the caller, or
one whose record names another family, is checked once by
``quotient.horizontal_vector``, which rejects any relative defect above 1e-8
and never re-projects.
"""

import numpy as np
import pytest

from georank import landscape, quotient, transport
from georank.embedded import tangent_project
from georank.landscape import analytic_fosps, hessian_spectrum, verify_sandwich
from georank.quotient import (
    IDENTITY,
    HorizontalVector,
    MetricFamily,
    Weight,
    horizontal_vector,
    lift_point,
    metric_choices,
    metric_family,
    project_total_tangent,
    random_horizontal,
    riem_hess_quad_quotient,
    vertical_project,
)
from georank.transport import forward_map, inverse_map

from util import (
    ALL_QUOTIENTS,
    embedded_spectrum,
    geometry_metric_combos,
    kind_of,
    plus,
    random_approx_objective,
    random_point,
)

SIZES = {"psd": (6, 6), "general": (5, 4)}
R = 2


def _instance(geometry, rng):
    p1, p2 = SIZES[kind_of(geometry)]
    return random_point(geometry, p1, p2, R, rng)


def _objective(geometry, rng):
    p1, p2 = SIZES[kind_of(geometry)]
    return random_approx_objective(kind_of(geometry), p1, p2, rng)


def _unit_vertical(z, metric, rng):
    """A vertical vector of unit Frobenius norm at z."""
    raw = project_total_tangent(
        z, tuple(rng.standard_normal(f.shape) for f in z.factors)
    )
    vert = vertical_project(z, raw, metric)
    norm = np.sqrt(sum(np.sum(v**2) for v in vert))
    return tuple(v / norm for v in vert)


def _rejected_by_both(z, obj, metric, theta):
    with pytest.raises(ValueError, match="not horizontal"):
        riem_hess_quad_quotient(z, obj, metric, theta)
    with pytest.raises(ValueError, match="not horizontal"):
        forward_map(z, theta, metric)


class TestCallerBuiltVectors:
    def test_near_miss_is_rejected_not_reprojected(self):
        # a vertical offset of 1e-7 relative: inside the band that was once
        # silently re-projected, above the 1e-8 gate
        rng = np.random.default_rng(50)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z, obj = _instance(geo, rng), _objective(geo, rng)
            theta = random_horizontal(z, met, rng)
            eps = 1e-7 * theta.raw_norm()
            parts = tuple(a + eps * v
                          for a, v in zip(theta.parts, _unit_vertical(z, met, rng)))
            with pytest.raises(ValueError, match="not horizontal"):
                horizontal_vector(z, *parts, metric=met)
            _rejected_by_both(z, obj, met, HorizontalVector(z, parts))

    def test_exact_copy_is_accepted_with_the_same_value(self):
        rng = np.random.default_rng(51)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z, obj = _instance(geo, rng), _objective(geo, rng)
            theta = random_horizontal(z, met, rng)
            copy = HorizontalVector(z, theta.parts)
            assert copy.space is None
            assert (riem_hess_quad_quotient(z, obj, met, copy)
                    == riem_hess_quad_quotient(z, obj, met, theta))
            np.testing.assert_array_equal(forward_map(z, copy, met).ambient(),
                                          forward_map(z, theta, met).ambient())

    def test_sum_with_a_caller_built_vector_is_rejected(self):
        rng = np.random.default_rng(52)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z, obj = _instance(geo, rng), _objective(geo, rng)
            theta = random_horizontal(z, met, rng)
            other = random_horizontal(z, met, rng)
            assert plus(theta, other).space is theta.space
            assert (theta - 2.0 * other).space is theta.space
            vert = _unit_vertical(z, met, rng)
            bad = HorizontalVector(z, tuple(0.1 * theta.raw_norm() * v for v in vert))
            mixed = plus(theta, bad)
            assert mixed.space is None
            _rejected_by_both(z, obj, met, mixed)


class TestRecordedSpace:
    def test_q1_vector_of_one_family_rejected_under_another(self):
        # the q1 horizontal spaces depend on the metric family
        rng = np.random.default_rng(53)
        for geo in ("psd_q1", "gen_q1"):
            z, obj = _instance(geo, rng), _objective(geo, rng)
            for made_for in metric_choices(geo):
                theta = random_horizontal(z, metric_family(geo, made_for), rng)
                for used_with in metric_choices(geo):
                    if used_with == made_for:
                        continue
                    met = metric_family(geo, used_with)
                    with pytest.raises(ValueError, match="not horizontal"):
                        horizontal_vector(z, *theta.parts, metric=met)
                    _rejected_by_both(z, obj, met, theta)

    def test_vector_of_one_family_passes_the_gate_once_under_another(self, monkeypatch):
        # the horizontal spaces of psd_q2, gen_q2 and gen_q3 do not depend
        # on the metric family: a vector made under one is checked once
        # under another, accepted and mapped to the same tangent. gen_q2 has
        # one family, so a second is made here
        rng = np.random.default_rng(56)
        calls = _counted_gate(monkeypatch)
        w_is_b = MetricFamily("gen_q2", "w-is-b", "V = I, W = B",
                              {"v": IDENTITY, "w": Weight("B", "B")})
        for geo in ("psd_q2", "gen_q2", "gen_q3"):
            z = _instance(geo, rng)
            families = [metric_family(geo, name) for name in metric_choices(geo)]
            families += [w_is_b] if geo == "gen_q2" else []
            for made_for in families:
                theta = random_horizontal(z, made_for, rng)
                want = forward_map(z, theta, made_for).ambient()
                for used_with in families:
                    if used_with is made_for:
                        continue
                    calls.clear()
                    got = forward_map(z, theta, used_with).ambient()
                    assert calls == [geo]
                    np.testing.assert_array_equal(got, want)

    def test_family_of_another_geometry_is_refused(self):
        # a vector records only a family checked against its point, so a
        # family of another geometry never matches it and reaches the check
        rng = np.random.default_rng(57)
        combos = list(geometry_metric_combos(ALL_QUOTIENTS))
        for geo, met in combos:
            z = _instance(geo, rng)
            theta = random_horizontal(z, met, rng)
            for other_geo, other in combos:
                if other_geo != geo:
                    with pytest.raises(ValueError, match=f"used with a {geo} point"):
                        forward_map(z, theta, other)

    def test_inverse_map_output_is_horizontal(self):
        rng = np.random.default_rng(54)
        for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
            z = _instance(geo, rng)
            xi = tangent_project(z.point, rng.standard_normal(z.X.shape))
            theta = inverse_map(z, xi, met)
            assert theta.space is not None
            horizontal_vector(z, *theta.parts, metric=met)


def _counted_gate(monkeypatch):
    """Replace every binding of the gate by a counting wrapper."""
    calls = []
    gate = quotient.horizontal_vector

    def counted(*args, **kwargs):
        calls.append(args[0].geometry)
        return gate(*args, **kwargs)

    for module in (quotient, transport, landscape):
        if getattr(module, "horizontal_vector", None) is gate:
            monkeypatch.setattr(module, "horizontal_vector", counted)
    return calls


def test_spectrum_and_sandwich_never_call_the_gate(monkeypatch):
    calls = _counted_gate(monkeypatch)
    rng = np.random.default_rng(55)
    fosps = {}
    for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
        kind = kind_of(geo)
        if kind not in fosps:
            obj = _objective(geo, rng)
            fosps[kind] = obj, list(analytic_fosps(obj, R))[0]
        obj, pt = fosps[kind]
        z = lift_point(pt, geo)
        # the counter sees a caller-built vector
        theta = random_horizontal(z, met, rng)
        riem_hess_quad_quotient(z, obj, met, HorizontalVector(z, theta.parts))
        assert calls == [geo]
        calls.clear()

        hessian_spectrum(z, obj, met)
        report = verify_sandwich(z, obj, met, embedded_spectrum(pt, obj))
        assert report["passed"]
        assert calls == []
