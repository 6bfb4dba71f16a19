"""The quotient forms derived from each geometry's factor-map chain: the
chain's differentials and partials against exact identities, the gradient
lift and the Hessian form against the hand-derived oracles in ``util``, the
Hessian matrix's entries against polarization, and the work done per
Hessian spectrum."""

import numpy as np
import pytest

from georank.landscape import hessian_spectrum
from georank.quotient import (
    EMBEDDED,
    REGISTRY,
    _ambient_gradient,
    gradient_lift_from_ambient,
    project_total_tangent,
    QuotientGeometry,
    random_horizontal,
    riem_hess_matrix_quotient,
    riem_hess_quad_quotient,
)

from util import (
    ALL_QUOTIENTS,
    counting,
    ehess_quad,
    geometry_metric_combos,
    hand_grad_lift,
    hand_hess_quad,
    kind_of,
    polarize,
    random_approx_objective,
    random_objective,
    random_point,
    stacked,
)

# r < min(p1, p2) only, r = 1 included. At r = p the derived and the hand
# forms differ by up to 1.7e-8 relative: both lose digits there, and a
# 60-digit mpmath evaluation of the same form was closer to the derived value
# in all six worst cases measured (hand error 2.2e-11 to 2.7e-8, derived
# error 7.7e-13 to 3.3e-9), so the hand form is no oracle at r = p.
SHAPES = {
    "psd": [(6, 6, 2), (5, 5, 1), (7, 7, 3)],
    "general": [(6, 5, 2), (5, 4, 1), (7, 3, 2), (4, 6, 2)],
}
PAIRS = [(geo, met.name) for geo, met in geometry_metric_combos(ALL_QUOTIENTS)]


def _cases(geo, rng):
    """(point, objective) at random non-stationary points of every shape."""
    kind = kind_of(geo)
    for p1, p2, r in SHAPES[kind]:
        for name in ("approx", "completion"):
            for _ in range(2):
                yield random_point(geo, p1, p2, r, rng), random_objective(kind, p1, p2, name, rng)


def _norm(parts):
    return np.sqrt(sum(np.sum(a**2) for a in parts))


def _term_scale(z, obj, met, theta):
    """|Hess f[D pi theta, D pi theta]| + |nabla f| |D^2 pi[theta, theta]|
    + |Dg[theta](theta, G)| + |Dg[G](theta, theta)|: the size of the form's
    terms, against which its rounding is judged."""
    geo, wt, t = REGISTRY[z.geometry], z.weights(met), theta.parts
    nabla = _ambient_gradient(z, obj.egrad(z.X))
    grad = geo.grad_lift(z, wt, nabla)
    return (abs(ehess_quad(obj, z.X, geo.differential(z, t)))
            + np.linalg.norm(nabla) * np.linalg.norm(geo.second(z, t))
            + abs(geo._dg(wt, geo._dw(z, wt, t), t, grad))
            + abs(geo._dg(wt, geo._dw(z, wt, grad), t, t)))


@pytest.mark.parametrize("geo,mname", PAIRS)
def test_form_and_lift_match_the_hand_derivations(geo, mname):
    met = REGISTRY[geo].families[mname]
    rng = np.random.default_rng(11)
    for z, obj in _cases(geo, rng):
        nabla = obj.egrad(z.X)
        lift = gradient_lift_from_ambient(z, met, nabla).parts
        hand = hand_grad_lift(z, met, nabla)
        gap = _norm([a - b for a, b in zip(lift, hand)])
        assert gap <= 1e-13 * _norm(hand), (z.X.shape, z.r, gap / _norm(hand))
        for _ in range(3):
            theta = random_horizontal(z, met, rng)
            derived = riem_hess_quad_quotient(z, obj, met, theta)
            oracle = hand_hess_quad(z, obj, met, theta)
            scale = _term_scale(z, obj, met, theta)
            assert abs(derived - oracle) <= 1e-12 * scale, (
                z.X.shape, z.r, derived, oracle, scale)


def _tangent(z, rng, step=0.5):
    raw = tuple(step * rng.standard_normal(f.shape) for f in z.factors)
    return project_total_tangent(z, raw)


@pytest.mark.parametrize("geo", ALL_QUOTIENTS)
def test_second_differential_is_the_exact_second_difference(geo):
    """pi is a product of at most three factors, so the central second
    difference pi(z + theta) + pi(z - theta) - 2 pi(z) equals
    D^2 pi[theta, theta] exactly, for any step."""
    chain, rng = REGISTRY[geo], np.random.default_rng(12)
    for p1, p2, r in SHAPES[kind_of(geo)]:
        z = random_point(geo, p1, p2, r, rng)
        theta = _tangent(z, rng)
        plus = chain._product(tuple(f + t for f, t in zip(z.factors, theta)))
        minus = chain._product(tuple(f - t for f, t in zip(z.factors, theta)))
        second = plus + minus - 2.0 * chain._product(z.factors)
        gap = np.linalg.norm(second - chain.second(z, theta))
        assert gap <= 1e-13 * np.linalg.norm(z.X), (p1, p2, r, gap)


@pytest.mark.parametrize("geo", ALL_QUOTIENTS)
def test_partials_are_adjoint_to_the_differential(geo):
    """<d_F nabla, eta_F> = <nabla, D pi[eta]> for eta nonzero only in F,
    for any ambient nabla (not only symmetric ones)."""
    chain, rng = REGISTRY[geo], np.random.default_rng(13)
    for p1, p2, r in SHAPES[kind_of(geo)]:
        z = random_point(geo, p1, p2, r, rng)
        nabla = rng.standard_normal(z.X.shape)
        for i, f in enumerate(z.factors):
            eta = tuple(rng.standard_normal(f.shape) if j == i else np.zeros(g.shape)
                        for j, g in enumerate(z.factors))
            d_f = chain.partial(z, nabla, i)
            diff = chain.differential(z, eta)
            lhs, rhs = np.sum(d_f * eta[i]), np.sum(nabla * diff)
            scale = max(np.linalg.norm(d_f) * np.linalg.norm(eta[i]),
                        np.linalg.norm(nabla) * np.linalg.norm(diff))
            assert abs(lhs - rhs) <= 1e-13 * scale, (p1, p2, r, i, lhs, rhs)


@pytest.mark.parametrize("geo,mname", [("psd_q2", "polar"), ("gen_q1", "crossed-gram"),
                                       (EMBEDDED["psd"], None), (EMBEDDED["general"], None)])
def test_spectrum_evaluates_the_gradient_a_fixed_number_of_times(geo, mname):
    """The Hessian matrix is built once per spectrum, so the gradient count
    does not grow with the basis dimension (it grew as d^2 with one gradient
    per form evaluation), and each row of the matrix takes one Euclidean
    Hessian product, d in all (one per upper-triangle entry took
    d(d+1)/2)."""
    met = None if mname is None else REGISTRY[geo].families[mname]
    kind, rng = kind_of(geo), np.random.default_rng(14)
    counts = []
    for p in (4, 7):
        p2 = p if kind == "psd" else p - 1
        z = random_point(geo, p, p2, 2, rng)
        obj, calls = counting(random_approx_objective(kind, p, p2, rng))
        d = hessian_spectrum(z, obj, met).dim
        assert calls["ehess_vec"] == d, (p, d, calls)
        counts.append(calls["egrad"])
    assert counts[0] == counts[1] <= 2, counts


def _counted_method(monkeypatch, name):
    """Record the vectors that each call of a ``QuotientGeometry`` method,
    which no geometry overrides, processes: the leading-axis length of the
    stacked components in its last argument, 1 for a single vector."""
    calls = []
    original = getattr(QuotientGeometry, name)

    def counted(self, *args):
        first = args[-1][0]
        calls.append(len(first) if first.ndim == 3 else 1)
        return original(self, *args)

    monkeypatch.setattr(QuotientGeometry, name, counted)
    return calls


@pytest.mark.parametrize("geo,mname", PAIRS + [(EMBEDDED["psd"], None),
                                               (EMBEDDED["general"], None)])
def test_spectrum_does_per_vector_work_once_per_vector(geo, mname, monkeypatch):
    """Per spectrum of dimension d: one Euclidean Hessian image per row, one
    differential and one set of weight derivatives per basis vector (plus
    the set along the gradient lift), and at most two gradients. The
    differentials and weight derivatives are counted by the vectors they
    process, whether one at a time or as a stack."""
    met = None if mname is None else REGISTRY[geo].families[mname]
    diffs = _counted_method(monkeypatch, "differential")
    dws = _counted_method(monkeypatch, "_dw")
    kind, rng = kind_of(geo), np.random.default_rng(16)
    p1, p2 = (6, 6) if kind == "psd" else (6, 5)
    z = random_point(geo, p1, p2, 2, rng)
    obj, calls = counting(random_objective(kind, p1, p2, "completion", rng))
    d = hessian_spectrum(z, obj, met).dim
    assert calls["ehess_vec"] == d, (d, calls)
    assert calls["egrad"] <= 2, calls
    quotient = met is not None
    assert sum(diffs) == (d if quotient else 0), (d, diffs)
    assert sum(dws) == (d + 1 if quotient else 0), (d, dws)


@pytest.mark.parametrize("geo,mname", PAIRS)
def test_bilinear_form_is_the_polarized_quadratic_form(geo, mname):
    """form(a, b) = form(b, a) = (Q(a+b) - Q(a-b))/4 with Q the quadratic
    form, to rounding of the four quadratic values. form(a, b) and form(b, a)
    come from two matrix builds, on [a, b] and on [b, a], so each is one
    evaluation with its own row vector."""
    met = REGISTRY[geo].families[mname]
    rng = np.random.default_rng(15)
    for z, obj in _cases(geo, rng):
        def quad(v):
            return riem_hess_quad_quotient(z, obj, met, v)

        a, b = random_horizontal(z, met, rng), random_horizontal(z, met, rng)
        scale = sum(abs(quad(v)) for v in (a, b, a + b, a - b))
        value = riem_hess_matrix_quotient(z, obj, met, stacked(a, b))[0, 1]
        swapped = riem_hess_matrix_quotient(z, obj, met, stacked(b, a))[0, 1]
        assert abs(value - swapped) <= 1e-12 * scale, (z.X.shape, z.r)
        assert abs(value - polarize(quad, a, b)) <= 1e-12 * scale, (z.X.shape, z.r)
