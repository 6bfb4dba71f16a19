"""One matched frame, one canonical lift and one metric for every quotient
geometry.

``QuotientGeometry`` derives the three from each geometry's chain, factor
kinds and weights, so no geometry class writes its own. The hand-written
formulas they replaced are oracles in ``util``: the derived lifts equal them
bit for bit, and so do the derived frames, except ``psd_q1``'s Sigma, which
is (U^T Y)(U^T Y)^T rather than U^T (Y Y^T) U.

Every quotient quantity is keyed by (point, metric family): no geometry
flags whether its horizontal space depends on the family, and each
``bounds`` reads the factors and the point's ``Weights`` record, with no
weight decomposed again (``src/georank/quotient.py`` is parsed, not imported).
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from georank.quotient import (
    EMBEDDED,
    REGISTRY,
    PsdQ2,
    QuotientGeometry,
    lift_point,
    metric_inner,
    random_horizontal,
    random_point,
)

from util import (
    ALL_QUOTIENTS,
    geometry_metric_combos,
    hand_frame,
    hand_inner,
    hand_lift,
    kind_of,
)

QUOTIENT = Path(__file__).resolve().parent.parent / "src" / "georank" / "quotient.py"
DERIVED = ("frame", "lift", "inner", "gram")
# (p1, p2, r): r = p, p2 < p1 (with r = p2) and p1 < p2
SHAPES = {"psd": [(6, 6, 2), (3, 3, 3), (5, 5, 1)],
          "general": [(7, 5, 2), (5, 3, 3), (4, 4, 4), (3, 6, 2)]}
CASES = [(geo, shape) for geo in ALL_QUOTIENTS for shape in SHAPES[kind_of(geo)]]


def _restated(geometries):
    """(class, method) for each derived method a geometry class overrides."""
    return [(type(geo).__name__, name) for geo in geometries for name in DERIVED
            if getattr(type(geo), name) is not getattr(QuotientGeometry, name)]


def test_guard_sees_an_override():
    class WithFrame(PsdQ2):
        def frame(self, factors):
            return None

    assert _restated([WithFrame(), *REGISTRY.values()]) == [("WithFrame", "frame")]


def test_no_geometry_restates_a_derived_method():
    assert _restated(REGISTRY.values()) == []


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _unkeyed(tree):
    """(line, what) of each ``metric_horizontal`` attribute a class sets and
    each ``spd_functions`` call inside a ``bounds`` method."""
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in ast.walk(cls):
            if (isinstance(getattr(node, "ctx", None), ast.Store)
                    and _name(node) == "metric_horizontal"):
                yield node.lineno, "metric_horizontal"
            if isinstance(node, ast.FunctionDef) and node.name == "bounds":
                yield from ((call.lineno, "spd_functions in bounds") for call in ast.walk(node)
                            if isinstance(call, ast.Call) and _name(call.func) == "spd_functions")


def test_guard_sees_an_unkeyed_geometry():
    tree = ast.parse("class G:\n"
                     "    metric_horizontal = True\n"
                     "    def bounds(self, z, wt):\n"
                     "        return linalg.spd_functions(wt.v)\n"
                     "class H:\n"
                     "    def __init__(self):\n"
                     "        self.metric_horizontal = False\n"
                     "    def bounds(self, z, wt):\n"
                     "        return spd_functions(wt.w)\n")
    assert sorted(_unkeyed(tree)) == [(2, "metric_horizontal"), (4, "spd_functions in bounds"),
                                      (7, "metric_horizontal"), (9, "spd_functions in bounds")]


def test_every_geometry_is_keyed_by_its_metric_family():
    assert list(_unkeyed(ast.parse(QUOTIENT.read_text()))) == []
    assert not any(hasattr(geo, "metric_horizontal") for geo in REGISTRY.values())


@pytest.mark.parametrize("geo,shape", CASES)
def test_derived_frame_is_the_hand_frame(geo, shape):
    for seed in range(3):
        z = random_point(geo, *shape, np.random.default_rng(seed))
        got, want = REGISTRY[geo].frame(z.factors), hand_frame(geo, z.factors)
        product = REGISTRY[geo]._product(z.factors)
        assert np.linalg.norm(got.X - product) <= 1e-12 * np.linalg.norm(product)
        assert np.array_equal(got.U, want.U) and np.array_equal(got.V, want.V)
        assert (got.V is got.U) == (kind_of(geo) == "psd")
        if geo == "psd_q1":
            for a, b in ((got.Sigma, want.Sigma), (got.X, want.X)):
                assert np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(b)
        else:
            assert np.array_equal(got.Sigma, want.Sigma) and np.array_equal(got.X, want.X)


@pytest.mark.parametrize("geo,shape", CASES)
def test_derived_lift_is_the_hand_lift(geo, shape):
    rng = np.random.default_rng(1)
    for _ in range(3):
        pt = random_point(EMBEDDED[kind_of(geo)], *shape, rng)
        z = lift_point(pt, geo)
        assert z.point is pt
        for got, want in zip(z.factors, hand_lift(geo, pt), strict=True):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("geo", ALL_QUOTIENTS)
def test_lift_of_a_non_spectral_frame_is_the_hand_lift_of_its_spectral_one(geo):
    # a quotient point's own frame has a full Sigma: the lift rebuilds a
    # spectral frame from X first
    rng = np.random.default_rng(2)
    shape = SHAPES[kind_of(geo)][0]
    pt = random_point("psd_q2" if kind_of(geo) == "psd" else "gen_q2", *shape, rng).point
    z = lift_point(pt, geo)
    assert z.point is not pt
    assert np.count_nonzero(z.point.Sigma - np.diag(np.diag(z.point.Sigma))) == 0
    for got, want in zip(z.factors, hand_lift(geo, z.point), strict=True):
        assert np.array_equal(got, want)


def test_metric_is_the_trace_formula():
    rng = np.random.default_rng(3)
    for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
        z = random_point(geo, *SHAPES[kind_of(geo)][0], rng)
        stack = random_horizontal(z, met, rng, 4)
        got = metric_inner(z, stack, stack[::-1], met)
        for k in range(4):
            want = hand_inner(z, met, stack[k], stack[3 - k])
            assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-14)
        assert metric_inner(z, stack[0], stack[1], met) == pytest.approx(
            hand_inner(z, met, stack[0], stack[1]), rel=1e-12, abs=1e-14)
