"""One vector type for the embedded tangents and the horizontal vectors.

``embedded.Stack`` writes the arithmetic, ``len``, indexing and the
base-point check once. ``EmbeddedTangent`` and ``HorizontalVector`` add
only what their vectors are: a subclass that wrote its own ``-`` or
indexing would bring back a second copy of the rules, the one that once
had to keep a PSD tangent's Vp the same array as its Up.
"""

import numpy as np
import pytest

from georank.embedded import EmbeddedTangent, Stack, tangent_project
from georank.quotient import EMBEDDED, HorizontalVector, metric_family, random_horizontal

from util import plus, random_point

SHARED = ("__sub__", "__mul__", "__rmul__", "__neg__", "__len__", "__getitem__",
          "_combine", "check_base")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _library_stacks():
    return [cls for cls in _subclasses(Stack) if cls.__module__.startswith("georank.")]


def _restated(classes):
    """(class, method) for each shared method a class defines itself."""
    return [(cls.__name__, name) for cls in classes for name in SHARED if name in vars(cls)]


def test_the_library_has_two_stacks():
    assert set(_library_stacks()) == {EmbeddedTangent, HorizontalVector}


def test_guard_sees_an_override():
    class WithDifference(HorizontalVector):
        def __sub__(self, other):
            return self

    assert _restated([WithDifference, *_library_stacks()]) == [("WithDifference", "__sub__")]


def test_no_stack_restates_a_shared_method():
    assert _restated(_library_stacks()) == []


def _pair(kind, rng):
    """Two vectors at one point and one at another, of each class."""
    p1, p2 = (5, 5) if kind == "psd" else (5, 4)
    here, there = (random_point(EMBEDDED[kind], p1, p2, 2, rng) for _ in range(2))
    tangents = [tangent_project(pt, rng.standard_normal((p1, p2)))
                for pt in (here, here, there)]
    geo = "psd_q2" if kind == "psd" else "gen_q3"
    met = metric_family(geo, "matched")
    here, there = (random_point(geo, p1, p2, 2, rng) for _ in range(2))
    horizontals = [random_horizontal(z, met, rng) for z in (here, here, there)]
    return tangents, horizontals


@pytest.mark.parametrize("kind", ["psd", "general"])
def test_arithmetic_is_the_components_and_keeps_the_class(kind):
    rng = np.random.default_rng(41)
    for a, b, _ in _pair(kind, rng):
        for got, want in [(plus(a, b), [x + y for x, y in zip(a.parts, b.parts)]),
                          (a - b, [x - y for x, y in zip(a.parts, b.parts)]),
                          (2.0 * a, [2.0 * x for x in a.parts]),
                          (a * 2.0, [2.0 * x for x in a.parts]),
                          (-a, [-x for x in a.parts])]:
            assert type(got) is type(a) and got.base is a.base
            for x, y in zip(got.parts, want, strict=True):
                assert np.array_equal(x, y)
        stack = a._new(tuple(np.stack(p) for p in zip(a.parts, b.parts)))
        assert len(stack) == 2 and type(stack[1]) is type(a)
        with pytest.raises(TypeError, match="single vector"):
            len(a)


@pytest.mark.parametrize("kind", ["psd", "general"])
def test_arithmetic_across_points_is_refused(kind):
    rng = np.random.default_rng(42)
    for a, _, far in _pair(kind, rng):
        for op in (lambda: plus(a, far), lambda: a - far):
            with pytest.raises(ValueError, match="not based"):
                op()
