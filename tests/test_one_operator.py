"""Least-squares objectives are data: one ``Objective`` holds A and b.

Every objective is f(X) = 0.5 ||A(X) - b||^2, with A the identity, a 0/1
mask or a stack of measurement matrices, and ``Objective`` holds the
operator and the target as arrays. A callable field or a closure in
``objectives.py`` would hide A behind a function again, where the Hessian
builders cannot read its structure. Subclasses (such as the counting
objective of the tests) stay allowed. The closure guard parses
``objectives.py`` rather than importing it.
"""

import ast
from dataclasses import fields
from pathlib import Path

import numpy as np

from georank.objectives import Objective, make_matrix_sensing

from util import counting, random_objective

SOURCE = Path(__file__).resolve().parent.parent / "src" / "georank" / "objectives.py"


def _closures(tree):
    """Line numbers of each lambda, and of each function defined inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda):
            yield node.lineno
        elif isinstance(node, ast.FunctionDef):
            yield from (inner.lineno for inner in ast.walk(node)
                        if inner is not node and isinstance(inner, ast.FunctionDef))


def _callable_fields(obj):
    return [f.name for f in fields(obj) if callable(getattr(obj, f.name))]


def test_guard_sees_a_closure():
    tree = ast.parse("def make(m):\n"
                     "    def value(x):\n"
                     "        return x - m\n"
                     "    return value\n"
                     "grad = lambda x: x\n")
    assert sorted(_closures(tree)) == [2, 5]


def test_guard_allows_methods():
    tree = ast.parse("class Objective:\n"
                     "    def value(self, x):\n"
                     "        return x\n")
    assert list(_closures(tree)) == []


def test_objectives_define_no_closure():
    found = sorted(_closures(ast.parse(SOURCE.read_text())))
    assert not found, f"lambda or nested function in objectives.py at lines {found}"


def test_guard_sees_a_callable_field():
    class WithFunction(Objective):
        pass

    obj = WithFunction("approx", (2, 2), False, np.zeros((2, 2)), np.sin)
    assert _callable_fields(obj) == ["op"]


def test_no_objective_field_is_callable():
    rng = np.random.default_rng(0)
    objectives = [random_objective(kind, 4, 4 if kind == "psd" else 3, name, rng)
                  for kind in ("psd", "general") for name in ("approx", "completion")]
    ops = rng.standard_normal((5, 4, 4))
    objectives += [make_matrix_sensing(ops, rng.standard_normal(5), symmetric=s)
                   for s in (False, True)]
    for obj in objectives + [counting(objectives[0])[0]]:
        assert _callable_fields(obj) == [], obj.kind
