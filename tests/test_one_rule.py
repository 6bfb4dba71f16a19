"""Each numerical acceptance rule is written once, in ``linalg``.

Symmetry is ``linalg.is_symmetric``: the norm of an array minus its
transpose is computed nowhere else. Every rank, positive-definite,
separation and Gram floor goes through ``linalg.below_floor`` with a named
constant, so no comparison outside ``linalg`` reads a bare float tolerance
(``1e-10 * scale``, ``resid > 1e-10``). A copy of a rule could otherwise
drift to its own constant, or to its own NaN behaviour, and give the same
input another verdict. ``src/georank/`` is parsed, not imported.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from georank.embedded import embed_point, project_rank_r
from georank.objectives import make_matrix_approx
from georank.quotient import quotient_point

SOURCE = Path(__file__).resolve().parent.parent / "src" / "georank"
ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _asymmetry_norms(tree):
    """(line, enclosing function) of each norm of an array minus its .T or .mT."""
    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and node.args
                and isinstance(node.args[0], ast.BinOp)
                and isinstance(node.args[0].op, ast.Sub)
                and isinstance(node.args[0].right, ast.Attribute)
                and node.args[0].right.attr in ("T", "mT")
                and getattr(node.func, "attr", getattr(node.func, "id", None))
                in ("norm", "frobenius")):
            yield node.lineno, func
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)
    return list(visit(tree, None))


def _tolerance_literal(node):
    """Whether node is a float literal of tolerance size, or a product with one."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float) and 0.0 < node.value <= 1e-6
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and (_tolerance_literal(node.left) or _tolerance_literal(node.right)))


def _literal_floors(tree):
    """Line numbers of ordering comparisons that read a bare float tolerance."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare) and any(isinstance(op, ORDERINGS) for op in node.ops)
                and any(map(_tolerance_literal, [node.left, *node.comparators]))):
            yield node.lineno


def test_guard_sees_an_asymmetry_norm():
    tree = ast.parse("def check(x, b):\n"
                     "    a = np.linalg.norm(x - x.T)\n"
                     "    return frobenius(b - b.mT) + np.linalg.norm(x - y)\n")
    assert _asymmetry_norms(tree) == [(2, "check"), (3, "check")]


def test_guard_sees_a_literal_floor():
    tree = ast.parse("keep = w > 1e-10 * scale\n"
                     "bad = resid > 1e-10\n"
                     "low = top <= RANK_TOL * 1e-300\n"
                     "ok = gnorm <= 1e-10 * (1.0 + scale)\n"
                     "named = w > RANK_TOL * scale\n"
                     "steps = t / dt > 0.5\n")
    assert sorted(_literal_floors(tree)) == [1, 2, 3, 4]


def test_asymmetry_is_measured_only_in_is_symmetric():
    found = [f"{path.name}:{line} in {func}" for path in sorted(SOURCE.glob("*.py"))
             for line, func in _asymmetry_norms(ast.parse(path.read_text()))
             if (path.name, func) != ("linalg.py", "is_symmetric")]
    assert not found, f"asymmetry norm outside linalg.is_symmetric at {found}"


def test_no_floor_outside_linalg_reads_a_literal():
    found = [f"{path.name}:{line}" for path in sorted(SOURCE.glob("*.py"))
             if path.name != "linalg.py"
             for line in _literal_floors(ast.parse(path.read_text()))]
    assert not found, f"floor comparison with a literal tolerance at {found}"


def _asymmetric():
    """X = A A^T (5 x 5, rank 2) with 1e-11 ||X||_F added to entry [0, 1]:
    asymmetric beyond SPD_TOL = 1e-12, within the old literal bound 1e-10."""
    a = np.random.default_rng(0).standard_normal((5, 2))
    x = a @ a.T
    x[0, 1] += 1e-11 * np.linalg.norm(x)
    return x


# one symmetry rule: every gate that needs a symmetric matrix refuses the
# same asymmetric one
@pytest.mark.parametrize("gate", [
    pytest.param(lambda x: project_rank_r(x, 2, "psd"), id="project_rank_r"),
    pytest.param(lambda x: embed_point(x, 2, "psd"), id="embed_point"),
    pytest.param(lambda x: make_matrix_approx(x, symmetric=True), id="make_matrix_approx"),
    pytest.param(lambda x: quotient_point("psd_q2", np.eye(5, 2), x[:2, :2] + 5 * np.eye(2)),
                 id="quotient_point-spd-factor"),
])
def test_every_gate_refuses_the_same_asymmetry(gate):
    with pytest.raises(ValueError, match="symmetric"):
        gate(_asymmetric())
