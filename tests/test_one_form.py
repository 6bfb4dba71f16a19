"""The PSD kind is the symmetric case of the one factored form.

A PSD point's V is its U and a PSD tangent's Vp is its Up, so no code needs
to ask whether either is missing. A ``V`` or ``Vp`` compared with None would
bring back a second format for the PSD kind. ``src/georank/`` is parsed,
not imported.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "georank"


def _none_comparisons(tree):
    """Line numbers of comparisons between a ``.V`` or ``.Vp`` and None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(isinstance(o, ast.Constant) and o.value is None for o in operands)
                    and any(isinstance(o, ast.Attribute) and o.attr in ("V", "Vp")
                            for o in operands)):
                yield node.lineno


def test_guard_sees_a_none_factor():
    tree = ast.parse("vp = None if self.Vp is None else c * self.Vp\n"
                     "v = pt.V if pt.V is not None else pt.U\n")
    assert list(_none_comparisons(tree)) == [1, 2]


def test_no_factor_is_compared_with_none():
    found = [f"{path.name}:{line}" for path in sorted(SOURCE.glob("*.py"))
             for line in _none_comparisons(ast.parse(path.read_text()))]
    assert not found, f"V or Vp compared with None at {found}"
