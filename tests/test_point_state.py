"""A quotient point keeps only its factors, its frame and its per-family
``Weights``.

What a (point, metric) pair determines, the weights, their inverses and the
geometry's constants, lives in that one record, built by
``QuotientGeometry.constants``. A ``cached_property`` on ``QuotientPoint``
would put geometry-specific state back on the generic point.
``georank/quotient.py`` is parsed, not imported.
"""

import ast
from pathlib import Path

QUOTIENT = Path(__file__).resolve().parent.parent / "src" / "georank" / "quotient.py"


def test_quotient_point_defines_no_cached_property():
    tree = ast.parse(QUOTIENT.read_text())
    (point,) = [node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "QuotientPoint"]
    cached = [node.name for node in point.body
              if isinstance(node, ast.FunctionDef)
              and any("cached_property" in ast.unparse(d) for d in node.decorator_list)]
    assert not cached, f"QuotientPoint caches {cached}; keep them in Weights"
