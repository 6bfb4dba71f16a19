"""Every name the package exports has a caller inside the library.

``georank/__init__.py`` is parsed, not imported. A name it imports or
defines counts as used when some other module under ``src/georank/`` reads
it as a name or an attribute outside its own definition; docstrings and
comments do not count. Dunder metadata such as ``__version__`` is exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "georank"


def _exported(tree):
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _used(node, inside=()):
    """Names and attributes read under ``node``, skipping a name inside the
    function or class that defines it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside + (node.name,)
    found = set()
    if isinstance(node, ast.Name):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    found -= set(inside)
    for child in ast.iter_child_nodes(node):
        found |= _used(child, inside)
    return found


def test_every_export_has_a_caller_in_the_library():
    exported = _exported(ast.parse((PACKAGE / "__init__.py").read_text()))
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            used |= _used(ast.parse(path.read_text()))
    unused = [name for name in exported if name not in used]
    assert not unused, f"exported from georank but called nowhere in it: {unused}"
