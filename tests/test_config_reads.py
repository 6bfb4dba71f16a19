"""Only ``_plan`` reads the experiment config in ``georank/cli.py``.

``_plan`` checks the whole config once and resolves it into the ``Plan``
that every command takes, so a command never sees a field no check has
passed. ``run`` (the command and the seed) and ``main`` (the report path)
are the only other functions that may name ``config``, which covers
subscripting it and calling ``config.get``. The module is parsed, not
imported.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "georank" / "cli.py"
READERS = {"_plan", "run", "main"}


def test_only_the_plan_reads_the_config():
    readers = set()
    for node in ast.walk(ast.parse(CLI.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(isinstance(n, ast.Name) and n.id == "config"
                   for n in ast.walk(node)):
                readers.add(node.name)
    assert readers <= READERS, \
        f"cli functions that read the config: {sorted(readers - READERS)}"
