"""The benchmark's traced functions exist under the names it binds.

``perfbench/tracing.py`` wraps georank functions by module and name, so a
renamed or deleted one breaks the traced benchmark run. Its table is loaded
here by path, without importing the benchmark as a package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    missing = []
    for layer, attrs in _traced().items():
        module = importlib.import_module(f"georank.{layer}")
        for attr in attrs:
            owner_name, _, fn_name = attr.rpartition(".")
            # a method must be defined on its class, which the tracer patches
            owner = vars(getattr(module, owner_name)) if owner_name else vars(module)
            if not callable(owner.get(fn_name)):
                missing.append(f"{layer}.{attr}")
    assert not missing, f"traced names missing from georank: {missing}"
