"""The benchmark's traced functions exist under the names it binds, and its
observers read their results.

``perfbench/tracing.py`` wraps georank functions by module and name, so a
renamed or deleted one breaks the traced benchmark run, and its ``OBSERVE``
functions read values from some of their results, so a changed return type
breaks it too. The module is loaded here by path, without importing the
benchmark as a package.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from georank.landscape import find_fosp, hessian_spectrum
from georank.objectives import make_matrix_approx
from georank.quotient import horizontal_basis, metric_family, quotient_dim, random_point

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for layer, attrs in _tracing().TRACED.items():
        module = importlib.import_module(f"georank.{layer}")
        for attr in attrs:
            owner_name, _, fn_name = attr.rpartition(".")
            # a method must be defined on its class, which the tracer patches
            owner = vars(getattr(module, owner_name)) if owner_name else vars(module)
            if not callable(owner.get(fn_name)):
                missing.append(f"{layer}.{attr}")
    assert not missing, f"traced names missing from georank: {missing}"


def test_every_observer_reads_a_real_result():
    # each observer applied to a result of the function it observes, on a
    # general 6 x 5, r = 2 problem, with the value the benchmark expects
    rng = np.random.default_rng(0)
    obj = make_matrix_approx(rng.standard_normal((6, 5)))
    z = random_point("gen_q3", 6, 5, 2, rng)
    met = metric_family("gen_q3", "flat")
    d = quotient_dim("gen_q3", 6, 5, 2)
    fosp = find_fosp(obj, z.point, max_iter=3)
    cases = {
        "quotient.horizontal_basis": (horizontal_basis(z, met), d),
        "landscape.hessian_spectrum": (hessian_spectrum(z, obj, met), d),
        "landscape.find_fosp": (fosp, (False, 3)),
    }
    observe = _tracing().OBSERVE
    assert set(observe) == set(cases)
    for name, (result, expected) in cases.items():
        assert observe[name](result) == expected, name
