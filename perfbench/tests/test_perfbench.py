"""Self-tests of the benchmark. Run: python3 -m pytest -q perfbench/tests"""

import contextlib
import io
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import compare  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _synthetic_tracer():
    """Spans 0..4 on one clock: 0 [0,10] holds 1 [1,4] (which holds 2 [2,3])
    and 3 [5,9]; 4 [11,12] is a second root."""
    tracer = tracing.Tracer()
    fid = tracing.SPAN_NAMES.index
    rows = [
        ("landscape.hessian_spectrum", -1, 0.0, 10.0),
        ("quotient.riem_hess_quad_quotient", 0, 1.0, 4.0),
        ("linalg.spd_functions", 1, 2.0, 3.0),
        ("quotient.riem_hess_quad_quotient", 0, 5.0, 9.0),
        ("linalg.spd_functions", -1, 11.0, 12.0),
    ]
    for name, parent, start, end in rows:
        tracer.names.append(fid(name))
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)
    tracer.observed[0] = 1  # a one-dimensional spectrum: one upper-triangle entry
    return tracer


def test_self_time_is_span_minus_children():
    names, parents, starts, ends = _synthetic_tracer().arrays()
    selfs = tracing.self_times(parents, starts, ends)
    np.testing.assert_allclose(selfs, [3.0, 2.0, 1.0, 4.0, 1.0])
    np.testing.assert_array_equal(
        tracing.nearest_ancestor(names, parents,
                                 tracing.SPAN_NAMES.index("quotient.riem_hess_quad_quotient")),
        [-1, 1, 1, 3, -1])


def test_layer_metrics_account_for_the_whole_wall_time():
    metrics = tracing.layer_metrics(_synthetic_tracer(), wall_s=13.0, overhead_frac=0.3)
    value = {name: v for name, (v, _) in metrics.items()}
    assert value["linalg.spd_functions.calls"] == 2
    assert value["linalg.spd_functions.self_share"] == pytest.approx(2.0 / 13.0)
    assert value["quotient.self_share"] == pytest.approx(6.0 / 13.0)
    assert value["trace.remainder_s"] == pytest.approx(2.0)
    functions = sum(value[f"{name}.self_share"] for name in tracing.SPAN_NAMES)
    assert functions * 13.0 + value["trace.remainder_s"] == pytest.approx(13.0)
    # one of the two spd_functions calls runs inside a form, two forms in all
    assert value["quotient.forms.spd_functions_per_form"] == pytest.approx(0.5)
    assert value["landscape.hessian_spectrum.forms_per_entry"] == pytest.approx(2.0)
    assert value["trace.overhead_frac"] == pytest.approx(0.3)


def _georank_bindings():
    import georank.cli  # noqa: F401
    from georank.objectives import Objective

    bindings = {(m.__name__, key): value for m in tracing._georank_modules()
                for key, value in vars(m).items() if callable(value)}
    bindings.update({("Objective", key): Objective.__dict__[key]
                     for key in ("value", "egrad", "ehess_vec")})
    return bindings


def _assert_bindings(before):
    from georank.objectives import Objective

    for (owner, key), original in before.items():
        current = (Objective.__dict__[key] if owner == "Objective"
                   else vars(sys.modules[owner])[key])
        assert current is original, f"{owner}.{key} was not restored"


def test_traced_run_restores_every_patched_function():
    import georank.cli
    import georank.linalg

    before = _georank_bindings()
    original = georank.linalg.spd_functions
    config = {"problem": {"kind": "approx", "case": "psd", "p1": 6, "r": 2},
              "max_fosp_points": 1, "directions": 2}
    with tracing.Tracer() as tracer:
        assert georank.linalg.spd_functions is not original
        assert georank.quotient.spd_functions is georank.linalg.spd_functions
        with contextlib.redirect_stdout(io.StringIO()):
            georank.cli.run("verify-sandwich", config, seed=1, no_timestamp=True)
    assert tracer.unrestored() == []
    _assert_bindings(before)
    calls = np.bincount(tracer.arrays()[0], minlength=len(tracing.SPAN_NAMES))
    assert calls[tracing.SPAN_NAMES.index("cli.run")] == 1
    assert calls[tracing.SPAN_NAMES.index("linalg.spd_functions")] > 0


def test_patches_are_restored_when_the_traced_code_raises():
    import georank.cli

    before = _georank_bindings()
    with pytest.raises(georank.cli.ConfigError):
        with tracing.Tracer():
            georank.cli.run("no-such-command", {})
    _assert_bindings(before)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_reports_are_deterministic_per_seed(workload):
    assert workloads.reports(workload, 7) == workloads.reports(workload, 7)
    assert workloads.reports(workload, 7) != workloads.reports(workload, 8)


def _report(checks):
    return {"tolerances": {"roundtrip_rtol": 1e-9, "bound_slack": 1e-10,
                           "sandwich_margin": 1e-8},
            "checks": checks}


def test_check_margin_takes_the_tightest_check_and_caps_zero():
    report = _report([
        {"name": "gradient-fd/gen_q1/crossed-gram", "passed": True,
         "details": {"max_rel_err": 1e-9, "tolerance": 1e-6}},
        {"name": "flow-identical/gen_q3", "passed": True,
         "details": {"max_deviation": 0.0, "tolerance": 1e-8}},
        {"name": "bijection/psd_q1/double-gram", "passed": True,
         "details": {"max_roundtrip_rel_err": 1e-13, "max_bound_violation": -0.5}},
    ])
    margins = {label: gate.margin_dec(obs, tol) for label, obs, tol in gate.margin_pairs(report)}
    assert margins["flow-identical/gen_q3"] == pytest.approx(12.0)
    assert margins["bijection/psd_q1/double-gram:bounds"] == pytest.approx(12.0)
    assert margins["bijection/psd_q1/double-gram:roundtrip"] == pytest.approx(4.0)
    assert gate.check_margin_dec([report]) == pytest.approx(3.0)


def test_sandwich_margin_uses_the_spectrum_scale():
    report = _report([{
        "name": "sandwich/psd_q1/double-gram/fosp0", "passed": True,
        "details": {"identity_max_rel_err": 1e-14, "identity_tol": 1e-8,
                    "grad_norm": 1e-15, "fosp_threshold": 1e-7,
                    "eig_embedded": [-100.0, 2.0], "eig_quotient": [-50.0, 1.0],
                    "per_index": [{"margin_lo": 1e-3, "margin_hi": -1e-8},
                                  {"margin_lo": 0.0, "margin_hi": 0.5}]},
    }])
    # tolerance 1e-8 * 100 against a violation of 1e-8: two decades
    assert gate.check_margin_dec([report]) == pytest.approx(2.0)


def test_gate_counts_a_changed_repeat_as_a_failed_report():
    text = '{"checks": [{"name": "dims/psd_q1", "passed": true, "details": {}}], ' \
           '"passed": true, "tolerances": {}}'
    g = gate.Gate()
    g.record("key", text, 0, None)
    g.record("key", text, 0, None)
    g.record("key", text.replace("dims", "dimz"), 0, None)
    g.record("other", None, None, "ConfigError: no stationary points")
    assert (g.reports_attempted, g.reports_failed) == (4, 2)
    assert (g.checks_attempted, g.checks_failed) == (3, 0)
    assert not g.correct


def test_exits_2_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectrum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_compare_verdicts():
    time_spec = {"better": "lower", "bound": 0.15}
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    assert compare.verdict(base, [v * 0.8 for v in base], time_spec) == (1.0, "gain")
    assert compare.verdict(base, [v * 1.3 for v in base], time_spec) == (0.0, "regression")
    assert compare.verdict(base, [v * 1.01 for v in base], time_spec)[1] == "same"
    margin = [3.2, 3.5, 3.4, 0.6, 1.0]
    assert compare.verdict(margin, list(margin), compare.MARGIN) == (0.0, "same")
    assert compare.verdict(margin, [3.2, 3.5, 3.4, 0.5, 1.0], compare.MARGIN)[1] == "regression"
