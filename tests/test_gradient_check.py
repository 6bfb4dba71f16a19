"""check-gradients compares each gradient with complex-step derivatives.

``cli._grad_fd_maxrel`` takes Im f(. + i h b) / h, h = 1e-30, along the
straight line through the point for each basis vector b: X + i h b for an
embedded row, the factor map of the factors z + i h theta for a quotient row,
in stacks of basis vectors with one objective call per stack. These tests
check that faults far below the old central-difference noise fail their
rows, that a sample that cannot be measured fails, that no decomposition or
factor check sees a complex matrix, and that the stack size does not change
a report.
"""

import inspect
import json
import os

import numpy as np
import pytest

import test_golden as golden
from georank import cli, objectives, quotient
from georank.quotient import REGISTRY

GEOMETRIES = [g for case in ("psd", "general") for g in quotient.geometries(case)]


def _golden_run(case, **config):
    report, _ = cli.run("check-gradients", {"problem": golden.PROBLEMS[case],
                                            **golden.COMMON, **config},
                        seed=golden.SEED, out_path=os.devnull, no_timestamp=True)
    return report


def _scale_gradient(monkeypatch, geometry, factor):
    """Scale the gradient of one geometry by ``factor``: the embedded
    gradient, or a quotient geometry's gradient lift."""
    if geometry in REGISTRY:
        geo = REGISTRY[geometry]
        lift = geo.grad_lift
        monkeypatch.setattr(geo, "grad_lift", lambda z, wt, nabla: tuple(
            factor * a for a in lift(z, wt, nabla)))
    else:
        grad = cli.riem_grad_embedded
        monkeypatch.setattr(cli, "riem_grad_embedded",
                            lambda pt, obj: factor * grad(pt, obj))


class TestFaultsStillFail:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_scaled_gradient_fails_its_rows(self, geometry, monkeypatch):
        # a gradient off by 1e-3 relative
        _scale_gradient(monkeypatch, geometry, 1 + 1e-3)
        case = quotient.GEOMETRY_KIND[geometry]
        checks = _golden_run(case)["checks"]
        for check in checks:
            row = check["name"].split("/")[1]
            assert check["passed"] == (row != geometry), check["name"]

    @pytest.mark.parametrize("case,geometry", [("psd", "psd_q2"), ("general", "gen_q3")])
    def test_gradient_off_by_1e_8_fails_exactly_its_rows(self, case, geometry, monkeypatch):
        # 1e-8 relative passed central differences' tolerance of 1e-6; the
        # complex step's noise is about 1e-15
        faulty = {quotient.EMBEDDED[case], geometry}
        for g in faulty:
            _scale_gradient(monkeypatch, g, 1 + 1e-8)
        for check in _golden_run(case)["checks"]:
            row = check["name"].split("/")[1]
            assert check["passed"] == (row not in faulty), check["name"]

    def test_nan_value_fails_its_row(self, monkeypatch):
        original = objectives.Objective.value

        def value(self, x):  # one point of every stack is not measured
            out = original(self, x)
            if np.ndim(out) > 0:
                out[0] = complex(np.nan, np.nan)
            return out

        monkeypatch.setattr(objectives.Objective, "value", value)
        report = _golden_run("general")
        assert not report["passed"]
        for check in report["checks"]:
            assert not check["passed"]
            assert np.isnan(check["details"]["max_rel_err"])

    def test_signature_is_point_obj_metric(self):
        params = list(inspect.signature(cli._grad_fd_maxrel).parameters)
        assert params[:3] == ["point", "obj", "metric"]


@pytest.mark.parametrize("kind", ["approx", "completion", "sensing"])
@pytest.mark.parametrize("case", ["psd", "general"])
def test_every_objective_passes_far_inside(kind, case):
    # sensing takes A(Re X) and A(Im X) as two real contractions
    report, _ = cli.run("check-gradients",
                        {"problem": {**golden.PROBLEMS[case], "kind": kind}, "trials": 1},
                        seed=4, out_path=os.devnull, no_timestamp=True)
    for check in report["checks"]:
        assert check["details"]["max_rel_err"] <= 1e-13, check["name"]


def _real_only(fn):
    """fn, refusing a complex first argument."""
    def wrapped(a, *args, **kwargs):
        assert not np.iscomplexobj(a), fn.__name__
        return fn(a, *args, **kwargs)

    return wrapped


def test_no_decomposition_or_factor_check_sees_a_complex_matrix(monkeypatch):
    # the complex path is products and sums only: each value call takes one
    # complex stack of at most DIRECTION_BLOCK points
    for name in ("qr", "svd", "eigh", "eigvalsh", "cholesky", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, _real_only(getattr(np.linalg, name)))
    for kind, rule in quotient._CHECKS.items():
        monkeypatch.setitem(quotient._CHECKS, kind, _real_only(rule))
    seen, value = [], objectives.Objective.value

    def recorded(self, x):
        seen.append(np.shape(x))
        return value(self, x)

    monkeypatch.setattr(objectives.Objective, "value", recorded)
    for case in ("psd", "general"):
        assert _golden_run(case)["passed"]
    assert seen and all(len(shape) == 3 and shape[0] <= cli.DIRECTION_BLOCK
                        for shape in seen)


class TestStackSize:
    # psd 30 x 30, r=3 (d = 87) and general 24 x 18, r=3 (d = 117): more
    # vectors than one stack holds
    PROBLEMS = {
        "psd": {"kind": "completion", "case": "psd", "p1": 30, "r": 3},
        "general": {"kind": "completion", "case": "general", "p1": 24, "p2": 18, "r": 3},
    }

    @pytest.mark.parametrize("case", sorted(PROBLEMS))
    @pytest.mark.parametrize("name,value", [("DIRECTION_BLOCK", 5)])
    def test_report_is_byte_identical(self, case, name, value, monkeypatch):
        def text():
            report, _ = cli.run("check-gradients",
                                {"problem": self.PROBLEMS[case], "trials": 1},
                                seed=1, out_path=os.devnull, no_timestamp=True)
            return json.dumps(report, sort_keys=True)

        whole = text()
        monkeypatch.setattr(cli, name, value)
        assert text() == whole
        assert json.loads(whole)["passed"]


def test_no_per_curve_loop_in_the_library():
    # the total-space curve and its per-curve oracle live in tests/util.py alone
    assert not hasattr(quotient, "total_curve")
    assert not hasattr(quotient.QuotientGeometry, "curve")
    assert "retract" not in vars(cli) and "truncate_sum" not in vars(cli)
