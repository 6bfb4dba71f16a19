"""check-gradients evaluates its finite-difference points in stacks.

``cli._grad_fd_maxrel`` takes the 2 d points X(+-h b_i) of a row in stacks of
basis vectors: one stacked truncation from factors (``embedded.truncate_sum``)
for an embedded row, one stacked move of the factors, checked by the factor
rules, for a quotient row, and one objective call per stack. These tests hold
the stacks to the per-curve oracle, check that faults still fail their rows,
that the stack size does not change a report, and pin the work per row.
"""

import inspect
import json
import os

import numpy as np
import pytest

import test_golden as golden
from georank import cli, embedded, objectives, quotient
from georank.embedded import _top_factors, retract, tangent_basis, truncate_sum
from georank.linalg import RankError
from georank.quotient import REGISTRY, _CHECKS, _qf, horizontal_basis, random_point

from util import count_calls, geometry_metric_combos, random_approx_objective, total_curve

GEOMETRIES = [g for case in ("psd", "general") for g in quotient.geometries(case)]


def _golden_run(case, **config):
    report, _ = cli.run("check-gradients", {"problem": golden.PROBLEMS[case],
                                            **golden.COMMON, **config},
                        seed=golden.SEED, out_path=os.devnull, no_timestamp=True)
    return report


def _recorded_values(monkeypatch):
    """Record every matrix or stack that ``Objective.value`` is called on."""
    seen = []
    original = objectives.Objective.value

    def value(self, x):
        seen.append(np.array(x))
        return original(self, x)

    monkeypatch.setattr(objectives.Objective, "value", value)
    return seen


class TestStacksMatchThePerCurveOracle:
    H = 1e-5

    @pytest.mark.parametrize("kind", ["psd", "general"])
    def test_embedded_points_are_the_one_tangent_truncation_bit_for_bit(self, kind,
                                                                        monkeypatch):
        # the factored truncation of one X + t b, bit for bit, and the dense
        # projection retraction within rounding
        rng = np.random.default_rng(5)
        obj = random_approx_objective(kind, 7, 7 if kind == "psd" else 5, rng)
        pt = random_point(quotient.EMBEDDED[kind], 7, 7 if kind == "psd" else 5, 2, rng)
        seen = _recorded_values(monkeypatch)
        cli._grad_fd_maxrel(pt, obj, None, h=self.H)
        (stack,) = seen
        basis = tangent_basis(pt)
        for i, b in enumerate(basis):
            for j, t in enumerate((self.H, -self.H)):
                assert np.array_equal(stack[j, i], truncate_sum(pt, [(t, b)]).X)
                ref = retract(pt, b, t).X
                assert np.linalg.norm(stack[j, i] - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("geo", sorted(REGISTRY))
    def test_quotient_points_are_the_total_curves(self, geo, monkeypatch):
        rng = np.random.default_rng(6)
        kind = REGISTRY[geo].kind
        p1, p2 = (7, 7) if kind == "psd" else (7, 5)
        obj = random_approx_objective(kind, p1, p2, rng)
        for _, met in geometry_metric_combos([geo]):
            z = random_point(geo, p1, p2, 2, rng)
            seen = _recorded_values(monkeypatch)
            cli._grad_fd_maxrel(z, obj, met, h=self.H)
            (stack,) = seen
            for i, b in enumerate(horizontal_basis(z, met)[0]):
                curve = total_curve(z, b)
                for j, t in enumerate((self.H, -self.H)):
                    ref = curve(t).X
                    err = np.linalg.norm(stack[j, i] - ref) / np.linalg.norm(ref)
                    assert err <= 1e-14, f"{geo}/{met.name} vector {i}: {err:.2e}"


class TestFaultsStillFail:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_scaled_gradient_fails_its_rows(self, geometry, monkeypatch):
        # a gradient off by 1e-3 relative, against a tolerance of 1e-6
        if geometry in REGISTRY:
            geo = REGISTRY[geometry]
            lift = geo.grad_lift
            monkeypatch.setattr(geo, "grad_lift", lambda z, wt, nabla: tuple(
                (1 + 1e-3) * a for a in lift(z, wt, nabla)))
        else:
            grad = cli.riem_grad_embedded
            monkeypatch.setattr(cli, "riem_grad_embedded",
                                lambda pt, obj: (1 + 1e-3) * grad(pt, obj))
        case = quotient.GEOMETRY_KIND[geometry]
        checks = _golden_run(case)["checks"]
        for check in checks:
            row = check["name"].split("/")[1]
            assert check["passed"] == (row != geometry), check["name"]

    def test_nan_value_fails_its_row(self, monkeypatch):
        original = objectives.Objective.value

        def value(self, x):  # one curve point of every stack is not measured
            out = original(self, x)
            if np.ndim(out) > 0:
                out[1, 0] = np.nan
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


class TestStackSize:
    # psd 30 x 30, r=3 (d = 87) and general 24 x 18, r=3 (d = 117): more
    # vectors than one stack holds
    PROBLEMS = {
        "psd": {"kind": "completion", "case": "psd", "p1": 30, "r": 3},
        "general": {"kind": "completion", "case": "general", "p1": 24, "p2": 18, "r": 3},
    }

    @pytest.mark.parametrize("case", sorted(PROBLEMS))
    @pytest.mark.parametrize("name,value", [("DIRECTION_BLOCK", 5), ("STACK_BYTES", 1)])
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

    @pytest.mark.parametrize("case", ["psd", "general"])
    @pytest.mark.parametrize("block", [cli.DIRECTION_BLOCK, 5])
    def test_work_per_row_and_trial(self, case, block, monkeypatch):
        # golden sizes: d = 11 (psd 6 x 6, r=2) and 16 (general 6 x 5, r=2);
        # one quotient_point per quotient row and trial (its point) and one
        # objective call per stack, where each curve point was one of each
        monkeypatch.setattr(cli, "DIRECTION_BLOCK", block)
        points = count_calls(monkeypatch, quotient.quotient_point)
        retracts = count_calls(monkeypatch, embedded.retract)
        values = _recorded_values(monkeypatch)
        checked = []  # the factor checks see each stack, as quotient_point does
        for kind, rule in _CHECKS.items():
            monkeypatch.setitem(_CHECKS, kind, lambda a, name, rule=rule: (
                checked.append(a.shape[:-2]), rule(a, name)))
        report = _golden_run(case)
        assert report["passed"]
        trials = golden.COMMON["trials"]
        d = quotient.quotient_dim(quotient.EMBEDDED[case], 6,
                                  golden.PROBLEMS[case].get("p2", 6), 2)
        rows, stacks = len(report["checks"]), -(-d // block)
        assert len(points) == (rows - 1) * trials
        assert len(values) == rows * trials * stacks
        assert not retracts
        factors = sum(len(REGISTRY[c["name"].split("/")[1]].factors)
                      for c in report["checks"][1:])
        stacked = [lead for lead in checked if lead]  # the rest check the points
        assert len(checked) - len(stacked) == factors * trials
        assert len(stacked) == factors * trials * stacks
        assert all(lead[0] == 2 and lead[1] <= block for lead in stacked)
        assert sum(lead[1] for lead in stacked) == factors * trials * d


class TestStackAwareHelpers:
    def test_top_factors_of_a_stack_are_each_matrix_s(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 3, 6, 2))
        stacks = {"psd": a @ a.mT, "general": a @ rng.standard_normal((2, 3, 2, 5))}
        for kind, xs in stacks.items():
            out = _top_factors(xs, 2, kind)
            for i in np.ndindex(xs.shape[:2]):
                for got, ref in zip(out, _top_factors(xs[i], 2, kind)):
                    assert np.array_equal(got[i], ref), kind
            assert (out[2] is out[0]) == (kind == "psd")  # V is U for psd

    def test_top_factors_checks_each_matrix(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 6, 2))
        good = a @ a.mT
        low = good.copy()
        low[2] = np.outer(a[2, :, 0], a[2, :, 0])  # rank 1
        with pytest.raises(RankError, match="eigenvalue 2"):
            _top_factors(low, 2, "psd")
        with pytest.raises(RankError, match="singular value 2"):
            _top_factors(low, 2, "general")
        skewed = good.copy()
        skewed[1, 0, 1] += 1.0
        with pytest.raises(ValueError, match="symmetric"):
            _top_factors(skewed, 2, "psd")
        skewed[3, 2, 2] = np.inf
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            _top_factors(skewed, 2, "general")

    def test_column_signs_first_entry_wins_a_tie(self):
        # the largest magnitude is made positive; on a tie the first entry
        # of that magnitude decides, and a zero column gets +1
        u = np.array([[0.5, -0.5, 0.0, 0.2],
                      [-0.5, 0.5, 0.0, -0.3],
                      [0.1, 0.1, 0.0, 0.1]])
        expected = np.array([[1.0, -1.0, 1.0, -1.0]])
        assert np.array_equal(embedded._column_signs(u), expected)
        flipped = np.array([[-1.0, 1.0, 1.0, 1.0]])
        assert np.array_equal(embedded._column_signs(np.stack([u, -u])),
                              np.stack([expected, flipped]))

    def test_qf_of_a_stack_is_each_matrix_s(self):
        a = np.random.default_rng(10).standard_normal((2, 3, 7, 3))
        q = _qf(a)
        for i in np.ndindex(a.shape[:2]):
            assert np.array_equal(q[i], _qf(a[i]))

    def test_factor_checks_give_each_matrix_its_verdict(self):
        rng = np.random.default_rng(11)
        free = rng.standard_normal((3, 6, 2))
        stiefel = _qf(free)
        c = rng.standard_normal((3, 2, 2))
        spd = c @ c.mT + 0.5 * np.eye(2)
        bad = {"free": free.copy(), "stiefel": stiefel.copy(), "spd": spd.copy()}
        bad["free"][1, :, 1] = bad["free"][1, :, 0]
        bad["stiefel"][2] *= 1.001
        bad["spd"][0] = -bad["spd"][0]
        for kind, good in (("free", free), ("stiefel", stiefel), ("spd", spd)):
            _CHECKS[kind](good, "F")
            with pytest.raises(ValueError, match="factor F"):
                _CHECKS[kind](bad[kind], "F")


def test_no_per_curve_loop_in_the_library():
    # the per-curve oracle lives in tests/util.py alone
    assert not hasattr(quotient, "total_curve")
    assert "retract" not in vars(cli)
