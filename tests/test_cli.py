"""Experiment-runner CLI: exit codes, report schema, determinism."""

import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from georank import cli, landscape
from georank.linalg import sym

from util import run_cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def read_report(proc, out, status=0):
    """Check the child's exit status and report file, then load the report.

    Exit 1 also comes from an uncaught exception (a traceback on stderr) or
    a missing module (no report), neither of which is a failed check.
    """
    assert proc.returncode == status, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert out.exists(), proc.stderr
    return json.loads(out.read_text())


def assert_input_error(proc):
    """Exit 2 with main()'s own message; argparse also exits 2 on bad flags."""
    assert proc.returncode == 2, proc.stderr
    assert "georank: error:" in proc.stderr, proc.stderr


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestDims:
    def test_reports_dimension_nine(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"case": "psd", "p1": 5, "r": 2}})
        out = tmp_path / "report.json"
        proc = run_cli(["dims", "--config", str(cfg), "--out", str(out),
                        "--no-timestamp"], tmp_path)
        report = read_report(proc, out)
        assert report["schema"] == "georank-report/1"
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["dims/psd_q1"]["details"]["count"] == 9
        assert report["passed"]


class TestVerifySandwich:
    def test_double_gram_margins_within_coefficients(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {
                "problem": {"case": "psd", "p1": 4, "r": 2},
                "metrics": {"psd_q1": ["double-gram"], "psd_q2": ["matched"]},
                "max_fosp_points": 2,
                "directions": 20,
                "seed": 5,
            },
        )
        out = tmp_path / "report.json"
        proc = run_cli(["verify-sandwich", "--config", str(cfg), "--out",
                        str(out), "--no-timestamp"], tmp_path)
        report = read_report(proc, out)
        assert report["passed"]
        for check in report["checks"]:
            det = check["details"]
            if det["metric"] == "double-gram":
                assert det["alpha"] == pytest.approx(1.0, rel=1e-9)
                assert det["beta"] == pytest.approx(2.0, rel=1e-9)
                for entry in det["per_index"]:
                    assert entry["ok"]


    def test_completion_problem_uses_solver_fosps(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {
                "problem": {"case": "psd", "kind": "completion", "p1": 4,
                            "r": 2, "mask_density": 0.9},
                "seed": 2,
                "max_fosp_points": 1,
                "directions": 10,
                "metrics": {"psd_q1": ["double-gram"], "psd_q2": ["polar"]},
            },
        )
        out = tmp_path / "report.json"
        proc = run_cli(["verify-sandwich", "--config", str(cfg), "--out",
                        str(out), "--no-timestamp"], tmp_path)
        report = read_report(proc, out)
        assert report["passed"]
        # stationary points came from the solver, not the analytic oracle: the
        # report opens with the search, which names each start's outcome
        search, *rows = report["checks"]
        assert search["name"] == "fosp-search" and search["passed"]
        [start] = search["details"]["starts"]
        assert start["outcome"] == "converged" and search["details"]["converged"] == 1
        assert 0 < start["iterations"] <= landscape.FOSP_BUDGET
        assert start["hess_vecs"] >= start["iterations"]
        assert rows and all(c["details"]["grad_norm"] < 1e-8 for c in rows)


class TestErrorPaths:
    def test_corrupted_csv_exits_2_no_report(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text("1.0,2.0\nnot,numbers\n")
        cfg = write_config(
            tmp_path, "c.json",
            {"problem": {"case": "psd", "p1": 2, "r": 1,
                         "target_csv": str(bad)}},
        )
        out = tmp_path / "report.json"
        proc = run_cli(["dims", "--config", str(cfg), "--out", str(out)],
                       tmp_path)
        assert_input_error(proc)
        assert not out.exists()

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        proc = run_cli(["dims", "--config", str(cfg)], tmp_path)
        assert_input_error(proc)

    def test_command_mismatch_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"command": "classify"})
        proc = run_cli(["dims", "--config", str(cfg)], tmp_path)
        assert_input_error(proc)

    @pytest.mark.parametrize("command", ["verify-sandwich", "classify"])
    def test_no_converged_start_fails_a_check(self, tmp_path, monkeypatch, command):
        # a solver that never converges is a failed search, not an input error
        starts = []

        def no_fosp(obj, init, max_iter=landscape.FOSP_BUDGET, tol=landscape.FOSP_GRAD_TOL):
            starts.append(init)
            return types.SimpleNamespace(converged=False, point=init, iterations=max_iter,
                                         outcome="budget spent", hess_vecs=7)

        monkeypatch.setattr(cli, "find_fosp", no_fosp)
        cfg = write_config(tmp_path, "c.json", {
            "problem": {"case": "general", "kind": "completion", "p1": 5, "p2": 4,
                        "r": 2},
            "max_fosp_points": 3,
        })
        out = tmp_path / "report.json"
        status = cli.main([command, "--config", str(cfg), "--out", str(out),
                           "--no-timestamp"])
        assert status == 1
        report = json.loads(out.read_text())
        assert not report["passed"]
        start = {"outcome": "budget spent", "iterations": landscape.FOSP_BUDGET, "hess_vecs": 7}
        assert report["checks"] == [{"name": "fosp-search", "passed": False,
                                     "details": {"starts": [start] * 3, "converged": 0}}]
        assert len(starts) == 3

    @pytest.mark.parametrize("small", [1e-7, 1e-8])
    @pytest.mark.parametrize("command", ["verify-sandwich", "classify"])
    def test_uncertifiable_target_exits_2(self, tmp_path, command, small):
        # spectrum (1, small, -0.5, -0.25): the stationary point that keeps
        # the small eigenvalue is built to |grad| 2.7e-10 (2.5e-9 at 1e-8),
        # above the certification bound 2e-10, so the target is refused as
        # input, with one message line and no report
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]
        target = tmp_path / "m.csv"
        np.savetxt(target, sym(q @ np.diag([1.0, small, -0.5, -0.25]) @ q.T), delimiter=",")
        cfg = write_config(tmp_path, "c.json", {"problem": {
            "case": "psd", "p1": 4, "r": 2, "target_csv": str(target)}})
        out = tmp_path / "report.json"
        proc = run_cli([command, "--config", str(cfg), "--out", str(out),
                        "--no-timestamp"], tmp_path)
        assert_input_error(proc)
        [line] = proc.stderr.splitlines()
        assert "failed certification: |grad| = " in line and "> 2.000e-10" in line, line
        assert not out.exists()

    def test_failed_check_exits_1_with_report(self, tmp_path, monkeypatch):
        # the embedded Hessian with its curvature coupling's sign flipped fails
        # every sandwich row of the general 6x5 problem; a config sets no
        # tolerance (see the tolerances-key case below), so none can turn
        # those rows into passes
        real = landscape.riem_hess_matrix_embedded

        def flipped(pt, obj, tangents):
            h, grad = real(pt, obj, tangents)
            c = ((tangents.Up.mT @ obj.egrad(pt.X)).reshape(len(h), -1)
                 @ np.linalg.solve(pt.Sigma, tangents.Vp.mT).reshape(len(h), -1).T)
            return h - 2.0 * (c + c.T), grad

        monkeypatch.setattr(landscape, "riem_hess_matrix_embedded", flipped)
        cfg = write_config(tmp_path, "c.json", {
            "problem": {"case": "general", "p1": 6, "p2": 5, "r": 2}, "max_fosp_points": 1})
        out = tmp_path / "report.json"
        assert cli.main(["verify-sandwich", "--config", str(cfg), "--seed", "3",
                         "--out", str(out), "--no-timestamp"]) == 1
        report = json.loads(out.read_text())
        assert not report["passed"]
        assert [c["passed"] for c in report["checks"]] == [False] * 6

    # each is read before any command runs: wrong types, out-of-range
    # counts and flow numbers, strings where lists belong; the message names
    # the field
    @pytest.mark.parametrize("command,cfg,field", [
        pytest.param("bijection-roundtrip", {"problem": {"p1": "5"}}, "p1",
                     id="p1-string"),
        pytest.param("bijection-roundtrip", {"problem": {"r": 2.5}}, "problem r",
                     id="r-float"),
        pytest.param("bijection-roundtrip", {"problem": {"r": 0}}, "rank r",
                     id="r-zero"),
        pytest.param("dims", {"problem": {"kind": "completion", "mask_density": "x"}},
                     "mask_density", id="mask-density-string"),
        pytest.param("dims", {"metrics": {"psd_q1": "flat"}}, "'metrics'",
                     id="metrics-string"),
        pytest.param("dims", {"metrics": {"psd_q1": []}}, "'metrics'",
                     id="metrics-empty"),
        pytest.param("dims", {"geometries": "psd_q1"}, "'geometries'",
                     id="geometries-string"),
        pytest.param("dims", {"geometries": ["psd_q1", "psd_q1"]}, "'geometries'",
                     id="geometries-repeated"),
        # a metrics key names a quotient geometry of the case; an embedded
        # geometry takes no family
        pytest.param("dims", {"metrics": {"psd_qq": ["flat"]}}, "'psd_qq'",
                     id="metrics-key-unknown"),
        pytest.param("dims", {"metrics": {"gen_q1": ["flat"]}}, "'gen_q1'",
                     id="metrics-key-other-case"),
        pytest.param("dims", {"metrics": {"psd_embedded": ["flat"]}}, "'psd_embedded'",
                     id="metrics-key-embedded"),
        # a family for a geometry that no row runs would be silently dropped
        pytest.param("dims", {"geometries": ["psd_q1"], "metrics": {"psd_q2": ["polar"]}},
                     "'psd_q2', which 'geometries' leaves out: ['psd_q1']",
                     id="metrics-key-unselected"),
        pytest.param("check-gradients", {"trials": -1}, "trials",
                     id="trials-negative"),
        pytest.param("bijection-roundtrip", {"directions": 0}, "directions",
                     id="directions-zero"),
        pytest.param("verify-sandwich", {"max_fosp_points": 1.5}, "max_fosp_points",
                     id="max-fosp-points-float"),
        pytest.param("check-gradients",
                     {"problem": {"kind": "sensing", "num_measurements": 2.7}},
                     "num_measurements", id="num-measurements-float"),
        pytest.param("check-gradients",
                     {"problem": {"kind": "sensing", "num_measurements": True}},
                     "num_measurements", id="num-measurements-bool"),
        pytest.param("classify",
                     {"problem": {"kind": "sensing", "num_measurements": 0}},
                     "num_measurements", id="num-measurements-zero"),
        pytest.param("check-gradients",
                     {"problem": {"kind": "sensing", "num_measurements": "abc"}},
                     "num_measurements", id="num-measurements-string"),
        pytest.param("dims", {"seed": 2.5}, "seed", id="seed-float"),
        pytest.param("dims", {"seed": -1}, "seed", id="seed-negative"),
        pytest.param("flow-compare", {"flow": "x"}, "'flow'", id="flow-string"),
        pytest.param("flow-compare", {"flow": {"T": True}}, "flow.T", id="flow-T-bool"),
        pytest.param("flow-compare", {"flow": {"dt": 0}}, "flow.dt", id="flow-dt-zero"),
        pytest.param("flow-compare", {"flow": {"T": float("inf")}}, "flow.T",
                     id="flow-T-infinite"),
        # round(T / dt) = 0 RK4 steps: a flow check over one state compares nothing
        pytest.param("flow-compare", {"flow": {"T": 0.004, "dt": 0.01}}, "flow.T",
                     id="flow-no-steps"),
        # a key the runner does not read is an error, not a silent default;
        # each tolerance is a constant of the code, which no config sets
        pytest.param("verify-sandwich",
                     {"tolerances": {"identity_rtol": 10, "sandwich_margin": 10}},
                     "'tolerances'", id="tolerances-key"),
        pytest.param("check-gradients", {"trails": 1}, "'trails'",
                     id="top-level-key-misspelled"),
        pytest.param("dims", {"problem": {"rank": 3}}, "'rank'",
                     id="problem-key-unknown"),
    ])
    def test_invalid_config_exits_2_no_report(self, tmp_path, command, cfg, field):
        path = write_config(tmp_path, "c.json", cfg)
        out = tmp_path / "report.json"
        proc = run_cli([command, "--config", str(path), "--out", str(out)],
                       tmp_path)
        assert_input_error(proc)
        assert field in proc.stderr, proc.stderr
        assert not out.exists()

    # a problem key that the problem's kind never reads is an error: a
    # completion target CSV only shifted the generator's stream
    @pytest.mark.parametrize("kind,key,value", [
        ("completion", "target_csv", "m.csv"), ("sensing", "target_csv", "m.csv"),
        ("approx", "mask_csv", "m.csv"), ("sensing", "mask_csv", "m.csv"),
        ("approx", "mask_density", 0.5), ("sensing", "mask_density", 0.5),
        ("approx", "num_measurements", 5), ("completion", "num_measurements", 5),
    ])
    def test_key_the_kind_never_reads_is_refused(self, kind, key, value):
        with pytest.raises(cli.ConfigError, match=f"'{key}'.*'{kind}'"):
            cli._plan({"problem": {"case": "general", "kind": kind, key: value}})

    def test_key_of_the_kind_is_planned(self):
        values = {"target_csv": "m.csv", "mask_csv": "m.csv", "mask_density": 0.5,
                  "num_measurements": 5}
        for key, kind in cli.KIND_KEYS.items():
            plan = cli._plan({"problem": {"kind": kind, key: values[key]}})
            assert plan.problem[key] == values[key]

    def test_completion_target_csv_exits_2_no_report(self, tmp_path):
        path = tmp_path / "m.csv"
        np.savetxt(path, 1e3 * np.ones((5, 4)), delimiter=",")
        cfg = write_config(tmp_path, "c.json",
                           {"problem": {"case": "general", "kind": "completion",
                                        "p1": 5, "p2": 4, "target_csv": str(path)}})
        out = tmp_path / "report.json"
        proc = run_cli(["check-gradients", "--config", str(cfg), "--out", str(out)],
                       tmp_path)
        assert_input_error(proc)
        assert "target_csv" in proc.stderr and "completion" in proc.stderr, proc.stderr
        assert not out.exists()

    def test_benchmark_workloads_plan(self):
        # the benchmark's configs pass no key their kind does not read
        spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for name in workloads.WORKLOADS:
            for rep in workloads.reports(name, 0):
                cli._plan(rep.config)

    # a path is a string: open() takes an integer for a file descriptor, and
    # np.loadtxt takes a list of strings for the lines of an inline CSV
    @pytest.mark.parametrize("cfg,field", [
        pytest.param({"output": 1}, "output", id="output-int"),
        pytest.param({"output": ["a"]}, "output", id="output-list"),
        pytest.param({"problem": {"kind": "completion", "mask_csv": ["1,1,1,1,1"] * 5}},
                     "mask_csv", id="mask-csv-lines"),
        pytest.param({"problem": {"target_csv": ["1,1,1,1,1"] * 5}}, "target_csv",
                     id="target-csv-lines"),
    ])
    def test_path_not_a_string_exits_2_no_report(self, tmp_path, cfg, field):
        path = write_config(tmp_path, "c.json", cfg)
        proc = run_cli(["dims", "--config", str(path)], tmp_path)
        assert_input_error(proc)
        assert field in proc.stderr, proc.stderr
        assert proc.stdout == ""
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    # a report that passes on zero checks would verify nothing
    @pytest.mark.parametrize("command,cfg", [
        pytest.param("dims", {"geometries": []}, id="dims-no-geometries"),
        pytest.param("bijection-roundtrip", {"geometries": ["psd_embedded"]},
                     id="bijection-embedded-only"),
        pytest.param("verify-sandwich",
                     {"geometries": ["psd_embedded"], "max_fosp_points": 1},
                     id="sandwich-embedded-only"),
    ])
    def test_zero_checks_exits_2_no_report(self, tmp_path, command, cfg):
        path = write_config(tmp_path, "c.json", cfg)
        out = tmp_path / "report.json"
        proc = run_cli([command, "--config", str(path), "--out", str(out)],
                       tmp_path)
        assert_input_error(proc)
        assert "no checks" in proc.stderr, proc.stderr
        assert not out.exists()

    def test_embedded_only_classify_still_runs(self, tmp_path):
        # classify always labels the embedded geometry, so one check per FOSP
        cfg = write_config(
            tmp_path, "c.json",
            {"problem": {"case": "general", "p1": 4, "p2": 3, "r": 2},
             "geometries": ["gen_embedded"], "max_fosp_points": 1},
        )
        out = tmp_path / "report.json"
        proc = run_cli(["classify", "--config", str(cfg), "--out", str(out),
                        "--no-timestamp"], tmp_path)
        report = read_report(proc, out)
        assert len(report["checks"]) == 1 and report["passed"]


# each tolerance a report echoes: the module that owns it, the constant its
# check reads, the command that runs that check and the check's name prefix,
# or None for verify_sandwich's FOSP precondition, which raises
OWNERS = {
    "grad_fd_rtol": (cli, "GRAD_FD_RTOL", "check-gradients", "gradient-fd/"),
    "roundtrip_rtol": (cli, "ROUNDTRIP_RTOL", "bijection-roundtrip", "bijection/"),
    "bound_slack": (cli, "BOUND_SLACK", "bijection-roundtrip", "bijection/"),
    "sandwich_margin": (landscape, "SANDWICH_MARGIN", "verify-sandwich", "sandwich/"),
    "identity_rtol": (landscape, "IDENTITY_RTOL", "verify-sandwich", "sandwich/"),
    "fosp_tol": (landscape, "FOSP_TOL", "verify-sandwich", None),
    "flow_identical_tol": (cli, "FLOW_IDENTICAL_TOL", "flow-compare", "flow-identical/"),
    "flow_difference_tol": (cli, "FLOW_DIFFERENCE_TOL", "flow-compare",
                            "flow-difference/"),
}


@pytest.mark.parametrize("key", sorted(OWNERS))
def test_each_echoed_tolerance_is_the_constant_its_check_reads(key, tmp_path, monkeypatch):
    # the echo is the constant itself, and the check reads that constant: its
    # rows pass as the code stands and fail when the constant is NaN
    module, name, command, prefix = OWNERS[key]
    assert set(cli.TOLERANCES) == set(OWNERS)
    assert cli.TOLERANCES[key] is getattr(module, name)
    config = {"problem": {"case": "psd", "p1": 4, "r": 2}, "trials": 1,
              "directions": 4, "max_fosp_points": 1, "flow": {"T": 0.1, "dt": 0.05}}

    def rows():
        report, _ = cli.run(command, config, out_path=tmp_path / "r.json",
                            no_timestamp=True)
        assert report["tolerances"] is cli.TOLERANCES
        return [c["passed"] for c in report["checks"]
                if prefix and c["name"].startswith(prefix)]

    assert all(rows())
    monkeypatch.setattr(module, name, float("nan"))
    if prefix is None:
        with pytest.raises(ValueError, match="not a FOSP"):
            rows()
    else:
        passed = rows()
        assert passed and not any(passed)


class TestOtherCommands:
    def test_check_gradients_passes(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {"problem": {"case": "general", "p1": 4, "p2": 3, "r": 2},
             "trials": 2, "seed": 7},
        )
        proc = run_cli(["check-gradients", "--config", str(cfg),
                        "--no-timestamp"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        names = {c["name"] for c in report["checks"]}
        assert "gradient-fd/gen_embedded" in names
        assert "gradient-fd/gen_q3/matched" in names

    def test_bijection_roundtrip_passes(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {"problem": {"case": "psd", "p1": 4, "r": 2},
             "trials": 1, "directions": 50, "seed": 2},
        )
        proc = run_cli(["bijection-roundtrip", "--config", str(cfg),
                        "--no-timestamp"], tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_classify_agreement(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {"problem": {"case": "psd", "p1": 4, "r": 1},
             "max_fosp_points": 3, "seed": 3},
        )
        proc = run_cli(["classify", "--config", str(cfg), "--no-timestamp"],
                       tmp_path)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert all(c["details"]["agreement"] for c in report["checks"])

    def test_flow_compare_passes(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {"problem": {"case": "general", "p1": 4, "p2": 3, "r": 2},
             "flow": {"T": 0.5, "dt": 0.01}, "seed": 4},
        )
        proc = run_cli(["flow-compare", "--config", str(cfg),
                        "--no-timestamp"], tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_diverging_flow_fails_a_check(self, tmp_path):
        # RK4 at dt = 20 overflows; the trace ends, degenerate, where a
        # decomposition of the state fails, and the report is still written
        cfg = write_config(
            tmp_path, "c.json",
            {"problem": {"case": "general", "p1": 6, "p2": 5, "r": 2},
             "flow": {"T": 1000, "dt": 20}, "seed": 3},
        )
        out = tmp_path / "report.json"
        proc = run_cli(["flow-compare", "--config", str(cfg), "--out", str(out),
                        "--no-timestamp"], tmp_path)
        report = read_report(proc, out, status=1)
        identical = report["checks"][0]
        assert identical["name"] == "flow-identical/gen_q3"
        assert not identical["passed"]
        assert identical["details"]["steps"] < 50
        # the overflowed states give a NaN residual: a failed sample, not one
        # to skip
        difference = report["checks"][1]
        assert difference["name"] == "flow-difference/gen_q1"
        assert not difference["passed"]
        assert np.isnan(difference["details"]["max_rel_residual"])

    def test_nan_gradient_sample_fails_its_check(self, tmp_path, monkeypatch):
        # a NaN after a measured trial: the builtin max would keep the 0.0
        samples = iter([0.0, float("nan"), 0.0])
        monkeypatch.setattr(cli, "_grad_fd_maxrel",
                            lambda point, obj, metric: next(samples))
        config = {"problem": {"case": "psd", "p1": 4, "r": 2},
                  "geometries": ["psd_embedded"], "trials": 3}
        report, status = cli.run("check-gradients", config,
                                 out_path=tmp_path / "report.json", no_timestamp=True)
        assert status == 1
        (check,) = report["checks"]
        assert check["name"] == "gradient-fd/psd_embedded"
        assert not check["passed"]
        assert np.isnan(check["details"]["max_rel_err"])

    def test_mask_csv_loaded(self, tmp_path):
        rng = np.random.default_rng(1)
        mask = (rng.random((4, 3)) < 0.8).astype(float)
        path = tmp_path / "mask.csv"
        np.savetxt(path, mask, delimiter=",")
        cfg = write_config(
            tmp_path, "c.json",
            {"problem": {"case": "general", "kind": "completion",
                         "p1": 4, "p2": 3, "r": 2, "mask_csv": str(path)}},
        )
        proc = run_cli(["dims", "--config", str(cfg), "--no-timestamp"],
                       tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_csv_target_loaded(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4))
        m = (m + m.T) / 2
        path = tmp_path / "m.csv"
        np.savetxt(path, m, delimiter=",")
        cfg = write_config(
            tmp_path, "c.json",
            {"problem": {"case": "psd", "p1": 4, "r": 2,
                         "target_csv": str(path)}},
        )
        proc = run_cli(["dims", "--config", str(cfg), "--no-timestamp"],
                       tmp_path)
        assert proc.returncode == 0, proc.stderr


def test_psd_sensing_build_symmetrizes_the_drawn_operators_once():
    # the objective symmetrizes the drawn operators, and the observations of
    # the symmetric truth A A^T against the raw draw are those against the
    # symmetrized one up to rounding
    p, r, seed = 40, 3, 1
    plan = cli._plan({"problem": {"kind": "sensing", "case": "psd", "p1": p, "r": r}})
    obj = cli._build_objective(plan.problem, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)  # the build's draws, in order
    rng.standard_normal((p, p))  # target, unread by sensing
    rng.standard_normal((p, r)) @ rng.standard_normal((r, p))  # the general truth
    a = rng.standard_normal((p, r))
    draw = rng.standard_normal((3 * 2 * p * r, p, p))
    assert np.array_equal(obj.op, sym(draw))
    want = np.tensordot(sym(draw), a @ a.T, axes=([1, 2], [0, 1]))
    assert np.max(np.abs(obj.target - want)) <= 1e-12 * np.max(np.abs(want))


class TestDeterminism:
    @pytest.mark.parametrize("command,extra", [
        ("dims", {}),
        ("verify-sandwich", {"max_fosp_points": 2, "directions": 10}),
    ])
    def test_byte_identical_reports(self, tmp_path, command, extra):
        cfg_dict = {"problem": {"case": "psd", "p1": 4, "r": 2}, "seed": 11}
        cfg_dict.update(extra)
        cfg = write_config(tmp_path, "c.json", cfg_dict)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = run_cli([command, "--config", str(cfg), "--out", str(out),
                            "--no-timestamp"], tmp_path)
            read_report(proc, out)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {"problem": {"case": "psd", "p1": 4, "r": 2}, "seed": 1},
        )
        out = tmp_path / "r.json"
        proc = run_cli(["check-gradients", "--config", str(cfg), "--seed",
                        "99", "--out", str(out), "--no-timestamp"], tmp_path)
        report = read_report(proc, out)
        assert report["seed"] == 99


MAX_RSS = Path(__file__).resolve().parent / "max_rss.py"


@pytest.mark.parametrize("limit_mb,code,status", [
    ("10000", "pass", 0),  # under the limit
    ("0.001", "pass", 1),  # any interpreter is over a 1 KB limit
    ("10000", "raise SystemExit(3)", 3),  # the child's own failure
])
def test_max_rss_wrapper_reads_the_child(limit_mb, code, status):
    proc = subprocess.run([sys.executable, str(MAX_RSS), limit_mb, sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == status
    assert proc.stdout.startswith("peak RSS ")
