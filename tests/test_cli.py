"""Experiment-runner CLI: exit codes, report schema, determinism."""

import json
import types

import numpy as np
import pytest

from georank import cli

from util import run_cli


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
        # stationary points came from the solver, not the analytic oracle
        assert all(c["details"]["grad_norm"] < 1e-8 for c in report["checks"])


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

        def no_fosp(obj, init, max_iter, tol):
            starts.append(init)
            return types.SimpleNamespace(converged=False, point=init, iterations=max_iter)

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
        assert report["checks"] == [{"name": "fosp-search", "passed": False,
                                     "details": {"starts": 3, "converged": 0}}]
        assert len(starts) == 3

    def test_failed_check_exits_1_with_report(self, tmp_path):
        # an impossible tolerance forces a failing check
        cfg = write_config(
            tmp_path, "c.json",
            {
                "problem": {"case": "psd", "p1": 4, "r": 2},
                "trials": 1,
                "tolerances": {"grad_fd_rtol": 1e-30},
            },
        )
        out = tmp_path / "report.json"
        proc = run_cli(["check-gradients", "--config", str(cfg), "--out",
                        str(out), "--no-timestamp"], tmp_path)
        report = read_report(proc, out, status=1)
        assert not report["passed"]


    # each is read before any command runs: wrong types, out-of-range
    # counts and tolerances, strings where lists belong; the message names
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
        pytest.param("check-gradients", {"tolerances": {"grad_fd_rtol": "x"}},
                     "grad_fd_rtol", id="tolerance-string"),
        pytest.param("bijection-roundtrip", {"tolerances": {"grad_fd_rtol": "x"}},
                     "grad_fd_rtol", id="unread-tolerance-string"),
        pytest.param("check-gradients", {"tolerances": {"grad_fd_rtol": 0}},
                     "grad_fd_rtol", id="tolerance-zero"),
        pytest.param("check-gradients",
                     {"tolerances": {"grad_fd_rtol": float("inf")}},
                     "grad_fd_rtol", id="tolerance-infinite"),
        pytest.param("bijection-roundtrip",
                     {"tolerances": {"grad_fd_rtol": float("inf")}},
                     "grad_fd_rtol", id="unread-tolerance-infinite"),
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
        # a key the runner does not read is an error, not a silent default
        pytest.param("check-gradients", {"tolerances": {"grad_fd_tol": 1e-30}},
                     "'grad_fd_tol'", id="tolerance-key-misspelled"),
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
