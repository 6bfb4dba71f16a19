"""Configuration-driven experiment runner.

Usage:
    georank <command> --config <file> [--seed N] [--out <file>] [--no-timestamp]

Commands: dims, check-gradients, bijection-roundtrip, verify-sandwich,
classify, flow-compare. Each command reads a JSON experiment config, runs its
checks, and writes a machine-readable JSON report (schema georank-report/1).
Exit status: 0 all checks passed, 1 some check failed (report still written),
2 configuration or I/O error (no report).

Synthetic problems are generated from the seed by the Gaussian-then-truncate
recipe: targets for the approximation objective are dense standard Gaussian
matrices (symmetrized in the PSD case); completion/sensing ground truths are
Gaussian factors multiplied into a rank-r matrix, with Bernoulli masks or
Gaussian measurement matrices drawn from the same generator. Identical
config + seed therefore reproduces identical reports byte for byte (with
--no-timestamp, which also drops wall-clock timings).
"""

import argparse
import datetime
import itertools
import json
import sys
import time

import numpy as np

from .embedded import (
    project_rank_r,
    retract,
    riem_grad_embedded,
    tangent_basis,
)
from .flows import compare_flows, flow_field
from .landscape import (
    analytic_fosps,
    classify_point,
    find_fosp,
    hessian_spectrum,
    verify_sandwich,
)
from .linalg import sym
from .objectives import (
    load_matrix_csv,
    make_masked_completion,
    make_matrix_approx,
    make_matrix_sensing,
)
from .quotient import (
    EMBEDDED,
    geometries,
    horizontal_basis,
    lift_point,
    metric_choices,
    metric_family,
    metric_inner,
    quotient_dim,
    random_horizontal,
    random_point,
    riem_grad_quotient,
    total_curve,
)
from .transport import forward_map, inverse_map, spectrum_bounds

COMMANDS = (
    "dims",
    "check-gradients",
    "bijection-roundtrip",
    "verify-sandwich",
    "classify",
    "flow-compare",
)

DEFAULT_TOLERANCES = {
    "grad_fd_rtol": 1e-6,
    "roundtrip_rtol": 1e-9,
    "bound_slack": 1e-10,
    "sandwich_margin": 1e-8,
    "identity_rtol": 1e-8,
    "fosp_tol": 1e-8,
    "flow_identical_tol": 1e-8,
    "flow_difference_tol": 1e-10,
}


class ConfigError(Exception):
    pass


COUNTS = ("trials", "directions", "max_fosp_points")


def _is_number(value, types=(int, float)):
    return isinstance(value, types) and not isinstance(value, bool)


def _problem_cfg(config):
    problem = config.get("problem", {})
    if not isinstance(problem, dict):
        raise ConfigError("'problem' must be an object")
    prob = dict(problem)
    prob.setdefault("kind", "approx")
    prob.setdefault("case", "psd")
    prob.setdefault("p1", 5)
    prob.setdefault("p2", prob["p1"] if prob["case"] == "psd" else 4)
    prob.setdefault("r", 2)
    prob.setdefault("mask_density", 0.7)
    if prob["case"] == "psd":
        prob["p2"] = prob["p1"]
    if prob["kind"] not in ("approx", "completion", "sensing"):
        raise ConfigError(f"unknown problem kind {prob['kind']!r}")
    if prob["case"] not in ("psd", "general"):
        raise ConfigError(f"unknown problem case {prob['case']!r}")
    for key in ("p1", "p2", "r"):
        if not _is_number(prob[key], int):
            raise ConfigError(f"problem {key} must be an integer, got {prob[key]!r}")
    if not 1 <= prob["r"] <= min(prob["p1"], prob["p2"]):
        raise ConfigError("rank r must satisfy 1 <= r <= min(p1, p2)")
    if not (_is_number(prob["mask_density"]) and 0 <= prob["mask_density"] <= 1):
        raise ConfigError(f"mask_density must be a number in [0, 1], got "
                          f"{prob['mask_density']!r}")
    n_meas = prob.get("num_measurements", 1)
    if not (_is_number(n_meas, int) and n_meas >= 1):
        raise ConfigError(f"num_measurements must be an integer >= 1, got {n_meas!r}")
    return prob


def _validate(config, prob):
    """Reject malformed counts, seeds, flow settings, lists and metric names
    before anything runs."""
    for key in COUNTS:
        if key in config and not (_is_number(config[key], int) and config[key] >= 1):
            raise ConfigError(f"{key} must be an integer >= 1, got {config[key]!r}")
    seed = config.get("seed", 0)
    if not (_is_number(seed, int) and seed >= 0):
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    flow = config.get("flow", {})
    if not isinstance(flow, dict):
        raise ConfigError(f"'flow' must be an object, got {flow!r}")
    for key in ("T", "dt"):
        if key in flow and not (_is_number(flow[key]) and 0 < flow[key] < np.inf):
            raise ConfigError(f"flow.{key} must be a finite number > 0, "
                              f"got {flow[key]!r}")
    if not isinstance(config.get("geometries", []), list):
        raise ConfigError("'geometries' must be a list of names")
    metrics = config.get("metrics", {})
    if not (isinstance(metrics, dict)
            and all(isinstance(v, list) and v for v in metrics.values())):
        raise ConfigError("'metrics' must map geometries to non-empty lists of names")
    for geometry in _geometries(config, prob):
        _metric_names(config, geometry)


def _geometries(config, prob):
    default = geometries(prob["case"])
    geos = config.get("geometries", list(default))
    for g in geos:
        if g not in default:
            raise ConfigError(
                f"geometry {g!r} invalid for the {prob['case']} case; "
                f"choose from {list(default)}"
            )
    return geos


def _metric_names(config, geometry):
    if geometry.endswith("embedded"):
        return [None]
    chosen = config.get("metrics", {})
    if geometry in chosen:
        names = chosen[geometry]
        for n in names:
            if n not in metric_choices(geometry):
                raise ConfigError(f"metric {n!r} unknown for {geometry}")
        return names
    return metric_choices(geometry)


def _tolerances(config):
    given = config.get("tolerances", {})
    if not isinstance(given, dict):
        raise ConfigError("'tolerances' must be an object")
    tols = dict(DEFAULT_TOLERANCES)
    tols.update(given)
    for key, value in tols.items():
        if not (_is_number(value) and 0 < value < np.inf):
            raise ConfigError(f"tolerance {key} must be a finite number > 0, "
                              f"got {value!r}")
    return tols


def _build_objective(prob, rng):
    p1, p2, r = prob["p1"], prob["p2"], prob["r"]
    symmetric = prob["case"] == "psd"
    if prob.get("target_csv"):
        target = load_matrix_csv(prob["target_csv"])
        if target.shape != (p1, p2):
            raise ConfigError(
                f"target CSV has shape {target.shape}, expected {(p1, p2)}"
            )
    else:
        target = rng.standard_normal((p1, p2))
        if symmetric:
            target = sym(target)
    if prob["kind"] == "approx":
        return make_matrix_approx(target, symmetric=symmetric)
    # Gaussian-then-truncate ground truth for the observed problems
    truth = rng.standard_normal((p1, r)) @ rng.standard_normal((r, p2))
    if symmetric:
        a = rng.standard_normal((p1, r))
        truth = a @ a.T
    if prob["kind"] == "completion":
        if prob.get("mask_csv"):
            mask = load_matrix_csv(prob["mask_csv"])
        else:
            mask = (rng.random((p1, p2)) < prob["mask_density"]).astype(float)
            if symmetric:
                mask = np.triu(mask)
                mask = np.clip(mask + mask.T, 0, 1)
        return make_masked_completion(truth, mask, symmetric=symmetric)
    n_meas = prob.get("num_measurements", 3 * (p1 + p2) * r)
    ops = rng.standard_normal((n_meas, p1, p2))
    if symmetric:
        ops = np.array([sym(a) for a in ops])
    obs = np.tensordot(ops, truth, axes=([1, 2], [0, 1]))
    return make_matrix_sensing(ops, obs, symmetric=symmetric)


def _random_point(geometry, prob, rng):
    return random_point(geometry, prob["p1"], prob["p2"], prob["r"], rng)


# ---------------------------------------------------------------------------
# commands


def _quotient_metrics(config, prob):
    """(geometry, metric name, metric family) over the configured quotients."""
    for geometry in _geometries(config, prob):
        if not geometry.endswith("embedded"):
            for mname in _metric_names(config, geometry):
                yield geometry, mname, metric_family(geometry, mname)


def cmd_dims(config, prob, obj, rng, tols):
    checks = []
    for geometry in _geometries(config, prob):
        expected = quotient_dim(geometry, prob["p1"], prob["p2"], prob["r"])
        point = _random_point(geometry, prob, rng)
        if geometry.endswith("embedded"):
            count = len(tangent_basis(point))
        else:
            metric = metric_family(geometry, _metric_names(config, geometry)[0])
            count = len(horizontal_basis(point, metric)[0])
        checks.append(
            {
                "name": f"dims/{geometry}",
                "passed": count == expected,
                "details": {"count": count, "expected": expected},
            }
        )
    return checks


def _grad_fd_maxrel(point_or_z, obj, geometry, metric, h=1e-5):
    """Max relative gap between g(grad, b) and a central difference of the
    objective along the basis curves, normalized by the largest directional
    derivative."""
    lhs, rhs = [], []
    if geometry.endswith("embedded"):
        pt = point_or_z
        grad = riem_grad_embedded(pt, obj)
        for b in tangent_basis(pt):
            lhs.append(float(np.sum(grad.ambient() * b.ambient())))
            fp = obj.value(retract(pt, b, h).X)
            fm = obj.value(retract(pt, b, -h).X)
            rhs.append((fp - fm) / (2.0 * h))
    else:
        z = point_or_z
        grad = riem_grad_quotient(z, obj, metric)
        basis, _ = horizontal_basis(z, metric)
        for b in basis:
            lhs.append(metric_inner(z, grad, b, metric))
            curve = total_curve(z, b)
            fp = obj.value(curve(h).X)
            fm = obj.value(curve(-h).X)
            rhs.append((fp - fm) / (2.0 * h))
    lhs, rhs = np.array(lhs), np.array(rhs)
    denom = max(np.max(np.abs(rhs)), 1e-300)
    return float(np.max(np.abs(lhs - rhs)) / denom)


def cmd_check_gradients(config, prob, obj, rng, tols):
    trials = int(config.get("trials", 5))
    checks = []
    for geometry in _geometries(config, prob):
        for mname in _metric_names(config, geometry):
            metric = None if mname is None else metric_family(geometry, mname)
            worst = 0.0
            for _ in range(trials):
                point = _random_point(geometry, prob, rng)
                worst = max(worst, _grad_fd_maxrel(point, obj, geometry, metric))
            checks.append(
                {
                    "name": f"gradient-fd/{geometry}"
                    + (f"/{mname}" if mname else ""),
                    "passed": worst <= tols["grad_fd_rtol"],
                    "details": {"max_rel_err": worst,
                                "tolerance": tols["grad_fd_rtol"],
                                "trials": trials},
                }
            )
    return checks


def cmd_bijection(config, prob, obj, rng, tols):
    trials = int(config.get("trials", 3))
    n_vec = int(config.get("directions", 200))
    checks = []
    for geometry, mname, metric in _quotient_metrics(config, prob):
        worst_rt, worst_slack = 0.0, 0.0
        for _ in range(trials):
            z = _random_point(geometry, prob, rng)
            coeffs = spectrum_bounds(z, metric)
            for _ in range(n_vec):
                theta = random_horizontal(z, metric, rng)
                xi = forward_map(z, theta, metric)
                back = inverse_map(z, xi, metric)
                num = np.sqrt(
                    sum(np.sum((a - b) ** 2)
                        for a, b in zip(theta.parts, back.parts))
                )
                worst_rt = max(worst_rt, num / max(theta.raw_norm(), 1e-300))
                q = metric_inner(z, theta, theta, metric)
                nrm2 = xi.norm() ** 2
                ref = max(1.0, coeffs.beta * q)
                worst_slack = max(
                    worst_slack,
                    (coeffs.alpha * q - nrm2) / ref,
                    (nrm2 - coeffs.beta * q) / ref,
                )
        checks.append(
            {
                "name": f"bijection/{geometry}/{mname}",
                "passed": (worst_rt <= tols["roundtrip_rtol"]
                           and worst_slack <= tols["bound_slack"]),
                "details": {
                    "max_roundtrip_rel_err": worst_rt,
                    "max_bound_violation": worst_slack,
                    "vectors": n_vec * trials,
                },
            }
        )
    return checks


def _fosp_points(config, prob, obj, rng):
    """The FOSPs to check, and the checks that start the report: none, or a
    failed ``fosp-search`` when no ``find_fosp`` start converges."""
    max_points = int(config.get("max_fosp_points", 4))
    if prob["kind"] == "approx":
        return list(itertools.islice(analytic_fosps(obj, prob["r"]), max_points)), []
    kind_tag = EMBEDDED[prob["case"]]
    pts = []
    for _ in range(max_points):
        res = find_fosp(obj, _random_point(kind_tag, prob, rng),
                        max_iter=20000, tol=1e-10)
        if res.converged:
            pts.append(res.point)
    if pts:
        return pts, []
    return [], [{"name": "fosp-search", "passed": False,
                  "details": {"starts": max_points, "converged": 0}}]


def cmd_verify_sandwich(config, prob, obj, rng, tols):
    fosps, checks = _fosp_points(config, prob, obj, rng)
    n_dir = int(config.get("directions", 100))
    # every (geometry, metric) row at a FOSP shares its embedded spectrum
    spectra = [hessian_spectrum(pt, obj, EMBEDDED[prob["case"]]) for pt in fosps]
    for geometry, mname, metric in _quotient_metrics(config, prob):
        for i, (pt, spectrum) in enumerate(zip(fosps, spectra)):
            report = verify_sandwich(
                lift_point(pt, geometry), obj, metric, spectrum, rng,
                n_directions=n_dir,
                margin_tol=tols["sandwich_margin"],
                identity_rtol=tols["identity_rtol"],
                fosp_tol=tols["fosp_tol"],
            )
            checks.append(
                {
                    "name": f"sandwich/{geometry}/{mname}/fosp{i}",
                    "passed": report["passed"],
                    "details": report,
                }
            )
    return checks


def cmd_classify(config, prob, obj, rng, tols):
    fosps, checks = _fosp_points(config, prob, obj, rng)
    for i, pt in enumerate(fosps):
        labels = {}
        tag = EMBEDDED[prob["case"]]
        labels[tag] = classify_point(pt, obj, tag).to_dict()
        for geometry, mname, metric in _quotient_metrics(config, prob):
            cls = classify_point(lift_point(pt, geometry), obj, geometry, metric)
            labels[f"{geometry}/{mname}"] = cls.to_dict()
        names = {v["label"] for v in labels.values()}
        checks.append(
            {
                "name": f"classify/fosp{i}",
                "passed": len(names) == 1,
                "details": {"labels": labels, "agreement": len(names) == 1},
            }
        )
    return checks


def cmd_flow_compare(config, prob, obj, rng, tols):
    flow_cfg = config.get("flow", {})
    t_final = float(flow_cfg.get("T", 1.0))
    dt = float(flow_cfg.get("dt", 1e-2))
    x0 = _random_point(EMBEDDED[prob["case"]], prob, rng)
    if prob["case"] == "psd":
        identical = (("psd_embedded", None), ("psd_q2", "matched"))
        q1 = ("psd_q1", "double-gram")
        emb = ("psd_embedded", None)
    else:
        identical = (("gen_embedded", None), ("gen_q3", "matched"))
        q1 = ("gen_q1", "crossed-gram")
        emb = ("gen_embedded", None)

    out = compare_flows(x0, obj, identical[0], identical[1], t_final, dt)
    checks = [
        {
            "name": f"flow-identical/{identical[1][0]}",
            "passed": (not out["degenerate"]
                       and out["max_deviation"] <= tols["flow_identical_tol"]),
            "details": {"max_deviation": out["max_deviation"],
                        "tolerance": tols["flow_identical_tol"],
                        "steps": len(out["times"]) - 1},
        }
    ]

    # the q1 field differs from the embedded one by the doubly projected term
    trace = out["trace_a"]
    worst = 0.0
    stride = max(1, len(trace.states) // 16)
    for x in trace.states[::stride]:
        pt = project_rank_r(x, x0.r, x0.kind)
        f_emb = flow_field(pt, obj, emb)
        f_q1 = flow_field(pt, obj, q1)
        pu = pt.U @ pt.U.T
        nabla = obj.egrad(pt.X)
        pr = pu @ nabla @ pu if prob["case"] == "psd" else pu @ nabla @ (pt.V @ pt.V.T)
        resid = np.linalg.norm((f_emb - f_q1) - pr)
        worst = max(worst, resid / max(1.0, np.linalg.norm(pr)))
    checks.append(
        {
            "name": f"flow-difference/{q1[0]}",
            "passed": worst <= tols["flow_difference_tol"],
            "details": {"max_rel_residual": worst,
                        "tolerance": tols["flow_difference_tol"]},
        }
    )
    return checks


DISPATCH = {
    "dims": cmd_dims,
    "check-gradients": cmd_check_gradients,
    "bijection-roundtrip": cmd_bijection,
    "verify-sandwich": cmd_verify_sandwich,
    "classify": cmd_classify,
    "flow-compare": cmd_flow_compare,
}


def run(command, config, seed=None, out_path=None, no_timestamp=False):
    """Run one command; returns (report dict, exit status)."""
    if command not in DISPATCH:
        raise ConfigError(f"unknown command {command!r}")
    cfg_command = config.get("command")
    if cfg_command is not None and cfg_command != command:
        raise ConfigError(
            f"config requests command {cfg_command!r} but {command!r} was invoked"
        )
    prob = _problem_cfg(config)
    tols = _tolerances(config)
    _validate(config, prob)
    if seed is None:
        seed = config.get("seed", 0)
    rng = np.random.default_rng(seed)
    obj = _build_objective(prob, rng)

    started = time.perf_counter()
    checks = DISPATCH[command](config, prob, obj, rng, tols)
    elapsed = time.perf_counter() - started
    if not checks:
        # a report that passes on zero checks would verify nothing
        raise ConfigError(f"{command} has no checks to run for the configured geometries")

    report = {
        "schema": "georank-report/1",
        "command": command,
        "seed": seed,
        "problem": prob,
        "tolerances": tols,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    if not no_timestamp:
        report["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat()
        report["elapsed_seconds"] = elapsed

    text = json.dumps(_jsonify(report), indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return report, 0 if report["passed"] else 1


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="georank",
        description="verification suites for fixed-rank geometry connections",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="report path (default: config "
                        "'output' field, else stdout)")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit timestamp/timing for byte-reproducible reports")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("config root must be a JSON object")
        out_path = args.out or config.get("output")
        _, status = run(args.command, config, seed=args.seed, out_path=out_path,
                        no_timestamp=args.no_timestamp)
        return status
    except (ConfigError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"georank: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
