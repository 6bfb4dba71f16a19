"""Configuration-driven experiment runner.

Usage:
    georank <command> --config <file> [--seed N] [--out <file>] [--no-timestamp]

Commands: dims, check-gradients, bijection-roundtrip, verify-sandwich,
classify, flow-compare. Each command reads a JSON experiment config, runs its
checks, and writes a machine-readable JSON report (schema georank-report/1).
check-gradients holds each gradient to complex-step derivatives; its rows
keep the name gradient-fd/..., which the benchmark's gate reads.
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
from dataclasses import dataclass

import numpy as np

from .embedded import (
    EmbeddedPoint,
    riem_grad_embedded,
    tangent_basis,
)
from .flows import compare_flows, flow_field
from .landscape import (
    FOSP_TOL,
    IDENTITY_RTOL,
    SANDWICH_MARGIN,
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
    HORIZ_TOL,
    REGISTRY,
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
)
from .transport import forward_map, inverse_map, spectrum_bounds


class ConfigError(Exception):
    pass


COUNTS = ("trials", "directions", "max_fosp_points")
# vectors per stack in bijection-roundtrip and check-gradients, so memory is flat
# in their count; check-gradients' complex stacks fit STACK_BYTES, as larger ran slower
DIRECTION_BLOCK = 64
STACK_BYTES = 4 << 20
FLOW_DEFAULTS = {"T": 1.0, "dt": 1e-2}
# the keys a config may hold: at the top level ("") and in each of its objects
CONFIG_KEYS = {
    "": {"command", "problem", "geometries", "metrics", "seed", "flow", "output",
         *COUNTS},
    "problem": {"case", "kind", "p1", "p2", "r", "target_csv", "mask_csv",
                "mask_density", "num_measurements"},
    "flow": set(FLOW_DEFAULTS),
}
# the problem keys that one problem kind alone reads
KIND_KEYS = {"target_csv": "approx", "mask_csv": "completion",
             "mask_density": "completion", "num_measurements": "sensing"}


@dataclass(frozen=True)
class Plan:
    """A config checked and resolved: all that a command reads of it."""

    problem: dict  # with its defaults, echoed in the report
    counts: dict  # the counts the config gives
    flow: tuple  # (T, dt)
    # (geometry, family name, MetricFamily), or (geometry, None, None) if embedded
    rows: tuple

    @property
    def quotient_rows(self):
        return [row for row in self.rows if row[2] is not None]

    def point(self, geometry, rng):
        """A random point of the problem's sizes under a geometry."""
        p = self.problem
        return random_point(geometry, p["p1"], p["p2"], p["r"], rng)


def _is_number(value, types=(int, float)):
    return isinstance(value, types) and not isinstance(value, bool)


def _section(name, given):
    """An object of the config, after checking its type and keys."""
    if not isinstance(given, dict):
        raise ConfigError(f"'{name or 'config'}' must be an object, got {given!r}")
    unknown = sorted(set(given) - CONFIG_KEYS[name])
    if unknown:
        where = f"in '{name}'" if name else "at the top level"
        raise ConfigError(f"unknown config key(s) {unknown} {where}; "
                          f"expected one of {sorted(CONFIG_KEYS[name])}")
    return given


def _plan(config):
    """Check the whole config before anything runs, and resolve it into the
    one ``Plan`` every command reads."""
    _section("", config)
    given = _section("problem", config.get("problem", {}))
    prob = {"kind": "approx", "case": "psd", "p1": 5, "r": 2, "mask_density": 0.7, **given}
    if prob["case"] == "psd":
        prob["p2"] = prob["p1"]
    prob.setdefault("p2", 4)
    if prob["kind"] not in ("approx", "completion", "sensing"):
        raise ConfigError(f"unknown problem kind {prob['kind']!r}")
    if prob["case"] not in ("psd", "general"):
        raise ConfigError(f"unknown problem case {prob['case']!r}")
    for key in sorted(KIND_KEYS.keys() & given):
        if KIND_KEYS[key] != prob["kind"]:
            raise ConfigError(f"problem key {key!r} is not read by kind {prob['kind']!r}, "
                              f"only by {KIND_KEYS[key]!r}")
    for key in ("p1", "p2", "r"):
        if not _is_number(prob[key], int):
            raise ConfigError(f"problem {key} must be an integer, got {prob[key]!r}")
    if not 1 <= prob["r"] <= min(prob["p1"], prob["p2"]):
        raise ConfigError("rank r must satisfy 1 <= r <= min(p1, p2)")
    if not (_is_number(prob["mask_density"]) and 0 <= prob["mask_density"] <= 1):
        raise ConfigError(f"mask_density must be a number in [0, 1], got "
                          f"{prob['mask_density']!r}")
    for key, path in (("output", config.get("output", "")),
                      ("problem.target_csv", prob.get("target_csv", "")),
                      ("problem.mask_csv", prob.get("mask_csv", ""))):
        if not isinstance(path, str):
            raise ConfigError(f"{key} must be a path string, got {path!r}")

    counts = {key: config[key] for key in COUNTS if key in config}
    n_meas = prob.get("num_measurements", 1)
    for key, value in [*counts.items(), ("num_measurements", n_meas)]:
        if not (_is_number(value, int) and value >= 1):
            raise ConfigError(f"{key} must be an integer >= 1, got {value!r}")
    seed = config.get("seed", 0)
    if not (_is_number(seed, int) and seed >= 0):
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    flow = {**FLOW_DEFAULTS, **_section("flow", config.get("flow", {}))}
    for key, value in flow.items():
        if not (_is_number(value) and 0 < value < np.inf):
            raise ConfigError(f"flow.{key} must be a finite number > 0, got {value!r}")
    if not flow["T"] / flow["dt"] > 0.5:  # round(T / dt) RK4 steps, at least 1
        raise ConfigError(f"flow.T / flow.dt must give at least one RK4 step, "
                          f"got T = {flow['T']!r} and dt = {flow['dt']!r}")

    case = prob["case"]
    choices = geometries(case)
    geos = config.get("geometries", list(choices))
    if not isinstance(geos, list):
        raise ConfigError("'geometries' must be a list of names")
    for i, g in enumerate(geos):
        if g not in choices or g in geos[:i]:
            raise ConfigError(f"'geometries' must name geometries of {list(choices)}, "
                              f"each once, got {g!r} in {geos}")
    metrics = config.get("metrics", {})
    if not isinstance(metrics, dict):
        raise ConfigError(f"'metrics' must be an object, got {metrics!r}")
    for g, names in metrics.items():
        # choices[0] is the embedded geometry, which takes no family
        if not (g in choices[1:] and isinstance(names, list) and names
                and all(name in metric_choices(g) for name in names)):
            raise ConfigError(f"'metrics' must map geometries of {list(choices[1:])} to "
                              f"non-empty lists of their families, got {g!r}: {names!r}")
        if g not in geos:
            raise ConfigError(f"'metrics' names {g!r}, which 'geometries' leaves out: "
                              f"{geos}")
    rows = []
    for g in geos:
        if g == choices[0]:
            rows.append((g, None, None))
        else:
            rows += [(g, name, metric_family(g, name))
                     for name in metrics.get(g, metric_choices(g))]
    return Plan(prob, counts, (float(flow["T"]), float(flow["dt"])), tuple(rows))


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
    # the objective symmetrizes the operators: <sym(A_i), T> = <A_i, T>, T symmetric
    ops = rng.standard_normal((n_meas, p1, p2))
    obs = np.tensordot(ops, truth, axes=([1, 2], [0, 1]))
    return make_matrix_sensing(ops, obs, symmetric=symmetric)


# ---------------------------------------------------------------------------
# commands


def _check(name, passed, /, **details):  # details may hold a "passed" key
    return {"name": name, "passed": passed, "details": details}


def _worst(samples):
    """The largest of a check's samples and 0, or NaN if any sample is NaN, so
    a check fails on a sample it could not measure (``max`` drops a NaN)."""
    return float(np.max(samples, initial=0.0))


def _horizontal_dim(z, metric, rng):
    """The horizontal space's dimension, measured without L: the number of
    singular values above HORIZ_TOL * s_max of the horizontal projections
    of as many random tangents as the total space has dimensions."""
    n = sum(f.size for f in z.factors)
    parts = random_horizontal(z, metric, rng, n).parts
    s = np.linalg.svd(np.concatenate([a.reshape(n, -1) for a in parts], axis=1),
                      compute_uv=False)
    return int(np.sum(s > HORIZ_TOL * s[0]))


def cmd_dims(plan, obj, rng):
    prob = plan.problem
    checks = []
    for geometry, rows in itertools.groupby(plan.rows, key=lambda row: row[0]):
        expected = quotient_dim(geometry, prob["p1"], prob["p2"], prob["r"])
        point = plan.point(geometry, rng)
        metric = next(rows)[2]
        count = (len(tangent_basis(point)) if metric is None
                 else _horizontal_dim(point, metric, rng))
        checks.append(_check(f"dims/{geometry}", count == expected,
                             count=count, expected=expected))
    return checks


def _grad_fd_maxrel(point, obj, metric):
    """Max relative gap between g(grad, b) and the complex-step derivative
    Im f(x + i h b) / h along each basis vector b of the point's geometry,
    normalized by the largest directional derivative. A first derivative
    reads only the velocity, so x + i h b is the straight line: X + i h b, or
    the factor map of the factors z + i h theta, with no decomposition or
    factor check. No subtraction cancels, so h = 1e-30 leaves the rounding
    alone (Squire & Trapp, SIAM Review 1998). One objective call per n vectors."""
    h = 1e-30
    n = min(DIRECTION_BLOCK, max(1, STACK_BYTES // (16 * obj.shape[0] * obj.shape[1])))
    if isinstance(point, EmbeddedPoint):
        basis = tangent_basis(point)
        lhs = basis.flat() @ riem_grad_embedded(point, obj).flat()

        def line(b):
            return point.X + 1j * h * b.ambient()
    else:
        geo = REGISTRY[point.geometry]
        basis = horizontal_basis(point, metric)[0]
        lhs = metric_inner(point, riem_grad_quotient(point, obj, metric), basis, metric)

        def line(b):
            return geo._product(tuple(f + 1j * h * a for f, a in zip(point.factors, b.parts)))
    rhs = np.concatenate([obj.value(line(basis[i:i + n])).imag / h
                          for i in range(0, len(basis), n)])
    denom = max(np.max(np.abs(rhs)), 1e-300)
    return float(np.max(np.abs(lhs - rhs)) / denom)


# a gradient's relative gap to its complex-step derivatives: rounding alone, at
# most 5.2e-14 on the pointwise benchmark configs at seeds 1-40
GRAD_FD_RTOL = 1e-9


def cmd_check_gradients(plan, obj, rng):
    trials = plan.counts.get("trials", 5)
    checks = []
    for geometry, mname, metric in plan.rows:
        worst = _worst([_grad_fd_maxrel(plan.point(geometry, rng), obj, metric)
                        for _ in range(trials)])
        checks.append(_check(f"gradient-fd/{geometry}" + (f"/{mname}" if mname else ""),
                             worst <= GRAD_FD_RTOL, max_rel_err=worst,
                             tolerance=GRAD_FD_RTOL, trials=trials))
    return checks


ROUNDTRIP_RTOL = 1e-9  # ||theta - L^-1 L theta|| relative to ||theta||
BOUND_SLACK = 1e-10  # relative violation of alpha g(t, t) <= ||L t||^2 <= beta g(t, t)


def cmd_bijection(plan, obj, rng):
    trials = plan.counts.get("trials", 3)
    n_vec = plan.counts.get("directions", 200)
    checks = []
    for geometry, mname, metric in plan.quotient_rows:
        roundtrip, slack = [], []
        for _ in range(trials):
            z = plan.point(geometry, rng)
            coeffs = spectrum_bounds(z, metric)
            for start in range(0, n_vec, DIRECTION_BLOCK):
                theta = random_horizontal(z, metric, rng,
                                          min(DIRECTION_BLOCK, n_vec - start))
                xi = forward_map(z, theta, metric)
                back = inverse_map(z, xi, metric)
                roundtrip.append((theta - back).raw_norm()
                                 / np.maximum(theta.raw_norm(), 1e-300))
                q = metric_inner(z, theta, theta, metric)
                nrm2 = xi.norm() ** 2
                ref = np.maximum(1.0, coeffs.beta * q)
                slack += [(coeffs.alpha * q - nrm2) / ref, (nrm2 - coeffs.beta * q) / ref]
        worst_rt, worst_slack = (_worst(np.concatenate(v)) for v in (roundtrip, slack))
        checks.append(_check(f"bijection/{geometry}/{mname}",
                             worst_rt <= ROUNDTRIP_RTOL and worst_slack <= BOUND_SLACK,
                             max_roundtrip_rel_err=worst_rt,
                             max_bound_violation=worst_slack,
                             vectors=n_vec * trials))
    return checks


def _fosp_points(plan, obj, rng):
    """The FOSPs to check, and the checks that start the report: none, or a
    failed ``fosp-search`` when no ``find_fosp`` start converges."""
    prob = plan.problem
    max_points = plan.counts.get("max_fosp_points", 4)
    if prob["kind"] == "approx":
        return list(itertools.islice(analytic_fosps(obj, prob["r"]), max_points)), []
    kind_tag = EMBEDDED[prob["case"]]
    pts = []
    for _ in range(max_points):
        res = find_fosp(obj, plan.point(kind_tag, rng), max_iter=20000, tol=1e-10)
        if res.converged:
            pts.append(res.point)
    if pts:
        return pts, []
    return [], [_check("fosp-search", False, starts=max_points, converged=0)]


def cmd_verify_sandwich(plan, obj, rng):
    fosps, checks = _fosp_points(plan, obj, rng)
    # every (geometry, metric) row at a FOSP shares its embedded spectrum
    spectra = [hessian_spectrum(pt, obj) for pt in fosps]
    for geometry, mname, metric in plan.quotient_rows:
        for i, (pt, spectrum) in enumerate(zip(fosps, spectra)):
            report = verify_sandwich(lift_point(pt, geometry), obj, metric, spectrum)
            checks.append(_check(f"sandwich/{geometry}/{mname}/fosp{i}",
                                 report["passed"], **report))
    return checks


def cmd_classify(plan, obj, rng):
    fosps, checks = _fosp_points(plan, obj, rng)
    for i, pt in enumerate(fosps):
        labels = {EMBEDDED[plan.problem["case"]]: classify_point(pt, obj)}
        for geometry, mname, metric in plan.quotient_rows:
            labels[f"{geometry}/{mname}"] = classify_point(lift_point(pt, geometry), obj, metric)
        agreement = len({v["label"] for v in labels.values()}) == 1
        checks.append(_check(f"classify/fosp{i}", agreement,
                             labels=labels, agreement=agreement))
    return checks


# flow-compare's sources per case: the embedded flow, the matched quotient flow
# that equals it, and the q1 flow that differs from it by a projected term
FLOW_PAIRS = {
    "psd": (("psd_embedded", None), ("psd_q2", "matched"), ("psd_q1", "double-gram")),
    "general": (("gen_embedded", None), ("gen_q3", "matched"),
                ("gen_q1", "crossed-gram")),
}
FLOW_IDENTICAL_TOL = 1e-8  # max_t ||X_a(t) - X_b(t)||_F of the matched flows
FLOW_DIFFERENCE_TOL = 1e-10  # relative residual of the q1 field's difference


def cmd_flow_compare(plan, obj, rng):
    case = plan.problem["case"]
    emb, matched, q1 = FLOW_PAIRS[case]
    x0 = plan.point(emb[0], rng)
    out = compare_flows(x0, obj, emb, matched, *plan.flow)
    checks = [_check(f"flow-identical/{matched[0]}",
                     not out["degenerate"] and out["max_deviation"] <= FLOW_IDENTICAL_TOL,
                     max_deviation=out["max_deviation"], tolerance=FLOW_IDENTICAL_TOL,
                     steps=len(out["times"]) - 1)]

    # the q1 field differs from the embedded one by the doubly projected term
    trace = out["trace_a"]
    resids = []
    stride = max(1, len(trace) // 16)
    for pt in map(trace.point, range(0, len(trace), stride)):
        f_emb = flow_field(pt, obj, emb).ambient()
        f_q1 = flow_field(pt, obj, q1).ambient()
        nabla = obj.egrad(pt.X)
        pr = pt.U @ ((pt.U.T @ nabla @ pt.V) @ pt.V.T)
        resids.append(np.linalg.norm((f_emb - f_q1) - pr) / max(1.0, np.linalg.norm(pr)))
    worst = _worst(resids)
    checks.append(_check(f"flow-difference/{q1[0]}", worst <= FLOW_DIFFERENCE_TOL,
                         max_rel_residual=worst, tolerance=FLOW_DIFFERENCE_TOL))
    return checks


# the checks' tolerances, echoed in every report; each is a constant of the
# code, beside its check, and no config sets one
TOLERANCES = {
    "grad_fd_rtol": GRAD_FD_RTOL,
    "roundtrip_rtol": ROUNDTRIP_RTOL,
    "bound_slack": BOUND_SLACK,
    "sandwich_margin": SANDWICH_MARGIN,
    "identity_rtol": IDENTITY_RTOL,
    "fosp_tol": FOSP_TOL,
    "flow_identical_tol": FLOW_IDENTICAL_TOL,
    "flow_difference_tol": FLOW_DIFFERENCE_TOL,
}
DISPATCH = {
    "dims": cmd_dims,
    "check-gradients": cmd_check_gradients,
    "bijection-roundtrip": cmd_bijection,
    "verify-sandwich": cmd_verify_sandwich,
    "classify": cmd_classify,
    "flow-compare": cmd_flow_compare,
}
COMMANDS = tuple(DISPATCH)


def run(command, config, seed=None, out_path=None, no_timestamp=False):
    """Run one command; returns (report dict, exit status)."""
    if command not in DISPATCH:
        raise ConfigError(f"unknown command {command!r}")
    cfg_command = config.get("command")
    if cfg_command is not None and cfg_command != command:
        raise ConfigError(
            f"config requests command {cfg_command!r} but {command!r} was invoked"
        )
    plan = _plan(config)
    seed = config.get("seed", 0) if seed is None else seed
    rng = np.random.default_rng(seed)
    obj = _build_objective(plan.problem, rng)

    started = time.perf_counter()
    checks = DISPATCH[command](plan, obj, rng)
    elapsed = time.perf_counter() - started
    if not checks:
        # a report that passes on zero checks would verify nothing
        raise ConfigError(f"{command} has no checks to run for the configured geometries")

    report = {
        "schema": "georank-report/1",
        "command": command,
        "seed": seed,
        "problem": plan.problem,
        "tolerances": TOLERANCES,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    if not no_timestamp:
        report["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat()
        report["elapsed_seconds"] = elapsed

    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return report, 0 if report["passed"] else 1


def _json_default(obj):
    """numpy values that ``json`` does not take: arrays as lists, scalars and
    bools as the Python values they hold."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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
