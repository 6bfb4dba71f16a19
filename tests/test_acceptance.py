"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are fixed here, not tuned at runtime.
"""

import json
import time

import numpy as np

from georank.embedded import (
    project_rank_r,
    retract,
    riem_grad_embedded,
    riem_hess_quad_embedded,
    tangent_basis,
)
from georank.flows import compare_flows, flow_field
from georank.landscape import (
    analytic_fosps,
    classify_point,
    find_fosp,
    grad_embedded_from_quotient,
    grad_quotient_from_embedded,
    verify_sandwich,
)
from georank.objectives import make_matrix_approx
from georank.quotient import (
    EMBEDDED,
    horizontal_basis,
    lift_point,
    metric_inner,
    quotient_dim,
    random_horizontal,
    riem_grad_quotient,
    riem_hess_quad_quotient,
    total_curve,
)
from georank.transport import forward_map, inverse_map, spectrum_bounds

from util import (
    ALL_QUOTIENTS,
    GEN_QUOTIENTS,
    PSD_QUOTIENTS,
    embedded_spectrum,
    geometry_metric_combos,
    hv_gap,
    kind_of,
    random_approx_objective,
    random_point,
    run_cli,
)


def report(num, name, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[criterion {num:02d}] {name}: {tag}{suffix}", flush=True)
    assert passed, f"criterion {num} ({name}) failed: {detail}"


PSD_INSTANCES = [
    # (M diagonal, r)
    (np.diag([3.0, 2.0, 1.0, 0.5, 0.25]), 2),
    (np.diag([3.0, 2.3, 1.7, 1.1, 0.6, 0.0, 0.0, 0.0]), 3),
]
def _rect_diag(p1, p2, values):
    out = np.zeros((p1, p2))
    out[: len(values), : len(values)] = np.diag(values)
    return out


GEN_INSTANCES = [
    (_rect_diag(4, 3, [3.0, 2.0, 1.0]), 2),
    (_rect_diag(6, 5, [3.0, 2.2, 1.5, 0.9]), 3),
]


def test_criterion_01_dimension_counts():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    ok = True
    cases = [("psd", 5, 5, 2), ("general", 4, 3, 2), ("psd", 8, 8, 3),
             ("general", 6, 5, 3)]
    for kind, p1, p2, r in cases:
        expected = (p1 * r - r * (r - 1) // 2 if kind == "psd"
                    else (p1 + p2 - r) * r)
        pt = random_point(EMBEDDED[kind], p1, p2, r, rng)
        ok &= len(tangent_basis(pt)) == expected
        geos = PSD_QUOTIENTS if kind == "psd" else GEN_QUOTIENTS
        for geo, met in geometry_metric_combos(geos):
            z = random_point(geo, p1, p2, r, rng)
            basis, _ = horizontal_basis(z, met)
            ok &= len(basis) == expected
            ok &= quotient_dim(geo, p1, p2, r) == expected
    elapsed = time.perf_counter() - started
    report(1, "dimension counts", ok and elapsed < 1.0,
           f"{elapsed:.2f}s (< 1 s)")


def test_criterion_02_gradient_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    h = 1e-5
    n_points = 20
    worst_all = 0.0
    sizes = {"psd": (7, 7), "general": (6, 5)}
    r = 2
    # embedded geometries: finite differences along the projection retraction
    for kind in ("psd", "general"):
        p1, p2 = sizes[kind]
        obj = random_approx_objective(kind, p1, p2, rng)
        for _ in range(n_points):
            pt = random_point(EMBEDDED[kind], p1, p2, r, rng)
            grad = riem_grad_embedded(pt, obj)
            lhs, rhs = [], []
            for b in tangent_basis(pt):
                lhs.append(np.sum(grad.ambient() * b.ambient()))
                rhs.append((obj.value(retract(pt, b, h).X)
                            - obj.value(retract(pt, b, -h).X)) / (2 * h))
            lhs, rhs = np.array(lhs), np.array(rhs)
            worst_all = max(worst_all, np.max(np.abs(lhs - rhs))
                            / max(np.max(np.abs(rhs)), 1e-300))
    # quotient geometries: finite differences along total-space curves
    for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
        p1, p2 = sizes[kind_of(geo)]
        obj = random_approx_objective(kind_of(geo), p1, p2, rng)
        for _ in range(n_points):
            z = random_point(geo, p1, p2, r, rng)
            grad = riem_grad_quotient(z, obj, met)
            basis, _ = horizontal_basis(z, met)
            lhs, rhs = [], []
            for b in basis:
                lhs.append(metric_inner(z, grad, b, met))
                curve = total_curve(z, b)
                rhs.append((obj.value(curve(h).X) - obj.value(curve(-h).X))
                           / (2 * h))
            lhs, rhs = np.array(lhs), np.array(rhs)
            worst_all = max(worst_all, np.max(np.abs(lhs - rhs))
                            / max(np.max(np.abs(rhs)), 1e-300))
    elapsed = time.perf_counter() - started
    report(2, "gradient finite-difference oracles",
           worst_all <= 1e-6 and elapsed < 30.0,
           f"max rel err {worst_all:.2e}, {elapsed:.1f}s (< 30 s)")


def test_criterion_03_gradient_conversions():
    rng = np.random.default_rng(2)
    sizes = {"psd": (6, 6), "general": (5, 4)}
    worst = 0.0
    for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
        p1, p2 = sizes[kind_of(geo)]
        obj = random_approx_objective(kind_of(geo), p1, p2, rng)
        for _ in range(50):
            z = random_point(geo, p1, p2, 2, rng)
            ge = riem_grad_embedded(z.point, obj)
            assert ge.norm() > 1e-6  # non-stationary sample
            gq = riem_grad_quotient(z, obj, met)
            conv = grad_embedded_from_quotient(z, gq, met)
            worst = max(worst, (conv - ge).norm() / max(ge.norm(), 1e-300))
            back = grad_quotient_from_embedded(z, ge, met)
            worst = max(worst, hv_gap(back, gq))
    report(3, "gradient conversion identities", worst <= 1e-10,
           f"max rel err {worst:.2e}")


def _fosp_instances():
    for m, r in PSD_INSTANCES:
        obj = make_matrix_approx(m, symmetric=True)
        yield obj, r, PSD_QUOTIENTS
    for m, r in GEN_INSTANCES:
        obj = make_matrix_approx(m)
        yield obj, r, GEN_QUOTIENTS


def test_criterion_04_hessian_equality_at_fosps():
    rng = np.random.default_rng(3)
    worst = 0.0
    for obj, r, geos in _fosp_instances():
        fosps = list(analytic_fosps(obj, r))
        for geo, met in geometry_metric_combos(geos):
            for pt in fosps:
                z = lift_point(pt, geo)
                for _ in range(100):
                    theta = random_horizontal(z, met, rng)
                    qh = riem_hess_quad_quotient(z, obj, met, theta)
                    xi = forward_map(z, theta, met)
                    qf = riem_hess_quad_embedded(z.point, obj, xi)
                    denom = max(abs(qh), abs(qf),
                                metric_inner(z, theta, theta, met), 1e-300)
                    worst = max(worst, abs(qh - qf) / denom)
    report(4, "Hessian equality at stationary points", worst <= 1e-8,
           f"max rel err {worst:.2e}")


def test_criterion_05_sandwich_spectra():
    started = time.perf_counter()
    ok = True
    worst_gap = 0.0
    for obj, r, geos in [
        (make_matrix_approx(PSD_INSTANCES[0][0], symmetric=True), 2, PSD_QUOTIENTS),
        (make_matrix_approx(GEN_INSTANCES[0][0]), 2, GEN_QUOTIENTS),
    ]:
        fosps = list(analytic_fosps(obj, r))
        for geo, met in geometry_metric_combos(geos):
            for pt in fosps:
                rep = verify_sandwich(lift_point(pt, geo), obj, met,
                                      embedded_spectrum(pt, obj), margin_tol=1e-8)
                ok &= all(e["ok"] for e in rep["per_index"])
                if rep["matched_coefficients"]:
                    worst_gap = max(worst_gap, rep["matched_spectra_rel_gap"])
    ok &= worst_gap <= 1e-8
    elapsed = time.perf_counter() - started
    report(5, "per-index sandwich with table coefficients",
           ok and elapsed < 60.0,
           f"matched-row spectra gap {worst_gap:.2e}, {elapsed:.1f}s (< 60 s)")


def test_criterion_06_bijection_suite():
    rng = np.random.default_rng(5)
    sizes = {"psd": (6, 6), "general": (5, 4)}
    worst_rt, worst_slack = 0.0, 0.0
    for geo, met in geometry_metric_combos(ALL_QUOTIENTS):
        p1, p2 = sizes[kind_of(geo)]
        z = random_point(geo, p1, p2, 2, rng)
        coeffs = spectrum_bounds(z, met)
        for _ in range(200):
            theta = random_horizontal(z, met, rng)
            xi = forward_map(z, theta, met)
            back = inverse_map(z, xi, met)
            worst_rt = max(worst_rt, hv_gap(theta, back))
            q = metric_inner(z, theta, theta, met)
            n2 = xi.norm() ** 2
            ref = max(1.0, coeffs.beta * q)
            worst_slack = max(worst_slack, (coeffs.alpha * q - n2) / ref,
                              (n2 - coeffs.beta * q) / ref)
    passed = worst_rt <= 1e-9 and worst_slack <= 1e-10
    report(6, "bijection roundtrip and norm bounds", passed,
           f"roundtrip {worst_rt:.2e}, bound slack {worst_slack:.2e}")


def test_criterion_07_stationary_equivalence():
    psd_obj = make_matrix_approx(np.diag([3.0, 2.0, 1.0]), symmetric=True)
    gen_obj = make_matrix_approx(
        np.vstack([np.diag([3.0, 2.0, 1.0]), np.zeros((1, 3))])
    )
    ok = True
    for obj, geos in [(psd_obj, PSD_QUOTIENTS), (gen_obj, GEN_QUOTIENTS)]:
        fosps = analytic_fosps(obj, 1)
        labels = []
        for pt in fosps:
            per_point = {classify_point(pt, obj).label()}
            for geo, met in geometry_metric_combos(geos):
                per_point.add(
                    classify_point(lift_point(pt, geo), obj, met).label()
                )
            ok &= len(per_point) == 1
            labels.append(per_point.pop())
        ok &= labels == ["sosp", "strict-saddle", "strict-saddle"]
    report(7, "FOSP/SOSP/strict-saddle equivalence", ok)


def test_criterion_08_flow_identities():
    rng = np.random.default_rng(6)
    t_final, dt = 5.0, 1e-3
    psd_obj = make_matrix_approx(np.diag([3.0, 2.0, 1.0, 0.5]), symmetric=True)
    a = rng.standard_normal((4, 2))
    x0p = project_rank_r(a @ a.T, 2, "psd")
    gen_obj = make_matrix_approx(
        np.vstack([np.diag([3.0, 2.0, 1.0]), np.zeros((1, 3))])
    )
    x0g = project_rank_r(
        rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3)), 2, "general"
    )

    out_p = compare_flows(x0p, psd_obj, ("psd_embedded", None),
                          ("psd_q2", "matched"), t_final, dt)
    out_g = compare_flows(x0g, gen_obj, ("gen_embedded", None),
                          ("gen_q3", "matched"), t_final, dt)
    dev_ok = (out_p["max_deviation"] <= 1e-8 and out_g["max_deviation"] <= 1e-8
              and not out_p["degenerate"] and not out_g["degenerate"])

    worst_field = 0.0
    for trace, obj, q1 in [
        (out_p["trace_a"], psd_obj, ("psd_q1", "double-gram")),
        (out_g["trace_a"], gen_obj, ("gen_q1", "crossed-gram")),
    ]:
        emb_tag = ("psd_embedded" if q1[0].startswith("psd") else "gen_embedded",
                   None)
        kind = "psd" if q1[0].startswith("psd") else "general"
        for x in trace.states[:: max(1, len(trace.states) // 32)]:
            pt = project_rank_r(x, 2, kind)
            diff = (flow_field(pt, obj, emb_tag).ambient()
                    - flow_field(pt, obj, q1).ambient())
            pu = pt.U @ pt.U.T
            resid = np.linalg.norm(diff - pu @ obj.egrad(pt.X) @ (pt.V @ pt.V.T))
            worst_field = max(worst_field,
                              resid / max(1.0, np.linalg.norm(diff)))
    passed = dev_ok and worst_field <= 1e-10
    report(8, "gradient-flow identities", passed,
           f"identical-pair dev {max(out_p['max_deviation'], out_g['max_deviation']):.2e}, "
           f"difference-field resid {worst_field:.2e}")


def test_criterion_09_solver_sanity():
    rng = np.random.default_rng(7)
    psd_obj = make_matrix_approx(np.diag([3.0, 2.0, 1.0]), symmetric=True)
    gen_obj = make_matrix_approx(
        np.vstack([np.diag([3.0, 2.0, 1.0]), np.zeros((1, 3))])
    )
    ok = True
    psd_fosps = list(analytic_fosps(psd_obj, 1))
    gen_fosps = list(analytic_fosps(gen_obj, 1))
    for _ in range(10):
        a = rng.standard_normal((3, 1))
        res = find_fosp(psd_obj, project_rank_r(a @ a.T, 1, "psd"))
        ok &= res.converged and res.grad_norm <= 1e-8
        ok &= min(np.linalg.norm(res.point.X - f.X) for f in psd_fosps) <= 1e-6
    for _ in range(10):
        x0 = project_rank_r(
            rng.standard_normal((4, 1)) @ rng.standard_normal((1, 3)), 1,
            "general")
        res = find_fosp(gen_obj, x0)
        ok &= res.converged and res.grad_norm <= 1e-8
        ok &= min(np.linalg.norm(res.point.X - f.X) for f in gen_fosps) <= 1e-6
    report(9, "solver reaches analytic stationary points", ok)


def test_criterion_10_cli_determinism(tmp_path):
    ok = True
    errors = []
    for command, cfg in [
        ("dims", {"problem": {"case": "general", "p1": 4, "p2": 3, "r": 2},
                  "seed": 13}),
        ("verify-sandwich", {"problem": {"case": "psd", "p1": 4, "r": 2},
                             "seed": 13, "max_fosp_points": 2,
                             "directions": 10}),
    ]:
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        for name in ("one.json", "two.json"):
            out = tmp_path / f"{command}-{name}"
            proc = run_cli([command, "--config", str(cfg_path), "--out",
                            str(out), "--no-timestamp"], tmp_path)
            if proc.returncode != 0:
                ok = False
                errors.append(f"{command} exit {proc.returncode}: "
                              f"{proc.stderr.strip()}")
            blobs.append(out.read_bytes() if out.exists() else None)
        ok &= blobs[0] == blobs[1]
    report(10, "CLI determinism (byte-identical reports)", ok,
           "; ".join(errors))
