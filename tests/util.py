"""Shared builders for randomized test instances, finite-difference oracles,
and the CLI runner."""

import os
import subprocess
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

import georank
from georank import make_masked_completion, make_matrix_approx
from georank.cli import _check, _worst
from georank.embedded import project_rank_r, tangent_project
from georank.flows import flow_field
from georank.objectives import Objective
from georank.landscape import hessian_spectrum
from georank.linalg import gen_sym_eig, skew, sym
from georank.quotient import (
    GEOMETRY_KIND,
    GenQ1,
    GenQ2,
    GenQ3,
    HorizontalVector,
    PsdQ1,
    PsdQ2,
    REGISTRY,
    QuotientPoint,
    Weights,
    _ambient_gradient,
    _dot,
    _qf as qf,
    horizontal_basis,
    metric_choices,
    metric_family,
    metric_inner,
    quotient_point,
    random_horizontal,
    random_point,
    riem_hess_quad_quotient,
    total_curve,
)
from georank.transport import forward_map, inverse_map, spectrum_bounds

PSD_QUOTIENTS = ("psd_q1", "psd_q2")
GEN_QUOTIENTS = ("gen_q1", "gen_q2", "gen_q3")
ALL_QUOTIENTS = PSD_QUOTIENTS + GEN_QUOTIENTS


def random_approx_objective(kind, p1, p2, rng):
    a = rng.standard_normal((p1, p2))
    if kind == "psd":
        return make_matrix_approx(sym(a), symmetric=True)
    return make_matrix_approx(a)


def random_objective(kind, p1, p2, name, rng):
    """A random "approx" objective, or a "completion" one observing about
    60% of the entries (a symmetric mask for PSD)."""
    if name == "approx":
        return random_approx_objective(kind, p1, p2, rng)
    target = rng.standard_normal((p1, p2))
    mask = (rng.random((p1, p2)) < 0.6).astype(float)
    if kind == "psd":
        target, mask = sym(target), np.maximum(mask, mask.T)
    return make_masked_completion(target, mask, symmetric=kind == "psd")


def counting(obj):
    """The objective with counters on its Euclidean gradient and Hessian:
    returns it and a dict of call counts, "egrad" and "ehess_vec"."""
    calls = {"egrad": 0, "ehess_vec": 0}

    def egrad(x):
        calls["egrad"] += 1
        return obj._egrad(x)

    def ehess(x, z):
        calls["ehess_vec"] += 1
        return obj._ehess(x, z)

    return Objective(obj.shape, obj.symmetric, obj.kind, obj._value, egrad,
                     ehess), calls


def geometry_metric_combos(geometries):
    """(geometry, metric) pairs over every enumerated metric family."""
    for geo in geometries:
        for name in metric_choices(geo):
            yield geo, metric_family(geo, name)


def finite_diff_directional(fn, x, v, order, h):
    """Central finite difference of a scalar matrix function along V.

    order 1: (f(X+hV) - f(X-hV)) / (2h)
    order 2: (f(X+hV) - 2 f(X) + f(X-hV)) / h^2
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    fp = float(fn(x + h * v))
    fm = float(fn(x - h * v))
    if order == 1:
        out = (fp - fm) / (2.0 * h)
    elif order == 2:
        f0 = float(fn(x))
        out = (fp - 2.0 * f0 + fm) / h**2
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")
    if not np.isfinite(out):
        raise ValueError("function evaluated to a non-finite value")
    return out


def metric_derivative_fd(metric, key, z, parts, h=1e-6):
    """Central difference of one weight at z, key "w", "v", "w_inv" or
    "v_inv", moving the factors along the total-space curve with velocity
    ``parts``."""
    curve = total_curve(z, HorizontalVector(z, tuple(np.asarray(p) for p in parts)))
    plus = getattr(curve(h).weights(metric), key)
    minus = getattr(curve(-h).weights(metric), key)
    return (plus - minus) / (2.0 * h)


def gauge_act(geometry, parts, g):
    """The gauge action on factors or on tangent components alike: O(r) acts
    by g^T B g on an SPD core and by F g on the other factors; GL(r) acts on
    gen_q1's L by g and on its R by g^-T."""
    if geometry == "gen_q1":
        return (parts[0] @ g, parts[1] @ np.linalg.inv(g).T)
    return tuple(g.T @ a @ g if f.kind == "spd" else a @ g
                 for f, a in zip(REGISTRY[geometry].factors, parts))


def act_on_point(z, g):
    """Move z along its fiber by a gauge element (O(r), or GL(r) for gen_q1)."""
    g = np.asarray(g, dtype=float)
    return quotient_point(z.geometry, *gauge_act(z.geometry, z.factors, g))


def act_on_horizontal(hv, z_new, g):
    """Transport a horizontal lift to the gauge-moved representative."""
    g = np.asarray(g, dtype=float)
    return HorizontalVector(z_new, gauge_act(hv.base.geometry, hv.parts, g))


def embedded_spectrum(pt, obj):
    """The embedded Hessian spectrum at an embedded point, which
    ``verify_sandwich`` takes for every quotient row at that point."""
    return hessian_spectrum(pt, obj)


def polarize(quad, a, b) -> float:
    """Bilinear form from a quadratic form: (Q(a+b) - Q(a-b)) / 4.

    Works for any vector type supporting + and - (ambient matrices, embedded
    tangents, horizontal vectors). The library evaluates its Hessian forms
    bilinearly; this is the independent path the tests compare them with.
    """
    return (quad(a + b) - quad(a - b)) / 4.0


def mixed_basis_spectrum(z, obj, metric, rng):
    """Quotient Hessian spectrum assembled by polarization of the quadratic
    form over a random invertible recombination of the structured horizontal
    basis. The spectrum does not depend on the basis, so it must match
    ``hessian_spectrum``, which builds the Hessian matrix directly."""
    basis, gram = horizontal_basis(z, metric)
    d = len(basis)
    c = rng.standard_normal((d, d)) / np.sqrt(d) + np.eye(d)
    mixed = []
    for j in range(d):
        v = basis[0] * c[0, j]
        for i in range(1, d):
            v = v + basis[i] * c[i, j]
        mixed.append(v)

    def quad(v):
        return riem_hess_quad_quotient(z, obj, metric, v)

    h = np.zeros((d, d))
    for i in range(d):
        h[i, i] = quad(mixed[i])
        for j in range(i + 1, d):
            h[i, j] = h[j, i] = polarize(quad, mixed[i], mixed[j])
    return gen_sym_eig(h, c.T @ gram @ c)[0]


# Hand-derived gradient lifts and Hessian forms, one per geometry, kept as
# oracles for the forms the library derives from each factor map's chain.
# Their differential is the library's.


def ehess_quad(obj, x, d):
    """The Euclidean Hessian form <ehess_vec(X, D), D>."""
    return _dot(obj.ehess_vec(x, d), d)


@dataclass(frozen=True, eq=False)
class OracleWeights(Weights):
    """A point's weights with the directional derivatives of each weight and
    of its inverse (d W^-1 = -W^-1 dW W^-1), which the hand forms read."""

    z: QuotientPoint = field(kw_only=True)

    def dw(self, parts):
        return self.metric.weights["w"].deriv(self.z, self.w, parts)

    def dv(self, parts):
        return self.metric.weights["v"].deriv(self.z, self.v, parts)

    def dw_inv(self, parts):
        return -self.w_inv @ self.dw(parts) @ self.w_inv

    def dv_inv(self, parts):
        return -self.v_inv @ self.dv(parts) @ self.v_inv


def oracle_weights(z, metric):
    wt = z.weights(metric)
    return OracleWeights(**{f.name: getattr(wt, f.name) for f in fields(wt) if f.init},
                         z=z)


class HandPsdQ1(PsdQ1):
    def grad_lift(self, z, wt, nabla):
        return (2.0 * nabla @ z.factor("Y") @ wt.w_inv,)

    def hess_quad(self, z, obj, wt, theta, x, nabla):
        yfac = z.factor("Y")
        (ty,) = theta
        out = ehess_quad(obj, x, self.differential(z, theta))
        out += 2.0 * _dot(nabla, ty @ ty.T)
        out += 2.0 * _dot(nabla @ yfac @ wt.dw_inv(theta), ty @ wt.w)
        grad = self.grad_lift(z, wt, nabla)
        out += _dot(wt.dw(grad), ty.T @ ty) / 2.0
        return out


class HandPsdQ2(PsdQ2):
    def grad_lift(self, z, wt, nabla):
        u, b = z.factors
        nu = nabla @ u
        return (2.0 * (nu - u @ (u.T @ nu)) @ b @ wt.v_inv,
                wt.w_inv @ u.T @ nu @ wt.w_inv)

    def hess_quad(self, z, obj, wt, theta, x, nabla):
        u, b = z.factors
        tu, tb = theta
        out = ehess_quad(obj, x, self.differential(z, theta))
        out += 2.0 * _dot(nabla, tu @ b @ tu.T)
        wb, vb = wt.w, wt.v
        inner = (
            2.0 * tu @ tb
            + u @ wt.dw_inv(theta) @ wb @ tb
            + tu @ vb @ wt.dv_inv(theta) @ b
            - tu @ (u.T @ tu) @ b
            - u @ tu.T @ tu @ b
        )
        out += 2.0 * _dot(nabla @ u, inner)
        grad_b = self.grad_lift(z, wt, nabla)[1]
        gdir = (np.zeros_like(u), grad_b)
        out += np.trace(wt.dv(gdir) @ tu.T @ tu) / 2.0
        out += np.trace(sym(wb @ tb @ wt.dw(gdir)) @ tb)
        return out


class HandGenQ1(GenQ1):
    def grad_lift(self, z, wt, nabla):
        lfac, rfac = z.factors
        return (nabla @ rfac @ wt.w_inv, nabla.T @ lfac @ wt.v_inv)

    def hess_quad(self, z, obj, wt, theta, x, nabla):
        lfac, rfac = z.factors
        tl, tr = theta
        out = ehess_quad(obj, x, self.differential(z, theta))
        out += 2.0 * _dot(nabla, tl @ tr.T)
        out += _dot(nabla @ rfac @ wt.dw_inv(theta), tl @ wt.w)
        out += _dot(nabla.T @ lfac @ wt.dv_inv(theta), tr @ wt.v)
        grad = self.grad_lift(z, wt, nabla)
        out += _dot(wt.dw(grad), tl.T @ tl) / 2.0
        out += _dot(wt.dv(grad), tr.T @ tr) / 2.0
        return out


class HandGenQ2(GenQ2):
    def grad_lift(self, z, wt, nabla):
        u, b, v = z.factors
        delta = u.T @ nabla @ v
        mix = (skew(delta) @ b + b @ skew(delta)) / 2.0
        nv = nabla @ v
        ntu = nabla.T @ u
        return (
            (nv - u @ (u.T @ nv)) @ b + u @ mix,
            b @ sym(delta) @ b,
            (ntu - v @ (v.T @ ntu)) @ b - v @ mix,
        )

    def hess_quad(self, z, obj, wt, theta, x, nabla):
        u, b, v = z.factors
        tu, tb, tv = theta
        out = ehess_quad(obj, x, self.differential(z, theta))
        out += 2.0 * _dot(nabla, tu @ b @ tv.T)
        delta = u.T @ nabla @ v
        dprime = tu.T @ nabla @ v
        dsecond = u.T @ nabla @ tv
        utu = u.T @ tu
        vtv = v.T @ tv
        binv = np.linalg.inv(b)
        out += _dot(delta, sym(utu @ utu) @ b + b @ sym(vtv @ utu) - 2.0 * tu.T @ tu @ b) / 2.0
        out += _dot(delta, b @ sym(vtv @ vtv) + sym(utu @ vtv) @ b
                    - 2.0 * b @ tv.T @ tv + 2.0 * tb @ binv @ tb) / 2.0
        out += _dot(dprime, 2.0 * tb - utu @ b - tu.T @ u @ b / 2.0 - vtv @ b / 2.0)
        out += _dot(dsecond, 2.0 * tb - b @ tv.T @ v - b @ vtv / 2.0 - b @ tu.T @ u / 2.0)
        return out


class HandGenQ3(GenQ3):
    def grad_lift(self, z, wt, nabla):
        u, yfac = z.factors
        ny = nabla @ yfac
        return ((ny - u @ (u.T @ ny)) @ wt.v_inv, nabla.T @ u @ wt.w_inv)

    def hess_quad(self, z, obj, wt, theta, x, nabla):
        u, yfac = z.factors
        tu, ty = theta
        out = ehess_quad(obj, x, self.differential(z, theta))
        out += 2.0 * _dot(nabla, tu @ ty.T)
        out -= _dot(u.T @ nabla @ yfac, tu.T @ tu)
        out += _dot(nabla.T @ u @ wt.dw_inv(theta), ty @ wt.w)
        out += _dot(nabla @ yfac @ wt.dv_inv(theta), tu @ wt.v)
        grad_y = self.grad_lift(z, wt, nabla)[1]
        gdir = (np.zeros_like(u), grad_y)
        out += _dot(wt.dw(gdir), ty.T @ ty) / 2.0
        out += _dot(wt.dv(gdir), tu.T @ tu) / 2.0
        return out


HAND = {cls.name: cls() for cls in (HandPsdQ1, HandPsdQ2, HandGenQ1, HandGenQ2,
                                    HandGenQ3)}


def hand_grad_lift(z, metric, nabla):
    """The hand-derived lift of an ambient gradient at z."""
    return HAND[z.geometry].grad_lift(z, oracle_weights(z, metric),
                                      _ambient_gradient(z, nabla))


def hand_hess_quad(z, obj, metric, theta):
    """The hand-derived Hessian form at z along a horizontal theta."""
    x = z.X
    nabla = _ambient_gradient(z, obj.egrad(x))
    return float(HAND[z.geometry].hess_quad(z, obj, oracle_weights(z, metric),
                                            theta.parts, x, nabla))


def dense_flow_states(x0, obj, source, t_final, dt):
    """Oracle for ``flows.integrate_flow``: RK4 on the ambient field, each
    stage point and step end re-factorized by a dense ``project_rank_r`` of
    the formed sum. Returns the ambient states."""
    r, kind = x0.r, x0.kind

    def field(x_ambient):
        return flow_field(project_rank_r(x_ambient, r, kind), obj, source).ambient()

    x = x0.X
    states = [x]
    for _ in range(int(round(t_final / dt))):
        k1 = field(x)
        k2 = field(x + 0.5 * dt * k1)
        k3 = field(x + 0.5 * dt * k2)
        k4 = field(x + dt * k3)
        x = project_rank_r(
            x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), r, kind
        ).X
        states.append(x)
    return states


def count_calls(monkeypatch, original):
    """Replace every georank module binding of ``original`` with a wrapper
    that records its positional arguments; returns the list of records."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "georank" or name.startswith("georank."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def dense_forward(z, theta):
    """L(theta) through the dense p1 x p2 differential and its tangent
    projection, O(p^2 r) per vector: the oracle of the factored forward map."""
    return tangent_project(z.point, REGISTRY[z.geometry].differential(z, theta.parts))


def bijection_per_direction(plan, obj, rng):
    """``cli.cmd_bijection`` one direction at a time: one draw, L, L^-1 and
    metric inner product per direction, the oracle of its stacked blocks."""
    trials = plan.counts.get("trials", 3)
    n_vec = plan.counts.get("directions", 200)
    tols = plan.tolerances
    checks = []
    for geometry, mname, metric in plan.quotient_rows:
        roundtrip, slack = [], []
        for _ in range(trials):
            z = plan.point(geometry, rng)
            coeffs = spectrum_bounds(z, metric)
            for _ in range(n_vec):
                theta = random_horizontal(z, metric, rng)
                xi = forward_map(z, theta, metric)
                back = inverse_map(z, xi, metric)
                num = np.sqrt(sum(np.sum((a - b) ** 2)
                                  for a, b in zip(theta.parts, back.parts)))
                roundtrip.append(num / max(theta.raw_norm(), 1e-300))
                q = metric_inner(z, theta, theta, metric)
                nrm2 = xi.norm() ** 2
                ref = max(1.0, coeffs.beta * q)
                slack += [(coeffs.alpha * q - nrm2) / ref, (nrm2 - coeffs.beta * q) / ref]
        worst_rt, worst_slack = _worst(roundtrip), _worst(slack)
        checks.append(_check(f"bijection/{geometry}/{mname}",
                             (worst_rt <= tols["roundtrip_rtol"]
                              and worst_slack <= tols["bound_slack"]),
                             max_roundtrip_rel_err=worst_rt,
                             max_bound_violation=worst_slack,
                             vectors=n_vec * trials))
    return checks


def kind_of(geometry):
    return GEOMETRY_KIND[geometry]


def hv_gap(a, b):
    """Relative component-wise gap between two horizontal vectors."""
    num = np.sqrt(sum(np.sum((x - y) ** 2) for x, y in zip(a.parts, b.parts)))
    den = max(a.raw_norm(), b.raw_norm(), 1e-300)
    return num / den


def run_cli(args, cwd=None):
    """Run `python -m georank.cli *args` in a child process and capture it.

    The child imports the same georank package as the test process: the
    package's parent directory goes first on the child's PYTHONPATH, ahead of
    any inherited entries. A relative PYTHONPATH or the working directory
    therefore cannot leave the child without georank, or with another copy.
    """
    env = dict(os.environ)
    src = str(Path(georank.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "georank.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )
