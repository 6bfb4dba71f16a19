"""Spans around georank's public functions, installed from outside the package.

`Tracer.install` replaces every attribute of a loaded `georank.*` module that
is one of the traced functions (they are bound by name in several modules,
e.g. `spd_functions` in `quotient`, `transport` and `landscape`) with a
wrapper that records a span; `Tracer.restore` puts every original back.
Spans are kept in flat arrays while the program runs and analysed afterwards.
"""

import functools
import sys
import time
from array import array

import numpy as np

# layer (module under src/georank) -> traced public functions; "Class.method"
# names patch the method on the class.
TRACED = {
    "linalg": ["spd_functions", "solve_sylvester", "gen_sym_eig", "orth_complement"],
    "objectives": ["Objective.value", "Objective.egrad", "Objective.ehess_vec"],
    "embedded": ["project_rank_r", "tangent_project", "riem_hess_quad_embedded",
                 "tangent_basis", "retract"],
    "quotient": ["riem_hess_quad_quotient", "horizontal_vector", "vertical_project",
                 "metric_inner", "horizontal_basis", "gradient_lift_from_ambient",
                 "quotient_point", "random_horizontal"],
    "transport": ["forward_map", "inverse_map", "spectrum_bounds"],
    "landscape": ["hessian_spectrum", "verify_sandwich", "classify_point",
                  "find_fosp", "analytic_fosps"],
    "flows": ["integrate_flow", "flow_field"],
    "cli": ["run"],
}

# Values taken from a traced function's result, for the ratio metrics.
OBSERVE = {
    "landscape.hessian_spectrum": lambda rep: len(rep.eigenvalues),
    "quotient.horizontal_basis": lambda res: len(res[0]),
    "landscape.find_fosp": lambda res: (bool(res.converged), res.iterations),
}


def span_name(layer: str, attr: str) -> str:
    """`objectives.Objective.value` is reported as `objectives.value`."""
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


SPAN_NAMES = [span_name(layer, attr) for layer, attrs in TRACED.items() for attr in attrs]


def _georank_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "georank" or name.startswith("georank."))]


class Tracer:
    """Records (name, start, end, parent) for every call of a traced function."""

    def __init__(self):
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.observed = {}
        self._stack = [-1]
        self.patched = []  # (owner, attribute, original), kept after restore

    def _wrap(self, fn, fid, observe):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, observed, clock = self._stack, self.observed, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observed[idx] = observe(result)
                return result
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return wrapper

    def install(self):
        modules = _georank_modules()
        by_layer = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for layer, attrs in TRACED.items():
            for attr in attrs:
                name = span_name(layer, attr)
                owner_name, _, fn_name = attr.rpartition(".")
                owner = by_layer[layer]
                if owner_name:
                    owner = getattr(owner, owner_name)
                    original = owner.__dict__[fn_name]
                    targets = [(owner, fn_name)]
                else:
                    original = getattr(owner, fn_name)
                    targets = [(m, key) for m in modules
                               for key, value in list(vars(m).items()) if value is original]
                wrapper = self._wrap(original, SPAN_NAMES.index(name), OBSERVE.get(name))
                for target, key in targets:
                    setattr(target, key, wrapper)
                    self.patched.append((target, key, original))

    def restore(self):
        for target, key, original in reversed(self.patched):
            setattr(target, key, original)

    def unrestored(self) -> list:
        """Patched attributes that do not hold their original function."""
        return [f"{getattr(t, '__name__', t)}.{key}" for t, key, original in self.patched
                if getattr(t, key) is not original]

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def arrays(self):
        """Spans as numpy arrays: name ids, parent indices, start, end."""
        return (np.frombuffer(self.names, dtype=np.int32).copy(),
                np.frombuffer(self.parents, dtype=np.int32).copy(),
                np.frombuffer(self.starts, dtype=np.float64).copy(),
                np.frombuffer(self.ends, dtype=np.float64).copy())

    def save(self, path):
        names, parents, starts, ends = self.arrays()
        np.savez(path, span_names=np.array(SPAN_NAMES), names=names,
                 parents=parents, starts=starts, ends=ends)


def self_times(parents, starts, ends):
    """Each span's duration minus the durations of its direct children."""
    dur = ends - starts
    has_parent = parents >= 0
    children = np.bincount(parents[has_parent], weights=dur[has_parent],
                           minlength=len(dur))
    return dur - children


def nearest_ancestor(names, parents, fid):
    """Index of the closest enclosing span (itself included) named `fid`, or -1."""
    anc = np.where(names == fid, np.arange(len(names)), parents)
    while True:
        open_ = anc >= 0
        open_[open_] = names[anc[open_]] != fid
        if not open_.any():
            return anc
        anc[open_] = parents[anc[open_]]


def _ratio(num, den):
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, overhead_frac: float) -> dict:
    """Per-layer metrics of one traced round. `wall_s` is its wall time;
    `overhead_frac` how much longer it took than the same round untraced."""
    names, parents, starts, ends = tracer.arrays()
    fid = {name: i for i, name in enumerate(SPAN_NAMES)}
    selfs = self_times(parents, starts, ends)
    calls = np.bincount(names, minlength=len(SPAN_NAMES))
    self_s = np.bincount(names, weights=selfs, minlength=len(SPAN_NAMES))
    remainder = wall_s - float(np.sum((ends - starts)[parents < 0]))
    share = self_s / wall_s

    out = {}
    for name, i in fid.items():
        out[f"{name}.calls"] = (int(calls[i]), "count")
        out[f"{name}.self_share"] = (float(share[i]), "frac")
    for layer in TRACED:
        out[f"{layer}.self_share"] = (
            float(sum(share[fid[n]] for n in fid if n.startswith(layer + "."))), "frac")
    out["cli.run.self_s"] = (float(self_s[fid["cli.run"]]), "s")

    def inside(child, ancestor):
        anc = nearest_ancestor(names, parents, fid[ancestor])
        return int(np.sum((names == fid[child]) & (anc >= 0)))

    def observed(name):
        return [v for i, v in tracer.observed.items() if names[i] == fid[name]]

    def pairs(dims):
        return sum(d * (d + 1) // 2 for d in dims)

    forms = calls[fid["quotient.riem_hess_quad_quotient"]]
    entries = pairs(observed("landscape.hessian_spectrum"))
    in_spectrum = (inside("quotient.riem_hess_quad_quotient", "landscape.hessian_spectrum")
                   + inside("embedded.riem_hess_quad_embedded", "landscape.hessian_spectrum"))
    fosp = observed("landscape.find_fosp")
    converged = sum(c for c, _ in fosp)
    iterations = sum(n for _, n in fosp)
    out["landscape.hessian_spectrum.forms_per_entry"] = (_ratio(in_spectrum, entries), "ratio")
    out["quotient.forms.spd_functions_per_form"] = (
        _ratio(inside("linalg.spd_functions", "quotient.riem_hess_quad_quotient"), forms), "ratio")
    out["quotient.forms.egrad_per_form"] = (
        _ratio(inside("objectives.egrad", "quotient.riem_hess_quad_quotient"), forms), "ratio")
    out["quotient.horizontal_basis.inner_per_pair"] = (
        _ratio(inside("quotient.metric_inner", "quotient.horizontal_basis"),
               pairs(observed("quotient.horizontal_basis"))), "ratio")
    out["landscape.find_fosp.converged_frac"] = (_ratio(converged, len(fosp)), "frac")
    out["landscape.find_fosp.retracts_per_iter"] = (
        _ratio(inside("embedded.retract", "landscape.find_fosp"), iterations), "ratio")
    out["trace.spans"] = (len(names), "count")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.remainder_s"] = (remainder, "s")
    out["trace.overhead_frac"] = (overhead_frac, "frac")
    return out
