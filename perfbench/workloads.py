"""The benchmark's workloads: each is a fixed list of CLI reports built from the
run seed. One round runs the list once, in order; a run repeats rounds.

The program receives only what `georank.cli.run` accepts: a command, a config
dict and a seed. It generates the problem data from that seed itself.
"""

from typing import NamedTuple

# `classify` runs on this fixed panel of problem seeds, whatever the run seed.
# From a random start, `find_fosp` misses its 20,000-iteration budget on about
# one start in six at this size, and one miss costs more than ten converged
# solves. A seed-drawn classify would make the trajectory timings depend on
# how many misses a seed happens to draw, and on some seeds (4, 6 and 28 among
# 0-39) both starts miss and the command exits with "no stationary points
# found". Seed 2 has one known miss and seed 1 none, so every run pays for and
# counts the same miss.
CLASSIFY_PANEL = (1, 2)


class Report(NamedTuple):
    command: str
    case: str
    config: dict
    seed: int

    @property
    def name(self) -> str:
        return f"{self.command}.{self.case}"


def _problem(kind, case, p1, r, p2=None):
    problem = {"kind": kind, "case": case, "p1": p1, "r": r}
    if p2 is not None:
        problem["p2"] = p2
    return problem


def _spectrum(seed):
    common = {"max_fosp_points": 1, "directions": 20}
    return [
        Report("verify-sandwich", "psd",
               {"problem": _problem("approx", "psd", 14, 3), **common}, seed),
        Report("verify-sandwich", "general",
               {"problem": _problem("approx", "general", 10, 2, p2=8), **common}, seed),
    ]


def _pointwise(seed):
    roundtrip = {"trials": 2, "directions": 300}
    return [
        Report("check-gradients", "psd",
               {"problem": _problem("completion", "psd", 30, 3), "trials": 1}, seed),
        Report("check-gradients", "general",
               {"problem": _problem("completion", "general", 24, 3, p2=18), "trials": 1}, seed),
        Report("bijection-roundtrip", "psd",
               {"problem": _problem("completion", "psd", 60, 4), **roundtrip}, seed),
        Report("bijection-roundtrip", "general",
               {"problem": _problem("completion", "general", 60, 4, p2=40), **roundtrip}, seed),
    ]


def _trajectory(seed):
    classify = {
        "problem": _problem("completion", "general", 10, 2, p2=8),
        "geometries": ["gen_embedded"],
        "max_fosp_points": 2,
    }
    return [
        Report("flow-compare", "psd", {"problem": _problem("completion", "psd", 200, 5)}, seed),
        Report("flow-compare", "general",
               {"problem": _problem("completion", "general", 160, 4, p2=120)}, seed),
    ] + [Report("classify", "general", classify, s) for s in CLASSIFY_PANEL]


WORKLOADS = {
    "spectrum": _spectrum,
    "pointwise": _pointwise,
    "trajectory": _trajectory,
}


def reports(workload: str, seed: int) -> list:
    """The report list of one round of `workload` at run seed `seed`."""
    return WORKLOADS[workload](seed)


def sizes(workload: str) -> list:
    """Human-readable problem sizes of a workload, for the environment block."""
    out = []
    for rep in reports(workload, 0):
        prob = rep.config["problem"]
        shape = f"{prob['p1']}x{prob.get('p2', prob['p1'])}"
        out.append(f"{rep.name} {prob['kind']} {shape} r={prob['r']}")
    return sorted(set(out))
