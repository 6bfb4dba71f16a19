"""Compare two result sets of the benchmark, e.g. a parent commit and a change.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records that `run.py --record FILE` appended. Untraced
records are grouped by workload and paired by seed. For each end-to-end
metric of BENCHMARK.json, each `report_s.*` time and `check_margin_dec`, it prints both
sides' median and quartiles, the share of pairs CHANGE wins (ties count for
neither) and a verdict:

  gain        CHANGE wins at least 9 of 10 pairs, and the medians differ by
              more than the distance between BASE's quartiles;
  regression  CHANGE's median is worse than BASE's by more than the bound;
  unresolved  BASE's quartile distance, as a share of its median, exceeds
              the bound, and CHANGE does not beat every BASE run;
  same        otherwise.

`report_s.*` times take the bound of `psd_reports_s`. `check_margin_dec` is
deterministic per seed: a drop on any seed is a regression.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
REPORT_TIME = {"better": "lower", "bound": END_TO_END["psd_reports_s"]["bound"]}
# Deterministic per seed, so a drop on any one seed is a regression.
MARGIN = {"better": "higher", "bound": 0.0, "exact": True}


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if not rec["trace"]:
            runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, spec):
    """(share of pairs CHANGE wins, verdict) for one metric's seed-paired runs."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    base = [sign * v for v in base]  # from here on, lower is better
    change = [sign * v for v in change]
    share = sum(c < b for b, c in zip(base, change)) / len(base)
    if change == base:
        return share, "same"
    if spec.get("exact") and any(c > b for b, c in zip(base, change)):
        return share, "regression"
    q1, med, q3 = quartiles(base)
    gain = med - statistics.median(change)
    if share >= 0.9 and gain > q3 - q1:
        return share, "gain"
    if -gain > spec["bound"] * abs(med):
        return share, "regression"
    if q3 - q1 > spec["bound"] * abs(med) and max(change) >= min(base):
        return share, "unresolved"
    return share, "same"


def compare(base_runs, change_runs):
    rows = []
    for workload in sorted(set(base_runs) & set(change_runs)):
        seeds = sorted(set(base_runs[workload]) & set(change_runs[workload]))
        names = [n for n in base_runs[workload][seeds[0]]["metrics"]
                 if n in END_TO_END or n.startswith("report_s.") or n == "check_margin_dec"]
        for name in names:
            spec = END_TO_END.get(name, MARGIN if name == "check_margin_dec" else REPORT_TIME)
            base = [base_runs[workload][s]["metrics"][name]["value"] for s in seeds]
            change = [change_runs[workload][s]["metrics"][name]["value"] for s in seeds]
            share, label = verdict(base, change, spec)
            rows.append((workload, name, quartiles(base), quartiles(change),
                         share, len(seeds), label))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    print(f"{'workload':<11} {'metric':<36} {'base q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'wins':>9}  verdict")
    for workload, name, b, c, share, n, label in rows:
        fmt = "/".join(f"{v:.4g}" for v in b), "/".join(f"{v:.4g}" for v in c)
        print(f"{workload:<11} {name:<36} {fmt[0]:>32} {fmt[1]:>32} "
              f"{share:>5.0%} of {n:<2} {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
