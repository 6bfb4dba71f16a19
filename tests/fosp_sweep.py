"""Run ``classify`` over a sweep of problem seeds and name how each FOSP search
start ended.

    PYTHONPATH=src python tests/fosp_sweep.py [FIRST LAST]

The sweep is completion, general 10x8 and psd 10x10, r=2, with the embedded
geometry alone and two starts per problem, at problem seeds FIRST to LAST
(default 0 to 39). Each report runs in its own ``georank.cli`` process.
Prints one line per start: its outcome, outer iterations and Hessian-vector
products, then the count of each outcome per case. A seed where no start
converges exits 1 with a failed ``fosp-search`` check, which the sweep
allows. Exits 1 when a report exits 2 or prints a traceback, or when a start
lacks an outcome of ``landscape.FOSP_OUTCOMES``; else 0.
"""

import collections
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from georank.landscape import FOSP_OUTCOMES

PROBLEMS = {
    "general": {"kind": "completion", "case": "general", "p1": 10, "p2": 8, "r": 2},
    "psd": {"kind": "completion", "case": "psd", "p1": 10, "r": 2},
}
GEOMETRY = {"general": "gen_embedded", "psd": "psd_embedded"}


def run_case(case, seeds, tmp):
    """Each start's outcome at each seed, or the first error message."""
    config = Path(tmp) / f"{case}.json"
    config.write_text(json.dumps({"problem": PROBLEMS[case], "geometries": [GEOMETRY[case]],
                                  "max_fosp_points": 2}))
    outcomes = collections.Counter()
    for seed in seeds:
        proc = subprocess.run([sys.executable, "-m", "georank.cli", "classify",
                               "--config", str(config), "--seed", str(seed),
                               "--no-timestamp"], capture_output=True, text=True)
        if proc.returncode >= 2 or "Traceback" in proc.stderr:
            return outcomes, f"{case} seed {seed}: exit {proc.returncode}\n{proc.stderr}"
        [search] = [c for c in json.loads(proc.stdout)["checks"] if c["name"] == "fosp-search"]
        for i, start in enumerate(search["details"]["starts"]):
            outcome = start.get("outcome")
            print(f"{case} seed {seed} start {i}: {outcome}, {start.get('iterations')} "
                  f"outer iterations, {start.get('hess_vecs')} Hessian-vector products")
            if outcome not in FOSP_OUTCOMES:
                return outcomes, f"{case} seed {seed} start {i}: no named outcome"
            outcomes[outcome] += 1
    return outcomes, None


def main(argv):
    if len(argv) not in (0, 2):
        sys.exit("usage: python tests/fosp_sweep.py [FIRST LAST]")
    first, last = map(int, argv) if argv else (0, 39)
    with tempfile.TemporaryDirectory() as tmp:
        for case in PROBLEMS:
            outcomes, error = run_case(case, range(first, last + 1), tmp)
            print(f"{case}: {dict(outcomes)}")
            if error:
                print(error, file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
