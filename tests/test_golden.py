"""Golden CLI reports: every command's report, byte for byte.

Each case runs `georank.cli.run(..., no_timestamp=True)` in-process and
compares the JSON text with `tests/golden/<case>.json`. The cases cover all
six commands on a small PSD and a small general problem, with every geometry
and every metric family, plus one completion `classify` so `find_fosp` runs.

A refactor that keeps the floating-point operation order must leave these
files unchanged. To see what a change moves, regenerate the reports into a
temporary directory and compare them with the golden files: every value that
differs, with its relative change, and each check's margin to its tolerance
in decades, golden and regenerated (``margin_pairs`` of
``perfbench/gate.py``):

    PYTHONPATH=src python tests/test_golden.py --compare

To regenerate the golden files on purpose (and say so in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from georank.cli import COMMANDS, run

GOLDEN = Path(__file__).resolve().parent / "golden"
GATE = Path(__file__).resolve().parent.parent / "perfbench" / "gate.py"
SEED = 3

PROBLEMS = {
    "psd": {"kind": "approx", "case": "psd", "p1": 6, "r": 2},
    "general": {"kind": "approx", "case": "general", "p1": 6, "p2": 5, "r": 2},
}
COMMON = {"trials": 2, "directions": 20, "max_fosp_points": 1}

CASES = {
    f"{command}.{case}": (command, {"problem": problem, **COMMON})
    for command in COMMANDS
    for case, problem in PROBLEMS.items()
}
CASES["classify.completion"] = (
    "classify",
    {"problem": {"kind": "completion", "case": "general", "p1": 6, "p2": 5,
                 "r": 2},
     **COMMON},
)


def report_text(name, tmp_dir):
    command, config = CASES[name]
    out = Path(tmp_dir) / f"{name}.json"
    run(command, config, seed=SEED, out_path=out, no_timestamp=True)
    return out.read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.json").read_text()
    assert report_text(name, tmp_path) == expected


def _leaves(value, path=""):
    """(JSON path, value) of every scalar in a parsed report, in order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(tmp_dir):
    """Print, per case, every value that differs from the golden report and
    each check's margin in decades, golden -> regenerated."""
    spec = importlib.util.spec_from_file_location("_perfbench_gate", GATE)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    for case in sorted(CASES):
        old = json.loads((GOLDEN / f"{case}.json").read_text())
        new = json.loads(report_text(case, tmp_dir))
        before, after = dict(_leaves(old)), dict(_leaves(new))
        moved, worst = 0, 0.0
        print(f"== {case}")
        for key in list(before) + [k for k in after if k not in before]:
            a, b = before.get(key, "<absent>"), after.get(key, "<absent>")
            if a == b:
                continue
            moved += 1
            if _is_number(a) and _is_number(b):
                rel = abs(b - a) / max(abs(a), abs(b))
                worst = max(worst, rel)
                print(f"  {key}: {a!r} -> {b!r}  rel {rel:.2e}")
            else:
                print(f"  {key}: {a!r} -> {b!r}")
        print(f"  {moved} values moved, largest relative change {worst:.2e}")
        pairs = list(zip(gate.margin_pairs(old), gate.margin_pairs(new)))
        for (label, obs0, tol0), (_, obs1, tol1) in pairs:
            m0, m1 = gate.margin_dec(obs0, tol0), gate.margin_dec(obs1, tol1)
            print(f"  margin {label}: {m0:.2f} -> {m1:.2f} dec ({m1 - m0:+.2f})")
        if pairs:
            lo0, lo1 = gate.check_margin_dec([old]), gate.check_margin_dec([new])
            print(f"  smallest margin: {lo0:.2f} -> {lo1:.2f} dec")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        if sys.argv[1:] == ["--compare"]:
            compare(tmp)
        elif sys.argv[1:]:
            sys.exit("usage: python tests/test_golden.py [--compare]")
        else:
            GOLDEN.mkdir(exist_ok=True)
            for case in sorted(CASES):
                (GOLDEN / f"{case}.json").write_text(report_text(case, tmp))
                print(f"wrote {case}.json")
