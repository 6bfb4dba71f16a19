"""Golden CLI reports: every command's report, byte for byte.

Each case runs `georank.cli.run(..., no_timestamp=True)` in-process and
compares the JSON text with `tests/golden/<case>.json`. The cases cover all
six commands on a small PSD and a small general problem, with every geometry
and every metric family, plus one completion `classify` so `find_fosp` runs.

A refactor that keeps the floating-point operation order must leave these
files unchanged. To regenerate them on purpose (and say so in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from georank.cli import COMMANDS, run

GOLDEN = Path(__file__).resolve().parent / "golden"
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


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.json").write_text(report_text(case, tmp))
            print(f"wrote {case}.json")
