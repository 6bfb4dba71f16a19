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
``perfbench/gate.py``). A summary block ends the output: per case, the
largest change of a spectral value (``eig_*``, ``lam_*``, ``lo``, ``hi``,
``min_eigenvalue``) relative to the value and to its spectrum's max |lambda|;
how many check margins moved inward and outward (by at least 0.005
decades, so the move shows at the printed precision), and the lowest moved
one; every check that falls below the 5-decade noise floor from at or above
it, with its margin golden -> regenerated; and each report's smallest
margin, golden -> regenerated:

    PYTHONPATH=src python tests/test_golden.py --compare

To regenerate the golden files on purpose (and say so in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from georank import landscape, linalg
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


# Sylvester operators factored by a bijection-roundtrip golden report: one
# per (point, metric) for psd_q1 (3 families), gen_q1 (2) and gen_q2's B (1
# family), with a new point for each of the 2 trials of every row
FACTORIZATIONS = {"psd": 3 * 2, "general": (2 + 1) * 2}


@pytest.mark.parametrize("case", sorted(FACTORIZATIONS))
@pytest.mark.parametrize("directions", [1, COMMON["directions"]])
def test_bijection_factors_each_operator_once(case, directions, tmp_path, monkeypatch):
    calls = []
    original = linalg.SymmetricSylvester.__init__

    def counting(self, a, b):
        calls.append(1)
        original(self, a, b)

    monkeypatch.setattr(linalg.SymmetricSylvester, "__init__", counting)
    command, config = CASES[f"bijection-roundtrip.{case}"]
    _, status = run(command, {**config, "directions": directions}, seed=SEED,
                    out_path=tmp_path / "report.json", no_timestamp=True)
    assert status == 0
    assert len(calls) == FACTORIZATIONS[case]


# the check families whose margins the benchmark's correctness gate reads
GATED = ("gradient-fd/", "bijection/", "sandwich/", "flow-identical/",
         "flow-difference/")


@pytest.mark.parametrize("name", sorted(CASES))
def test_benchmark_gate_reads_every_golden_report(name):
    """``margin_pairs`` of ``perfbench/gate.py`` reads named detail fields, so
    a renamed report field fails here and not in the benchmark's gate."""
    gate = _load_gate()
    report = json.loads((GOLDEN / f"{name}.json").read_text())
    pairs = gate.margin_pairs(report)
    assert ({label.split(":")[0] for label, _, _ in pairs}
            == {c["name"] for c in report["checks"] if c["name"].startswith(GATED)})
    for label, observed, tolerance in pairs:
        assert np.isfinite(gate.margin_dec(observed, tolerance)), label


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


MOVED_DEC = 0.005  # margin change, in decades, that the summary counts as a move
# a noise check stays this many decades inside its tolerance unless it was
# closer before; the summary names each check that falls below it
NOISE_FLOOR_DEC = 5.0
SPECTRAL = re.compile(r"^/checks\[(\d+)\]/.*/(eig_embedded\[\d+\]|eig_quotient\[\d+\]"
                      r"|lam_f|lam_h|lo|hi|min_eigenvalue)$")


def _load_gate():
    spec = importlib.util.spec_from_file_location("_perfbench_gate", GATE)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def _spectrum_scale(report, check, label, seen):
    """Largest |eigenvalue| of the spectrum behind a spectral value: a
    sandwich row's two spectra, or, for a classify label, the largest that
    ``hessian_spectrum`` returned for its geometry and metric in this case."""
    det = report["checks"][check]["details"]
    if "eig_embedded" in det:
        return max(abs(v) for v in det["eig_embedded"] + det["eig_quotient"])
    return seen.get(label, float("nan"))


def _regenerate(name, tmp_dir):
    """The regenerated report of a case, with the largest |eigenvalue| of each
    spectrum it assembled, keyed as the classify labels are."""
    seen = {}
    original = landscape.hessian_spectrum

    def recording(*args, **kwargs):
        rep = original(*args, **kwargs)
        key = rep.geometry if rep.metric == "euclidean" else f"{rep.geometry}/{rep.metric}"
        seen[key] = max(seen.get(key, 0.0), float(np.max(np.abs(rep.eigenvalues))))
        return rep

    landscape.hessian_spectrum = recording
    try:
        return json.loads(report_text(name, tmp_dir)), seen
    finally:
        landscape.hessian_spectrum = original


def compare(tmp_dir):
    """Print, per case, every value that differs from the golden report and
    each check's margin in decades, golden -> regenerated; then a summary:
    the largest spectral change per case, the count of margins that moved
    each way, the checks that fell below the noise floor, and each report's
    smallest margin."""
    gate = _load_gate()
    spectral, margins, smallest = {}, [], {}
    for case in sorted(CASES):
        old = json.loads((GOLDEN / f"{case}.json").read_text())
        new, seen = _regenerate(case, tmp_dir)
        before, after = dict(_leaves(old)), dict(_leaves(new))
        moved, worst = 0, 0.0
        worst_value, worst_scale = 0.0, 0.0
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
                match = SPECTRAL.match(key)
                if match:
                    label = key.split("/labels/")[-1].rsplit("/", 1)[0]
                    scale = _spectrum_scale(new, int(match.group(1)), label, seen)
                    worst_value = max(worst_value, rel)
                    worst_scale = max(worst_scale, abs(b - a) / scale)
            else:
                print(f"  {key}: {a!r} -> {b!r}")
        print(f"  {moved} values moved, largest relative change {worst:.2e}")
        if any(SPECTRAL.match(key) for key in after):
            spectral[case] = (worst_value, worst_scale)
        pairs = list(zip(gate.margin_pairs(old), gate.margin_pairs(new)))
        for (label, obs0, tol0), (_, obs1, tol1) in pairs:
            m0, m1 = gate.margin_dec(obs0, tol0), gate.margin_dec(obs1, tol1)
            margins.append((f"{case} {label}", m0, m1))
            print(f"  margin {label}: {m0:.2f} -> {m1:.2f} dec ({m1 - m0:+.2f})")
        if pairs:
            smallest[case] = (gate.check_margin_dec([old]), gate.check_margin_dec([new]))
            print(f"  smallest margin: {smallest[case][0]:.2f} -> "
                  f"{smallest[case][1]:.2f} dec")

    print("== summary")
    print("  largest spectral change (eig_*, lam_*, lo, hi, min_eigenvalue):")
    for case, (by_value, by_scale) in spectral.items():
        print(f"    {case}: {by_value:.2e} of the value, {by_scale:.2e} of max |lambda|")
    # a margin moved when the change shows at the printed precision
    inward = [m1 for _, m0, m1 in margins if m1 <= m0 - MOVED_DEC]
    outward = [m1 for _, m0, m1 in margins if m1 >= m0 + MOVED_DEC]
    lowest = f"{min(inward + outward):.2f} dec" if inward or outward else "none"
    print(f"  margins moved: {len(inward)} inward, {len(outward)} outward; "
          f"lowest moved margin {lowest}")
    below = [(label, m0, m1) for label, m0, m1 in margins
             if m0 >= NOISE_FLOOR_DEC > m1]
    print(f"  below the {NOISE_FLOOR_DEC:g}-decade noise floor, at or above it "
          f"before: {len(below)}")
    for label, m0, m1 in below:
        print(f"    {label}: {m0:.2f} -> {m1:.2f} dec")
    print("  smallest margin per report:")
    for case, (m0, m1) in smallest.items():
        print(f"    {case}: {m0:.2f} -> {m1:.2f} dec")


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
