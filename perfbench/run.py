"""georank benchmark: time to a verified report, per workload.

    python3 perfbench/run.py --workload {spectrum,pointwise,trajectory,all}
        --seed N --seconds S --trace {0,1} [--record FILE]

Run from the root of a source checkout. The package is imported from the
checkout's `src/` by absolute path; without it the benchmark exits with
status 2 and prints no result.

One client runs the workload's report list (see workloads.py) as a closed
loop through `georank.cli.run(..., no_timestamp=True)`, in rounds, until the
next round would end after S seconds (at least two rounds). With `--trace 0`
it measures the end-to-end metrics; with `--trace 1` it runs one round
untraced and one traced, and reports the per-layer metrics (see tracing.py).
Every time is adjusted for the machine's speed while it was taken (speed.py).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it, starting with "record ", holds the full record: the
environment, every metric with its sample count, and any gate problems;
`--record FILE` appends that record to FILE as one JSON line.
`--workload all` runs each workload in its own process and prints a table.
"""

import os

# BLAS threads are fixed before numpy is first imported, by this process and
# by every process it starts.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from gate import Gate  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

MIN_ROUNDS = 2
SETUP_REPEATS = 9
SETUP_KERNEL_REPEATS = 5
CHILD_TIMEOUT_S = 170


class SourceMissing(Exception):
    pass


def load_georank():
    """Import georank from the checkout's src/ and nowhere else."""
    if not (SRC / "georank" / "__init__.py").is_file():
        raise SourceMissing(f"no georank package under {SRC}")
    sys.path.insert(0, str(SRC))
    import georank
    import georank.cli

    if Path(georank.__file__).resolve().parent != SRC / "georank":
        raise SourceMissing(f"georank imported from {georank.__file__}, not {SRC}")
    return georank


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_max = {}
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                 "/sys/fs/cgroup/cpu/cpu.cfs_period_us"):
        with contextlib.suppress(OSError):
            cpu_max[path] = Path(path).read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu": cpu_max or "unavailable",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "seed": seed,
        "sizes": {w: workloads.sizes(w) for w in workloads.WORKLOADS},
    }


def run_report(cli, rep):
    """Run one report; returns (text, status, error, (start, end))."""
    config = json.loads(json.dumps(rep.config))
    buf = io.StringIO()
    text, status, error = None, None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            _, status = cli.run(rep.command, config, seed=rep.seed, no_timestamp=True)
        text = buf.getvalue()
    except Exception as exc:  # a report that raises is counted as failed
        error = f"{type(exc).__name__}: {exc}"
    return text, status, error, (t0, time.perf_counter())


def run_round(cli, reps, gate):
    """One pass over the report list; returns (per-report intervals, round interval)."""
    t0 = time.perf_counter()
    intervals = []
    for rep in reps:
        text, status, error, interval = run_report(cli, rep)
        gate.record((rep.command, json.dumps(rep.config, sort_keys=True), rep.seed),
                    text, status, error)
        intervals.append(interval)
    return intervals, (t0, time.perf_counter())


def setup_seconds(workload, seed):
    """Speed-adjusted times from starting a fresh process to its reports being
    ready to run. Each probe times the calibration kernel once it is ready,
    on whichever CPU it ran."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            kernel_s = proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with status {proc.returncode}")
        samples.append(speed.adjust(ready - t0, float(kernel_s)))
    return samples


def median_entry(samples, unit):
    return {"value": statistics.median(samples), "unit": unit, "n": len(samples)}


def measure(cli, workload, seed, seconds, gate, sampler):
    """End-to-end times of the untraced closed loop, speed-adjusted."""
    reps = workloads.reports(workload, seed)
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        intervals, (t0, t1) = run_round(cli, reps, gate)
        rounds.append([sampler.adjusted(*iv) for iv in intervals])
        walls.append(sampler.adjusted(t0, t1))
        if len(rounds) >= MIN_ROUNDS and t1 - start + (t1 - t0) > seconds:
            break
    metrics = {
        "reports_per_min": {"value": 60.0 * len(reps) * len(rounds) / sum(walls),
                            "unit": "1/min", "n": len(rounds)},
    }

    def per_round(selected):
        return median_entry([sum(t for rep, t in zip(reps, times) if selected(rep))
                             for times in rounds], "s")

    for case in ("psd", "general"):
        metrics[f"{case}_reports_s"] = per_round(lambda rep: rep.case == case)
    for name in dict.fromkeys(rep.name for rep in reps):
        metrics[f"report_s.{name}"] = per_round(lambda rep: rep.name == name)
    return metrics


def measure_traced(cli, workload, seed, gate, sampler):
    """Per-layer metrics: one untraced round, then the same round traced."""
    reps = workloads.reports(workload, seed)
    _, untraced = run_round(cli, reps, gate)
    with tracing.Tracer() as tracer:
        _, traced = run_round(cli, reps, gate)
    wall = traced[1] - traced[0]
    problems = [f"{attr} not restored" for attr in tracer.unrestored()]
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in tracing.layer_metrics(
                   tracer, wall, sampler.adjusted(*traced) / sampler.adjusted(*untraced) - 1.0
               ).items()}
    shares = sum(m["value"] for name, m in metrics.items()
                 if name.endswith(".self_share") and name.count(".") == 2)
    accounted = shares * wall + metrics["trace.remainder_s"]["value"]
    if abs(accounted - wall) > 1e-6 * max(1.0, wall):
        problems.append(f"self times plus remainder {accounted!r} != wall {wall!r}")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload}-seed{seed}.npz")
    return metrics, problems


# check_margin_dec is deterministic per seed but spreads across seeds by more
# than any bound allows (pointwise: its quartile distance is over 40% of its
# median), so the result object carries it with the traced run's per-layer
# metrics, which have no bound; compare.py pairs it by seed, where it repeats
# exactly.
END_TO_END = ("setup_s", "reports_per_min", "psd_reports_s", "general_reports_s",
              "peak_rss_mb", "checks_passed_frac", "reports_ok_frac")


def run_workload(args):
    georank = load_georank()
    if args.setup_probe:
        workloads.reports(args.workload, args.seed)
        print("ready", flush=True)
        print(speed.kernel_seconds(SETUP_KERNEL_REPEATS))
        return 0
    gate = Gate()
    problems = []
    with speed.SpeedSampler() as sampler:
        if args.trace:
            metrics, problems = measure_traced(georank.cli, args.workload, args.seed,
                                               gate, sampler)
        else:
            setup = setup_seconds(args.workload, args.seed)
            metrics = measure(georank.cli, args.workload, args.seed, args.seconds,
                              gate, sampler)
    metrics["speed_index"] = {"value": sampler.speed_index(), "unit": "ratio",
                              "n": len(sampler.durations)}
    if args.trace:
        metrics["check_margin_dec"] = {"value": gate.margin(), "unit": "dec"}
        wanted = [name for name in metrics if name != "speed_index"]
    else:
        metrics["setup_s"] = median_entry(setup, "s")
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB", "n": 1}
        metrics["checks_passed_frac"] = {
            "value": 1.0 - gate.checks_failed / max(gate.checks_attempted, 1),
            "unit": "frac", "n": gate.checks_attempted}
        metrics["reports_ok_frac"] = {
            "value": 1.0 - gate.reports_failed / gate.reports_attempted,
            "unit": "frac", "n": gate.reports_attempted}
        metrics["check_margin_dec"] = {"value": gate.margin(), "unit": "dec",
                                       "n": gate.checks_attempted}
        wanted = list(END_TO_END)
    problems = gate.problems + problems
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": not problems and gate.correct,
              "attempted": gate.reports_attempted, "failed": gate.reports_failed,
              "problems": problems, "env": environment(args.seed), "metrics": metrics}
    print_table(args.workload, metrics)
    for problem in problems:
        print(f"gate: {problem}")
    line = json.dumps(record)
    print("record " + line)
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(line + "\n")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in wanted},
    }))
    return 0


def print_table(workload, metrics):
    for name, m in metrics.items():
        n = f"  n={m['n']}" if "n" in m else ""
        print(f"{workload:<11} {name:<52} {m['value']:>14.6g} {m['unit']}{n}")


def run_all(args):
    """Each workload in its own process, so that peak_rss_mb is its own."""
    results = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", args.record]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited with status {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full record to this JSONL file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            load_georank()
            return run_all(args)
        return run_workload(args)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
