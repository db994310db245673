"""Benchmark of the dichotomy package: one workload, one run.

    python3 perfbench/run.py --workload {exact,monte-carlo,cli} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is taken from ``src/`` next to this directory.
One caller runs the workload's jobs in a closed loop, whole cycles at a time,
until ``--seconds`` have passed.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced cycle
with ``--trace 1``.  See README.md in this directory.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
# Fresh processes timed from start to first job; setup_s is their median.
SETUP_PROBES = 9
# Failed jobs whose traceback or result is printed to stderr.
REPORT_FAILURES = 3

END_TO_END_UNITS = {
    "throughput_jobs_per_s": "jobs/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    **{
        f"{layer}.{field}": unit
        for layer in (
            "numerics", "coalition", "production", "dvalue", "taxpolicy",
            "posterior", "apps", "serialize", "cli",
        )
        for field, unit in (("calls", "count"), ("self_s", "s"))
    },
    "coalition.rows_sampled": "rows",
    "production.dense_builds": "count",
    "production.rows_evaluated": "rows",
    "dvalue.mc_samples": "samples",
    "dvalue.mc_speedup_2w": "ratio",
    "taxpolicy.cells_solved": "cells",
    "serialize.bytes_out": "B",
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
    "error_rate": "ratio",
}

clock = time.perf_counter


def run_jobs(jobs, on_job=None, failures=None) -> list[tuple[str, float, bool]]:
    """Run each job once: (kind, latency in seconds, passed its oracle)."""
    records = []
    for i, job in enumerate(jobs):
        if on_job is not None:
            on_job(i)
        t0 = clock()
        try:
            result = job.run()
        except Exception:  # a failing job is counted, and the loop goes on
            latency = clock() - t0
            ok = False
            detail = traceback.format_exc()
        else:
            latency = clock() - t0
            ok = bool(job.check(result))
            detail = f"result failed its check: {str(result)[:500]}"
        if not ok and failures is not None:
            failures.append(f"{job.kind}: {detail}")
        records.append((job.kind, latency, ok))
    return records


def timed_cycles(cycle, seconds: float, failures) -> tuple[list, int]:
    """Whole cycles until ``seconds`` have passed; at least one."""
    records, cycles, start = [], 0, clock()
    while True:
        records += run_jobs(cycle, failures=failures)
        cycles += 1
        if clock() - start >= seconds:
            return records, cycles


def build(workload: str, seed: int, tiny: bool, workdir: Path):
    import workloads

    if workload == "exact":
        return workloads.build_exact(seed, tiny)
    if workload == "monte-carlo":
        return workloads.build_monte_carlo(seed, tiny)
    return workloads.build_cli(seed, ROOT, workdir, tiny)


def set_up(args, workdir: Path):
    """Imports, inputs and the warm-up: everything before the first timed job."""
    wl = build(args.workload, args.seed, args.tiny, workdir)
    if wl.cli is not None:
        # The commands import the package in their own processes; importing
        # it here compiles every module's .pyc before the first one starts.
        import dichotomy.cli  # noqa: F401
    else:
        failures: list[str] = []
        run_jobs(wl.cycle[:1], failures=failures)
        report(failures)
    return wl


def report(failures) -> None:
    for text in failures[:REPORT_FAILURES]:
        print(f"failed job: {text}", file=sys.stderr)


def measure_setup(args) -> float:
    """Median start-to-ready time of fresh processes doing the set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed)]
        if args.tiny:
            argv.append("--tiny")
        t0 = time.monotonic()
        probe = subprocess.run(argv + ["--setup-probe", repr(t0)], capture_output=True, text=True)
        if probe.returncode != 0:
            sys.exit(f"set-up probe failed:\n{probe.stderr}")
        times.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def end_to_end(args, workdir: Path) -> tuple[list, dict]:
    setup_s = measure_setup(args)
    wl = set_up(args, workdir)
    failures: list[str] = []
    records, cycles = timed_cycles(wl.cycle, args.seconds, failures)
    report(failures)
    latencies = [lat for _, lat, _ in records]
    passed = sum(ok for _, _, ok in records)
    if wl.cli is not None:
        peak_kb = wl.cli.peak_rss_kb  # the largest command process
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "throughput_jobs_per_s": passed / sum(latencies),
        # Linear interpolation between order statistics.
        "latency_p50_s": float(np.percentile(latencies, 50)),
        "latency_p90_s": float(np.percentile(latencies, 90)),
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": setup_s,
    }
    print(
        f"# {args.workload}: {len(records)} jobs in {cycles} cycles of {len(wl.cycle)}, "
        f"error_rate {(len(records) - passed) / len(records):.6g} ratio, "
        + ", ".join(f"{k} {v:.6g} {END_TO_END_UNITS[k]}" for k, v in metrics.items())
    )
    return records, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def speedup_2w(records) -> float:
    """1-worker over 2-worker seconds on matched Monte Carlo jobs; 0 if none."""
    one = sum(lat for kind, lat, _ in records if kind.endswith("/1w"))
    two = sum(lat for kind, lat, _ in records if kind.endswith("/2w"))
    return one / two if one and two else 0.0


def per_layer(args, workdir: Path) -> tuple[list, dict]:
    import_s = None
    if args.workload != "cli":
        t0 = clock()
        import dichotomy.cli  # noqa: F401
        import_s = clock() - t0
    wl = set_up(args, workdir)
    import tracing
    import workloads

    failures: list[str] = []
    plain = run_jobs(wl.cycle, failures=failures)
    if wl.cli is not None:
        trace_dir = workdir / "trace"
        trace_dir.mkdir()

        def on_job(i):
            wl.cli.launcher = [str(HERE / "launch.py"), str(trace_dir / f"job{i}")]

        traced = run_jobs(wl.cycle, on_job=on_job, failures=failures)
        parts = [json.loads((trace_dir / f"job{i}.json").read_text()) for i in range(len(traced))]
        summary = tracing.merge(parts)
        summary["cli.import_s"] = statistics.median(p["cli.import_s"] for p in parts)
        shutil.copytree(trace_dir, WORK_ROOT / f"trace-{args.workload}", dirs_exist_ok=True)
    else:
        tracer = tracing.Tracer()
        tracer.install(extra_namespaces=[workloads])

        def on_job(i):
            tracer.job = i

        traced = run_jobs(wl.cycle, on_job=on_job, failures=failures)
        summary = tracer.summary()
        summary["cli.import_s"] = import_s
        tracer.dump(WORK_ROOT / f"trace-{args.workload}.npz")
    report(failures)
    records = plain + traced
    summary["dvalue.mc_speedup_2w"] = speedup_2w(plain)
    summary["trace.overhead_ratio"] = sum(r[1] for r in plain) / sum(r[1] for r in traced)
    summary["error_rate"] = sum(not ok for _, _, ok in records) / len(records)
    return records, {k: {"value": summary[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("exact", "monte-carlo", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="toy sizes, for the smoke test")
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dichotomy" / "__init__.py").is_file():
        print(f"error: no dichotomy package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    # Time imports from cached bytecode, as an installed package has it:
    # this process and every child it starts may write .pyc files.
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_probe is not None:
            set_up(args, workdir)
            print(json.dumps({"setup_s": time.monotonic() - args.setup_probe}))
            return 0
        if args.trace:
            records, metrics = per_layer(args, workdir)
        else:
            records, metrics = end_to_end(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(not ok for _, _, ok in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
