"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest -q perfbench/tests

Checks that every metric named in BENCHMARK.json is printed with its unit,
that each workload's checker counts a wrong result as a failed job, that the
self-time arithmetic of the tracer handles overlapping children, and that the
benchmark refuses to run without the package sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    out = _run(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    if trace == 0:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def _corruptions(workload: str, result):
    if workload == "exact":
        v = result.valuation
        wrong = dataclasses.replace(v, aggregate_gain=v.aggregate_gain * 1.01 + 1.0)
        return [dataclasses.replace(result, valuation=wrong)]
    if workload == "monte-carlo":
        return [dataclasses.replace(result, gain=result.gain + 1e-9)]
    code, out = result
    return [(1, out), (code, out[: out.rindex(b"\n", 0, len(out) - 1) + 1])]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_results_count_as_failed_jobs(workload, tmp_path):
    if workload == "exact":
        wl = workloads.build_exact(5, tiny=True)
    elif workload == "monte-carlo":
        wl = workloads.build_monte_carlo(5, tiny=True)
    else:
        wl = workloads.build_cli(5, ROOT, tmp_path, tiny=True)
    job = wl.cycle[0]
    good = job.run()
    assert job.check(good)
    wrong = _corruptions(workload, good)
    fakes = [workloads.Job(job.kind, lambda r=r: r, job.check) for r in wrong]
    records = run.run_jobs([job] + fakes)
    assert [ok for _, _, ok in records] == [True] + [False] * len(wrong)


def test_self_time_subtracts_the_union_of_overlapping_children():
    # id, name, start, end, parent, job, work: two children overlap in time
    # (worker threads) and a grandchild lies inside the second child.
    spans = np.array([
        [0, 0, 0.0, 10.0, -1, 0, 0],
        [1, 1, 1.0, 4.0, 0, 0, 0],
        [2, 1, 3.0, 6.0, 0, 0, 0],
        [3, 2, 4.0, 5.0, 2, 0, 0],
        [4, 1, 8.0, 9.0, 0, 0, 0],
    ])
    np.testing.assert_allclose(tracing.self_times(spans), [4.0, 3.0, 2.0, 1.0, 1.0])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
