"""Self-test of the benchmark: every workload in --smoke mode, both trace modes.

Run from the repository root:

    python3 -m pytest -q benchmarks/test_smoke.py

Each case takes a few seconds.  It checks the contract of the last output
line against BENCHMARK.json: the four keys, every declared metric with its
declared unit, a correct run with no failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    assert "[FAIL]" not in done.stdout, done.stdout
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_meets_contract(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exact_counters_repeat_across_runs():
    first = run("ga-users", 1)["metrics"]
    second = run("ga-users", 1)["metrics"]
    counts = {k: v["value"] for k, v in first.items() if v["unit"] == "count"}
    assert counts == {k: second[k]["value"] for k in counts}
    assert counts["opt_ga.evolve.calls"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "benchmarks" / f.name).write_text(f.read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "ga-users", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
