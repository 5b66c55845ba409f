"""Smoke test of the benchmark harness at minimal input sizes.

    python3 -m pytest perfbench/tests

Each workload runs twice with --smoke: once untraced and once traced. The
test checks that every metric of BENCHMARK.json is reported with its unit,
that every metric has a unit and a better-direction, and that no round trip
failed (error_rate 0).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported(workload, trace, kind):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    error_rate = re.search(r"error_rate (\S+) ratio", done.stdout)
    assert error_rate and float(error_rate.group(1)) == 0.0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2

    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC[kind])
    for m in SPEC[kind]:
        assert m["unit"] and m["better"] in ("higher", "lower")
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))


def test_refuses_to_run_without_sources():
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run_bench(bare, "churn", 0)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
