"""Smoke test of the benchmark: ``pytest bench/`` (not part of tier-1,
whose ``testpaths`` is ``tests``).

Runs every workload in ``--quick`` mode, untraced and traced, through
the same per-workload command line a driver uses, and validates the
result line against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_quick(workload: str, trace: int) -> tuple[int, dict]:
    done = subprocess.run(
        [
            sys.executable, *BENCHMARK["command"][1:],
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--quick",
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_matches_benchmark_json(workload: str, trace: int) -> None:
    code, result = run_quick(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert code == 0 and result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0
    if trace:
        assert (ROOT / "bench" / "out" / f"trace-{workload}.jsonl").stat().st_size


def test_benchmark_json_shape() -> None:
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
