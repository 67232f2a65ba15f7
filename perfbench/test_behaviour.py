"""Tests of the benchmark itself; no test here reads a timing.

Run from the repository root:

    python3 -m pytest perfbench/test_behaviour.py

Two runs of one workload with one seed must write byte-identical behaviour
records, in the timed and in the traced run, and report exactly the metrics
that BENCHMARK.json names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_behaviour_is_byte_identical_across_runs(workload, trace):
    seed = 20231
    record = BENCH / "results" / f"{workload}.seed{seed}.{'trace-' if trace else ''}behaviour.json"
    outputs = []
    for _ in range(2):
        proc = run(ROOT, workload, seed, trace)
        assert proc.returncode == 0, proc.stderr
        outputs.append((json.loads(proc.stdout.splitlines()[-1]), record.read_bytes()))
    (first, first_bytes), (_, second_bytes) = outputs
    assert first_bytes == second_bytes
    assert first["correct"] and first["failed"] == 0 and first["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
