"""One cycle of every benchmark workload runs in-process and passes its oracle.

`perfbench/workloads.py` calls the library through its public names and
checks each op's output.  Running one cycle here makes a library change
that breaks the benchmark (a renamed parameter, a changed result field)
fail the test suite, instead of only a benchmark run.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_one_cycle_passes_its_oracles(name, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.setup(1, tmp_path)
    for spec in workload.cycle:
        workload.check(spec, workload.call(spec))
