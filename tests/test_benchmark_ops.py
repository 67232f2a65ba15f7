"""One cycle of every benchmark workload runs in-process and passes its oracle.

`perfbench/workloads.py` calls the library through its public names and
checks each op's output.  Running one cycle here makes a library change
that breaks the benchmark (a renamed parameter, a changed result field)
fail the test suite, instead of only a benchmark run.  A second, traced
cycle does the same for `perfbench/tracer.py`'s observers, whose per-layer
metrics would otherwise break only in a traced benchmark run.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
# Per-layer metrics that `run.py` computes itself from its timed phases.
ADDED_BY_RUN = {"predictor.time_share", "trace.overhead_ms", "trace.overhead_ratio"}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_one_cycle_passes_its_oracles(name, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.setup(1, tmp_path)
    for spec in workload.cycle:
        workload.check(spec, workload.call(spec))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_one_traced_cycle_yields_every_per_layer_metric(name, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    tracer = Tracer()
    tracer.install()
    records = []
    try:
        tracer.active = True
        workload.setup(1, tmp_path)
        tracer.active = False
        for op, spec in enumerate(workload.cycle):
            tracer.op, tracer.active = op, True
            try:
                raw = workload.call(spec)
            finally:
                tracer.op, tracer.active = -1, False
            records.append(workload.check(spec, raw))
    finally:
        tracer.active = False
        tracer.uninstall()

    ops = list(range(len(records)))
    metrics = layer_metrics(tracer, ops, ops)
    for metric in BENCHMARK["per_layer"]:
        if metric["name"] not in ADDED_BY_RUN:
            assert math.isfinite(metrics[metric["name"]][0]), metric["name"]
    if name in ("invert-d64", "edit-d1024"):
        iterations = sum(record["iterations"] for record in records)
        assert metrics["inversion.iterations"][0] * len(ops) == pytest.approx(iterations, rel=1e-12)
        assert iterations > 0
