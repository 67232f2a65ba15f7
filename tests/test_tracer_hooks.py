"""The benchmark's span tracer can still patch what it wraps.

`perfbench/tracer.py` patches methods it finds in a class's own `__dict__`
(predictor construction among them); this keeps a refactor that moves one
of them from failing only inside a traced benchmark run.
"""

from pathlib import Path

import diffinv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    before = dict(vars(diffinv.ContractivePredictor))
    hooks = tracer.Tracer()
    try:
        hooks.install()
        assert vars(diffinv.ContractivePredictor)["__init__"] is not before["__init__"]
    finally:
        hooks.uninstall()
    assert dict(vars(diffinv.ContractivePredictor)) == before
