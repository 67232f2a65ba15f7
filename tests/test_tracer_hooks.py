"""The benchmark's span tracer can still patch what it wraps.

`perfbench/tracer.py` patches methods it finds in a class's own `__dict__`
(predictor construction among them); this keeps a refactor that moves one
of them from failing only inside a traced benchmark run.  Its per-span
observers are keyed by `module.function` (or `module.Class.method`) names,
so a renamed or deleted function would silently zero a traced counter.
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


def test_every_observer_names_an_existing_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    for key in tracer.OBSERVERS:
        module, *path = key.split(".")
        target = getattr(diffinv, module)
        for attr in path:
            assert hasattr(target, attr), key
            target = getattr(target, attr)
        assert callable(target), key
