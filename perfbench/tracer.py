"""Span tracer for the benchmark's traced run.

`Tracer.install` replaces every public function of the `diffinv` modules
with a timing wrapper, in the package namespace and in each sibling module
that imported it (so `diffinv.inversion.guided_epsilon` is traced as well
as `diffinv.guided_epsilon`), plus a few methods that carry work
(schedule subsampling, mask resampling, predictor construction).
Predictors built through `ContractivePredictor.default` or
`load_predictor` come back wrapped in `TimedPredictor`, a proxy built like
`CallCounter` that records one span per `predict` call.

Each span records its name, start, end, parent span and op id; spans stay
in flat in-memory arrays until the run ends.  A span's self time is its
duration minus the durations of its direct children.  Counters that need
a return value (iterations, candidates, bytes) are kept per op.

Nothing here runs during the timed runs: `run.py` imports this module only
with `--trace 1`.
"""

from __future__ import annotations

import functools
import inspect
import os
from array import array
from time import perf_counter

import numpy as np

import diffinv
from workloads import RESIDUAL_THRESHOLD

MODULES = (
    "schedule", "predictor", "guidance", "inversion", "sampler",
    "editing", "fileio", "cli", "bench", "metrics",
)
# Methods that do work of their own; module-level functions are found by scanning.
METHODS = (
    ("schedule", "NoiseSchedule", ("subsample", "inversion_pairs", "sampling_pairs")),
    ("guidance", "SoftMask", ("for_latent",)),
    ("predictor", "ContractivePredictor", ("__init__", "default")),
    ("predictor", "AffinePredictor", ("__init__", "random")),
)
CONSTRUCT = "predictor.construct"
FILEIO = ("fileio.load", "fileio.save")
USEFUL_RATIO = f"inversion.useful_iter_ratio_{RESIDUAL_THRESHOLD:g}"
# Metrics in these units are timings; every other per-layer metric repeats exactly.
TIMING_UNITS = ("ms", "ms/op", "us", "GFLOP/s")


def group_of(module: str, name: str) -> str:
    """The layer a traced function's time is charged to."""
    if module == "predictor":
        return "predictor.guidance" if name.endswith("_epsilon") else CONSTRUCT
    if module == "inversion" and name == "anderson_weights":
        return "inversion.anderson"
    if module == "fileio":
        return "fileio.save" if name.startswith("save") else "fileio.load"
    return module


class TimedPredictor(diffinv.NoisePredictor):
    """Wraps a predictor and records a span per `predict` call."""

    def __init__(self, inner: diffinv.NoisePredictor, tracer: "Tracer"):
        self.inner = inner
        self._predict = tracer.wrap(inner.predict, "predictor.predict", "predictor.predict",
                                    observe=_observe_predict)

    def predict(self, z, prompt, t):
        return self._predict(z, prompt, t)


def _observe_predict(tracer, args, kwargs, result):
    tracer.add("predict_n2", np.size(args[0]) ** 2)
    return result


def _observe_invert_step(tracer, args, kwargs, result):
    trace = result[1]
    tracer.add("iterations", len(trace))
    tracer.add("useful_iterations", sum(r > RESIDUAL_THRESHOLD for r in trace))
    if trace:
        tracer.peak("final_residual_max", trace[-1])
    return result


def _observe_trajectory(tracer, args, kwargs, result):
    tracer.add("trajectories", 1)
    tracer.add("states_used", 1.0 / len(result))
    return result


def _observe_edit(tracer, args, kwargs, result):
    tracer.add("candidates", len(result.candidates))
    tracer.add("distinct_candidates", len({c.tobytes() for c in result.candidates}))
    tracer.add("scorer_nan", sum(s != s for s in result.scores))
    return result


def _observe_read(tracer, args, kwargs, result):
    tracer.add("bytes_read", os.path.getsize(args[0]))
    return result


def _observe_write(tracer, args, kwargs, result):
    tracer.add("bytes_written", os.path.getsize(args[0]))
    return result


def _observe_grid(tracer, args, kwargs, result):
    tracer.add("grid_cells", len(result))
    return result


def _observe_exit(tracer, args, kwargs, result):
    tracer.add("nonzero_exits", int(result != 0))
    return result


def _proxy(tracer, args, kwargs, result):
    return TimedPredictor(result, tracer)


OBSERVERS = {
    "inversion.iterative_invert_step": _observe_invert_step,
    "sampler.sample_trajectory": _observe_trajectory,
    "editing.edit": _observe_edit,
    "fileio.load_tensor": _observe_read,
    "fileio.parse_kv_file": _observe_read,
    "fileio.save_tensor": _observe_write,
    "bench.run_grid": _observe_grid,
    "cli.main": _observe_exit,
    "predictor.ContractivePredictor.default": _proxy,
    "predictor.load_predictor": _proxy,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.groups: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self._stack: list[int] = []
        self.counters: dict[int, dict[str, float]] = {}
        self._restore: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float) -> None:
        if self.op >= 0:
            counters = self.counters.setdefault(self.op, {})
            counters[key] = counters.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        if self.op >= 0:
            counters = self.counters.setdefault(self.op, {})
            counters[key] = max(counters.get(key, value), value)

    def wrap(self, fn, name: str, group: str, observe=None):
        """A wrapper that records one span per call while the tracer is active."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        nid = self._name_ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            return result if observe is None else observe(self, args, kwargs, result)

        return traced

    def install(self) -> None:
        """Wrap the package's public functions wherever they are bound."""
        modules = {m: getattr(diffinv, m) for m in MODULES}
        wrapped: dict[object, object] = {}
        for namespace in (diffinv, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                module = obj.__module__.rpartition(".")[2]
                if module not in modules:
                    continue
                if obj not in wrapped:
                    name = f"{module}.{obj.__name__}"
                    wrapped[obj] = self.wrap(obj, name, group_of(module, obj.__name__),
                                             OBSERVERS.get(name))
                self._patch(namespace, attr, wrapped[obj])
        for module, cls_name, attrs in METHODS:
            cls = getattr(modules[module], cls_name)
            for attr in attrs:
                raw = cls.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                name = f"{module}.{cls_name}.{attr}"
                traced = self.wrap(fn, name, group_of(module, attr), OBSERVERS.get(name))
                self._patch(cls, attr, classmethod(traced) if isinstance(raw, classmethod) else traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def save(self, path) -> None:
        """Write every span (names, groups and the flat span arrays)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            groups=np.array(self.groups),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_of, dtype=np.int32),
        )


def layer_metrics(tracer: Tracer, traced_ops: list[int], first_cycle: list[int]) -> dict:
    """Per-layer metrics of the traced ops.

    Times are per op, averaged over every traced op.  Counts and ratios come
    from the first traced pass over the cycle only, so they repeat exactly.
    """
    start = np.frombuffer(tracer.start, dtype=np.float64)
    dur = (np.frombuffer(tracer.end, dtype=np.float64) - start) * 1e3
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    op = np.frombuffer(tracer.op_of, dtype=np.int32)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_ms = dur - child
    groups = np.array(tracer.groups + [""])
    group = groups[name]
    parent_group = np.where(has_parent, groups[name[np.maximum(parent, 0)]], "")
    names = np.array(tracer.names + [""])
    span_name = names[name]
    parent_name = np.where(has_parent, names[name[np.maximum(parent, 0)]], "")
    in_ops = op >= 0
    in_first = np.isin(op, first_cycle)
    n_ops, n_first = len(traced_ops), len(first_cycle)

    def outermost(groups_):
        return np.isin(group, groups_) & ~np.isin(parent_group, groups_)

    def busy(*groups_):
        return float(dur[outermost(groups_) & in_ops].sum()) / n_ops

    def own(*groups_):
        return float(self_ms[np.isin(group, groups_) & in_ops].sum()) / n_ops

    def named(names_):
        return np.isin(span_name, names_) & ~np.isin(parent_name, names_)

    def calls(*names_):
        return int(np.count_nonzero(named(names_) & in_first)) / n_first

    def total(key, ops):
        return sum(tracer.counters.get(o, {}).get(key, 0) for o in ops)

    def ratio(key, base):
        b = total(base, first_cycle)
        return total(key, first_cycle) / b if b else 0.0

    # Construction time per predictor built, anywhere in the run (the
    # traced set-up included), without the weight-file parsing inside it.
    roots = np.flatnonzero(outermost([CONSTRUCT]))
    root_set = set(roots.tolist())
    io_inside = 0.0
    for i in np.flatnonzero(outermost(list(FILEIO))):
        j = parent[i]
        while j >= 0 and j not in root_set:
            j = parent[j]
        if j >= 0:
            io_inside += dur[i]
    construct_ms = (float(dur[roots].sum()) - io_inside) / len(roots) if len(roots) else 0.0

    predict = (span_name == "predictor.predict") & in_ops
    predict_ms = float(dur[predict].sum())
    predict_calls = int(np.count_nonzero(predict))
    n2_all = total("predict_n2", traced_ops)
    peaks = [tracer.counters.get(o, {}).get("final_residual_max") for o in first_cycle]
    peaks = [p for p in peaks if p is not None]
    return {
        "predictor.construct_ms": (construct_ms, "ms"),
        "predictor.predict_calls": (calls("predictor.predict"), "calls/op"),
        "predictor.predict_busy_ms": (predict_ms / n_ops, "ms/op"),
        "predictor.predict_us_per_call": (1e3 * predict_ms / predict_calls if predict_calls else 0.0, "us"),
        "predictor.computed_bytes_per_op": (8 * total("predict_n2", first_cycle) / n_first, "B/op"),
        "predictor.gemv_gflops": (2 * n2_all / (predict_ms * 1e6) if predict_ms else 0.0, "GFLOP/s"),
        "predictor.guidance_calls": (calls("predictor.guided_epsilon", "predictor.blended_epsilon"), "calls/op"),
        "predictor.guidance_self_ms": (own("predictor.guidance"), "ms/op"),
        "inversion.self_ms": (own("inversion", "inversion.anderson"), "ms/op"),
        "inversion.step_calls": (calls("inversion.iterative_invert_step", "inversion.euler_invert_step"), "calls/op"),
        "inversion.iterations": (total("iterations", first_cycle) / n_first, "iters/op"),
        "inversion.anderson_calls": (calls("inversion.anderson_weights"), "calls/op"),
        "inversion.anderson_ms": (busy("inversion.anderson"), "ms/op"),
        USEFUL_RATIO: (ratio("useful_iterations", "iterations"), "ratio"),
        "inversion.final_residual_max": (max(peaks) if peaks else 0.0, "l2"),
        "sampler.self_ms": (own("sampler"), "ms/op"),
        "sampler.step_calls": (calls("sampler.ddim_step", "sampler.stochastic_step"), "calls/op"),
        "sampler.states_used_ratio": (ratio("states_used", "trajectories"), "ratio"),
        "guidance.mask_calls": (calls("guidance.soft_mask"), "calls/op"),
        "guidance.mask_ms": (busy("guidance"), "ms/op"),
        "editing.self_ms": (own("editing"), "ms/op"),
        "editing.candidates": (total("candidates", first_cycle) / n_first, "cand/op"),
        "editing.distinct_candidate_ratio": (ratio("distinct_candidates", "candidates"), "ratio"),
        "editing.scorer_nan": (total("scorer_nan", first_cycle) / n_first, "count/op"),
        "fileio.load_calls": (calls("fileio.load_tensor", "fileio.parse_kv_file"), "calls/op"),
        "fileio.load_ms": (busy("fileio.load"), "ms/op"),
        "fileio.bytes_read": (total("bytes_read", first_cycle) / n_first, "B/op"),
        "fileio.save_calls": (calls("fileio.save_tensor"), "calls/op"),
        "fileio.save_ms": (busy("fileio.save"), "ms/op"),
        "fileio.bytes_written": (total("bytes_written", first_cycle) / n_first, "B/op"),
        "cli.self_ms": (own("cli"), "ms/op"),
        "cli.nonzero_exits": (total("nonzero_exits", traced_ops) / n_ops, "exits/op"),
        "bench.grid_ms": (float(dur[named(["bench.run_grid"]) & in_ops].sum()) / n_ops, "ms/op"),
        "bench.grid_cells": (total("grid_cells", first_cycle) / n_first, "cells/op"),
        "schedule.busy_ms": (busy("schedule"), "ms/op"),
        "metrics.busy_ms": (busy("metrics"), "ms/op"),
    }
