"""Reconstruction-accuracy grid over steps, guidance scales and methods.

Each grid cell inverts one shared reference latent and resamples it,
reporting the round-trip error, PSNR and predictor-call count.  The CSV
output is byte-deterministic under a fixed seed: rows are ordered by
(method, steps, omega) regardless of execution order, floats carry nine
significant digits with `\\n` line endings, and the informational wall_ms
column is written as 0 unless timing output is explicitly requested.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .errors import check_choice, check_count, check_instance, check_real
from .fileio import save_csv
from .inversion import VARIANTS, FixedPointConfig, round_trip
from .metrics import psnr
from .predictor import NoisePredictor, PromptId
from .schedule import build_schedule

METHODS = tuple(sorted(("euler", *VARIANTS)))

# Iteration budgets per step count; unlisted counts fall back to FixedPointConfig's.
DEFAULT_ITERS = {10: 11, 20: 6, 50: 5}


def method_config(
    method: str, steps: int, iters: int | None = None, window: int = FixedPointConfig.window
):
    """FixedPointConfig for a method in `METHODS`, or None for Euler, the zero-iteration solve.

    The budget is checked for every method, Euler included.
    """
    check_choice("method", method, METHODS)
    if iters is None:
        iters = DEFAULT_ITERS.get(steps, FixedPointConfig.iters)
    cfg = FixedPointConfig("plain" if method == "euler" else method, iters, window)
    return None if method == "euler" else cfg


@dataclass(frozen=True)
class ExperimentGrid:
    """Axes and inputs of one run.

    Each axis is a nonempty, duplicate-free sequence of values (a string or
    a scalar is not one), and each omega is finite.
    """

    step_counts: tuple[int, ...] = (10, 20, 50)
    omegas: tuple[float, ...] = (0.0, 1.0, 3.0, 5.0, 7.0)
    methods: tuple[str, ...] = METHODS
    dim: int = 64
    seed: int = 0
    iters: int | None = None
    window: int = FixedPointConfig.window

    def __post_init__(self):
        axes = (("steps", self.step_counts), ("omega", self.omegas), ("method", self.methods))
        for name, axis in axes:
            if isinstance(axis, str) or not isinstance(axis, Sequence):
                raise ValueError(f"grid {name} must be a sequence of values, got {axis!r}")
            if not axis:
                raise ValueError("grid axes must be nonempty")
        for omega in self.omegas:
            check_real("omega", omega)
        for name, axis in axes:
            if len(set(axis)) != len(axis):
                raise ValueError(f"grid {name} values must be distinct, got {list(axis)}")
        check_count("dim", self.dim, 1)
        check_count("seed", self.seed, 0)
        # Every cell's solver config and schedule, built here so that a bad
        # method, budget or step count is rejected before any cell runs.
        base = build_schedule()
        cells = {
            (m, s): (method_config(m, s, self.iters, self.window), base.subsample(s))
            for m in self.methods
            for s in self.step_counts
        }
        object.__setattr__(self, "_cells", cells)


@dataclass(frozen=True)
class GridRow:
    method: str
    steps: int
    omega: float
    round_trip_relative_l2: float
    psnr: float
    nfe: int
    wall_ms: float
    seed: int


CSV_HEADER = ",".join(f.name for f in fields(GridRow))


def run_grid(grid: ExperimentGrid, pred: NoisePredictor) -> list[GridRow]:
    """Evaluate every cell with `pred`; deterministic under a fixed seed.

    The same reference latent (standard normal, drawn from the grid seed,
    of `grid.dim` elements) is inverted in every cell so errors are
    comparable across methods.  Rows come back in canonical (method, steps,
    omega) order.  A `grid` or `pred` of the wrong type raises ValueError
    naming it before any cell runs.
    """
    check_instance("grid", grid, ExperimentGrid)
    check_instance("pred", pred, NoisePredictor)
    z_0 = np.random.default_rng(grid.seed).standard_normal(grid.dim)
    rows: list[GridRow] = []
    for method in sorted(grid.methods):
        for steps in sorted(grid.step_counts):
            cfg, schedule = grid._cells[method, steps]
            for omega in sorted(grid.omegas):
                start = time.perf_counter()
                _, z_rec, report = round_trip(schedule, pred, z_0, PromptId.SOURCE, omega, cfg)
                wall_ms = (time.perf_counter() - start) * 1e3
                rows.append(
                    GridRow(
                        method=method,
                        steps=steps,
                        omega=float(omega),
                        round_trip_relative_l2=report.round_trip_l2,
                        psnr=psnr(z_rec, z_0),
                        nfe=report.nfe,
                        wall_ms=wall_ms,
                        seed=grid.seed,
                    )
                )
    return rows


def write_grid_csv(rows: list[GridRow], path, timing: bool = False) -> None:
    """Write rows with `save_csv`, one column per GridRow field.

    wall_ms is informational; by default it is written as 0 so repeated
    runs produce byte-identical files.  Pass timing=True to record the
    measured values (which breaks byte-determinism).
    """
    save_csv(path, CSV_HEADER, [astuple(r if timing else replace(r, wall_ms=0.0)) for r in rows])
