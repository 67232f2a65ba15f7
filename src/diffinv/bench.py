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
from dataclasses import dataclass

import numpy as np

from .inversion import FixedPointConfig, FixedPointVariant, round_trip
from .metrics import psnr
from .predictor import ContractivePredictor, NoisePredictor, PromptId
from .schedule import build_schedule

METHODS = ("anderson", "averaged", "euler", "plain")

# Iteration budgets per step count; unlisted counts fall back to 6.
DEFAULT_ITERS = {10: 11, 20: 6, 50: 5}
FALLBACK_ITERS = 6

CSV_HEADER = "method,steps,omega,round_trip_relative_l2,psnr,nfe,wall_ms,seed"


def method_config(method: str, steps: int, iters: int | None = None, window: int = 2):
    """FixedPointConfig for a named method, or None for Euler, the zero-iteration solve.

    The budget is checked for every method, Euler included.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if iters is None:
        iters = DEFAULT_ITERS.get(steps, FALLBACK_ITERS)
    variant = FixedPointVariant.PLAIN if method == "euler" else FixedPointVariant(method)
    cfg = FixedPointConfig(variant=variant, iters=iters, window=window)
    return None if method == "euler" else cfg


@dataclass(frozen=True)
class ExperimentGrid:
    """Axes and fixed inputs of one benchmark run."""

    step_counts: tuple[int, ...] = (10, 20, 50)
    omegas: tuple[float, ...] = (0.0, 1.0, 3.0, 5.0, 7.0)
    methods: tuple[str, ...] = METHODS
    dim: int = 64
    seed: int = 0
    predictor: NoisePredictor | None = None
    iters: int | None = None
    window: int = 2

    def __post_init__(self):
        if not self.step_counts or not self.omegas or not self.methods:
            raise ValueError("grid axes must be nonempty")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


def run_grid(grid: ExperimentGrid) -> list[GridRow]:
    """Evaluate every cell; deterministic under a fixed seed.

    The same reference latent (standard normal, drawn from the grid seed)
    is inverted in every cell so errors are comparable across methods.
    Rows come back in canonical (method, steps, omega) order.
    """
    pred = grid.predictor
    if pred is None:
        pred = ContractivePredictor.default(grid.dim, seed=0)
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
    """Write rows as CSV.

    wall_ms is informational; by default it is written as 0 so repeated
    runs produce byte-identical files.  Pass timing=True to record the
    measured values (which breaks byte-determinism).
    """
    lines = [CSV_HEADER]
    for r in rows:
        wall = r.wall_ms if timing else 0.0
        lines.append(
            f"{r.method},{r.steps},{r.omega:.9g},{r.round_trip_relative_l2:.9g},"
            f"{r.psnr:.9g},{r.nfe},{wall:.9g},{r.seed}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
