import math
import tracemalloc

import numpy as np
import pytest

from diffinv import (
    AffinePredictor,
    ContractivePredictor,
    NoiseSchedule,
    PromptId,
    build_schedule,
    schedule_from_alpha_bar,
)


@pytest.fixture(scope="session")
def base_schedule():
    return build_schedule()


@pytest.fixture(scope="session")
def scaled_linear():
    """Builds a scaled-linear schedule of any length and beta range.

    It applies `build_schedule`'s formula to the given parameters and goes
    through `schedule_from_alpha_bar`, the library's path to any schedule
    but the default one.
    """

    def build(big_t, beta_start, beta_end):
        betas = np.linspace(math.sqrt(beta_start), math.sqrt(beta_end), big_t) ** 2
        return schedule_from_alpha_bar(np.cumprod(1.0 - betas))

    return build


@pytest.fixture(scope="session")
def schedule20(base_schedule):
    return base_schedule.subsample(20)


@pytest.fixture(scope="session")
def schedule10(base_schedule):
    return base_schedule.subsample(10)


@pytest.fixture(scope="session")
def contractive64():
    return ContractivePredictor.default(64, seed=0)


@pytest.fixture
def toy_schedule():
    """Two-step schedule with alpha_bar = (1, 0.64, 0.25)."""
    return NoiseSchedule(np.array([1.0, 0.64, 0.25]), np.array([1, 2]))


@pytest.fixture
def scalar_affine_half():
    """1-D predictor eps(z) = 0.5 * z for every prompt."""
    return AffinePredictor({p: [[0.5]] for p in PromptId}, {p: [0.0] for p in PromptId})


@pytest.fixture
def traced_peak():
    """Call `fn()` under tracemalloc: its result and the most bytes it held at once."""

    def run(fn):
        tracemalloc.start()
        try:
            held_before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - held_before
        finally:
            tracemalloc.stop()

    return run
