import numpy as np
import pytest

from diffinv import (
    AffinePredictor,
    ContractivePredictor,
    NoiseSchedule,
    PromptId,
    build_schedule,
)


@pytest.fixture(scope="session")
def base_schedule():
    return build_schedule()


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
    return AffinePredictor({p: [[0.5]] for p in PromptId}, {p: [0.0] for p in PromptId}, 0.5)
