import numpy as np
import pytest
from hypothesis import settings

from dfrcwave.model import AngleGrid, ArrayGeometry, TargetSet, Weights
from dfrcwave.radar import build_scene, rectangular_pattern

# a larger example budget for the parity properties, which hold a fast path to
# its plain listing or dense oracle; the "Parity properties" step of
# .github/workflows/tests.yml selects them by their parity marker and runs them
# with this profile. A derandomize=True property draws its examples from its
# own source text (decorators, signature and body): editing one replaces its
# examples, and can hide or move a failure this step shows, so the tests vary a
# solver constant through a hook outside that text (test_solver.at_drawn_budget)
settings.register_profile("parity", max_examples=2000)


def make_scene(
    n_tx=2,
    block_len=8,
    grid_step=15.0,
    target_angles=(-30.0, 40.0),
    max_lag=3,
    width=20.0,
):
    """Small scene helper shared across test modules."""
    geometry = ArrayGeometry(n_tx)
    grid = AngleGrid.uniform(-90.0, 90.0, grid_step)
    targets = TargetSet(np.asarray(target_angles, dtype=float), max_lag)
    desired = rectangular_pattern(grid, targets.angles_deg, width)
    return build_scene(geometry, grid, desired, targets, block_len)


def random_cm(rng, n, amp):
    """Constant-modulus vector with uniform random phases."""
    return amp * np.exp(2j * np.pi * rng.random(n))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def weights_full():
    return Weights(1.0, 2.0, 2.0)
