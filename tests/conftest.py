import numpy as np
import pytest
from hypothesis import settings

from dfrcwave.model import AngleGrid, ArrayGeometry, TargetSet, Weights
from dfrcwave.radar import build_scene, rectangular_pattern

# a larger example budget for the parity properties, which hold the multiplier
# update and the dual sweep to the plain bisection listing's contract, the
# block finish to the sweep without it, the dual call's x(nu) rebuilds to the
# sweeps that moved, and the repairs' buffered phase search bitwise to its
# listing:
#   pytest tests/test_solver.py \
#       -k "TestDualAscentParity or TestBlockFinish or TestNoMoveExit
#           or TestPhaseSearchParity" --hypothesis-profile=parity
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
