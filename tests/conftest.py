"""Shared fixtures and deterministic random-field helpers."""

import numpy as np
import pytest

from dynmc.grids import CoarseGrid, FineGrid


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def random_concentration(nx: int, ny: int, seed: int) -> np.ndarray:
    return rng(seed).random((nx, ny))


def random_mobility(nx: int, ny: int, seed: int, contrast: float) -> np.ndarray:
    """Two-valued field in {1, contrast}, seeded."""
    mask = rng(seed).random((nx, ny)) < 0.5
    return np.where(mask, float(contrast), 1.0)


@pytest.fixture
def unit_grid():
    return FineGrid(8, 8, 1.0, 1.0)


@pytest.fixture
def strip_coarse():
    """Four-block strip: 16x4 fine cells, 4 full-height blocks."""
    fine = FineGrid(16, 4, 4.0, 1.0)
    return CoarseGrid(fine, 4)
