"""Initial-condition generators: determinism, plateau sets, validation."""

import numpy as np
import pytest

from dynmc.exceptions import ConfigError
from dynmc.grids import FineGrid
from dynmc.ic import (DUAL_PLATEAUS, TRIPLE_PLATEAUS, finger_pattern,
                      smooth_log_uniform_field, stripe_fingers,
                      two_valued_mobility, wave_interface)


GRID = FineGrid(60, 30, 3.0, 1.5)


class TestFingerPattern:
    def test_deterministic_per_seed(self):
        a = finger_pattern(GRID, seed=7)
        b = finger_pattern(GRID, seed=7)
        assert (a == b).all()
        assert not (a == finger_pattern(GRID, seed=8)).all()

    def test_values_are_exactly_the_plateaus(self):
        c = finger_pattern(GRID, plateaus=TRIPLE_PLATEAUS, seed=3)
        assert set(np.unique(c)) == set(TRIPLE_PLATEAUS)
        c2 = finger_pattern(GRID, seed=3)
        assert set(np.unique(c2)) == set(DUAL_PLATEAUS)

    def test_zero_wiggle_gives_straight_interfaces(self):
        c = finger_pattern(GRID, seed=1, wiggle=0.0)
        # every row identical: the interface does not move between bands
        assert (c == c[:, :1]).all()
        cut = int(round(GRID.nx / 2))
        assert (c[:cut, 0] == DUAL_PLATEAUS[0]).all()
        assert (c[cut:, 0] == DUAL_PLATEAUS[1]).all()

    def test_single_plateau_constant(self):
        c = finger_pattern(GRID, plateaus=(0.6,), seed=0)
        assert (c == 0.6).all()

    def test_plateaus_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigError):
            finger_pattern(GRID, plateaus=(1.2, 0.3), seed=0)

    def test_nonincreasing_centers_rejected(self):
        with pytest.raises(ConfigError):
            finger_pattern(GRID, plateaus=TRIPLE_PLATEAUS, seed=0,
                           centers=(0.7, 0.4))


@pytest.mark.parametrize("band_cells", [(0, 0), (0, 3), (-1, 2), (4, 3)])
@pytest.mark.parametrize("generator", [
    lambda grid, bands: finger_pattern(grid, band_cells=bands),
    lambda grid, bands: stripe_fingers(grid, 0.8, 0.2, band_cells=bands)],
    ids=["finger_pattern", "stripe_fingers"])
def test_band_heights_below_one_or_reversed_rejected(generator, band_cells):
    # a zero-height band never advances the band loop
    with pytest.raises(ConfigError, match="band heights"):
        generator(FineGrid(8, 4, 2.0, 1.0), band_cells)


class TestStripeFingers:
    def test_both_plateaus_touch_left_boundary(self):
        c = stripe_fingers(GRID, high=0.8, low=0.2, seed=4)
        left = c[0, :]
        assert (left == 0.8).any() and (left == 0.2).any()

    def test_fingers_bounded_and_deterministic(self):
        a = stripe_fingers(GRID, high=0.8, low=0.2, seed=4)
        assert (a == stripe_fingers(GRID, high=0.8, low=0.2, seed=4)).all()
        assert set(np.unique(a)) == {0.2, 0.8}
        assert (a[-1, :] == 0.2).all()  # fingers never reach the right side


class TestWaveInterface:
    def test_zero_amplitude_vertical_interface(self):
        c = wave_interface(GRID, x0=1.5, amplitude=0.0, periods=3)
        assert (c == c[:, :1]).all()
        assert (c[:30, 0] == 1.0).all() and (c[30:, 0] == 0.0).all()

    def test_amplitude_moves_interface_with_y(self):
        c = wave_interface(GRID, x0=1.5, amplitude=0.4, periods=1,
                           high=1.0, low=0.333)
        widths = (c == 1.0).sum(axis=0)
        assert widths.min() < 30 < widths.max()
        assert set(np.unique(c)) == {0.333, 1.0}


class TestSmoothField:
    def test_bounds_and_determinism(self):
        f = smooth_log_uniform_field(GRID, seed=2, vmin=0.5, vmax=8.0)
        assert f.min() >= 0.5 - 1e-12 and f.max() <= 8.0 + 1e-12
        assert (f == smooth_log_uniform_field(GRID, 2, 0.5, 8.0)).all()

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigError):
            smooth_log_uniform_field(GRID, 0, vmin=-1.0, vmax=2.0)
        with pytest.raises(ConfigError):
            smooth_log_uniform_field(GRID, 0, vmin=3.0, vmax=2.0)


def test_two_valued_mobility_follows_labels():
    lam = two_valued_mobility(1000.0, 1.0,
                              lambda c: (c < 0.5).astype(np.int8))
    c = np.array([[0.9, 0.1], [0.5, 0.4]])
    out = lam(c)
    assert out[0, 0] == 1000.0 and out[0, 1] == 1.0
    assert out[1, 0] == 1000.0 and out[1, 1] == 1.0
