"""Deterministic initial-condition generators and mobility fields."""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError
from .grids import FineGrid

DUAL_PLATEAUS = (1.0, 0.333)
TRIPLE_PLATEAUS = (1.0, 0.666, 0.333)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _bands(rng: np.random.Generator, ny: int, band_cells) -> list:
    """Seeded horizontal bands [(j0, j1), ...] covering rows 0..ny, each
    lo..hi cells high (the last one cut at ny)."""
    lo, hi = band_cells
    if not 1 <= lo <= hi:
        raise ConfigError(
            f"band heights need 1 <= lo <= hi, got {tuple(band_cells)}")
    bands = []
    j = 0
    while j < ny:
        h = int(rng.integers(lo, hi + 1))
        bands.append((j, min(j + h, ny)))
        j += h
    return bands


def check_plateaus(plateaus) -> None:
    """Raise ConfigError unless ``plateaus`` names concentrations in [0, 1]."""
    if not plateaus:
        raise ConfigError("plateaus must name at least one value")
    if any(not 0.0 <= p <= 1.0 for p in plateaus):
        raise ConfigError(f"plateau values must lie in [0, 1]: {plateaus}")


def finger_pattern(grid: FineGrid, plateaus=DUAL_PLATEAUS, seed: int = 0,
                   band_cells=(3, 7), wiggle: float = 0.45,
                   centers=None) -> np.ndarray:
    """Interdigitated plateau regions with randomized interface offsets.

    The domain is split along x into ``len(plateaus)`` plateau slabs whose
    interfaces are shifted band-by-band in y (seeded random band heights
    and offsets), producing fingers aligned with x.  ``wiggle`` is the
    peak interface shift as a fraction of a slab width; ``centers``
    optionally overrides the nominal interface positions (fractions of L1).
    """
    check_plateaus(plateaus)
    npl = len(plateaus)
    if npl < 2:
        return np.full((grid.nx, grid.ny), plateaus[0])
    rng = _rng(seed)
    if centers is None:
        centers = [(k + 1) / npl for k in range(npl - 1)]
    if len(centers) != npl - 1 or any(
            b <= a for a, b in zip(centers, centers[1:])):
        raise ConfigError(f"interface centers must increase: {centers}")

    # seeded horizontal bands; each band shifts every interface coherently
    bands = _bands(rng, grid.ny, band_cells)
    offsets = rng.uniform(-wiggle, wiggle, size=(len(bands), npl - 1))

    c = np.empty((grid.nx, grid.ny))
    x = grid.xc()
    slab = grid.L1 / npl
    for bi, (j0, j1) in enumerate(bands):
        cuts = [grid.x0 + f * grid.L1 + offsets[bi, k] * slab
                for k, f in enumerate(centers)]
        col = np.full(grid.nx, plateaus[-1])
        for k in range(npl - 2, -1, -1):
            col = np.where(x < cuts[k], plateaus[k], col)
        c[:, j0:j1] = col[:, None]
    return c


def stripe_fingers(grid: FineGrid, high: float, low: float, seed: int = 0,
                   band_cells=(5, 9), tip: float = 0.35,
                   wiggle: float = 0.3) -> np.ndarray:
    """Alternating y-bands; every other band is a high-plateau finger.

    Fingers are attached to the left boundary and their lengths vary
    band-by-band around ``tip`` (fraction of L1) with seeded spread
    ``wiggle`` (also a fraction of L1).  The remaining bands stay at the
    low plateau all the way to the left boundary, so both continua are
    present on every vertical line up to the shortest finger tip.
    """
    rng = _rng(seed)
    bands = _bands(rng, grid.ny, band_cells)
    lengths = grid.x0 + grid.L1 * (
        tip + rng.uniform(-wiggle, wiggle, size=len(bands)))
    c = np.full((grid.nx, grid.ny), low)
    x = grid.xc()
    for bi, (j0, j1) in enumerate(bands):
        if bi % 2 == 0:
            c[:, j0:j1] = np.where(x < lengths[bi], high, low)[:, None]
    return c


def wave_interface(grid: FineGrid, x0: float, amplitude: float,
                   periods: float, high: float = 1.0,
                   low: float = 0.0) -> np.ndarray:
    """Two-plateau field split by x(y) = x0 + A sin(2 pi k y / L2)."""
    xg, yg = grid.cell_centers()
    cut = x0 + amplitude * np.sin(2.0 * np.pi * periods *
                                  (yg - grid.y0) / grid.L2)
    return np.where(xg < cut, high, low)


def smooth_log_uniform_field(grid: FineGrid, seed: int, vmin: float,
                             vmax: float, corr_cells: float = 4.0
                             ) -> np.ndarray:
    """Seeded smooth positive field, log-uniform between vmin and vmax."""
    if not 0 < vmin <= vmax:
        raise ConfigError(f"need 0 < vmin <= vmax, got {vmin}, {vmax}")
    from scipy.ndimage import gaussian_filter  # slow import, rarely needed
    noise = _rng(seed).standard_normal((grid.nx, grid.ny))
    smooth = gaussian_filter(noise, sigma=corr_cells, mode="reflect")
    lo, hi = smooth.min(), smooth.max()
    unit = (smooth - lo) / (hi - lo) if hi > lo else np.full_like(smooth, 0.5)
    return np.exp(np.log(vmin) + unit * (np.log(vmax) - np.log(vmin)))


def two_valued_mobility(hi: float, lo: float, labels_of):
    """lam(c) = hi on the top continuum, lo elsewhere."""

    def lam(c):
        return np.where(labels_of(c) == 0, hi, lo)

    return lam
