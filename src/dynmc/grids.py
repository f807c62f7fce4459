"""Structured fine/coarse grid geometry, oversampling, and extended domains.

Fine fields are cell centered with shape ``(nx, ny)``.  Face-normal data
lives on staggered arrays: x-faces ``(nx + 1, ny)``, y-faces ``(nx, ny + 1)``,
with positive orientation along +x / +y.  The coarse grid is a chain of
full-height blocks along x, so block arrays are ``(Nx, n)`` and edge
arrays ``(Nx + 1, n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ConfigError

EXTENSION_KINDS = ("none", "two-sided", "right")


@dataclass(frozen=True)
class FineGrid:
    """Uniform rectangular grid over ``[x0, x0+L1] x [y0, y0+L2]``."""

    nx: int
    ny: int
    L1: float
    L2: float
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        if self.nx <= 0 or self.ny <= 0 or self.L1 <= 0 or self.L2 <= 0:
            raise ConfigError(f"grid extents/counts must be positive: {self}")

    @property
    def hx(self) -> float:
        return self.L1 / self.nx

    @property
    def hy(self) -> float:
        return self.L2 / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def xc(self) -> np.ndarray:
        """Cell-center x coordinates, shape (nx,)."""
        return self.x0 + (np.arange(self.nx) + 0.5) * self.hx

    def yc(self) -> np.ndarray:
        return self.y0 + (np.arange(self.ny) + 0.5) * self.hy

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of centers, each shape (nx, ny)."""
        return np.meshgrid(self.xc(), self.yc(), indexing="ij")

    def zeros(self) -> np.ndarray:
        return np.zeros((self.nx, self.ny))

    def zero_faces(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros((self.nx + 1, self.ny)), np.zeros((self.nx, self.ny + 1))


@dataclass(frozen=True)
class CoarseGrid:
    """Partition of a fine grid into a chain of Nx full-height blocks.

    Every coarse model runs on this chain with no-flow top and bottom, so
    the edges that carry flux are the Nx + 1 x-face columns: edge I is
    fine face column I * mx, between blocks I-1 and I.
    """

    fine: FineGrid
    Nx: int

    def __post_init__(self):
        if self.fine.nx % self.Nx:
            raise ConfigError(
                f"fine nx={self.fine.nx} not divisible by coarse Nx={self.Nx}")

    @property
    def mx(self) -> int:
        """Fine cells per block along x."""
        return self.fine.nx // self.Nx

    @property
    def my(self) -> int:
        return self.fine.ny

    @property
    def block_area(self) -> float:
        return self.mx * self.my * self.fine.cell_area

    def blocks(self) -> range:
        return range(self.Nx)

    def block_slice(self, I: int) -> slice:
        """Fine columns of block I."""
        return slice(I * self.mx, (I + 1) * self.mx)

    def edge_neighbors(self, I: int) -> tuple[int | None, int | None]:
        """Blocks on the minus and plus side of edge I (None outside)."""
        if not 0 <= I <= self.Nx:
            raise ConfigError(f"edge {I} outside 0..{self.Nx}")
        return (I - 1 if I > 0 else None, I if I < self.Nx else None)

    def edge_flux(self, vx: np.ndarray) -> np.ndarray:
        """Fine x-face fluxes on the coarse edges, shape (Nx + 1, ny)."""
        return vx[::self.mx]

    def edge_donor_labels(self, labels: np.ndarray,
                          flux: np.ndarray) -> np.ndarray:
        """Label of the upwind fine cell of every edge face.

        Positive flux donates from the minus side; boundary faces read the
        cell inside the domain.
        """
        cols = np.arange(self.Nx + 1) * self.mx
        lo = labels[np.maximum(cols - 1, 0)]
        hi = labels[np.minimum(cols, self.fine.nx - 1)]
        return np.where(flux >= 0, lo, hi)


@dataclass(frozen=True)
class Oversample:
    """Block K extended by neighbor blocks along x, with out-of-domain
    source maps.

    ``src_ix`` maps each local cell column to the fine-grid column it
    samples (periodic or mirror image for extended cells).  ``regions``
    holds the local columns of each constituent block, left to right, and
    ``central`` those of block K.  Local coordinates continue the uniform
    spacing beyond the domain so gradient moments see the virtual
    positions.
    """

    coarse: CoarseGrid
    grid: FineGrid  # local grid (origin at the virtual lower-left corner)
    src_ix: np.ndarray
    regions: tuple[slice, ...]
    central: slice

    @cached_property
    def x_centers(self) -> np.ndarray:
        """Read-only cell-centre x of the local grid, shape (nx, ny)."""
        x = self.grid.cell_centers()[0]
        x.flags.writeable = False
        return x

    def sample(self, fine_field: np.ndarray) -> np.ndarray:
        """Pull a fine cell field onto the local grid through the source map."""
        return fine_field[self.src_ix]


def oversample_block(coarse: CoarseGrid, K: int, layers: int, *,
                     truncate: bool = False) -> Oversample:
    """Build K+ = K plus ``layers`` neighbor blocks on each side.

    Out-of-domain blocks take the periodic image on the left and the
    mirror image on the right, as the Galerkin model's regions do; with
    ``truncate`` the region is cut at the domain instead.  A mirror image
    holds one domain width: a region reaching beyond it
    (``layers > coarse.Nx``) raises :class:`ConfigError`.  Blocks are full
    height, so the region spans all fine rows.
    """
    if not 0 <= K < coarse.Nx:
        raise ConfigError(f"block {K} outside coarse grid")
    if layers < 0:
        raise ConfigError("layers must be >= 0")
    fine, mx = coarse.fine, coarse.mx
    lo, hi = K - layers, K + layers + 1
    if truncate:
        lo, hi = max(lo, 0), min(hi, coarse.Nx)
    cols = np.arange(lo * mx, hi * mx)
    cols = np.where(cols < 0, cols % fine.nx, cols)
    src_ix = np.where(cols >= fine.nx, 2 * fine.nx - 1 - cols, cols)
    if src_ix.min() < 0:  # mirrored past the left wall: needs layers <= Nx
        raise ConfigError(
            f"block {K} with {layers} layers reaches past the mirror image "
            f"of the {coarse.Nx}-block domain")

    nxl = cols.size
    grid = FineGrid(nxl, fine.ny, nxl * fine.hx, fine.ny * fine.hy,
                    x0=fine.x0 + lo * mx * fine.hx, y0=fine.y0)
    regions = tuple(slice(k, k + mx) for k in range(0, nxl, mx))
    return Oversample(coarse=coarse, grid=grid, src_ix=src_ix,
                      regions=regions, central=regions[K - lo])


@dataclass(frozen=True)
class DomainLayout:
    """The (possibly extended) fine grid around the target domain.

    The target fine grid is an exact cell-for-cell restriction of the
    extended grid; ``offset_x`` counts the extension cells on the left.
    """

    extended_fine: FineGrid
    offset_x: int


def build_layout(L1: float, L2: float, nx: int, ny: int,
                 extension: str = "none",
                 ext_margin: float = 0.0) -> DomainLayout:
    """Construct the extended fine grid around the target domain.

    ``nx, ny`` count fine cells of the *target* domain.  With extension
    'two-sided' the fine grid grows by ``ext_margin`` on both x sides, with
    'right' by ``2 * ext_margin`` on the right (the paper-style variants).
    """
    if extension not in EXTENSION_KINDS:
        raise ConfigError(f"unknown extension kind {extension!r}")
    target = FineGrid(nx, ny, L1, L2)
    hx = target.hx
    if extension == "none":
        ext = target
        off = 0
    else:
        m = ext_margin / hx
        mc = round(m)
        if abs(m - mc) > 1e-9 or mc <= 0:
            raise ConfigError(
                f"ext_margin={ext_margin} is not a positive whole number of "
                f"fine cells (hx={hx})")
        if extension == "two-sided":
            ext = FineGrid(nx + 2 * mc, ny, L1 + 2 * ext_margin, L2,
                           x0=-ext_margin)
            off = mc
        else:
            ext = FineGrid(nx + 2 * mc, ny, L1 + 2 * ext_margin, L2)
            off = 0
    return DomainLayout(extended_fine=ext, offset_x=off)
