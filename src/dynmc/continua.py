"""Dynamic continuum identification and macroscopic reference averages.

Continuum k is the concentration band below threshold k-1 and at/above
threshold k; continuum 0 is the highest band (closed at its lower edge),
the last continuum reaches down to 0.  Labels are recomputed from the
concentration field at every time of interest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError
from .fine import _reflect, interp_velocity, velocity_table
from .grids import CoarseGrid, FineGrid

DUAL_THRESHOLDS = (0.5,)
TRIPLE_THRESHOLDS = (0.8, 0.4)


@dataclass(frozen=True)
class ContinuumSpec:
    """Ordered thresholds partitioning [0, 1] into N = len + 1 bands.

    Thresholds are strictly decreasing; band k is [thr[k], thr[k-1]) with
    the top band closed at 1 and each lower endpoint closed.
    """

    thresholds: tuple[float, ...] = DUAL_THRESHOLDS

    def __post_init__(self):
        t = self.thresholds
        if any(b >= a for a, b in zip(t, t[1:])):
            raise ConfigError(f"thresholds must strictly decrease: {t}")
        if t and (t[0] >= 1.0 or t[-1] <= 0.0):
            raise ConfigError(f"thresholds must lie inside (0, 1): {t}")

    @property
    def count(self) -> int:
        return len(self.thresholds) + 1

    def label_of(self, value: float) -> int:
        return int(classify_values(np.asarray([value]), self)[0])


def single_continuum() -> ContinuumSpec:
    return ContinuumSpec(thresholds=())


def classify_values(c: np.ndarray, spec: ContinuumSpec) -> np.ndarray:
    """Continuum label (0-based, 0 = highest band) per entry."""
    if not np.all(np.isfinite(c)):
        raise ConfigError("concentration field has non-finite values")
    labels = np.zeros(c.shape, dtype=np.int8)
    for k, thr in enumerate(spec.thresholds):
        labels = np.where(c < thr, k + 1, labels)
    return labels


def classify(c: np.ndarray, spec: ContinuumSpec) -> np.ndarray:
    """Alias of :func:`classify_values` for cell fields."""
    return classify_values(c, spec)


def indicator(labels: np.ndarray, k: int) -> np.ndarray:
    return (labels == k).astype(float)


def continuum_masses(labels: np.ndarray, coarse: CoarseGrid,
                     n: int) -> np.ndarray:
    """Area of continuum k inside each block; shape (Nx, n)."""
    blocks = labels.reshape(coarse.Nx, -1, 1)  # block I's cells in row I
    return (np.count_nonzero(blocks == np.arange(n), axis=1)
            * coarse.fine.cell_area)


@dataclass
class MacroAverages:
    """Block/edge averages of fine fields split by continuum.

    P is the per-continuum volume mean of pressure (NaN where the continuum
    is absent), C the unnormalized integral of c over the continuum.  V
    holds the per-continuum edge-integrated donor-side fluxes, one row per
    coarse edge (see :class:`CoarseGrid`).
    """

    P: np.ndarray  # (Nx, n), NaN marks absent continua
    C: np.ndarray  # (Nx, n)
    V: np.ndarray  # (Nx + 1, n)


def averages(coarse: CoarseGrid, p: np.ndarray, c: np.ndarray,
             vx: np.ndarray, labels: np.ndarray, n: int) -> MacroAverages:
    """Macroscopic averages of (p, c, v) under the given partition.

    Edge fluxes attribute each fine face to the continuum of its donor
    (upwind) cell, so the continuum decomposition sums exactly to the
    total flux through the edge.
    """
    fine = coarse.fine
    area = fine.cell_area
    P = np.full((coarse.Nx, n), np.nan)
    C = np.zeros((coarse.Nx, n))
    for I in coarse.blocks():
        sx = coarse.block_slice(I)
        blk_l, blk_p, blk_c = labels[sx], p[sx], c[sx]
        for k in range(n):
            sel = blk_l == k
            cnt = np.count_nonzero(sel)
            if cnt:
                P[I, k] = blk_p[sel].sum() / cnt
                C[I, k] = blk_c[sel].sum() * area
    flux = coarse.edge_flux(vx)
    lab = coarse.edge_donor_labels(labels, flux)
    V = np.where(lab[..., None] == np.arange(n), flux[..., None],
                 0.0).sum(axis=1) * fine.hy
    return MacroAverages(P=P, C=C, V=V)


# --- label advection (consistency oracle) ------------------------------


def advect_labels(grid: FineGrid, labels0: np.ndarray,
                  velocity_history: list[tuple[np.ndarray, np.ndarray]],
                  tau: float, substeps: int = 1) -> list[np.ndarray]:
    """Transport labels along trajectories by backward cell-center tracing.

    ``velocity_history[n]`` is the (vx, vy) field driving step n.  The label
    at each output time is read off at the foot of the cell centers traced
    back through the history (midpoint rule per step).  The history is
    walked once from the last step down: each step starts the trace of its
    own output time, and all open traces step back together.  Traces
    reflect at the boundary.  Returns labels at steps 0..len(history).
    """
    x1, x2 = grid.x0, grid.x0 + grid.L1
    y1, y2 = grid.y0, grid.y0 + grid.L2
    xg, yg = grid.cell_centers()
    h = tau / substeps
    # px[k], py[k]: the trace of output time k + 1, open once step k starts
    px = py = np.empty((0,) + xg.shape)
    for m in range(len(velocity_history) - 1, -1, -1):
        px, py = np.concatenate([xg[None], px]), np.concatenate([yg[None], py])
        vx, vy = velocity_history[m]
        table = velocity_table(grid, vx, vy)
        for _ in range(substeps):
            ux, uy = interp_velocity(grid, vx, vy, px, py, table)
            xm, ym = px - 0.5 * h * ux, py - 0.5 * h * uy
            _reflect(grid, xm, ym)
            xm, ym = np.clip(xm, x1, x2), np.clip(ym, y1, y2)
            ux, uy = interp_velocity(grid, vx, vy, xm, ym, table)
            px, py = px - h * ux, py - h * uy
            _reflect(grid, px, py)
            px, py = np.clip(px, x1, x2), np.clip(py, y1, y2)
    ii = np.clip(((px - grid.x0) / grid.hx).astype(int), 0, grid.nx - 1)
    jj = np.clip(((py - grid.y0) / grid.hy).astype(int), 0, grid.ny - 1)
    return [labels0.copy(), *labels0[ii, jj]]


def label_agreement(a: np.ndarray, b: np.ndarray,
                    exclude_band: int = 0) -> float:
    """Fraction of agreeing cells, optionally excluding cells within
    ``exclude_band`` cells of a label interface in either field."""
    mask = np.ones(a.shape, dtype=bool)
    if exclude_band > 0:
        for f in (a, b):
            edge = np.zeros(f.shape, dtype=bool)
            edge[:-1, :] |= f[:-1, :] != f[1:, :]
            edge[1:, :] |= f[:-1, :] != f[1:, :]
            edge[:, :-1] |= f[:, :-1] != f[:, 1:]
            edge[:, 1:] |= f[:, :-1] != f[:, 1:]
            for _ in range(exclude_band - 1):
                grown = edge.copy()
                grown[:-1, :] |= edge[1:, :]
                grown[1:, :] |= edge[:-1, :]
                grown[:, :-1] |= edge[:, 1:]
                grown[:, 1:] |= edge[:, :-1]
                edge = grown
            mask &= ~edge
    if not mask.any():
        return 1.0
    return float(np.mean(a[mask] == b[mask]))
