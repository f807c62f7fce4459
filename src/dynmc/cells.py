"""Constrained local (cell) problems.

Every family reduces to one engine: the TPFA stiffness of
:mod:`dynmc.fine` on the (oversampled) region plus linear moment
constraints, solved as one symmetric indefinite saddle system.  Families
differ only in constraint targets, source terms, and boundary data.
Flux-type bases (edge, gravity, interface) reuse the fine flow solver on
block-local grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .continua import indicator
from .exceptions import ConfigError, SolverError
from .fine import (FlowBC, assemble_stiffness, gravity_volume_source,
                   solve_flow)
from .grids import CoarseEdge, CoarseGrid, FineGrid, Oversample

DENSE_LIMIT = 3000


# --- sources and saddle engine -----------------------------------------


def gradient_boundary_source(grid: FineGrid, lam: np.ndarray,
                             direction: int) -> np.ndarray:
    """Natural-BC source for a unit mean gradient along ``direction``.

    Imposes lam grad(phi).n = lam n_m on the region boundary so a linear
    profile is exact for constant lam; suppresses the zero-Neumann
    boundary artifact of oversampled gradient problems.
    """
    b = np.zeros((grid.nx, grid.ny))
    if direction == 0:
        b[0, :] -= lam[0, :] * grid.hy
        b[-1, :] += lam[-1, :] * grid.hy
    elif direction == 1:
        b[:, 0] -= lam[:, 0] * grid.hx
        b[:, -1] += lam[:, -1] * grid.hx
    else:
        raise ConfigError(f"direction must be 0 or 1, got {direction}")
    return b


@dataclass
class SaddleSolution:
    u: np.ndarray  # (n_cells,) flattened (nx, ny)
    multipliers: np.ndarray
    residuals: np.ndarray  # achieved constraint residuals Cu - g


class SaddleSolver:
    """Factorized KKT system [A C^T; C 0] reusable across right-hand sides."""

    def __init__(self, A: sparse.spmatrix, C: sparse.spmatrix):
        self.n = A.shape[0]
        self.m = C.shape[0]
        if self.m == 0:
            raise SolverError("constraint set is empty after dropping")
        K = sparse.bmat([[A, C.T], [C, None]], format="csc")
        self.C = C.tocsr()
        self._norm = float(abs(K).sum(axis=1).max())  # ||K||_inf
        if self.n + self.m <= DENSE_LIMIT:
            self._K = K.toarray()
            self._lu = None
        else:
            self._K = K
            try:
                self._lu = splu(K)
            except RuntimeError as exc:
                raise SolverError(f"saddle factorization failed: {exc}") from exc

    def solve(self, b: np.ndarray, g: np.ndarray) -> SaddleSolution:
        rhs = np.concatenate([b, g])
        if self._lu is None:
            try:
                sol = np.linalg.solve(self._K, rhs)
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    f"singular saddle system (rank-deficient constraints?): "
                    f"{exc}") from exc
        else:
            sol = self._lu.solve(rhs)
        gap = np.abs(self._K @ sol - rhs).max()
        u = sol[:self.n]
        mu = sol[self.n:]
        res = self.C @ u - g
        scale = max(np.abs(g).max(), np.abs(u).max(), 1.0)
        if np.abs(res).max() > 1e-8 * scale:
            raise SolverError(
                f"constraint residual {np.abs(res).max():.3e} too large")
        bound = 1e-10 * (self._norm * np.abs(sol).max() + np.abs(rhs).max())
        if not gap <= bound:
            raise SolverError(f"KKT residual {gap:.3e} above {bound:.3e}")
        return SaddleSolution(u=u, multipliers=mu, residuals=res)


# --- constraint construction ------------------------------------------


@dataclass(frozen=True)
class MomentRow:
    """One moment constraint: region l, continuum j (with its mass)."""

    region: int
    continuum: int
    mass: float


def region_moment_matrix(ov: Oversample, labels_local: np.ndarray, n: int):
    """Rows integrate u * psi_j over each region; drops empty pairs.

    Returns (C sparse, rows: list[MomentRow]).  The same matrix serves the
    average and gradient families (their targets differ, not the rows).
    """
    area = ov.grid.cell_area
    nxl, nyl = ov.grid.nx, ov.grid.ny
    data_rows = []
    rows: list[MomentRow] = []
    for li, reg in enumerate(ov.regions):
        blk = labels_local[reg.sx, reg.sy]
        for j in range(n):
            w = np.zeros((nxl, nyl))
            w[reg.sx, reg.sy] = (blk == j) * area
            mass = w.sum()
            if mass <= 0:
                continue
            data_rows.append(w.ravel())
            rows.append(MomentRow(region=li, continuum=j, mass=mass))
    if not data_rows:
        raise SolverError("no continuum present anywhere in the region")
    C = sparse.csr_matrix(np.vstack(data_rows))
    return C, rows


def gradient_centers(ov: Oversample, labels_local: np.ndarray, n: int,
                     direction: int) -> np.ndarray:
    """Per-continuum centering points from the central region's zero-mean
    condition; continua absent centrally fall back to the block centroid."""
    coord = ov.grid.cell_centers()[direction]
    cen = ov.central
    blk_lab = labels_local[cen.sx, cen.sy]
    blk_x = coord[cen.sx, cen.sy]
    out = np.empty(n)
    for j in range(n):
        sel = blk_lab == j
        out[j] = blk_x[sel].mean() if sel.any() else blk_x.mean()
    return out


def moment_targets(ov: Oversample, labels_local: np.ndarray,
                   rows: list[MomentRow], basis_continuum: int,
                   kind: str, direction: int = 0,
                   centers: np.ndarray | None = None) -> np.ndarray:
    """Targets delta_ij * m_jl (average) or delta_ij * int (x - x~) psi (gradient)."""
    g = np.zeros(len(rows))
    coord = ov.grid.cell_centers()[direction] if kind == "gradient" else None
    area = ov.grid.cell_area
    for r, row in enumerate(rows):
        if row.continuum != basis_continuum:
            continue
        if kind == "average":
            g[r] = row.mass
        else:
            reg = ov.regions[row.region]
            blk = labels_local[reg.sx, reg.sy] == row.continuum
            x = coord[reg.sx, reg.sy]
            g[r] = ((x - centers[row.continuum]) * blk).sum() * area
    return g


# --- basis containers --------------------------------------------------


@dataclass
class CellBasis:
    continuum: int | None
    scalar: np.ndarray | None = None  # (nx, ny) on the local grid
    fx: np.ndarray | None = None
    fy: np.ndarray | None = None
    multipliers: dict = field(default_factory=dict)
    residual: float = 0.0
    flag: str | None = None
    extras: dict = field(default_factory=dict)


@dataclass
class CellBasisSet:
    family: str
    grid: FineGrid
    bases: list[CellBasis]
    meta: dict = field(default_factory=dict)

    def by_continuum(self, k: int) -> CellBasis:
        for b in self.bases:
            if b.continuum == k:
                return b
        raise KeyError(f"no basis for continuum {k}")


def _beta_report(rows: list[MomentRow], mu: np.ndarray) -> dict:
    """Per-region constant sources implied by the multipliers."""
    return {(r.region, r.continuum): -m * r.mass
            for r, m in zip(rows, mu)}


# --- Galerkin families -------------------------------------------------


@dataclass
class RegionEngine:
    """Factorized saddle system of one oversampled region, shared across
    the families that differ only in right-hand sides and targets."""

    solver: SaddleSolver
    rows: list[MomentRow]


def build_region_engine(ov: Oversample, lam_local: np.ndarray,
                        labels_local: np.ndarray, n: int) -> RegionEngine:
    A = assemble_stiffness(ov.grid, lam_local)
    C, rows = region_moment_matrix(ov, labels_local, n)
    return RegionEngine(solver=SaddleSolver(A, C), rows=rows)


def solve_constrained_elliptic(ov: Oversample, lam_local: np.ndarray,
                               labels_local: np.ndarray, n: int,
                               family: str, direction: int = 0,
                               engine: RegionEngine | None = None) -> CellBasisSet:
    """Galerkin cell problems on an oversampled region.

    family: 'average' (unit continuum averages), 'gradient' (linear moment
    targets along ``direction`` with natural unit-gradient boundary data),
    or 'concentration' (buoyancy source chi_i psi_i e1, zero moments).
    """
    if family not in ("average", "gradient", "concentration"):
        raise ConfigError(f"unknown elliptic family {family!r}")
    grid = ov.grid
    if engine is None:
        engine = build_region_engine(ov, lam_local, labels_local, n)
    solver, rows = engine.solver, engine.rows
    present = sorted({r.continuum for r in rows})
    centers = None
    if family == "gradient":
        centers = gradient_centers(ov, labels_local, n, direction)

    out = CellBasisSet(family=f"galerkin-{family}", grid=grid,
                       bases=[], meta={"rows": rows, "direction": direction})
    for i in range(n):
        if i not in present:
            out.bases.append(CellBasis(continuum=i, scalar=grid.zeros(),
                                       flag="absent"))
            continue
        if family == "average":
            b = np.zeros(grid.n_cells)
            g = moment_targets(ov, labels_local, rows, i, "average")
        elif family == "gradient":
            # drive only this continuum's boundary cells: a sliver of a
            # high-mobility neighbour continuum on the region rim must not
            # inject its (contrast-sized) natural flux into this basis
            lam_i = lam_local * indicator(labels_local, i)
            b = gradient_boundary_source(grid, lam_i, direction).ravel()
            g = moment_targets(ov, labels_local, rows, i, "gradient",
                               direction, centers)
        else:
            psi = indicator(labels_local, i)
            mass = psi[ov.central.sx, ov.central.sy].sum() * grid.cell_area
            s = psi / mass if mass > 0 else psi
            b = gravity_volume_source(grid, lam_local, s).ravel()
            g = np.zeros(len(rows))
        sol = solver.solve(b, g)
        basis = CellBasis(continuum=i, scalar=sol.u.reshape(grid.nx, grid.ny),
                          multipliers=_beta_report(rows, sol.multipliers),
                          residual=float(np.abs(sol.residuals).max()))
        if family == "gradient":
            basis.extras["center"] = float(centers[i])
        out.bases.append(basis)
    return out


# --- block-local flux bases (simplified mixed cell problems) ----------


def _block_grid(coarse: CoarseGrid, I: int, J: int) -> FineGrid:
    fine = coarse.fine
    mx, my = coarse.mx, coarse.my
    return FineGrid(mx, my, mx * fine.hx, my * fine.hy,
                    x0=fine.x0 + I * mx * fine.hx,
                    y0=fine.y0 + J * my * fine.hy)


def _block_field(coarse: CoarseGrid, I: int, J: int, f: np.ndarray):
    sx, sy = coarse.block_slices(I, J)
    return f[sx, sy]


def solve_edge_flux_basis(coarse: CoarseGrid, edge: CoarseEdge,
                          lam: np.ndarray, labels: np.ndarray,
                          continuum: int, edge_labels: np.ndarray,
                          variant: str = "uniform") -> CellBasisSet:
    """Unit continuum flux through a coarse edge, balanced inside its
    neighborhood.

    ``edge_labels`` assigns each edge face a continuum (caller picks the
    convention, typically the donor cell of the current fine velocity).
    variant 'uniform' spreads the balancing divergence evenly over each
    block; 'psi' concentrates it on the continuum (theta psi form).
    Only x-oriented edges are supported (all target geometries are
    one-block-tall chains with no-flow top/bottom).
    """
    if edge.orientation != "x":
        raise ConfigError("edge-flux bases are built for x-oriented edges")
    fine = coarse.fine
    mx, my = coarse.mx, coarse.my
    ln = coarse.edge_length_per_face(edge)
    psi_edge = (edge_labels == continuum).astype(float)
    S = psi_edge.sum() * ln  # edge flux carried by this continuum
    lo, hi = coarse.edge_neighbors(edge)
    if S == 0.0:
        grid = _omega_grid(coarse, edge)
        fx, fy = grid.zero_faces()
        return CellBasisSet(family=f"edge-{variant}", grid=grid,
                            bases=[CellBasis(continuum=continuum, fx=fx,
                                             fy=fy, flag="absent")],
                            meta={"edge": edge.key()})

    blocks = [b for b in (lo, hi) if b is not None]
    grid = _omega_grid(coarse, edge)
    fx, fy = grid.zero_faces()
    pr = grid.zeros()
    sources = {}
    for pos, blk in zip(("lo", "hi"), (lo, hi)):
        if blk is None:
            continue
        I, J = blk
        bg = _block_grid(coarse, I, J)
        lam_b = _block_field(coarse, I, J, lam)
        lab_b = _block_field(coarse, I, J, labels)
        sgn = 1.0 if pos == "lo" else -1.0  # outward flux sign through E_l
        side = "right" if pos == "lo" else "left"
        bc = FlowBC(**{side: ("flux", sgn * psi_edge)})
        if variant == "uniform":
            f = np.full((mx, my), sgn * S / (mx * my * fine.cell_area))
            sources[blk] = sgn * S / (mx * my * fine.cell_area)
        else:
            psi_b = indicator(lab_b, continuum)
            mass = psi_b.sum() * fine.cell_area
            if mass == 0.0:
                # continuum only touches the edge: balance uniformly here
                f = np.full((mx, my), sgn * S / (mx * my * fine.cell_area))
                sources[blk] = sgn * S / (mx * my * fine.cell_area)
            else:
                theta = sgn * S / mass
                f = theta * psi_b
                sources[blk] = theta
        p, bfx, bfy = solve_flow(bg, lam_b, np.zeros((mx, my)), bc,
                                 gravity_on=False, f=f)
        ox = 0 if (len(blocks) == 1 or pos == "lo") else mx
        fx[ox:ox + mx + 1, :] += bfx
        fy[ox:ox + mx, :] += bfy
        pr[ox:ox + mx, :] = p
    if len(blocks) == 2:
        # shared edge column was written twice (identical data)
        fx[mx, :] = psi_edge
    basis = CellBasis(continuum=continuum, scalar=pr, fx=fx, fy=fy,
                      extras={"sources": sources, "edge_flux": S,
                              "psi_edge": psi_edge})
    return CellBasisSet(family=f"edge-{variant}", grid=grid, bases=[basis],
                        meta={"edge": edge.key(), "blocks": blocks})


def _omega_grid(coarse: CoarseGrid, edge: CoarseEdge) -> FineGrid:
    lo, hi = coarse.edge_neighbors(edge)
    blocks = [b for b in (lo, hi) if b is not None]
    I0 = min(b[0] for b in blocks)
    J0 = blocks[0][1]
    fine = coarse.fine
    mx, my = coarse.mx, coarse.my
    return FineGrid(len(blocks) * mx, my, len(blocks) * mx * fine.hx,
                    my * fine.hy, x0=fine.x0 + I0 * mx * fine.hx,
                    y0=fine.y0 + J0 * my * fine.hy)


def solve_gravity_basis(coarse: CoarseGrid, block: tuple[int, int],
                        lam: np.ndarray, labels: np.ndarray,
                        continuum: int) -> CellBasisSet:
    """Divergence-free recirculation driven by psi_i e1 in one block."""
    I, J = block
    bg = _block_grid(coarse, I, J)
    lam_b = _block_field(coarse, I, J, lam)
    psi = indicator(_block_field(coarse, I, J, labels), continuum)
    if psi.sum() == 0:
        fx, fy = bg.zero_faces()
        return CellBasisSet(family="gravity", grid=bg,
                            bases=[CellBasis(continuum=continuum, fx=fx,
                                             fy=fy, flag="absent")],
                            meta={"block": block})
    p, fx, fy = solve_flow(bg, lam_b, psi, FlowBC(), gravity_on=True)
    return CellBasisSet(family="gravity", grid=bg,
                        bases=[CellBasis(continuum=continuum, scalar=p,
                                         fx=fx, fy=fy)],
                        meta={"block": block, "psi": psi})


def solve_interface_basis(coarse: CoarseGrid, block: tuple[int, int],
                          lam: np.ndarray, labels: np.ndarray) -> CellBasisSet:
    """Inter-continuum exchange basis: div = psi_1 - theta psi_2 in a block."""
    I, J = block
    bg = _block_grid(coarse, I, J)
    lam_b = _block_field(coarse, I, J, lam)
    lab_b = _block_field(coarse, I, J, labels)
    psi1 = indicator(lab_b, 0)
    psi2 = indicator(lab_b, 1)
    m1, m2 = psi1.sum(), psi2.sum()
    if m1 == 0 or m2 == 0:
        fx, fy = bg.zero_faces()
        return CellBasisSet(family="interface", grid=bg,
                            bases=[CellBasis(continuum=None, fx=fx, fy=fy,
                                             flag="absent")],
                            meta={"block": block})
    theta = m1 / m2
    div = psi1 - theta * psi2
    p, fx, fy = solve_flow(bg, lam_b, np.zeros_like(lam_b), FlowBC(),
                           gravity_on=False, f=div)
    basis = CellBasis(continuum=None, scalar=p, fx=fx, fy=fy,
                      extras={"theta": theta, "div": div})
    return CellBasisSet(family="interface", grid=bg, bases=[basis],
                        meta={"block": block})
