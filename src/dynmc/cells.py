"""Constrained local (cell) problems.

Every Galerkin family reduces to one engine: the TPFA stiffness of
:mod:`dynmc.fine` on the oversampled region plus linear moment
constraints, solved as one symmetric indefinite saddle system factored
with the sparse recipe of :mod:`dynmc.fine`.  The engine serves every
family of its region, and a caller-owned memo hands it on to the next
region when that region's content is the same.  Families differ only in
constraint targets, source terms, and boundary data; the gradient family
is driven along x, the only axis any coarse model reads.

The flux-type bases of the mixed models (edge, gravity, interface) are
plain TPFA loads on coarse blocks: their builders return ``(block,
FlowLoad)`` pairs, and :func:`solve_block_loads` solves any list of them
with the fine flow solver, one factorization per distinct block matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .continua import indicator
from .exceptions import ConfigError, SolverError
from .fine import (SPLU_OPTIONS, FlowBC, FlowLoad, LastSolve,
                   assemble_stiffness, check_residual, content_digest,
                   gravity_volume_source, operator_key, solve_flow)
from .grids import CoarseGrid, FineGrid, Oversample


# --- sources and saddle engine -----------------------------------------


def gradient_boundary_source(grid: FineGrid, lam: np.ndarray) -> np.ndarray:
    """Natural-BC source for a unit mean gradient along x.

    Imposes lam grad(phi).n = lam n_x on the region boundary so a linear
    profile is exact for constant lam; suppresses the zero-Neumann
    boundary artifact of oversampled gradient problems.
    """
    b = np.zeros((grid.nx, grid.ny))
    b[0, :] -= lam[0, :] * grid.hy
    b[-1, :] += lam[-1, :] * grid.hy
    return b


@dataclass
class SaddleSolution:
    u: np.ndarray  # (n_cells,) flattened (nx, ny)
    multipliers: np.ndarray
    residuals: np.ndarray  # achieved constraint residuals Cu - g


class SaddleSolver:
    """Factorized KKT system [A C^T; C 0] reusable across right-hand sides.

    K is assembled from the COO triplets of A, C^T and C; converting them
    to CSC sorts them into the same arrays ``sparse.bmat`` gives.
    """

    def __init__(self, A: sparse.spmatrix, C: sparse.spmatrix):
        self.n = n = A.shape[0]
        self.m = C.shape[0]
        if self.m == 0:
            raise SolverError("constraint set is empty after dropping")
        A, Cc = A.tocoo(), C.tocoo()
        self._K = sparse.coo_matrix(
            (np.concatenate([A.data, Cc.data, Cc.data]),
             (np.concatenate([A.row, Cc.col, Cc.row + n]),
              np.concatenate([A.col, Cc.row + n, Cc.col]))),
            shape=(n + self.m, n + self.m)).tocsc()
        self.C = C.tocsr()
        self._norm = float(abs(self._K).sum(axis=1).max())  # ||K||_inf
        try:
            self._lu = splu(self._K, **SPLU_OPTIONS)
        except RuntimeError as exc:
            raise SolverError(f"saddle factorization failed: {exc}") from exc

    def solve(self, b: np.ndarray, g: np.ndarray) -> SaddleSolution:
        rhs = np.concatenate([b, g])
        sol = self._lu.solve(rhs)
        gap = np.abs(self._K @ sol - rhs).max()
        u = sol[:self.n]
        mu = sol[self.n:]
        res = self.C @ u - g
        scale = max(np.abs(g).max(), np.abs(u).max(), 1.0)
        if np.abs(res).max() > 1e-8 * scale:
            raise SolverError(
                f"constraint residual {np.abs(res).max():.3e} too large")
        check_residual("KKT", gap, self._norm, sol, rhs)
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
    Each row holds ``cell_area`` at its cells; its mass is summed over the
    whole local grid, zeros included, which fixes the summation order.
    """
    grid = ov.grid
    area = grid.cell_area
    idx = np.arange(grid.n_cells).reshape(grid.nx, grid.ny)
    w = grid.zeros()  # the dense row of the pair being summed
    cols = []
    rows: list[MomentRow] = []
    for li, reg in enumerate(ov.regions):
        blk = labels_local[reg.sx]
        for j in range(n):
            sel = blk == j
            w[reg.sx] = sel * area
            mass = w.sum()
            if mass <= 0:
                continue
            cols.append(idx[reg.sx][sel])
            rows.append(MomentRow(region=li, continuum=j, mass=mass))
        w[reg.sx] = 0.0
    if not rows:
        raise SolverError("no continuum present anywhere in the region")
    counts = [c.size for c in cols]
    C = sparse.csr_matrix(
        (np.full(sum(counts), area),
         (np.repeat(np.arange(len(rows)), counts), np.concatenate(cols))),
        shape=(len(rows), grid.n_cells))
    return C, rows


def gradient_centers(ov: Oversample, labels_local: np.ndarray,
                     n: int) -> np.ndarray:
    """Per-continuum centering x from the central region's zero-mean
    condition; continua absent centrally fall back to the block centroid."""
    coord = ov.x_centers
    cen = ov.central
    blk_lab = labels_local[cen.sx]
    blk_x = coord[cen.sx]
    out = np.empty(n)
    for j in range(n):
        sel = blk_lab == j
        out[j] = blk_x[sel].mean() if sel.any() else blk_x.mean()
    return out


def moment_targets(ov: Oversample, labels_local: np.ndarray,
                   rows: list[MomentRow], basis_continuum: int,
                   kind: str, centers: np.ndarray | None = None
                   ) -> np.ndarray:
    """Targets delta_ij * m_jl (average) or delta_ij * int (x - x~) psi (gradient)."""
    g = np.zeros(len(rows))
    area = ov.grid.cell_area
    for r, row in enumerate(rows):
        if row.continuum != basis_continuum:
            continue
        if kind == "average":
            g[r] = row.mass
        else:
            reg = ov.regions[row.region]
            blk = labels_local[reg.sx] == row.continuum
            x = ov.x_centers[reg.sx]
            g[r] = ((x - centers[row.continuum]) * blk).sum() * area
    return g


# --- basis containers --------------------------------------------------


@dataclass
class CellBasis:
    continuum: int | None
    scalar: np.ndarray | None = None  # (nx, ny) on the local grid
    fx: np.ndarray | None = None
    fy: np.ndarray | None = None
    residual: float = 0.0
    flag: str | None = None
    extras: dict = field(default_factory=dict)


@dataclass
class CellBasisSet:
    grid: FineGrid
    bases: list[CellBasis]

    def by_continuum(self, k: int) -> CellBasis:
        for b in self.bases:
            if b.continuum == k:
                return b
        raise KeyError(f"no basis for continuum {k}")


# --- Galerkin families -------------------------------------------------


@dataclass
class RegionEngine:
    """Factorized saddle system of one oversampled region, shared across
    the families that differ only in right-hand sides and targets."""

    solver: SaddleSolver
    rows: list[MomentRow]


def _region_digest(ov: Oversample, lam_local: np.ndarray,
                   labels_local: np.ndarray, n: int) -> bytes:
    """Digest of everything a :class:`RegionEngine` depends on: the local
    grid's counts and spacings, each region's (offset, slice), n, lam and
    the labels.  The local grid's origin is not part of it: the engine
    never reads it."""
    grid = ov.grid
    return content_digest((grid.nx, grid.ny, grid.hx, grid.hy, n,
                           [(r.offset, r.sx) for r in ov.regions]),
                          lam_local, labels_local)


def build_region_engine(ov: Oversample, lam_local: np.ndarray,
                        labels_local: np.ndarray, n: int, *,
                        memo: LastSolve | None = None) -> RegionEngine:
    """Assemble and factor the saddle system of one oversampled region.

    With ``memo`` a region whose content digests to the memo's key gets
    the stored engine back with no assembly or factorization; otherwise
    the new engine replaces the stored one, which is dropped before the
    new factorization so that at most one factor stays alive.  That holds
    only if the caller drops the returned engine when it is done with the
    region: one it still holds when it builds the next region is a second
    LU factor alive through that factorization, and the freed factors then
    fragment the heap instead of being reused.
    """
    if memo is not None:
        key = _region_digest(ov, lam_local, labels_local, n)
        memo.reused = key == memo.key
        if memo.reused:
            return memo.result
        memo.key = memo.result = None
    A = assemble_stiffness(ov.grid, lam_local)
    C, rows = region_moment_matrix(ov, labels_local, n)
    engine = RegionEngine(solver=SaddleSolver(A, C), rows=rows)
    if memo is not None:
        memo.key, memo.result = key, engine
    return engine


def solve_constrained_elliptic(ov: Oversample, lam_local: np.ndarray,
                               labels_local: np.ndarray, n: int,
                               family: str,
                               engine: RegionEngine | None = None) -> CellBasisSet:
    """Galerkin cell problems on an oversampled region.

    family: 'average' (unit continuum averages), 'gradient' (linear moment
    targets along x with natural unit-gradient boundary data),
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
        centers = gradient_centers(ov, labels_local, n)

    out = CellBasisSet(grid=grid, bases=[])
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
            b = gradient_boundary_source(grid, lam_i).ravel()
            g = moment_targets(ov, labels_local, rows, i, "gradient", centers)
        else:
            psi = indicator(labels_local, i)
            mass = psi[ov.central.sx].sum() * grid.cell_area
            s = psi / mass if mass > 0 else psi
            b = gravity_volume_source(grid, lam_local, s).ravel()
            g = np.zeros(len(rows))
        sol = solver.solve(b, g)
        basis = CellBasis(continuum=i, scalar=sol.u.reshape(grid.nx, grid.ny),
                          residual=float(np.abs(sol.residuals).max()))
        if family == "gradient":
            basis.extras["center"] = float(centers[i])
        out.bases.append(basis)
    return out


# --- block-local flux bases (simplified mixed cell problems) ----------


def _block_field(coarse: CoarseGrid, block: int, f: np.ndarray):
    return f[coarse.block_slice(block)]


def _omega_grid(coarse: CoarseGrid, blocks: list[int]) -> FineGrid:
    """Local grid over consecutive blocks, the leftmost first."""
    fine = coarse.fine
    mx = coarse.mx
    return FineGrid(len(blocks) * mx, fine.ny, len(blocks) * mx * fine.hx,
                    fine.ny * fine.hy, x0=fine.x0 + blocks[0] * mx * fine.hx,
                    y0=fine.y0)


def _absent(grid: FineGrid, continuum: int | None) -> CellBasisSet:
    fx, fy = grid.zero_faces()
    return CellBasisSet(grid=grid, bases=[CellBasis(
        continuum=continuum, fx=fx, fy=fy, flag="absent")])


def solve_block_loads(coarse: CoarseGrid, lam: np.ndarray,
                      items: list) -> list:
    """Solve ``[(block, FlowLoad), ...]`` with one factorization per
    distinct block matrix; returns their (p, vx, vy) in the same order.

    A load on a block solves the lam_b operator of that block, and every
    block has the same cell size, so loads whose lam_b and pressure sides
    digest alike (:func:`~dynmc.fine.operator_key`) share one matrix: they
    go to one :func:`solve_flow` call on the grid of the first such block
    (without a memo, solve_flow never reads the grid's origin).
    """
    groups: dict[bytes, tuple[int, list]] = {}  # key -> (block, positions)
    for k, (blk, load) in enumerate(items):
        key = operator_key(_block_field(coarse, blk, lam), [load])
        groups.setdefault(key, (blk, []))[1].append(k)
    out = [None] * len(items)
    for blk, ks in groups.values():
        sols = solve_flow(_omega_grid(coarse, [blk]),
                          _block_field(coarse, blk, lam),
                          loads=[items[k][1] for k in ks])
        for k, sol in zip(ks, sols):
            out[k] = sol
    return out


def edge_flux_loads(coarse: CoarseGrid, edge: int, labels: np.ndarray,
                    continuum: int, edge_labels: np.ndarray,
                    variant: str = "uniform"):
    """Block loads of the unit continuum flux through coarse edge ``edge``.

    Returns (S, sources, loads): S is the edge flux the continuum carries,
    ``sources`` maps each block next to the edge to its balancing source
    and ``loads`` holds one ``(block, FlowLoad)`` per such block, the minus
    side first.  A continuum with no face on the edge has S = 0 and no
    loads.  Each load prescribes the edge faces' flux, so a block's
    solution carries the edge column as it is on the stitched basis.
    """
    fine = coarse.fine
    mx, my = coarse.mx, coarse.my
    psi_edge = (edge_labels == continuum).astype(float)
    S = psi_edge.sum() * fine.hy  # edge flux carried by this continuum
    sources, loads = {}, []
    if S == 0.0:
        return S, sources, loads
    # minus side: the edge is its right side, flux leaves outward (+1)
    for blk, side, sgn in zip(coarse.edge_neighbors(edge), ("right", "left"),
                              (1.0, -1.0)):
        if blk is None:
            continue
        bc = FlowBC(**{side: ("flux", sgn * psi_edge)})
        mass = 0.0
        if variant != "uniform":
            psi_b = indicator(_block_field(coarse, blk, labels), continuum)
            mass = psi_b.sum() * fine.cell_area
        if mass == 0.0:
            # 'uniform', or a continuum that only touches the edge here
            sources[blk] = sgn * S / (mx * my * fine.cell_area)
            f = np.full((mx, my), sources[blk])
        else:
            sources[blk] = theta = sgn * S / mass
            f = theta * psi_b
        loads.append((blk, FlowLoad(None, bc, False, f)))
    return S, sources, loads


def gravity_load(coarse: CoarseGrid, block: int, labels: np.ndarray,
                 continuum: int) -> FlowLoad | None:
    """Load of the recirculation driven by psi_i e1 in one block, or None
    when the continuum is absent from it."""
    psi = indicator(_block_field(coarse, block, labels), continuum)
    return FlowLoad(psi, FlowBC(), True) if psi.any() else None


def interface_load(coarse: CoarseGrid, block: int, labels: np.ndarray):
    """(theta, load) of the exchange basis div = psi_1 - theta psi_2 in one
    block, theta = m_1 / m_2; None when either continuum is absent."""
    lab_b = _block_field(coarse, block, labels)
    psi1 = indicator(lab_b, 0)
    psi2 = indicator(lab_b, 1)
    m1, m2 = psi1.sum(), psi2.sum()
    if m1 == 0 or m2 == 0:
        return None
    theta = m1 / m2
    return theta, FlowLoad(None, FlowBC(), False, psi1 - theta * psi2)


def solve_edge_flux_basis(coarse: CoarseGrid, edge: int,
                          lam: np.ndarray, labels: np.ndarray,
                          continuum: int, edge_labels: np.ndarray,
                          variant: str = "uniform") -> CellBasisSet:
    """Unit continuum flux through coarse edge ``edge``, balanced inside its
    neighborhood, on one grid over the blocks next to the edge.

    ``edge_labels`` assigns each edge face a continuum (caller picks the
    convention, typically the donor cell of the current fine velocity).
    variant 'uniform' spreads the balancing divergence evenly over each
    block; 'psi' concentrates it on the continuum (theta psi form).
    """
    S, sources, loads = edge_flux_loads(coarse, edge, labels, continuum,
                                        edge_labels, variant)
    grid = _omega_grid(coarse, [b for b in coarse.edge_neighbors(edge)
                                if b is not None])
    if not loads:
        return _absent(grid, continuum)
    mx = coarse.mx
    fx, fy = grid.zero_faces()
    pr = grid.zeros()
    for k, (p, bfx, bfy) in enumerate(solve_block_loads(coarse, lam, loads)):
        # both blocks carry the shared edge column with the same values
        fx[k * mx:(k + 1) * mx + 1, :] = bfx
        fy[k * mx:(k + 1) * mx, :] = bfy
        pr[k * mx:(k + 1) * mx, :] = p
    basis = CellBasis(continuum=continuum, scalar=pr, fx=fx, fy=fy,
                      extras={"sources": sources, "edge_flux": S})
    return CellBasisSet(grid=grid, bases=[basis])


def solve_gravity_basis(coarse: CoarseGrid, block: int,
                        lam: np.ndarray, labels: np.ndarray,
                        continuum: int) -> CellBasisSet:
    """Divergence-free recirculation driven by psi_i e1 in one block."""
    bg = _omega_grid(coarse, [block])
    load = gravity_load(coarse, block, labels, continuum)
    if load is None:
        return _absent(bg, continuum)
    [(p, fx, fy)] = solve_block_loads(coarse, lam, [(block, load)])
    return CellBasisSet(grid=bg, bases=[CellBasis(
        continuum=continuum, scalar=p, fx=fx, fy=fy)])


def solve_interface_basis(coarse: CoarseGrid, block: int,
                          lam: np.ndarray, labels: np.ndarray) -> CellBasisSet:
    """Inter-continuum exchange basis: div = psi_1 - theta psi_2 in a block."""
    bg = _omega_grid(coarse, [block])
    found = interface_load(coarse, block, labels)
    if found is None:
        return _absent(bg, None)
    theta, load = found
    [(p, fx, fy)] = solve_block_loads(coarse, lam, [(block, load)])
    basis = CellBasis(continuum=None, scalar=p, fx=fx, fy=fy,
                      extras={"theta": theta, "div": load.f})
    return CellBasisSet(grid=bg, bases=[basis])
