"""Constrained local (cell) problems.

Every Galerkin family reduces to one engine: the TPFA stiffness of
:mod:`dynmc.fine` on the oversampled region plus linear moment
constraints, solved as one symmetric indefinite saddle system factored
with the sparse recipe of :mod:`dynmc.fine`.  The engine serves every
family of its region, and a caller-owned memo hands it on to the next
region when that region's content is the same.  Families differ only in
constraint targets, source terms, and boundary data; the gradient family
is driven along x, the only axis any coarse model reads.  Flux-type bases
(edge, gravity, interface) reuse the fine flow solver on block-local
grids.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .continua import indicator
from .exceptions import ConfigError, SolverError
from .fine import (SPLU_OPTIONS, FlowBC, FlowLoad, LastSolve, add_array,
                   assemble_stiffness, check_residual, gravity_volume_source,
                   operator_key, solve_flow)
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
    """blake2b digest of everything a :class:`RegionEngine` depends on: the
    local grid's counts and spacings, each region's (offset, slice), n,
    lam and the labels.  The local grid's origin is not part of it: the
    engine never reads it."""
    grid = ov.grid
    h = hashlib.blake2b(digest_size=32)
    h.update(repr((grid.nx, grid.ny, grid.hx, grid.hy, n,
                   [(r.offset, r.sx) for r in ov.regions])).encode())
    add_array(h, lam_local)
    add_array(h, labels_local)
    return h.digest()


def build_region_engine(ov: Oversample, lam_local: np.ndarray,
                        labels_local: np.ndarray, n: int, *,
                        memo: LastSolve | None = None) -> RegionEngine:
    """Assemble and factor the saddle system of one oversampled region.

    With ``memo`` a region whose content digests to the memo's key gets
    the stored engine back with no assembly or factorization; otherwise
    the new engine replaces the stored one, which is dropped before the
    new factorization so that at most one factor stays alive.
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


def solve_block_families(coarse: CoarseGrid, lam: np.ndarray,
                         families: list) -> list[CellBasisSet]:
    """Run block cell-problem families with one factorization per distinct
    block matrix.

    A family is a generator that yields its ``[(block, FlowLoad), ...]``
    (or returns at once when it has nothing to solve), is sent the
    solutions in the same order and returns its :class:`CellBasisSet`.
    A load on a block solves the lam_b operator of that block, and every
    block has the same cell size, so loads whose lam_b and pressure sides
    digest alike (:func:`~dynmc.fine.operator_key`) share one matrix: they
    go, across all families and blocks, to one :func:`solve_flow` call on
    the grid of the first such block (without a memo, solve_flow never
    reads the grid's origin).  Returns the sets in the order of
    ``families``.
    """
    out: list[CellBasisSet | None] = [None] * len(families)
    waiting = []  # (family index, generator, number of loads)
    groups: dict[bytes, tuple[int, list]] = {}  # key -> (block, items)
    for k, fam in enumerate(families):
        try:
            loads = next(fam)
        except StopIteration as done:
            out[k] = done.value
            continue
        waiting.append((k, fam, len(loads)))
        for slot, (blk, load) in enumerate(loads):
            key = operator_key(_block_field(coarse, blk, lam), [load])
            groups.setdefault(key, (blk, []))[1].append((k, slot, load))
    solved: dict[int, list] = {k: [None] * m for k, _fam, m in waiting}
    for blk, items in groups.values():
        sols = solve_flow(_omega_grid(coarse, [blk]),
                          _block_field(coarse, blk, lam),
                          loads=[load for _k, _slot, load in items])
        for (k, slot, _load), sol in zip(items, sols):
            solved[k][slot] = sol
    for k, fam, _m in waiting:
        try:
            fam.send(solved[k])
        except StopIteration as done:
            out[k] = done.value
    return out


def solve_edge_flux_basis(coarse: CoarseGrid, edge: int,
                          lam: np.ndarray, labels: np.ndarray,
                          continuum: int, edge_labels: np.ndarray,
                          variant: str = "uniform") -> CellBasisSet:
    """Unit continuum flux through coarse edge ``edge``, balanced inside its
    neighborhood.

    ``edge_labels`` assigns each edge face a continuum (caller picks the
    convention, typically the donor cell of the current fine velocity).
    variant 'uniform' spreads the balancing divergence evenly over each
    block; 'psi' concentrates it on the continuum (theta psi form).
    """
    return solve_block_families(coarse, lam, [edge_flux_family(
        coarse, edge, labels, continuum, edge_labels, variant)])[0]


def edge_flux_family(coarse: CoarseGrid, edge: int,
                     labels: np.ndarray, continuum: int,
                     edge_labels: np.ndarray, variant: str = "uniform"):
    """Block family of :func:`solve_edge_flux_basis`."""
    fine = coarse.fine
    mx, my = coarse.mx, coarse.my
    psi_edge = (edge_labels == continuum).astype(float)
    S = psi_edge.sum() * fine.hy  # edge flux carried by this continuum
    lo, hi = coarse.edge_neighbors(edge)
    blocks = [b for b in (lo, hi) if b is not None]
    grid = _omega_grid(coarse, blocks)
    if S == 0.0:
        fx, fy = grid.zero_faces()
        return CellBasisSet(grid=grid, bases=[CellBasis(
            continuum=continuum, fx=fx, fy=fy, flag="absent")])

    sources = {}
    loads = []
    for pos, blk in zip(("lo", "hi"), (lo, hi)):
        if blk is None:
            continue
        sgn = 1.0 if pos == "lo" else -1.0  # outward flux sign through E_l
        side = "right" if pos == "lo" else "left"
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
    solved = yield loads

    fx, fy = grid.zero_faces()
    pr = grid.zeros()
    for k, (p, bfx, bfy) in enumerate(solved):
        ox = k * mx
        fx[ox:ox + mx + 1, :] += bfx
        fy[ox:ox + mx, :] += bfy
        pr[ox:ox + mx, :] = p
    if len(blocks) == 2:
        # shared edge column was written twice (identical data)
        fx[mx, :] = psi_edge
    basis = CellBasis(continuum=continuum, scalar=pr, fx=fx, fy=fy,
                      extras={"sources": sources, "edge_flux": S})
    return CellBasisSet(grid=grid, bases=[basis])


def _omega_grid(coarse: CoarseGrid, blocks: list[int]) -> FineGrid:
    """Local grid over consecutive blocks, the leftmost first."""
    fine = coarse.fine
    mx = coarse.mx
    return FineGrid(len(blocks) * mx, fine.ny, len(blocks) * mx * fine.hx,
                    fine.ny * fine.hy, x0=fine.x0 + blocks[0] * mx * fine.hx,
                    y0=fine.y0)


def solve_gravity_basis(coarse: CoarseGrid, block: int,
                        lam: np.ndarray, labels: np.ndarray,
                        continuum: int) -> CellBasisSet:
    """Divergence-free recirculation driven by psi_i e1 in one block."""
    return solve_block_families(coarse, lam, [gravity_family(
        coarse, block, labels, continuum)])[0]


def gravity_family(coarse: CoarseGrid, block: int,
                   labels: np.ndarray, continuum: int):
    """Block family of :func:`solve_gravity_basis`."""
    bg = _omega_grid(coarse, [block])
    psi = indicator(_block_field(coarse, block, labels), continuum)
    if psi.sum() == 0:
        fx, fy = bg.zero_faces()
        return CellBasisSet(grid=bg, bases=[CellBasis(
            continuum=continuum, fx=fx, fy=fy, flag="absent")])
    [(p, fx, fy)] = yield [(block, FlowLoad(psi, FlowBC(), True))]
    return CellBasisSet(grid=bg, bases=[CellBasis(
        continuum=continuum, scalar=p, fx=fx, fy=fy)])


def solve_interface_basis(coarse: CoarseGrid, block: int,
                          lam: np.ndarray, labels: np.ndarray) -> CellBasisSet:
    """Inter-continuum exchange basis: div = psi_1 - theta psi_2 in a block."""
    return solve_block_families(coarse, lam, [interface_family(
        coarse, block, labels)])[0]


def interface_family(coarse: CoarseGrid, block: int,
                     labels: np.ndarray):
    """Block family of :func:`solve_interface_basis`."""
    bg = _omega_grid(coarse, [block])
    lab_b = _block_field(coarse, block, labels)
    psi1 = indicator(lab_b, 0)
    psi2 = indicator(lab_b, 1)
    m1, m2 = psi1.sum(), psi2.sum()
    if m1 == 0 or m2 == 0:
        fx, fy = bg.zero_faces()
        return CellBasisSet(grid=bg, bases=[CellBasis(
            continuum=None, fx=fx, fy=fy, flag="absent")])
    theta = m1 / m2
    div = psi1 - theta * psi2
    [(p, fx, fy)] = yield [(block, FlowLoad(None, FlowBC(), False, div))]
    basis = CellBasis(continuum=None, scalar=p, fx=fx, fy=fy,
                      extras={"theta": theta, "div": div})
    return CellBasisSet(grid=bg, bases=[basis])
