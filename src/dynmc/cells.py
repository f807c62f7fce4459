"""Constrained local (cell) problems.

Every Galerkin family reduces to one engine per oversampled region: the
TPFA stiffness of :mod:`dynmc.fine` on the region plus linear moment
constraints, a symmetric indefinite saddle system solved by block
substructuring.  The constraints are one per (block, continuum) present,
and every fine cell lies in exactly one of them, the row of its block and
its label; so one integer row index per cell (:func:`moment_rows`, per
block) defines the moment matrix C: one entry, the cell area, in each
column.  Each x-face between two blocks of the region gets one
face-pressure unknown per fine row, joined to each side by its one-sided
half transmissibility 2 lam hy / hx; in series the two halves give back
the harmonic TPFA value, so the operator is unchanged up to roundoff.  A
block's piece then depends on its own cells only: its row index, the
sparse factor of its interior (its cells and its own moment rows, with the
recipe of :mod:`dynmc.fine`) and its Schur complement on its two face
columns.  Pieces are keyed by content (:func:`piece_key`), so a
caller-owned :class:`dynmc.fine.StepMemo` serves a block to every region
of a coarse solve and to the next solve that holds it.  A region
concatenates its pieces' row indices into its own, adds its pieces into
one banded SPD face system, factors it with a banded Cholesky, and solves
every family right-hand side at once, back through the block interiors.
Families differ only in constraint targets, source terms and boundary
data; the gradient family is driven along x, the only axis any coarse
model reads.

The flux-type bases of the mixed models (edge, gravity, interface) are
plain TPFA loads on coarse blocks: their builders return ``(block,
FlowLoad)`` pairs, and :func:`solve_block_loads` solves any list of them
with the fine flow solver, one factorization per distinct block matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.linalg import SuperLU, splu

from .continua import indicator
from .exceptions import ConfigError, SolverError
from .fine import (SIDES, SPLU_OPTIONS, FlowBC, FlowLoad, StencilLayout,
                   StepMemo, apply_stiffness, check_residual, content_digest,
                   gravity_volume_source, load_inputs, operator_key,
                   operator_stencil, solve_flow)
from .grids import CoarseGrid, FineGrid, Oversample


# --- sources -----------------------------------------------------------


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
    """Solution of a region saddle system, one column per right-hand side."""

    u: np.ndarray  # (n_cells, k), cells flattened (nx, ny)
    multipliers: np.ndarray  # (m, k)
    residuals: np.ndarray  # achieved constraint residuals Cu - g, (m, k)


# --- constraint construction ------------------------------------------


def moment_rows(labels_b: np.ndarray, n: int):
    """The moment rows of one block: each cell's row, flattened (nx, ny),
    and each row's continuum, one row per continuum present, ascending.

    Labels outside [0, n) are rejected: such a cell would belong to no
    continuum's row."""
    if not 0 <= labels_b.min() <= labels_b.max() < n:
        raise ConfigError(f"labels span [{labels_b.min()}, "
                          f"{labels_b.max()}], outside [0, {n})")
    continua, row = np.unique(labels_b.ravel(), return_inverse=True)
    return row, continua


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


# --- Galerkin region engines by block substructuring -------------------


def piece_kkt(grid_b: FineGrid, lam_b: np.ndarray, labels_b: np.ndarray,
              n: int):
    """Interior KKT matrix [[A_b + D_b, C_b^T], [C_b, 0]] of one block, the
    half transmissibilities of its (left, right) face rows, (2, ny), and
    its :func:`moment_rows` (row, continua).

    A_b + D_b is the block's :func:`~dynmc.fine.solve_flow` matrix with
    pressure data on its left and right sides: D_b joins its first and last
    cell columns to the face unknowns.  C_b holds ``cell_area`` at (row of
    cell, cell).  K is assembled from the COO triplets of A_b + D_b, C_b^T
    and C_b; converting them to CSC sorts them into the same arrays
    ``sparse.bmat`` gives.
    """
    t = 2.0 * lam_b[[0, -1]] * grid_b.hy / grid_b.hx
    A = StencilLayout.of(grid_b.nx, grid_b.ny).matrix(operator_stencil(
        grid_b, lam_b, ("left", "right"))).tocoo()
    row, continua = moment_rows(labels_b, n)
    nc, m = grid_b.n_cells, continua.size
    cells, vals = np.arange(nc), np.full(nc, grid_b.cell_area)
    K = sparse.coo_matrix(
        (np.concatenate([A.data, vals, vals]),
         (np.concatenate([A.row, cells, row + nc]),
          np.concatenate([A.col, row + nc, cells]))),
        shape=(nc + m, nc + m)).tocsc()
    return K, t, row, continua


@dataclass
class BlockPiece:
    """One block of a region between its two face columns.

    ``lu`` factors the block's interior KKT (:func:`piece_kkt`), ``row``
    and ``continua`` are its :func:`moment_rows`, ``t`` holds the half
    transmissibilities of its (left, right) face rows, and ``band`` its
    (2 ny, 2 ny) Schur piece on those face columns, left then right, in
    lower banded storage (``band[d, q]`` is entry (q + d, q)).
    """

    lu: SuperLU
    row: np.ndarray
    continua: np.ndarray
    t: np.ndarray
    band: np.ndarray


# face columns of a block piece condensed per triangular solve: a few at a
# time keeps the dense temporaries small, so they do not fragment the heap
# around the pieces that stay alive
SCHUR_CHUNK = 8


def factor_piece(grid_b: FineGrid, lam_b: np.ndarray, labels_b: np.ndarray,
                 n: int) -> BlockPiece:
    """Factor one block's interior and condense it onto its face columns:
    S_b = diag(t) - E^T K_b^-1 E, with E holding t at each face's cell."""
    K, t, row, continua = piece_kkt(grid_b, lam_b, labels_b, n)
    try:
        lu = splu(K, **SPLU_OPTIONS)
    except RuntimeError as exc:
        raise SolverError(f"block piece factorization failed: {exc}") from exc
    ny = grid_b.ny
    w = 2 * ny
    cell = np.concatenate([np.arange(ny), (grid_b.nx - 1) * ny + np.arange(ny)])
    tt = t.ravel()
    band = np.zeros((w, w))
    for c0 in range(0, w, SCHUR_CHUNK):
        cols = np.arange(c0, min(c0 + SCHUR_CHUNK, w))
        k = np.arange(cols.size)
        E = np.zeros((K.shape[0], cols.size))
        E[cell[cols], k] = tt[cols]
        S = -tt[:, None] * lu.solve(E)[cell]
        S[cols, k] += tt[cols]
        for j, c in enumerate(cols):
            band[:w - c, c] = S[c:, j]
    return BlockPiece(lu=lu, row=row, continua=continua, t=t, band=band)


def piece_key(grid_b: FineGrid, lam_b: np.ndarray, labels_b: np.ndarray,
              n: int) -> bytes:
    """Content key of a block piece: (ny, mx, hx, hy, n), lam_b, labels_b;
    a periodic copy finds its original's piece, a mirror image its own."""
    return content_digest((grid_b.ny, grid_b.nx, grid_b.hx, grid_b.hy, n),
                          lam_b, labels_b)


def _piece_grid(ov: Oversample) -> FineGrid:
    """The local grid of each block of region ``ov``."""
    mx, grid = ov.coarse.mx, ov.grid
    return FineGrid(mx, grid.ny, mx * grid.hx, grid.L2)


def region_keys(ov: Oversample, lam_local: np.ndarray,
                labels_local: np.ndarray, n: int, seen: dict) -> list:
    """The :func:`piece_key` of each block of region ``ov``, digesting
    each source block once per ``seen``.

    A region block samples one run of source columns (``ov.src_ix``): a
    block of the domain, its periodic copy, or its mirror image, read
    backwards.  ``seen`` maps each run met so far, as its (first, last)
    column, to its key, so it holds only for the lam and labels it was
    filled from: a caller makes one per coarse solve and drops it after.
    """
    grid_b = _piece_grid(ov)
    out = []
    for reg in ov.regions:
        src = ov.src_ix[reg.sx]
        run = (int(src[0]), int(src[-1]))
        if run not in seen:
            seen[run] = piece_key(grid_b, lam_local[reg.sx],
                                  labels_local[reg.sx], n)
        out.append(seen[run])
    return out


@dataclass
class RegionEngine:
    """Block-substructured saddle solver of one oversampled region, shared
    across the families that differ only in right-hand sides and targets.

    ``chol`` is the banded Cholesky factor of the face Schur complement;
    ``grid``, ``lam`` and the moment matrix ``C`` give the region's full
    KKT system, against which every solve is checked.  The moment rows
    are the pieces' rows in block order: block k holds rows
    ``starts[k]:starts[k + 1]``, and ``continua`` and ``mass`` give each
    row's continuum and mass.
    """

    pieces: list[BlockPiece]
    chol: np.ndarray
    grid: FineGrid
    lam: np.ndarray
    C: sparse.csr_matrix
    continua: np.ndarray
    mass: np.ndarray
    starts: np.ndarray

    def solve(self, B: np.ndarray, G: np.ndarray) -> SaddleSolution:
        """Solve A u + C^T mu = b, C u = g for each column of B (cells)
        and G (moment targets); every column's full KKT residual and its
        constraint residual are checked."""
        ny = self.grid.ny
        nc = B.shape[0] // len(self.pieces)  # cells per block
        last = nc - ny  # first cell of a block's last column
        s = self.starts
        locs, r = [], np.zeros((self.chol.shape[1], B.shape[1]))
        for k, pc in enumerate(self.pieces):
            loc = np.vstack([B[k * nc:(k + 1) * nc], G[s[k]:s[k + 1]]])
            y = pc.lu.solve(loc)
            r[k * ny:(k + 1) * ny] += pc.t[0][:, None] * y[:ny]
            r[(k + 1) * ny:(k + 2) * ny] += pc.t[1][:, None] * y[last:nc]
            locs.append(loc)
        f = cho_solve_banded((self.chol, True), r, overwrite_b=True,
                             check_finite=False)
        U, MU = np.empty(B.shape, order="F"), np.empty_like(G)
        for k, (pc, loc) in enumerate(zip(self.pieces, locs)):
            loc[:ny] += pc.t[0][:, None] * f[k * ny:(k + 1) * ny]
            loc[last:nc] += pc.t[1][:, None] * f[(k + 1) * ny:(k + 2) * ny]
            x = pc.lu.solve(loc)
            U[k * nc:(k + 1) * nc] = x[:nc]
            MU[s[k]:s[k + 1]] = x[nc:]
        return SaddleSolution(u=U, multipliers=MU,
                              residuals=self.check(B, G, U, MU))

    def check(self, B, G, U, MU) -> np.ndarray:
        """Reject a solution whose constraint residual exceeds 1e-8 of its
        scale, or whose full KKT residual fails :func:`check_residual` on
        the rows of any block (its cells and moment rows) against their
        own ||K rows||_inf; return the constraint residuals C u - g.  The
        per-block bound is stricter than one over all rows, which at
        contrast 1000 cannot see an error in a block of the low mobility."""
        grid, C = self.grid, self.C
        nb, k = len(self.pieces), B.shape[1]
        AU, rowsum = apply_stiffness(grid, self.lam,
                                     U.reshape(grid.nx, grid.ny, k))
        res = C @ U - G
        scale = np.maximum(np.abs(G).max(axis=0), np.abs(U).max(axis=0))
        bad = np.abs(res).max(axis=0) > 1e-8 * np.maximum(scale, 1.0)
        if bad.any():
            raise SolverError(f"constraint residual "
                              f"{np.abs(res).max():.3e} too large")
        # per block: the largest residual, row norm and load of its rows
        def per_block(cell_part, row_part):
            return np.maximum(
                cell_part.reshape(nb, -1, *cell_part.shape[1:]).max(axis=1),
                np.maximum.reduceat(row_part, self.starts[:-1], axis=0))

        R = AU.reshape(U.shape)  # the cell rows, in place
        R += C.T @ MU
        R -= B
        gap = per_block(np.abs(R, out=R), np.abs(res))
        # C holds one cell area per column: |C^T| 1 = area, |C| 1 = mass
        norm = per_block(rowsum.ravel() + grid.cell_area, self.mass)
        load = per_block(np.abs(B, out=R), np.abs(G))
        xmax = np.maximum(np.abs(U).max(axis=0), np.abs(MU).max(axis=0))
        den = norm[:, None] * xmax + load
        worst = np.argmax(np.divide(gap, den, where=den > 0,
                                    out=np.where(gap > 0, np.inf, 0.0)),
                          axis=0)
        for j, b in enumerate(worst):  # x and rhs enter by their max
            check_residual("KKT", gap[b, j], norm[b], xmax[j:j + 1],
                           load[b, j:j + 1])
        return res


def build_region_engine(ov: Oversample, lam_local: np.ndarray,
                        labels_local: np.ndarray, n: int,
                        keys: list | None = None, *,
                        pieces: StepMemo | None = None) -> RegionEngine:
    """Gather the block pieces of one oversampled region and factor its
    face system.

    Pieces come from ``pieces``, a memo by :func:`piece_key`, when it
    holds their content and are factored into it otherwise; without a
    memo the region factors each distinct block content once.  Blocks are
    keyed by ``keys``, their :func:`region_keys` as the caller took them
    (digested here when not given).  The region's row index is the
    pieces' rows, each offset by the rows of the blocks before it.  The
    face system has (blocks + 1) ny unknowns and bandwidth 2 ny - 1; its
    outer face columns join one block each, which is the zero-flux edge
    of the region.
    """
    grid = ov.grid
    memo = StepMemo() if pieces is None else pieces
    ny = grid.ny
    grid_b = _piece_grid(ov)
    if keys is None:
        keys = region_keys(ov, lam_local, labels_local, n, {})
    blocks = [memo.get(key, lambda: factor_piece(
        grid_b, lam_local[reg.sx], labels_local[reg.sx], n))
        for reg, key in zip(ov.regions, keys)]
    ab = np.zeros((2 * ny, (len(blocks) + 1) * ny), order="F")
    for k, pc in enumerate(blocks):
        ab[:, k * ny:(k + 2) * ny] += pc.band
    try:
        chol = cholesky_banded(ab, overwrite_ab=True, lower=True,
                               check_finite=False)
    except LinAlgError as exc:
        raise SolverError(f"region face system not SPD: {exc}") from exc
    starts = np.cumsum([0] + [pc.continua.size for pc in blocks])
    row = np.concatenate([pc.row + s for pc, s in zip(blocks, starts)])
    C = sparse.csr_matrix((np.full(row.size, grid.cell_area),
                           (row, np.arange(row.size))),
                          shape=(starts[-1], row.size))
    return RegionEngine(
        pieces=blocks, chol=chol, grid=grid, lam=lam_local, C=C,
        continua=np.concatenate([pc.continua for pc in blocks]),
        mass=np.bincount(row) * grid.cell_area, starts=starts)


FAMILIES = ("average", "gradient", "concentration")


def _family_load(ov: Oversample, lam_local: np.ndarray,
                 labels_local: np.ndarray, engine: RegionEngine,
                 family: str, i: int, centers: np.ndarray | None):
    """Cell load b and moment targets g of continuum i's basis: delta_ij
    m_j (average), delta_ij int (x - x~_i) psi_i (gradient) or zero."""
    grid = ov.grid
    psi = indicator(labels_local, i)
    if family == "average":
        return (np.zeros(grid.n_cells),
                np.where(engine.continua == i, engine.mass, 0.0))
    if family == "gradient":
        # drive only this continuum's boundary cells: a sliver of a
        # high-mobility neighbour continuum on the region rim must not
        # inject its (contrast-sized) natural flux into this basis
        return (gradient_boundary_source(grid, lam_local * psi).ravel(),
                engine.C @ ((ov.x_centers - centers[i]) * psi).ravel())
    mass = psi[ov.central.sx].sum() * grid.cell_area
    s = psi / mass if mass > 0 else psi
    return (gravity_volume_source(grid, lam_local, s).ravel(),
            np.zeros(engine.continua.size))


def solve_constrained_elliptic(ov: Oversample, lam_local: np.ndarray,
                               labels_local: np.ndarray, n: int,
                               family: str | tuple[str, ...],
                               engine: RegionEngine | None = None):
    """Galerkin cell problems on an oversampled region.

    family: 'average' (unit continuum averages), 'gradient' (linear moment
    targets along x with natural unit-gradient boundary data),
    or 'concentration' (buoyancy source chi_i psi_i e1, zero moments).
    Returns a :class:`CellBasisSet`; with a tuple of families every
    right-hand side of all of them goes to one engine solve, and a list of
    sets comes back in the tuple's order.
    """
    names = (family,) if isinstance(family, str) else tuple(family)
    for name in names:
        if name not in FAMILIES:
            raise ConfigError(f"unknown elliptic family {name!r}")
    grid = ov.grid
    if engine is None:
        engine = build_region_engine(ov, lam_local, labels_local, n)
    present = np.unique(engine.continua)
    centers = (gradient_centers(ov, labels_local, n)
               if "gradient" in names else None)
    loads = [_family_load(ov, lam_local, labels_local, engine, name, i,
                          centers) for name in names for i in present]
    sol = engine.solve(np.column_stack([b for b, _g in loads]),
                       np.column_stack([g for _b, g in loads]))
    res = np.abs(sol.residuals).max(axis=0)
    out, col = [], 0
    for name in names:
        bset = CellBasisSet(grid=grid, bases=[])
        for i in range(n):
            if i not in present:
                bset.bases.append(CellBasis(continuum=i, scalar=grid.zeros(),
                                            flag="absent"))
                continue
            basis = CellBasis(continuum=i,
                              scalar=sol.u[:, col].reshape(grid.nx, grid.ny),
                              residual=float(res[col]))
            if name == "gradient":
                basis.extras["center"] = float(centers[i])
            bset.bases.append(basis)
            col += 1
        out.append(bset)
    return out[0] if isinstance(family, str) else out


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


def load_key(operator: bytes, load: FlowLoad) -> bytes:
    """Content key of a block load: the :func:`~dynmc.fine.operator_key`
    of its block matrix and the load's :func:`~dynmc.fine.load_inputs`."""
    meta, arrays = load_inputs(load)
    return content_digest((operator, meta), *arrays)


def solve_block_loads(coarse: CoarseGrid, lam: np.ndarray, items: list,
                      memo: StepMemo | None = None) -> list:
    """Solve ``[(block, FlowLoad), ...]`` with one factorization per
    distinct block matrix; returns their (p, vx, vy) in the same order.

    A load on a block solves the lam_b operator of that block, and every
    block has the same cell size, so loads whose lam_b and pressure sides
    digest alike (:func:`~dynmc.fine.operator_key`, taken once per block
    and boundary kinds) share one matrix, and loads of one matrix whose
    data digest alike (:func:`load_key`) share one solution.  Each distinct
    load is solved once: ``memo``, a caller's memo by load key, gives the
    loads it holds, and the rest go to one :func:`solve_flow` call per
    matrix on the grid of its first block (the result never depends on the
    grid's origin), a matrix with no new load to none.  Without a memo the
    call dedupes its own loads.  The results are read-only and shared by
    every load of equal key.
    """
    memo = StepMemo() if memo is None else memo
    operators: dict[tuple, bytes] = {}  # (block, side kinds) -> key
    keys, groups = [], {}  # groups: operator key -> (block, {key: load})
    for blk, load in items:
        kinds = (blk, *(load.bc.side(s)[0] for s in SIDES))
        if kinds not in operators:
            operators[kinds] = operator_key(_block_field(coarse, blk, lam),
                                            [load])
        key = load_key(operators[kinds], load)
        keys.append(key)
        if key not in memo.entries:
            groups.setdefault(operators[kinds], (blk, {}))[1].setdefault(
                key, load)
    solved = {}
    for blk, pending in groups.values():
        solved.update(zip(pending, solve_flow(
            _omega_grid(coarse, [blk]), _block_field(coarse, blk, lam),
            list(pending.values()))))
    for sol in solved.values():
        for a in sol:
            a.flags.writeable = False
    return [memo.get(key, lambda: solved[key]) for key in keys]


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
        loads.append((blk, FlowLoad(None, bc, f=f)))
    return S, sources, loads


def gravity_load(coarse: CoarseGrid, block: int, labels: np.ndarray,
                 continuum: int) -> FlowLoad | None:
    """Load of the recirculation driven by psi_i e1 in one block, or None
    when the continuum is absent from it."""
    psi = indicator(_block_field(coarse, block, labels), continuum)
    return FlowLoad(psi) if psi.any() else None


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
    return theta, FlowLoad(None, f=psi1 - theta * psi2)


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
