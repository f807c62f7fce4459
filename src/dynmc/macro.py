"""Effective coefficients, coarse flow solves, and multicontinuum transport.

Two coarse flow models are provided.  The mixed model expands the velocity
in edge/gravity/interface bases and solves a small saddle system with block
pressures as multipliers, driven by the buoyancy of block concentrations
Chat where given (gravity), else by inflow (through-flow configurations).
The Galerkin model assembles gradient/average energy coefficients on a
refined one-dimensional coarse grid and solves a block-centered
finite-volume pressure system (interface-flattening configuration).  Both
read the boundary data ``G_IN``, ``P_IN``, ``P_OUT`` of this module and
feed the same donor-block Forward-Euler concentration step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import cells
from .continua import ContinuumSpec, averages, classify, continuum_masses
from .exceptions import ConfigError, InvariantError, SolverError
from .fine import (Snapshot, StepMemo, check_residual, content_digest,
                   harmonic_face_mobility, transmissibilities)
from .grids import CoarseGrid, Oversample, oversample_block

log = logging.getLogger(__name__)

# the boundary data of the fine and coarse flows: the viscous inflow flux,
# the Galerkin inlet pressure and the outlet pressure of both
G_IN, P_IN, P_OUT = -1.0, 1.0, 0.0


# --- effective coefficients (Galerkin form) ---------------------------


@dataclass
class EffectiveOperators:
    """Per-block effective coefficient matrices over continuum indices.

    alpha: gradient-gradient energies (one horizontal direction here);
    beta: average-average exchange energies.  ``present`` masks the
    continua that exist in the block.
    """

    n: int
    alpha: np.ndarray  # (n, n)
    beta: np.ndarray  # (n, n)
    present: np.ndarray  # (n,) bool


def assemble_effective(ov: Oversample, lam_local: np.ndarray,
                       labels_local: np.ndarray, n: int,
                       avg: cells.CellBasisSet, grad: cells.CellBasisSet
                       ) -> EffectiveOperators:
    """Energy integrals (1/|K|) int_K lam grad(u).grad(v) of the solved bases
    over the central block K.

    Each is a weighted sum over the interior faces of the local grid: a
    face takes its transmissibility times half a weight per adjacent
    central cell.  With G stacking the face differences of the present
    continua's bases, a family's energies are (G w) G^T / |K|.
    """
    grid = ov.grid
    present = np.array([(labels_local[ov.central] == i).any()
                        for i in range(n)])
    here = np.flatnonzero(present)
    mask = grid.zeros()
    mask[ov.central] = 1.0
    tx, ty = transmissibilities(grid, lam_local)
    w = np.concatenate([(0.5 * (mask[:-1, :] + mask[1:, :]) * tx).ravel(),
                        (0.5 * (mask[:, :-1] + mask[:, 1:]) * ty).ravel()])

    def energies(bset):
        G = np.array([np.concatenate([np.diff(u, axis=0).ravel(),
                                      np.diff(u, axis=1).ravel()])
                      for u in (bset.by_continuum(i).scalar for i in here)])
        E = np.zeros((n, n))
        E[np.ix_(here, here)] = (G * w) @ G.T / ov.coarse.block_area
        return E

    alpha = energies(grad)
    beta = energies(avg)
    # exchange conserves mass: each row balances over the continua that
    # exist in the block, so single-continuum blocks carry no exchange
    beta[here, here] = 0.0
    beta[here, here] = -beta[here].sum(axis=1)
    return EffectiveOperators(n=n, alpha=alpha, beta=beta, present=present)


# --- mixed coarse flow -------------------------------------------------


def _faces(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Block-local face field as one vector: x-faces, then y-faces."""
    return np.concatenate([fx.ravel(), fy.ravel()])


def _block_face_quadrature(coarse: CoarseGrid, lam_b: np.ndarray):
    """Face weights for block-wise L2(lam^-1) products.

    Block-boundary faces take the one-sided cell mobility and half a cell
    volume, so summing over blocks reproduces a global face quadrature.
    Returns the x-face volumes and the volume/mobility weight of every
    face in :func:`_faces` order.
    """
    mx, my = coarse.mx, coarse.my
    area = coarse.fine.cell_area
    lamx = np.empty((mx + 1, my))
    lamy = np.empty((mx, my + 1))
    lamx[1:-1, :], lamy[:, 1:-1] = harmonic_face_mobility(lam_b)
    lamx[0, :], lamx[-1, :] = lam_b[0, :], lam_b[-1, :]
    lamy[:, 0], lamy[:, -1] = lam_b[:, 0], lam_b[:, -1]
    wx = np.full((mx + 1, my), area)
    wx[0, :] = wx[-1, :] = 0.5 * area
    wy = np.full((mx, my + 1), area)
    wy[:, 0] = wy[:, -1] = 0.5 * area
    return wx, _faces(wx / lamx, wy / lamy)


def _face_indicator_x(psi: np.ndarray):
    """Cell field averaged onto block-local x-faces (one-sided at the rim)."""
    mx, my = psi.shape
    out = np.empty((mx + 1, my))
    out[1:-1, :] = 0.5 * (psi[:-1, :] + psi[1:, :])
    out[0, :], out[-1, :] = psi[0, :], psi[-1, :]
    return out


def _dense_solve(K: np.ndarray, rhs: np.ndarray, what: str):
    """LU solve of a small dense system with its residual checked; returns
    the solution and ||K||_inf."""
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{what} system singular: {exc}") from exc
    norm = float(np.abs(K).sum(axis=1).max())
    check_residual(what, float(np.abs(K @ sol - rhs).max()), norm, sol, rhs)
    return sol, norm


def mixed_bases(coarse: CoarseGrid, lam: np.ndarray, labels: np.ndarray,
                n: int, edge_labels: np.ndarray, gravity: bool,
                loads: StepMemo | None = None):
    """Every cell problem of one mixed solve, one factorization per block
    matrix and one solve per distinct block load; ``loads`` is the memo of
    ``cells.solve_block_loads``, which hands on the loads solved before.

    Returns (bases, table).  ``bases`` holds one (edge, continuum, S) per
    basis: edge by edge, continua inner, with S the edge flux it carries;
    then the interface bases block by block, with edge and continuum None
    and S the psi_1 mass of their divergence.  The Gram matrix and its
    roundoff depend on this order.  ``table[K]`` holds what was solved on
    block K as three lists of (key, faces), faces in :func:`_faces` order:
    the bases supported there keyed by basis index, the gravity loads
    (gravity mode) and the inflow lifts (otherwise) keyed by continuum,
    each ascending.  The inflow edge carries the labels of the inlet
    column, ``labels[0, :]``.
    """
    # no-flow outer boundary in gravity mode; the inflow edge is data
    edges = range(1, coarse.Nx if gravity else coarse.Nx + 1)
    variant = "uniform" if gravity else "psi"
    area = coarse.fine.cell_area
    bases, queued = [], []  # queued: (table slot, key, [(block, FlowLoad)])
    for I in edges:
        for i in range(n):
            S, _sources, items = cells.edge_flux_loads(
                coarse, I, labels, i, edge_labels[I], variant)
            if items:
                queued.append((0, len(bases), items))
                bases.append((I, i, S))
    for blk in coarse.blocks():
        if gravity:
            for i in range(n):
                load = cells.gravity_load(coarse, blk, labels, i)
                if load is not None:
                    queued.append((1, i, [(blk, load)]))
            continue
        found = cells.interface_load(coarse, blk, labels)
        if found is not None:
            load = found[1]
            queued.append((0, len(bases), [(blk, load)]))
            bases.append((None, None,
                          float(load.f.clip(min=0.0).sum()) * area))
    if not gravity:
        # the lift carries the prescribed inflow; its energy projects onto
        # the unknown bases so the system stays consistent near the inlet
        for i in range(n):  # a continuum absent from the inlet has no lift
            _S, _sources, items = cells.edge_flux_loads(
                coarse, 0, labels, i, labels[0, :], "psi")
            queued.append((2, i, items))
    solved = iter(cells.solve_block_loads(
        coarse, lam, [item for _slot, _key, items in queued
                      for item in items], loads))
    table = [([], [], []) for _ in coarse.blocks()]
    for slot, key, items in queued:
        for blk, _load in items:
            _p, fx, fy = next(solved)
            table[blk][slot].append((key, _faces(fx, fy)))
    return bases, table


@dataclass
class MixedSolution:
    V: np.ndarray  # (Nx + 1, n) edge fluxes, positive along +x
    P: dict  # pressure row key -> value
    balance_residual: float


def solve_coarse_flow_mixed(coarse: CoarseGrid, lam: np.ndarray,
                            labels: np.ndarray, n: int,
                            Chat: np.ndarray | None,
                            edge_labels: np.ndarray,
                            loads: StepMemo | None = None
                            ) -> MixedSolution:
    """Edge-basis saddle solve for the multicontinuum velocities.

    With Chat (continuum mean concentrations per block) the gravity
    variant: no-flow outer boundary, uniform balancing sources, one
    pressure per block, buoyancy drive from Chat.  Without it (None) the
    viscous variant: continuum-wise sources and pressures, inflow flux
    :data:`G_IN` through the left boundary into the continua of the inlet
    column ``labels[0, :]``, pressure :data:`P_OUT` on the right (one-sided
    edge bases there).
    ``edge_labels[I]`` holds the continuum label of every face of edge I;
    ``loads`` carries the block solves (:func:`mixed_bases`).
    """
    gravity = Chat is not None
    bases, table = mixed_bases(coarse, lam, labels, n, edge_labels, gravity,
                               loads)
    nb = len(bases)
    if nb == 0:
        raise SolverError("no edge bases: every continuum absent on edges")

    # balance rows: one per block (gravity), else one per present
    # (block, continuum); row_of[I, j] is the row of block I, continuum j
    if gravity:
        rows = [(I,) for I in coarse.blocks()]
        row_of = np.repeat(np.arange(coarse.Nx)[:, None], n, axis=1)
    else:
        present = continuum_masses(labels, coarse, n) > 0
        rows = [(int(I), int(j)) for I, j in zip(*np.nonzero(present))]
        row_of = np.full((coarse.Nx, n), -1)
        row_of[present] = np.arange(len(rows))
    V = np.zeros((coarse.Nx + 1, n))
    f = np.zeros(len(rows))
    if not gravity:
        # prescribed inflow through the left boundary edge
        V[0] = (np.bincount(labels[0, :], minlength=n)[:n] * coarse.fine.hy
                * (-G_IN))
        f[row_of[0, present[0]]] = V[0, present[0]]

    # one pass over the blocks: F stacks the face fluxes of the bases
    # supported on the block; it adds the Gram block (F W) F^T, the drive
    # F r and the block's own balance entries of D
    M = np.zeros((nb, nb))
    b = np.zeros(nb)
    D = np.zeros((len(rows), nb))
    for blk, (own, grav, lifts) in enumerate(table):
        if not own:
            continue
        here = [a for a, _faces in own]
        F = np.array([faces for _a, faces in own])
        sx = coarse.block_slice(blk)
        wx, w = _block_face_quadrature(coarse, lam[sx])
        M[np.ix_(here, here)] += (F * w) @ F.T
        zero = np.zeros_like(w)
        if gravity:
            # buoyancy drive minus the gravity-basis projections
            ci = np.where(np.isfinite(Chat[blk]), Chat[blk], 0.0)
            rho = _face_indicator_x(ci[labels[sx]])
            proj = sum((ci[i] * g for i, g in grav), zero)
            r = _faces(wx * rho, zero[wx.size:]) - w * proj
        else:
            r = G_IN * w * sum((g for _i, g in lifts), zero)
        b[here] += F @ r
        for a in here:
            edge, i, S = bases[a]
            if edge is None:  # interface: div = psi1 - theta psi2
                D[row_of[blk, 0], a], D[row_of[blk, 1], a] = S, -S
                continue
            if row_of[blk, i] >= 0:  # +S out through the right edge
                D[row_of[blk, i], a] = S if edge == blk + 1 else -S
            if edge == coarse.Nx:
                # fixed outlet pressure enters the velocity equations
                b[a] -= P_OUT * S

    # drop the balance rows no basis reaches; in the gravity variant (pure
    # Neumann) the last balance is implied and dropping it sets the gauge
    live = np.abs(D).max(axis=1) > 1e-13
    stray = np.flatnonzero(~live & (np.abs(f) > 1e-12))
    if stray.size:
        raise SolverError(
            f"balance row {rows[stray[0]]} has data but no basis")
    if not live.all():
        dropped = [rows[r] for r in np.flatnonzero(~live)]
        log.info("dropped %d empty balance rows: %s", len(dropped), dropped)
    keep = np.flatnonzero(live)
    if gravity:
        keep = keep[:-1]
    D, f, rows = D[keep], f[keep], [rows[r] for r in keep]

    m = len(rows)
    K = np.block([[M, D.T], [D, np.zeros((m, m))]])
    rhs = np.concatenate([b, f])
    sol, norm = _dense_solve(K, rhs, "coarse mixed")
    u = sol[:nb]
    P = {r: -mu for r, mu in zip(rows, sol[nb:])}
    resid = float(np.abs(D @ u - f).max()) if m else 0.0
    check_residual("coarse mixed balance", resid, norm, sol, rhs)

    for a, (edge, i, S) in enumerate(bases):
        if edge is not None:
            V[edge, i] += u[a] * S
    return MixedSolution(V=V, P=P, balance_residual=resid)


# --- Galerkin coarse flow ---------------------------------------------


def solve_coarse_flow_galerkin(flow_coarse: CoarseGrid, base_coarse: CoarseGrid,
                               ops: list[EffectiveOperators], n: int) -> tuple:
    """1D block-centered pressure solve on the refined coarse grid, with
    the pressures :data:`P_IN` left and :data:`P_OUT` right.

    Returns (P array (NXf, n) with NaN for absent continua, V array
    (Nx + 1, n) of per-continuum fluxes on the base coarse edges, U per
    refined block).
    Base-edge velocities average the two adjacent refined-block velocities;
    boundary edges use the one-sided Dirichlet face flux.
    """
    NX = flow_coarse.Nx
    if NX % base_coarse.Nx:
        raise ConfigError("flow grid does not refine the base coarse grid")
    refine = NX // base_coarse.Nx
    L2 = flow_coarse.fine.L2
    dx = flow_coarse.fine.L1 / NX
    vol = dx * L2
    alpha = np.array([o.alpha for o in ops])  # (NX, n, n)
    beta = np.array([o.beta for o in ops])
    present = np.array([o.present for o in ops])  # (NX, n)
    dofs = np.flatnonzero(present)  # unknown (K, i) sits at K * n + i
    if not dofs.size:
        raise SolverError("no continua present anywhere on the flow grid")

    # face f lies between refined blocks f - 1 and f; the boundary faces
    # are half a block from the block centre
    al = np.empty((NX + 1, n, n))
    al[0], al[-1] = alpha[0] * 2.0, alpha[-1] * 2.0
    al[1:-1] = 0.5 * (alpha[:-1] + alpha[1:])
    al = al * L2 / dx
    # continuum j crosses face f only where it is present on both sides;
    # where it ends, conversion happens via the exchange terms
    through = np.empty((NX + 1, n), dtype=bool)
    through[0], through[-1] = present[0], present[-1]
    through[1:-1] = present[:-1] & present[1:]
    wal = np.where(through[:, None, :], al, 0.0)

    A = np.zeros((NX, n, NX, n))
    K = np.arange(NX)
    A[K, :, K, :] = wal[:-1] + wal[1:] + vol * beta
    A[K[1:], :, K[:-1], :] = -wal[1:-1]
    A[K[:-1], :, K[1:], :] = -wal[1:-1]
    rhs = np.zeros((NX, n))
    rhs[0] += (wal[0] * P_IN).sum(axis=1)
    rhs[-1] += (wal[-1] * P_OUT).sum(axis=1)
    A = A.reshape(NX * n, NX * n)[np.ix_(dofs, dofs)]
    sol, _norm = _dense_solve(A, rhs.ravel()[dofs], "coarse Galerkin")
    P = np.full((NX, n), np.nan)
    P.flat[dofs] = sol

    # per-continuum flux through every face; a continuum that ends at a
    # face (NaN pressure on one side) has no through-flow
    dP = np.diff(np.vstack([np.full(n, P_IN), P, np.full(n, P_OUT)]), axis=0)
    dP[np.isnan(dP)] = 0.0
    F = -(al @ dP[:, :, None])[:, :, 0]
    U = 0.5 * (F[:-1] + F[1:])
    V = np.empty((base_coarse.Nx + 1, n))
    V[0] = F[0]
    V[1:-1] = 0.5 * (U[refine - 1:NX - 1:refine] + U[refine:NX:refine])
    V[-1] = F[-1]
    return P, V, U


# --- coarse transport --------------------------------------------------


def coarse_cfl(coarse: CoarseGrid, V: np.ndarray, masses: np.ndarray,
               tau: float) -> float:
    """Largest donor-mass fraction any continuum loses in one step."""
    # block I donates through its left edge I when V[I] < 0 and through its
    # right edge I + 1 when V[I + 1] >= 0
    A = np.abs(V)
    out = (np.where(V[:-1] >= 0, 0.0, A[:-1])
           + np.where(V[1:] >= 0, A[1:], 0.0))
    nu = np.zeros_like(masses)
    np.divide(out * tau, masses, out=nu, where=masses > 0)
    return float(nu.max())


def step_macro_concentration(coarse: CoarseGrid, C: np.ndarray,
                             masses: np.ndarray, V: np.ndarray, tau: float,
                             inflow_conc: np.ndarray | None = None):
    """One Forward-Euler donor-block step of the multicontinuum transport.

    C holds unnormalized continuum concentrations per block; the donor
    value is C/mass of the donor block.  Boundary edges with inflow take
    the per-continuum means ``inflow_conc``.  Returns (C_new, skipped)
    where ``skipped`` is an (Nx + 1, n) mask of the edge fluxes dropped
    because the donor block lacks the continuum.
    """
    nu = coarse_cfl(coarse, V, masses, tau)
    if nu > 1.0:
        raise InvariantError(
            f"coarse CFL {nu:.3f} > 1; reduce tau to <= {tau / nu:.3e}")
    edge = np.arange(coarse.Nx + 1)[:, None]
    donor = np.where(V >= 0, edge - 1, edge)
    inside = (donor >= 0) & (donor < coarse.Nx)
    donor = donor.clip(0, coarse.Nx - 1)
    k = np.arange(V.shape[1])
    m = masses[donor, k]
    moving = V != 0.0
    if inflow_conc is None and (moving & ~inside).any():
        I, j = np.argwhere(moving & ~inside)[0]
        raise InvariantError(f"inflow through edge {I} (continuum {j}) "
                             "without boundary data")
    skipped = moving & inside & (m <= 0)
    val = np.divide(C[donor, k], m, out=np.zeros_like(V), where=m > 0)
    if inflow_conc is not None:
        val = np.where(inside, val, inflow_conc)
    # block I gains the flux of edge I, then loses that of edge I + 1
    flux = tau * V * val
    live = moving & ~skipped
    out = C.copy()
    np.add(out, flux[:-1], out=out, where=live[:-1])
    np.subtract(out, flux[1:], out=out, where=live[1:])
    return out, skipped


# --- coarse driver -----------------------------------------------------


@dataclass
class CoarseState:
    step: int
    t: float
    C: np.ndarray  # (Nx, n) unnormalized
    V: np.ndarray  # (Nx + 1, n) edge fluxes
    P: dict | np.ndarray | None = None
    # Galerkin block pieces (factored, reused) by this step's coarse solve,
    # and its regions whose operators came from the previous solve
    pieces: tuple[int, int] = (0, 0)
    regions_reused: int = 0
    # mixed block loads (solved, reused) by this step's coarse solve
    loads: tuple[int, int] = (0, 0)
    flow_reused: bool = False  # the previous step's coarse flow, taken whole


# the Galerkin regions: each block of a flow grid FLOW_REFINE times finer
# than the transport grid, oversampled by LAYERS blocks either side
FLOW_REFINE, LAYERS = 2, 6


def galerkin_flow(coarse: CoarseGrid) -> CoarseGrid:
    """The Galerkin flow grid over ``coarse``; its regions reach at most
    one domain width into the mirror image on the right."""
    blocks = coarse.Nx * FLOW_REFINE
    if coarse.fine.nx % blocks:
        raise ConfigError(
            f"Galerkin flow grid of Nx x {FLOW_REFINE} = {blocks} "
            f"blocks does not divide fine nx={coarse.fine.nx}")
    if LAYERS > blocks:
        raise ConfigError(
            f"{LAYERS} layers reach past the mirror image of the "
            f"{blocks}-block Galerkin flow grid")
    return CoarseGrid(coarse.fine, blocks)


def galerkin_region(flow: CoarseGrid, K: int) -> Oversample:
    return oversample_block(flow, K, LAYERS)


@dataclass
class CoarseModel:
    """Everything the coarse driver needs besides the fine snapshots."""

    coarse: CoarseGrid  # transport grid (extended where applicable)
    spec: ContinuumSpec
    approach: str  # 'mixed-gravity' | 'mixed-viscous' | 'galerkin'
    lam_of: object  # callable c -> lam field on coarse.fine
    inflow_conc: np.ndarray | None = None  # through-flow runs

    def __post_init__(self):
        if self.approach not in ("mixed-gravity", "mixed-viscous", "galerkin"):
            raise ConfigError(f"unknown coarse approach {self.approach!r}")


def _region_ops(flow: CoarseGrid, K: int, lam: np.ndarray,
                labels: np.ndarray, n: int, pieces: StepMemo,
                regions: StepMemo, seen: dict) -> EffectiveOperators:
    """Effective operators of flow block K from its oversampled region.

    They depend only on the region's geometry, which K fixes, and on its
    blocks' lam and labels, which their piece keys digest
    (``cells.region_keys``; ``seen`` holds the keys of the solve's blocks
    met so far, shared by the regions of one solve).  So ``regions`` keeps
    them by K and those keys, and a region it holds keeps its block pieces
    in ``pieces`` for the next solve.  The region engine (its face factor)
    and the cell bases die with this call; only the block pieces and the
    operators live on.
    """
    ov = galerkin_region(flow, K)
    lam_l = ov.sample(lam)
    lab_l = ov.sample(labels)
    keys = cells.region_keys(ov, lam_l, lab_l, n, seen)
    ops = regions.get((K, tuple(keys)), lambda: assemble_effective(
        ov, lam_l, lab_l, n, *cells.solve_constrained_elliptic(
            ov, lam_l, lab_l, n, ("average", "gradient"),
            engine=cells.build_region_engine(ov, lam_l, lab_l, n, keys,
                                             pieces=pieces))))
    pieces.touch(keys)
    return ops


def _galerkin_velocity(model: CoarseModel, lam: np.ndarray,
                       labels: np.ndarray, n: int, pieces: StepMemo,
                       regions: StepMemo):
    """Galerkin coarse flow: returns V, P and the counts of its regions:
    block pieces factored and reused, and regions reused whole.
    ``regions`` carries the regions' operators and ``pieces`` their block
    pieces from solve to solve; settled here, they keep only what this
    solve used, at most ``Nx * FLOW_REFINE`` regions.  Each distinct block
    content is digested once per solve: the digests of this lam and labels
    are kept by source columns until the solve returns."""
    flow = galerkin_flow(model.coarse)
    seen: dict = {}
    ops = [_region_ops(flow, K, lam, labels, n, pieces, regions, seen)
           for K in flow.blocks()]
    P, V, _U = solve_coarse_flow_galerkin(flow, model.coarse, ops, n)
    return V, P, (*pieces.settle(), regions.settle()[1])


def _mixed_velocity(model: CoarseModel, snap: Snapshot, lam: np.ndarray,
                    labels: np.ndarray, masses: np.ndarray, n: int,
                    loads: StepMemo):
    """Mixed coarse flow of one snapshot: returns V, P and the (solved,
    reused) counts of its block loads.  ``loads`` carries the solved block
    loads from solve to solve; settled here, it keeps only this solve's.

    Each edge face takes the continuum of its donor cell under the fine
    velocity.  The gravity variant is selected by Chat, the per-block
    continuum means of the snapshot's concentration.
    """
    coarse = model.coarse
    Chat = None
    if model.approach == "mixed-gravity":
        Cfine = averages(coarse, snap.p, snap.c, snap.vx, labels, n).C
        Chat = np.zeros_like(Cfine)
        np.divide(Cfine, masses, out=Chat, where=masses > 0)
    ms = solve_coarse_flow_mixed(
        coarse, lam, labels, n, Chat,
        coarse.edge_donor_labels(labels, coarse.edge_flux(snap.vx)),
        loads=loads)
    return ms.V, ms.P, loads.settle()


def run_coarse(model: CoarseModel, snapshots: list[Snapshot], steps: int,
               tau: float, velocity: str = "mh") -> list[CoarseState]:
    """Coarse time loop: classify -> coarse velocities -> transport step.

    ``velocity`` picks the edge fluxes: 'mh' solves the homogenized coarse
    flow model each step, 'ref' uses the continuum-split averages of the
    fine velocity field.  ``snapshots[k]`` drives coarse step k.
    """
    if velocity not in ("mh", "ref"):
        raise ConfigError(f"unknown velocity mode {velocity!r}")
    if len(snapshots) < steps + 1:
        raise ConfigError(
            f"missing fine snapshots: {steps} coarse steps need "
            f"{steps + 1}, got {len(snapshots)}")
    n = model.spec.count
    coarse = model.coarse

    snap0 = snapshots[0]
    labels = classify(snap0.c, model.spec)
    ref0 = averages(coarse, snap0.p, snap0.c, snap0.vx, labels, n)
    C = ref0.C.copy()
    states = []
    # the coarse flow, Galerkin regions and block pieces and the mixed block
    # loads of the last step
    flows, regions, pieces, loads = (StepMemo() for _ in range(4))
    total_removed = 0.0

    for k in range(steps + 1):
        counts, solved, flow_reused = (0, 0, 0), (0, 0), False
        snap = snapshots[k]
        labels = classify(snap.c, model.spec)
        masses = continuum_masses(labels, coarse, n)
        # continuum absent in a block: its tracked mass has crossed a
        # threshold on the fine scale; drop it and keep the ledger
        gone = (masses <= 0) & (C != 0)
        if gone.any():
            total_removed += float(np.abs(C[gone]).sum())
            C = np.where(gone, 0.0, C)

        if velocity == "ref":
            V = averages(coarse, snap.p, snap.c, snap.vx, labels, n).V
            P = None
        else:
            # all coarse-flow coefficients, including the buoyancy drive,
            # are rebuilt from the fine snapshot each step; a step whose
            # inputs equal the previous step's reuses its solution whole
            lam = model.lam_of(snap.c)
            inputs = [labels, lam]
            if model.approach == "mixed-gravity":
                inputs.append(snap.c)
            key = content_digest(model.approach, *inputs)
            if model.approach == "galerkin":
                V, P, counts = flows.get(key, lambda: _galerkin_velocity(
                    model, lam, labels, n, pieces, regions))
            else:
                V, P, solved = flows.get(key, lambda: _mixed_velocity(
                    model, snap, lam, labels, masses, n, loads))
            if flows.settle()[1]:
                counts, solved, flow_reused = (0, 0, 0), (0, 0), True

        states.append(CoarseState(step=k, t=k * tau, C=C.copy(), V=V, P=P,
                                  pieces=counts[:2], regions_reused=counts[2],
                                  loads=solved, flow_reused=flow_reused))
        if k == steps:
            break
        C, skipped = step_macro_concentration(
            coarse, C, masses, V, tau, inflow_conc=model.inflow_conc)
        if skipped.any():
            log.info("step %d: %d continuum-absent edge fluxes skipped",
                     k, skipped.sum())
    if total_removed:
        log.info("total threshold-crossing mass removed: %.3e", total_removed)
    return states
