"""Effective coefficients, coarse flow solves, and multicontinuum transport.

Two coarse flow models are provided.  The mixed model expands the velocity
in edge/gravity/interface bases and solves a small saddle system with
block pressures as multipliers (gravity and through-flow configurations).
The Galerkin model assembles gradient/average energy coefficients on a
refined one-dimensional coarse grid and solves a block-centered
finite-volume pressure system (interface-flattening configuration).
Both feed the same donor-block Forward-Euler concentration step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import cells
from .continua import ContinuumSpec, averages, classify, continuum_masses
from .exceptions import ConfigError, InvariantError, SolverError
from .fine import (LastSolve, Snapshot, check_residual, content_digest,
                   harmonic_face_mobility, transmissibilities)
from .grids import CoarseGrid, Oversample, oversample_block

log = logging.getLogger(__name__)


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
    cen = ov.central
    present = np.array([(labels_local[cen.sx] == i).any()
                        for i in range(n)])
    here = np.flatnonzero(present)
    mask = grid.zeros()
    mask[cen.sx] = 1.0
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


@dataclass
class MixedBasis:
    edge: int | None  # coarse edge; None for the interface basis of a block
    continuum: int | None
    S: float  # edge flux per unit coefficient; masked psi1 mass (interface)
    support: dict  # block -> block-local face fluxes, see _faces


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


def _split_edge_support(coarse: CoarseGrid, edge: int,
                        bset: cells.CellBasisSet):
    """Per-block face fields of the basis of ``edge``, built on the blocks
    next to it (minus side first)."""
    basis = bset.bases[0]
    mx = coarse.mx
    blocks = [b for b in coarse.edge_neighbors(edge) if b is not None]
    return {blk: _faces(basis.fx[k * mx:(k + 1) * mx + 1, :],
                        basis.fy[k * mx:(k + 1) * mx, :])
            for k, blk in enumerate(blocks)}


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
                inflow_labels: np.ndarray | None):
    """Every cell problem of one mixed solve, one factorization per block.

    Returns (bases, gravity supports, inflow supports).  Bases come edge by
    edge, continua inner, then the interface bases block by block; the Gram
    matrix and its roundoff depend on this order.
    """
    # no-flow outer boundary in gravity mode; the inflow edge is data
    edges = range(1, coarse.Nx if gravity else coarse.Nx + 1)
    variant = "uniform" if gravity else "psi"
    families = [cells.edge_flux_family(coarse, I, labels, i, edge_labels[I],
                                       variant)
                for I in edges for i in range(n)]
    blocks = coarse.blocks()
    if gravity:
        families += [cells.gravity_family(coarse, blk, labels, i)
                     for blk in blocks for i in range(n)]
    else:
        # the lift carries the prescribed inflow; its energy projects onto
        # the unknown bases so the system stays consistent near the inlet
        families += [cells.interface_family(coarse, blk, labels)
                     for blk in blocks]
        families += [cells.edge_flux_family(coarse, 0, labels, i,
                                            inflow_labels, "psi")
                     for i in range(n)]
    sets = iter(cells.solve_block_families(coarse, lam, families))

    bases: list[MixedBasis] = []
    for I in edges:
        for i in range(n):
            bset = next(sets)
            b0 = bset.bases[0]
            if b0.flag != "absent":
                bases.append(MixedBasis(
                    edge=I, continuum=i, S=b0.extras["edge_flux"],
                    support=_split_edge_support(coarse, I, bset)))
    gravity_support = {}
    inflow_supports = []
    if gravity:
        for blk in blocks:
            for i in range(n):
                g = next(sets).bases[0]
                if g.flag != "absent":
                    gravity_support[(blk, i)] = _faces(g.fx, g.fy)
    else:
        area = coarse.fine.cell_area
        for blk in blocks:
            w = next(sets).bases[0]
            if w.flag != "absent":
                m1 = float(w.extras["div"].clip(min=0.0).sum()) * area
                bases.append(MixedBasis(edge=None, continuum=None, S=m1,
                                        support={blk: _faces(w.fx, w.fy)}))
        for iset in sets:  # a continuum absent from the inlet has no lift
            if iset.bases[0].flag != "absent":
                inflow_supports.append(_split_edge_support(coarse, 0, iset))
    return bases, gravity_support, inflow_supports


@dataclass
class MixedSolution:
    V: np.ndarray  # (Nx + 1, n) edge fluxes, positive along +x
    P: dict  # pressure row key -> value
    balance_residual: float


def solve_coarse_flow_mixed(coarse: CoarseGrid, lam: np.ndarray,
                            labels: np.ndarray, n: int,
                            Chat: np.ndarray | None,
                            edge_labels: np.ndarray, variant: str = "gravity",
                            g_in: float | None = None,
                            p_out: float | None = None,
                            inflow_labels: np.ndarray | None = None
                            ) -> MixedSolution:
    """Edge-basis saddle solve for the multicontinuum velocities.

    variant 'gravity': no-flow outer boundary, uniform balancing sources,
    one pressure per block, buoyancy drive from Chat (continuum mean
    concentrations per block).  variant 'viscous': continuum-wise sources
    and pressures, prescribed inflow ``g_in`` on the left boundary, fixed
    pressure ``p_out`` on the right (one-sided edge bases there); it does
    not read Chat, which may be None.
    ``edge_labels[I]`` holds the continuum label of every face of edge I.
    """
    if variant not in ("gravity", "viscous"):
        raise ConfigError(f"unknown mixed variant {variant!r}")
    fine = coarse.fine
    gravity = variant == "gravity"
    if gravity and Chat is None:
        raise ConfigError("the gravity variant needs Chat")

    bases, gravity_support, inflow_supports = mixed_bases(
        coarse, lam, labels, n, edge_labels, gravity, inflow_labels)

    nb = len(bases)
    if nb == 0:
        raise SolverError("no edge bases: every continuum absent on edges")
    # per block, F stacks the face fluxes of the bases supported there:
    # the Gram block is (F W) F^T and each drive is F times a face field
    M = np.zeros((nb, nb))
    b = np.zeros(nb)
    for blk in coarse.blocks():
        here = [a for a in range(nb) if blk in bases[a].support]
        if not here:
            continue
        sx = coarse.block_slice(blk)
        wx, w = _block_face_quadrature(coarse, lam[sx])
        F = np.array([bases[a].support[blk] for a in here])
        M[np.ix_(here, here)] += (F * w) @ F.T
        zero = np.zeros_like(w)
        if gravity:
            # buoyancy drive minus the gravity-basis projections
            ci = np.where(np.isfinite(Chat[blk]), Chat[blk], 0.0)
            rho = _face_indicator_x(ci[labels[sx]])
            proj = sum((ci[i] * gravity_support[(blk, i)] for i in range(n)
                        if (blk, i) in gravity_support), zero)
            r = _faces(wx * rho, zero[wx.size:]) - w * proj
        else:
            lift = sum((sup[blk] for sup in inflow_supports if blk in sup),
                       zero)
            r = g_in * w * lift
        b[here] += F @ r

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
    D = np.zeros((len(rows), nb))
    f = np.zeros(len(rows))
    for a, ba in enumerate(bases):
        if ba.edge is None:  # interface: div = psi1 - theta psi2
            (I,) = ba.support
            D[row_of[I, 0], a], D[row_of[I, 1], a] = ba.S, -ba.S
            continue
        for I, sgn in ((ba.edge - 1, 1.0), (ba.edge, -1.0)):
            if 0 <= I < coarse.Nx and row_of[I, ba.continuum] >= 0:
                D[row_of[I, ba.continuum], a] = sgn * ba.S
        if not gravity and ba.edge == coarse.Nx:
            # fixed outlet pressure enters the velocity equations
            b[a] -= p_out * ba.S

    V = np.zeros((coarse.Nx + 1, n))
    if not gravity:
        # prescribed inflow through the left boundary edge
        V[0] = np.bincount(inflow_labels, minlength=n)[:n] * fine.hy * (-g_in)
        f[row_of[0, present[0]]] = V[0, present[0]]

    live = np.abs(D).max(axis=1) > 1e-13
    for row, ok, fr in zip(rows, live, f):
        if not ok and abs(fr) > 1e-12:
            raise SolverError(f"balance row {row} has data but no basis")
    dropped = [row for row, ok in zip(rows, live) if not ok]
    if dropped:
        log.info("dropped %d empty balance rows: %s", len(dropped), dropped)
    D = D[live]
    f = f[live]
    rows = [row for row, ok in zip(rows, live) if ok]
    if gravity:
        # pure Neumann: the last balance is implied; dropping it sets the
        # pressure gauge
        D, f, rows = D[:-1], f[:-1], rows[:-1]

    m = len(rows)
    K = np.zeros((nb + m, nb + m))
    K[:nb, :nb] = M
    K[:nb, nb:] = D.T
    K[nb:, :nb] = D
    rhs = np.concatenate([b, f])
    sol, norm = _dense_solve(K, rhs, "coarse mixed")
    u = sol[:nb]
    P = {r: -mu for r, mu in zip(rows, sol[nb:])}
    resid = float(np.abs(D @ u - f).max()) if m else 0.0
    check_residual("coarse mixed balance", resid, norm, sol, rhs)

    on_edge = [a for a, ba in enumerate(bases) if ba.edge is not None]
    V[[bases[a].edge for a in on_edge],
      [bases[a].continuum for a in on_edge]] += [u[a] * bases[a].S
                                                 for a in on_edge]
    return MixedSolution(V=V, P=P, balance_residual=resid)


# --- Galerkin coarse flow ---------------------------------------------


def solve_coarse_flow_galerkin(flow_coarse: CoarseGrid, base_coarse: CoarseGrid,
                               ops: list[EffectiveOperators], n: int,
                               p_in: float, p_out: float) -> tuple:
    """1D block-centered pressure solve on the refined coarse grid.

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
    rhs[0] += (wal[0] * p_in).sum(axis=1)
    rhs[-1] += (wal[-1] * p_out).sum(axis=1)
    A = A.reshape(NX * n, NX * n)[np.ix_(dofs, dofs)]
    sol, _norm = _dense_solve(A, rhs.ravel()[dofs], "coarse Galerkin")
    P = np.full((NX, n), np.nan)
    P.flat[dofs] = sol

    # per-continuum flux through every face; a continuum that ends at a
    # face (NaN pressure on one side) has no through-flow
    dP = np.diff(np.vstack([np.full(n, p_in), P, np.full(n, p_out)]), axis=0)
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
    # Galerkin region engines (built, reused) by this step's coarse solve
    engines: tuple[int, int] = (0, 0)


@dataclass
class CoarseModel:
    """Everything the coarse driver needs besides the fine snapshots."""

    coarse: CoarseGrid  # transport grid (extended where applicable)
    spec: ContinuumSpec
    approach: str  # 'mixed-gravity' | 'mixed-viscous' | 'galerkin'
    lam_of: object  # callable c -> lam field on coarse.fine
    # viscous boundary data
    g_in: float | None = None
    p_out: float | None = None
    inflow_conc: np.ndarray | None = None
    # galerkin settings
    flow_refine: int = 2
    layers: int = 6
    extension_rule: str = "periodic-left,reflect-right"
    p_in: float | None = None

    def __post_init__(self):
        if self.approach not in ("mixed-gravity", "mixed-viscous", "galerkin"):
            raise ConfigError(f"unknown coarse approach {self.approach!r}")


def _galerkin_velocity(model: CoarseModel, lam: np.ndarray,
                       labels: np.ndarray, n: int):
    """Galerkin coarse flow: returns V, P and the region engines (built,
    reused).  A region whose content repeats the previous region's reuses
    its engine; the memo lives for this call only, so at most one engine
    is kept."""
    flow = CoarseGrid(model.coarse.fine, model.coarse.Nx * model.flow_refine)
    memo = LastSolve()
    reused = 0
    ops = []
    for K in flow.blocks():
        ov = oversample_block(flow, K, model.layers,
                              rule=model.extension_rule)
        lam_l = ov.sample(lam)
        lab_l = ov.sample(labels)
        engine = cells.build_region_engine(ov, lam_l, lab_l, n, memo=memo)
        reused += memo.reused
        avg = cells.solve_constrained_elliptic(ov, lam_l, lab_l, n, "average",
                                               engine=engine)
        grad = cells.solve_constrained_elliptic(ov, lam_l, lab_l, n,
                                                "gradient", engine=engine)
        ops.append(assemble_effective(ov, lam_l, lab_l, n, avg, grad))
    P, V, _U = solve_coarse_flow_galerkin(flow, model.coarse, ops, n,
                                          model.p_in, model.p_out)
    return V, P, (flow.Nx - reused, reused)


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
    last = None  # (key, V, P) of the previous homogenized solve
    total_removed = 0.0

    for k in range(steps + 1):
        engines = (0, 0)
        snap = snapshots[k]
        labels = classify(snap.c, model.spec)
        masses = continuum_masses(labels, coarse, n)
        # continuum absent in a block: its tracked mass has crossed a
        # threshold on the fine scale; drop it and keep the ledger
        gone = (masses <= 0) & (C != 0)
        if gone.any():
            total_removed += float(np.abs(C[gone]).sum())
            C = np.where(gone, 0.0, C)
        lam = model.lam_of(snap.c)

        if velocity == "ref":
            V = averages(coarse, snap.p, snap.c, snap.vx, labels, n).V
            P = None
        else:
            # all coarse-flow coefficients, including the buoyancy drive,
            # are rebuilt from the fine snapshot each step; a step whose
            # inputs equal the previous step's reuses its solution
            inputs = [labels, lam]
            if model.approach == "mixed-gravity":
                inputs.append(snap.c)
            key = content_digest(model.approach, *inputs)
            if last is not None and last[0] == key:
                _, V, P = last
            elif model.approach == "galerkin":
                V, P, engines = _galerkin_velocity(model, lam, labels, n)
            else:
                Chat = None  # read only by the gravity variant
                if model.approach == "mixed-gravity":
                    Cfine = averages(coarse, snap.p, snap.c, snap.vx, labels,
                                     n).C
                    Chat = np.zeros_like(Cfine)
                    np.divide(Cfine, masses, out=Chat, where=masses > 0)
                elab = coarse.edge_donor_labels(labels,
                                                coarse.edge_flux(snap.vx))
                inflow_lab = None
                if model.approach == "mixed-viscous":
                    inflow_lab = labels[0, :]
                ms = solve_coarse_flow_mixed(
                    coarse, lam, labels, n, Chat, elab,
                    variant=("gravity" if model.approach == "mixed-gravity"
                             else "viscous"),
                    g_in=model.g_in, p_out=model.p_out,
                    inflow_labels=inflow_lab)
                V, P = ms.V, ms.P
            last = (key, V, P)

        states.append(CoarseState(step=k, t=k * tau, C=C.copy(), V=V, P=P,
                                  engines=engines))
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
