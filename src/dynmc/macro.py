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

import hashlib
import logging
from dataclasses import dataclass, field

import numpy as np

from . import cells
from .continua import (ContinuumSpec, averages, classify, continuum_masses,
                       indicator)
from .exceptions import ConfigError, InvariantError, SolverError
from .fine import (Snapshot, check_residual, harmonic_face_mobility,
                   transmissibilities)
from .grids import CoarseEdge, CoarseGrid, Oversample, oversample_block

log = logging.getLogger(__name__)


# --- effective coefficients (Galerkin form) ---------------------------


def _region_face_weights(ov: Oversample):
    """Interior-face weights of the central region: half per adjacent cell."""
    grid = ov.grid
    mask = np.zeros((grid.nx, grid.ny))
    cen = ov.central
    mask[cen.sx, cen.sy] = 1.0
    wx = 0.5 * (mask[:-1, :] + mask[1:, :])
    wy = 0.5 * (mask[:, :-1] + mask[:, 1:])
    return wx, wy


def region_energy(ov: Oversample, lam_local: np.ndarray, u: np.ndarray,
                  v: np.ndarray) -> float:
    """(1/|R|) int_R lam grad(u).grad(v) as a weighted interior-face sum."""
    grid = ov.grid
    tx, ty = transmissibilities(grid, lam_local)
    wx, wy = _region_face_weights(ov)
    ex = wx * tx * (u[1:, :] - u[:-1, :]) * (v[1:, :] - v[:-1, :])
    ey = wy * ty * (u[:, 1:] - u[:, :-1]) * (v[:, 1:] - v[:, :-1])
    area = ov.coarse.block_area
    return float(ex.sum() + ey.sum()) / area


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
    meta: dict = field(default_factory=dict)


def assemble_effective(ov: Oversample, lam_local: np.ndarray,
                       labels_local: np.ndarray, n: int,
                       avg: cells.CellBasisSet, grad: cells.CellBasisSet
                       ) -> EffectiveOperators:
    """Energy integrals of the solved bases over the central region."""
    cen = ov.central
    blk = labels_local[cen.sx, cen.sy]
    present = np.array([(blk == i).any() for i in range(n)])
    alpha = np.zeros((n, n))
    beta = np.zeros((n, n))
    for i in range(n):
        if not present[i]:
            continue
        gi = grad.by_continuum(i).scalar
        ai = avg.by_continuum(i).scalar
        for j in range(n):
            if not present[j]:
                continue
            alpha[i, j] = region_energy(ov, lam_local, gi,
                                        grad.by_continuum(j).scalar)
            beta[i, j] = region_energy(ov, lam_local, ai,
                                       avg.by_continuum(j).scalar)
    # exchange conserves mass: each row balances over the continua that
    # exist in the block, so single-continuum blocks carry no exchange
    for i in range(n):
        if present[i]:
            beta[i, i] = -sum(beta[i, j] for j in range(n)
                              if j != i and present[j])
    return EffectiveOperators(n=n, alpha=alpha, beta=beta, present=present,
                              meta={"block": ov.block})


# --- mixed coarse flow -------------------------------------------------


@dataclass
class MixedBasis:
    kind: str  # 'edge' | 'interface'
    key: tuple  # edge key or block
    continuum: int | None
    S: float  # edge flux per unit coefficient (edge bases)
    support: dict  # block -> (fx, fy) block-local face arrays


def _block_face_quadrature(coarse: CoarseGrid, lam_b: np.ndarray):
    """Face mobilities and volumes for block-wise L2(lam^-1) products.

    Block-boundary faces take the one-sided cell mobility and half a cell
    volume, so summing over blocks reproduces a global face quadrature.
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
    return lamx, lamy, wx, wy


def _face_indicator_x(psi: np.ndarray):
    """Continuum indicator on block-local x-faces (one-sided at the rim)."""
    mx, my = psi.shape
    out = np.empty((mx + 1, my))
    out[1:-1, :] = 0.5 * (psi[:-1, :] + psi[1:, :])
    out[0, :], out[-1, :] = psi[0, :], psi[-1, :]
    return out


def _split_edge_support(coarse: CoarseGrid, bset: cells.CellBasisSet):
    """Per-block face fields of an edge basis built on its 2-block strip."""
    basis = bset.bases[0]
    blocks = bset.meta["blocks"]
    mx = coarse.mx
    support = {}
    for k, blk in enumerate(blocks):
        ox = k * mx
        support[blk] = (basis.fx[ox:ox + mx + 1, :].copy(),
                        basis.fy[ox:ox + mx, :].copy())
    return support


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
                n: int, edge_labels: dict, gravity: bool,
                inflow_labels: np.ndarray | None):
    """Every cell problem of one mixed solve, one factorization per block.

    Returns (bases, gravity supports, inflow supports).  Bases come edge by
    edge, continua inner, then the interface bases block by block; the Gram
    matrix and its roundoff depend on this order.
    """
    # no-flow outer boundary in gravity mode; the inflow edge is data
    edges = [e for e in coarse.edges() if e.orientation == "x"
             and (coarse.is_interior(e) or not gravity and e.index != 0)]
    variant = "uniform" if gravity else "psi"
    families = [cells.edge_flux_family(coarse, e, labels, i,
                                       edge_labels[e.key()], variant)
                for e in edges for i in range(n)]
    blocks = list(coarse.blocks())
    if gravity:
        families += [cells.gravity_family(coarse, blk, labels, i)
                     for blk in blocks for i in range(n)]
    else:
        # the lift carries the prescribed inflow; its energy projects onto
        # the unknown bases so the system stays consistent near the inlet
        e0 = CoarseEdge("x", 0, 0)
        families += [cells.interface_family(coarse, blk, labels)
                     for blk in blocks]
        families += [cells.edge_flux_family(coarse, e0, labels, i,
                                            inflow_labels, "psi")
                     for i in range(n)]
    sets = iter(cells.solve_block_families(coarse, lam, families))

    bases: list[MixedBasis] = []
    for e in edges:
        for i in range(n):
            bset = next(sets)
            b0 = bset.bases[0]
            if b0.flag != "absent":
                bases.append(MixedBasis(
                    kind="edge", key=e.key(), continuum=i,
                    S=b0.extras["edge_flux"],
                    support=_split_edge_support(coarse, bset)))
    gravity_support = {}
    inflow_supports = []
    if gravity:
        for blk in blocks:
            for i in range(n):
                g = next(sets).bases[0]
                if g.flag != "absent":
                    gravity_support[(blk, i)] = (g.fx, g.fy)
    else:
        area = coarse.fine.cell_area
        for blk in blocks:
            w = next(sets).bases[0]
            if w.flag != "absent":
                m1 = float(w.extras["div"].clip(min=0.0).sum()) * area
                bases.append(MixedBasis(kind="interface", key=blk,
                                        continuum=None, S=m1,
                                        support={blk: (w.fx, w.fy)}))
        for iset in sets:  # a continuum absent from the inlet has no lift
            if iset.bases[0].flag != "absent":
                inflow_supports.append(_split_edge_support(coarse, iset))
    return bases, gravity_support, inflow_supports


@dataclass
class MixedSolution:
    V: dict  # edge key -> (n,) fluxes (positive along +x/+y)
    P: dict  # pressure row key -> value
    balance_residual: float


def solve_coarse_flow_mixed(coarse: CoarseGrid, lam: np.ndarray,
                            labels: np.ndarray, n: int, Chat: np.ndarray,
                            edge_labels: dict, variant: str = "gravity",
                            g_in: float | None = None,
                            p_out: float | None = None,
                            inflow_labels: np.ndarray | None = None
                            ) -> MixedSolution:
    """Edge-basis saddle solve for the multicontinuum velocities.

    variant 'gravity': no-flow outer boundary, uniform balancing sources,
    one pressure per block, buoyancy drive from Chat (continuum mean
    concentrations per block).  variant 'viscous': continuum-wise sources
    and pressures, prescribed inflow ``g_in`` on the left boundary, fixed
    pressure ``p_out`` on the right (one-sided edge bases there).
    ``edge_labels`` maps edge keys to per-face continuum labels.
    """
    if variant not in ("gravity", "viscous"):
        raise ConfigError(f"unknown mixed variant {variant!r}")
    if coarse.Ny != 1:
        raise ConfigError("mixed coarse flow expects a one-block-tall grid")
    fine = coarse.fine
    gravity = variant == "gravity"

    bases, gravity_support, inflow_supports = mixed_bases(
        coarse, lam, labels, n, edge_labels, gravity, inflow_labels)

    nb = len(bases)
    if nb == 0:
        raise SolverError("no edge bases: every continuum absent on edges")
    M = np.zeros((nb, nb))
    b = np.zeros(nb)
    quad = {}
    psi_blocks = {}
    for blk in coarse.blocks():
        sx, sy = coarse.block_slices(*blk)
        lam_b = lam[sx, sy]
        quad[blk] = _block_face_quadrature(coarse, lam_b)
        psi_blocks[blk] = labels[sx, sy]

    def dot(blk, fa, fb):
        lamx, lamy, wx, wy = quad[blk]
        return float((wx / lamx * fa[0] * fb[0]).sum()
                     + (wy / lamy * fa[1] * fb[1]).sum())

    for blk in coarse.blocks():
        here = [a for a in range(nb) if blk in bases[a].support]
        for ia, a in enumerate(here):
            fa = bases[a].support[blk]
            for bb in here[ia:]:
                val = dot(blk, fa, bases[bb].support[blk])
                M[a, bb] += val
                if bb != a:
                    M[bb, a] += val
            # buoyancy drive and gravity-basis projection
            if not gravity:
                for sup in inflow_supports:
                    if blk in sup:
                        b[a] -= (-g_in) * dot(blk, fa, sup[blk])
                continue
            I, J = blk
            lab_b = psi_blocks[blk]
            lamx, lamy, wx, wy = quad[blk]
            for i in range(n):
                ci = Chat[I, J, i]
                if ci == 0.0 or not np.isfinite(ci):
                    continue
                psix = _face_indicator_x(indicator(lab_b, i))
                b[a] += ci * float((wx * psix * fa[0]).sum())
                gkey = (blk, i)
                if gkey in gravity_support:
                    b[a] -= ci * dot(blk, fa, gravity_support[gkey])

    # balance rows
    rows = []  # (block,) in gravity mode, (block, continuum) otherwise
    area = fine.cell_area
    if gravity:
        rows = [(blk,) for blk in coarse.blocks()]
    else:
        for blk in coarse.blocks():
            for j in range(n):
                if (psi_blocks[blk] == j).any():
                    rows.append((blk, j))
    rindex = {r: k for k, r in enumerate(rows)}
    D = np.zeros((len(rows), nb))
    f = np.zeros(len(rows))
    for a, ba in enumerate(bases):
        if ba.kind == "edge":
            _, idx, row = ba.key
            lo, hi = coarse.edge_neighbors(CoarseEdge("x", idx, row))
            for blk, sgn in ((lo, +1.0), (hi, -1.0)):
                if blk is None:
                    continue
                r = (blk,) if gravity else (blk, ba.continuum)
                if r in rindex:
                    D[rindex[r], a] = sgn * ba.S
        else:  # interface: div = psi1 - theta psi2 (S = masked psi1 mass)
            blk = ba.key
            D[rindex[(blk, 0)], a] = ba.S
            D[rindex[(blk, 1)], a] = -ba.S

    if not gravity:
        # prescribed inflow through the left boundary edges
        e0 = CoarseEdge("x", 0, 0)
        for r, row in enumerate(rows):
            (I, J), j = row
            if I == 0:
                sel = inflow_labels == j
                f[r] += float(sel.sum()) * fine.hy * (-g_in)
        # fixed outlet pressure enters the velocity equations
        for a, ba in enumerate(bases):
            _, idx, _row = ba.key if ba.kind == "edge" else (None, -1, None)
            if ba.kind == "edge" and idx == coarse.Nx:
                b[a] -= p_out * ba.S

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

    V = {}
    for e in coarse.edges():
        V[e.key()] = np.zeros(n)
    for a, ba in enumerate(bases):
        if ba.kind == "edge":
            V[ba.key][ba.continuum] += u[a] * ba.S
    if not gravity:
        key0 = CoarseEdge("x", 0, 0).key()
        for j in range(n):
            V[key0][j] = float((inflow_labels == j).sum()) * fine.hy * (-g_in)
    return MixedSolution(V=V, P=P, balance_residual=resid)


# --- Galerkin coarse flow ---------------------------------------------


def solve_coarse_flow_galerkin(flow_coarse: CoarseGrid, base_coarse: CoarseGrid,
                               ops: list[EffectiveOperators], n: int,
                               p_in: float, p_out: float) -> tuple:
    """1D block-centered pressure solve on the refined coarse grid.

    Returns (P array (NXf, n) with NaN for absent continua, V dict of
    per-continuum fluxes on the base coarse edges, U per refined block).
    Base-edge velocities average the two adjacent refined-block velocities;
    boundary edges use the one-sided Dirichlet face flux.
    """
    NX = flow_coarse.Nx
    if flow_coarse.Ny != 1 or base_coarse.Ny != 1:
        raise ConfigError("the refined coarse flow model is one-dimensional")
    if NX % base_coarse.Nx:
        raise ConfigError("flow grid does not refine the base coarse grid")
    refine = NX // base_coarse.Nx
    L2 = flow_coarse.fine.L2
    dx = flow_coarse.fine.L1 / NX
    vol = dx * L2

    dof = {}
    for K in range(NX):
        for i in range(n):
            if ops[K].present[i]:
                dof[(K, i)] = len(dof)
    if not dof:
        raise SolverError("no continua present anywhere on the flow grid")
    A = np.zeros((len(dof), len(dof)))
    rhs = np.zeros(len(dof))

    def face_alpha(K, Kn):
        if Kn < 0 or Kn >= NX:
            return ops[K].alpha * 2.0  # half-cell distance to the boundary
        return 0.5 * (ops[K].alpha + ops[Kn].alpha)

    for (K, i), r in dof.items():
        for Kn, pb in ((K - 1, p_in), (K + 1, p_out)):
            al = face_alpha(K, Kn) * L2 / dx
            for j in range(n):
                if not ops[K].present[j]:
                    continue
                if 0 <= Kn < NX:
                    if not ops[Kn].present[j]:
                        # continuum ends at this face: no through-flow;
                        # conversion happens via the exchange terms
                        continue
                    A[r, dof[(K, j)]] += al[i, j]
                    A[r, dof[(Kn, j)]] -= al[i, j]
                else:
                    A[r, dof[(K, j)]] += al[i, j]
                    rhs[r] += al[i, j] * pb
        for j in range(n):
            if ops[K].present[j]:
                A[r, dof[(K, j)]] += vol * ops[K].beta[i, j]

    sol, _norm = _dense_solve(A, rhs, "coarse Galerkin")
    P = np.full((NX, n), np.nan)
    for (K, i), r in dof.items():
        P[K, i] = sol[r]

    def face_flux(Kl, Kr):
        """Per-continuum flux through the face between refined blocks."""
        K = Kl if 0 <= Kl < NX else Kr
        Kn = Kr if K == Kl else Kl
        al = face_alpha(K, Kn) * L2 / dx
        pl = P[Kl] if 0 <= Kl < NX else np.full(n, p_in)
        pr = P[Kr] if 0 <= Kr < NX else np.full(n, p_out)
        dP = pr - pl
        dP[np.isnan(dP)] = 0.0  # continuum ends at this face: no through-flow
        return -(al @ dP)

    U = np.zeros((NX, n))
    for K in range(NX):
        U[K] = 0.5 * (face_flux(K - 1, K) + face_flux(K, K + 1))
    V = {}
    for e in base_coarse.edges():
        if e.orientation != "x":
            V[e.key()] = np.zeros(n)
            continue
        rf = e.index * refine  # refined face index aligned with this edge
        if rf == 0:
            V[e.key()] = face_flux(-1, 0)
        elif rf == NX:
            V[e.key()] = face_flux(NX - 1, NX)
        else:
            V[e.key()] = 0.5 * (U[rf - 1] + U[rf])
    return P, V, U


# --- coarse transport --------------------------------------------------


def coarse_cfl(coarse: CoarseGrid, V: dict, masses: np.ndarray,
               tau: float) -> float:
    """Largest donor-mass fraction any continuum loses in one step."""
    n = masses.shape[2]
    out = np.zeros_like(masses)
    for e in coarse.edges():
        lo, hi = coarse.edge_neighbors(e)
        for k in range(n):
            F = V[e.key()][k] if e.key() in V else 0.0
            donor = lo if F >= 0 else hi
            if donor is None:
                continue
            out[donor[0], donor[1], k] += abs(F)
    nu = np.zeros_like(masses)
    np.divide(out * tau, masses, out=nu, where=masses > 0)
    return float(nu.max())


def step_macro_concentration(coarse: CoarseGrid, C: np.ndarray,
                             masses: np.ndarray, V: dict, tau: float,
                             inflow_conc: np.ndarray | None = None):
    """One Forward-Euler donor-block step of the multicontinuum transport.

    C holds unnormalized continuum concentrations per block; the donor
    value is C/mass of the donor block.  Boundary edges with inflow take
    the per-continuum means ``inflow_conc``.  Returns (C_new, skipped)
    where ``skipped`` lists (edge, continuum) fluxes dropped because the
    donor block lacks the continuum.
    """
    nu = coarse_cfl(coarse, V, masses, tau)
    if nu > 1.0:
        raise InvariantError(
            f"coarse CFL {nu:.3f} > 1; reduce tau to <= {tau / nu:.3e}")
    n = C.shape[2]
    out = C.copy()
    skipped = []
    for e in coarse.edges():
        key = e.key()
        if key not in V:
            continue
        lo, hi = coarse.edge_neighbors(e)
        for k in range(n):
            F = V[key][k]
            if F == 0.0:
                continue
            donor = lo if F >= 0 else hi
            if donor is None:
                if inflow_conc is None:
                    raise InvariantError(
                        f"inflow through {key} without boundary data")
                val = inflow_conc[k]
            else:
                m = masses[donor[0], donor[1], k]
                if m <= 0:
                    skipped.append((key, k))
                    continue
                val = C[donor[0], donor[1], k] / m
            if lo is not None:
                out[lo[0], lo[1], k] -= tau * F * val
            if hi is not None:
                out[hi[0], hi[1], k] += tau * F * val
    return out, skipped


# --- coarse driver -----------------------------------------------------


@dataclass
class CoarseState:
    step: int
    t: float
    C: np.ndarray  # (Nx, Ny, n) unnormalized
    V: dict  # edge key -> (n,)
    P: dict | np.ndarray | None = None
    present: np.ndarray | None = None
    ops: list | None = None  # per-block EffectiveOperators (Galerkin mode)


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


def _edge_labels_by_donor(coarse: CoarseGrid, labels: np.ndarray,
                          snap: Snapshot) -> dict:
    out = {}
    for e in coarse.edges():
        fi, sl = coarse.edge_faces(e)
        flux = (snap.vx if e.orientation == "x" else snap.vy.T)[fi, sl]
        ii, jj = coarse.edge_donor_cells(e, flux)
        out[e.key()] = labels[ii, jj]
    return out


def _galerkin_velocity(model: CoarseModel, lam: np.ndarray,
                       labels: np.ndarray, n: int):
    flow = CoarseGrid(model.coarse.fine, model.coarse.Nx * model.flow_refine,
                      model.coarse.Ny)
    ops = []
    for K in range(flow.Nx):
        ov = oversample_block(flow, (K, 0), model.layers,
                              rule=model.extension_rule)
        lam_l = ov.sample(lam)
        lab_l = ov.sample(labels)
        engine = cells.build_region_engine(ov, lam_l, lab_l, n)
        avg = cells.solve_constrained_elliptic(ov, lam_l, lab_l, n, "average",
                                               engine=engine)
        grad = cells.solve_constrained_elliptic(ov, lam_l, lab_l, n,
                                                "gradient", direction=0,
                                                engine=engine)
        ops.append(assemble_effective(ov, lam_l, lab_l, n, avg, grad))
    P, V, _U = solve_coarse_flow_galerkin(flow, model.coarse, ops, n,
                                          model.p_in, model.p_out)
    return V, P, ops


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
    masses = continuum_masses(labels, coarse, n)
    ref0 = averages(coarse, snap0.p, snap0.c, snap0.vx, snap0.vy, labels, n)
    C = ref0.C.copy()
    states = []
    last = None  # (key, V, P, ops) of the previous homogenized solve
    total_removed = 0.0

    for k in range(steps + 1):
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

        ops = None
        if velocity == "ref":
            V = averages(coarse, snap.p, snap.c, snap.vx, snap.vy,
                         labels, n).V
            P = None
        else:
            # all coarse-flow coefficients, including the buoyancy drive,
            # are rebuilt from the fine snapshot each step; a step whose
            # inputs equal the previous step's reuses its solution
            h = hashlib.blake2b(labels.tobytes())
            h.update(lam.tobytes())
            if model.approach == "mixed-gravity":
                h.update(snap.c.tobytes())
            key = h.digest()
            if last is not None and last[0] == key:
                _, V, P, ops = last
            elif model.approach == "galerkin":
                V, P, ops = _galerkin_velocity(model, lam, labels, n)
            else:
                Cfine = averages(coarse, snap.p, snap.c, snap.vx, snap.vy,
                                 labels, n).C
                Chat = np.zeros_like(Cfine)
                np.divide(Cfine, masses, out=Chat, where=masses > 0)
                elab = _edge_labels_by_donor(coarse, labels, snap)
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
            last = (key, V, P, ops)

        states.append(CoarseState(step=k, t=k * tau, C=C.copy(), V=V, P=P,
                                  present=(masses > 0), ops=ops))
        if k == steps:
            break
        C, skipped = step_macro_concentration(
            coarse, C, masses, V, tau, inflow_conc=model.inflow_conc)
        if skipped:
            log.info("step %d: %d continuum-absent edge fluxes skipped",
                     k, len(skipped))
    if total_removed:
        log.info("total threshold-crossing mass removed: %.3e", total_removed)
    return states
