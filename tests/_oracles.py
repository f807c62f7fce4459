"""Independent oracles shared by the unit and acceptance suites."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from dynmc import cells
from dynmc.fine import (SPLU_OPTIONS, FlowLoad, _reflect, _side_values,
                        advance_upwind, cfl, check_residual, interp_velocity,
                        pressure_diagonal, solve_flow, transmissibilities)
from dynmc.continua import classify, continuum_masses, ContinuumSpec
from dynmc.exceptions import InvariantError, SolverError
from dynmc.grids import CoarseGrid, FineGrid, oversample_block
from dynmc.macro import (MixedSolution, _block_face_quadrature, _dense_solve,
                         _face_indicator_x, _faces)


def random_partition_region(nx, ny, blocks_x, seed, contrast, thresholds):
    """An oversampled region covering a randomized labeled grid.

    Returns (ov, lam_local, labels_local, n) for the central block with one
    oversampling layer (the window spans the whole grid).
    """
    rng = np.random.Generator(np.random.Philox(seed))
    fine = FineGrid(nx, ny, float(nx), float(ny))
    coarse = CoarseGrid(fine, blocks_x)
    c = rng.random((nx, ny))
    spec = ContinuumSpec(thresholds)
    labels = classify(c, spec)
    lam = np.where(rng.random((nx, ny)) < 0.5, float(contrast), 1.0)
    ov = oversample_block(coarse, blocks_x // 2, 1, rule="none")
    return ov, ov.sample(lam), ov.sample(labels), spec.count


def dense_kkt_solve(A, C, b, g):
    """Dense factorization of the same saddle system [[A, C^T], [C, 0]]."""
    Ad = np.asarray(A.todense())
    Cd = np.asarray(C.todense())
    n, m = Ad.shape[0], Cd.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = Ad
    K[:n, n:] = Cd.T
    K[n:, :n] = Cd
    sol = np.linalg.solve(K, np.concatenate([b, g]))
    return sol[:n], sol[n:]


@dataclass
class SaddleSolution:
    u: np.ndarray  # (n_cells,) flattened (nx, ny)
    multipliers: np.ndarray
    residuals: np.ndarray  # achieved constraint residuals Cu - g


class SaddleSolver:
    """Factorized KKT system [A C^T; C 0] reusable across right-hand sides:
    the monolithic region solve that the block-substructured engine
    replaced, kept as its oracle.

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


def assemble_stiffness_coo(grid, lam):
    """The pure-Neumann TPFA stiffness from COO triplets, duplicates summed
    by ``tocsr``: the oracle of the five-point stencil build of
    ``fine.StencilLayout``."""
    tx, ty = transmissibilities(grid, lam)
    nx, ny = grid.nx, grid.ny
    idx = np.arange(nx * ny).reshape(nx, ny)
    rows, cols, vals = [], [], []

    def add(r, cl, v):
        rows.append(r.ravel())
        cols.append(cl.ravel())
        vals.append(v.ravel())

    # interior x-faces couple (i-1,j)-(i,j), y-faces (i,j-1)-(i,j)
    add(idx[:-1, :], idx[:-1, :], tx)
    add(idx[1:, :], idx[1:, :], tx)
    add(idx[:-1, :], idx[1:, :], -tx)
    add(idx[1:, :], idx[:-1, :], -tx)
    add(idx[:, :-1], idx[:, :-1], ty)
    add(idx[:, 1:], idx[:, 1:], ty)
    add(idx[:, :-1], idx[:, 1:], -ty)
    add(idx[:, 1:], idx[:, :-1], -ty)
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nx * ny, nx * ny)).tocsr()


def flow_operator_coo(grid, lam, pressure):
    """The ``fine.solve_flow`` matrix from :func:`assemble_stiffness_coo`:
    plus the pressure diagonal of the ``pressure`` sides, or, with none,
    gauged by overwriting row 0 in the CSR arrays and dropping its zeros (a
    one-cell grid, which stores no entry, as the 1x1 identity)."""
    A = assemble_stiffness_coo(grid, lam)
    if pressure:
        return A + sparse.diags(pressure_diagonal(grid, lam, pressure).ravel())
    if A.nnz == 0:
        A = sparse.identity(1, format="csr")
    row0 = slice(A.indptr[0], A.indptr[1])
    A.data[row0] = np.where(A.indices[row0] == 0, 1.0, 0.0)
    A.eliminate_zeros()
    return A


def piece_kkt_bmat(grid_b, lam_b, labels_b, n):
    """One block's interior KKT [[A_b + D_b, C_b^T], [C_b, 0]] through
    ``sparse.bmat``, with D_b from the pressure diagonal of its left and
    right sides and C_b stacked from dense moment rows."""
    A = assemble_stiffness_coo(grid_b, lam_b) + sparse.diags(
        pressure_diagonal(grid_b, lam_b, ("left", "right")).ravel())
    dense = [(labels_b == j).ravel() * grid_b.cell_area for j in range(n)
             if (labels_b == j).any()]
    C = sparse.csr_matrix(np.vstack(dense))
    return sparse.bmat([[A, C.T], [C, None]], format="csc")


class KKTRow(NamedTuple):
    """One moment row of :func:`kkt_bmat`: block ``region`` of the
    oversampled region, ``continuum`` and its mass (count * cell area)."""

    region: int
    continuum: int
    mass: float


def kkt_bmat(ov, lam_local, labels_local, n):
    """The region KKT matrix [[A, C^T], [C, 0]] through ``sparse.bmat``,
    with C stacked from dense moment rows, one per (block, continuum)
    present; also returns C and its rows as :class:`KKTRow`."""
    A = assemble_stiffness_coo(ov.grid, lam_local)
    area = ov.grid.cell_area
    dense, rows = [], []
    for li, reg in enumerate(ov.regions):
        blk = labels_local[reg.sx]
        for j in range(n):
            count = np.count_nonzero(blk == j)
            if count:
                w = np.zeros((ov.grid.nx, ov.grid.ny))
                w[reg.sx] = (blk == j) * area
                dense.append(w.ravel())
                rows.append(KKTRow(li, j, count * area))
    C = sparse.csr_matrix(np.vstack(dense))
    return sparse.bmat([[A, C.T], [C, None]], format="csc"), C, rows


def oracle_targets(ov, labels_local, rows, i, family, centers=None):
    """Moment targets of continuum i's basis on ``rows``: delta_ij m_jl
    (average) or delta_ij int (x - x~_j) psi_j over block l (gradient)."""
    g = np.zeros(len(rows))
    for r, row in enumerate(rows):
        if row.continuum != i:
            continue
        if family == "average":
            g[r] = row.mass
        else:
            reg = ov.regions[row.region]
            sel = labels_local[reg.sx] == i
            x = ov.x_centers[reg.sx]
            g[r] = ((x - centers[i]) * sel).sum() * ov.grid.cell_area
    return g


def elliptic_oracle(ov, lam_local, labels_local, n, family, kkt="dense"):
    """Replays one constrained elliptic family through the monolithic
    region KKT: a dense solve (``kkt="dense"``), or ``kkt_bmat`` factored
    with the splu recipe and one step of iterative refinement
    (``kkt="splu"``; unrefined, that solve is up to 5e-12 relative from its
    refined one on the desk interface regions).  The moment rows and
    targets come from ``kkt_bmat``, none from the engine's row index."""
    A = assemble_stiffness_coo(ov.grid, lam_local)
    K, C, rows = kkt_bmat(ov, lam_local, labels_local, n)
    if kkt == "splu":
        lu = splu(K, **SPLU_OPTIONS)
    centers = None
    if family == "gradient":
        centers = cells.gradient_centers(ov, labels_local, n)
    out = {}
    present = sorted({r.continuum for r in rows})
    for i in present:
        if family == "average":
            b = np.zeros(ov.grid.n_cells)
            g = oracle_targets(ov, labels_local, rows, i, "average")
        elif family == "gradient":
            lam_i = lam_local * (labels_local == i)
            b = cells.gradient_boundary_source(ov.grid, lam_i).ravel()
            g = oracle_targets(ov, labels_local, rows, i, "gradient",
                               centers)
        else:
            psi = (labels_local == i).astype(float)
            mass = psi[ov.central.sx].sum() * ov.grid.cell_area
            s = psi / mass if mass > 0 else psi
            b = cells.gravity_volume_source(ov.grid, lam_local, s).ravel()
            g = np.zeros(len(rows))
        if kkt == "splu":
            rhs = np.concatenate([b, g])
            x = lu.solve(rhs)
            u = (x + lu.solve(rhs - K @ x))[:ov.grid.n_cells]
        else:
            u, _mu = dense_kkt_solve(A, C, b, g)
        out[i] = u.reshape(ov.grid.nx, ov.grid.ny)
    return out, rows


def moment_residuals(ov, labels_local, rows, basis_continuum, field,
                     family, centers=None):
    """Achieved region moments minus their :func:`oracle_targets`, one
    value per row."""
    got = np.zeros(len(rows))
    for r, row in enumerate(rows):
        sx = ov.regions[row.region].sx
        sel = labels_local[sx] == row.continuum
        got[r] = (field[sx] * sel).sum() * ov.grid.cell_area
    return got - oracle_targets(ov, labels_local, rows, basis_continuum,
                                family, centers)


def coarse_cfl_loops(coarse, V, masses, tau):
    """Per-edge, per-continuum loop form of ``macro.coarse_cfl``."""
    n = masses.shape[1]
    out = np.zeros_like(masses)
    for I in range(coarse.Nx + 1):
        lo, hi = coarse.edge_neighbors(I)
        for k in range(n):
            F = V[I, k]
            donor = lo if F >= 0 else hi
            if donor is None:
                continue
            out[donor, k] += abs(F)
    nu = np.zeros_like(masses)
    np.divide(out * tau, masses, out=nu, where=masses > 0)
    return float(nu.max())


def step_macro_concentration_loops(coarse, C, masses, V, tau,
                                   inflow_conc=None):
    """Per-edge, per-continuum loop form of
    ``macro.step_macro_concentration`` after its CFL guard."""
    n = C.shape[1]
    out = C.copy()
    skipped = np.zeros(V.shape, dtype=bool)
    for I in range(coarse.Nx + 1):
        lo, hi = coarse.edge_neighbors(I)
        for k in range(n):
            F = V[I, k]
            if F == 0.0:
                continue
            donor = lo if F >= 0 else hi
            if donor is None:
                if inflow_conc is None:
                    raise InvariantError(
                        f"inflow through edge {I} without boundary data")
                val = inflow_conc[k]
            else:
                m = masses[donor, k]
                if m <= 0:
                    skipped[I, k] = True
                    continue
                val = C[donor, k] / m
            if lo is not None:
                out[lo, k] -= tau * F * val
            if hi is not None:
                out[hi, k] += tau * F * val
    return out, skipped


def galerkin_loops(flow_coarse, base_coarse, ops, n, p_in, p_out):
    """Per-(block, continuum) loop form of
    ``macro.solve_coarse_flow_galerkin``: the same (P, V, U)."""
    NX = flow_coarse.Nx
    refine = NX // base_coarse.Nx
    L2 = flow_coarse.fine.L2
    dx = flow_coarse.fine.L1 / NX
    vol = dx * L2

    dof = {}
    for K in range(NX):
        for i in range(n):
            if ops[K].present[i]:
                dof[(K, i)] = len(dof)
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
        K = Kl if 0 <= Kl < NX else Kr
        Kn = Kr if K == Kl else Kl
        al = face_alpha(K, Kn) * L2 / dx
        pl = P[Kl] if 0 <= Kl < NX else np.full(n, p_in)
        pr = P[Kr] if 0 <= Kr < NX else np.full(n, p_out)
        dP = pr - pl
        dP[np.isnan(dP)] = 0.0
        return -(al @ dP)

    U = np.zeros((NX, n))
    for K in range(NX):
        U[K] = 0.5 * (face_flux(K - 1, K) + face_flux(K, K + 1))
    V = np.empty((base_coarse.Nx + 1, n))
    V[0] = face_flux(-1, 0)
    V[1:-1] = 0.5 * (U[refine - 1:NX - 1:refine] + U[refine:NX:refine])
    V[-1] = face_flux(NX - 1, NX)
    return P, V, U


def mixed_loops(coarse, lam, labels, n, Chat, edge_labels, variant,
                g_in=None, p_out=None, inflow_labels=None):
    """Per-basis form of ``macro.solve_coarse_flow_mixed``: each basis keeps
    a support dict (block -> faces), every block scans all bases for its
    Gram block, and D is filled in a second loop over the bases."""
    gravity = variant == "gravity"
    area = coarse.fine.cell_area
    edges = range(1, coarse.Nx if gravity else coarse.Nx + 1)
    bases, items, homes = [], [], []  # bases: [edge, continuum, S, support]
    for I in edges:
        for i in range(n):
            S, _src, loads = cells.edge_flux_loads(
                coarse, I, labels, i, edge_labels[I],
                "uniform" if gravity else "psi")
            if loads:
                bases.append([I, i, S, {}])
            for blk, load in loads:
                items.append((blk, load))
                homes.append((bases[-1][3], blk))
    gravity_support, inflow_supports = {}, []
    for blk in coarse.blocks():
        if gravity:
            for i in range(n):
                load = cells.gravity_load(coarse, blk, labels, i)
                if load is not None:
                    items.append((blk, load))
                    homes.append((gravity_support, (blk, i)))
            continue
        found = cells.interface_load(coarse, blk, labels)
        if found is not None:
            m1 = float(found[1].f.clip(min=0.0).sum()) * area
            bases.append([None, None, m1, {}])
            items.append((blk, found[1]))
            homes.append((bases[-1][3], blk))
    if not gravity:
        for i in range(n):
            _S, _src, loads = cells.edge_flux_loads(
                coarse, 0, labels, i, inflow_labels, "psi")
            if loads:
                inflow_supports.append({})
            for blk, load in loads:
                items.append((blk, load))
                homes.append((inflow_supports[-1], blk))
    for (home, key), (_p, fx, fy) in zip(
            homes, cells.solve_block_loads(coarse, lam, items)):
        home[key] = _faces(fx, fy)

    nb = len(bases)
    M = np.zeros((nb, nb))
    b = np.zeros(nb)
    for blk in coarse.blocks():
        here = [a for a in range(nb) if blk in bases[a][3]]
        if not here:
            continue
        sx = coarse.block_slice(blk)
        wx, w = _block_face_quadrature(coarse, lam[sx])
        F = np.array([bases[a][3][blk] for a in here])
        M[np.ix_(here, here)] += (F * w) @ F.T
        zero = np.zeros_like(w)
        if gravity:
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
    for a, (edge, i, S, support) in enumerate(bases):
        if edge is None:
            (I,) = support
            D[row_of[I, 0], a], D[row_of[I, 1], a] = S, -S
            continue
        for I, sgn in ((edge - 1, 1.0), (edge, -1.0)):
            if 0 <= I < coarse.Nx and row_of[I, i] >= 0:
                D[row_of[I, i], a] = sgn * S
        if not gravity and edge == coarse.Nx:
            b[a] -= p_out * S

    V = np.zeros((coarse.Nx + 1, n))
    if not gravity:
        V[0] = (np.bincount(inflow_labels, minlength=n)[:n] * coarse.fine.hy
                * (-g_in))
        f[row_of[0, present[0]]] = V[0, present[0]]
    live = np.abs(D).max(axis=1) > 1e-13
    for row, ok, fr in zip(rows, live, f):
        if not ok and abs(fr) > 1e-12:
            raise SolverError(f"balance row {row} has data but no basis")
    D, f = D[live], f[live]
    rows = [row for row, ok in zip(rows, live) if ok]
    if gravity:
        D, f, rows = D[:-1], f[:-1], rows[:-1]
    m = len(rows)
    K = np.zeros((nb + m, nb + m))
    K[:nb, :nb] = M
    K[:nb, nb:] = D.T
    K[nb:, :nb] = D
    rhs = np.concatenate([b, f])
    sol, norm = _dense_solve(K, rhs, "coarse mixed")
    u = sol[:nb]
    resid = float(np.abs(D @ u - f).max()) if m else 0.0
    check_residual("coarse mixed balance", resid, norm, sol, rhs)
    on_edge = [a for a in range(nb) if bases[a][0] is not None]
    V[[bases[a][0] for a in on_edge],
      [bases[a][1] for a in on_edge]] += [u[a] * bases[a][2] for a in on_edge]
    return MixedSolution(V=V, P={r: -mu for r, mu in zip(rows, sol[nb:])},
                         balance_residual=resid)


def continuum_masses_loops(labels, coarse, n):
    """Per-block, per-continuum cell count form of
    ``continua.continuum_masses``."""
    out = np.zeros((coarse.Nx, n))
    for I in coarse.blocks():
        blk = labels[coarse.block_slice(I)]
        for k in range(n):
            out[I, k] = np.count_nonzero(blk == k) * coarse.fine.cell_area
    return out


def run_fine_upwind_unmemoized(grid, lam_of, c0, tau, steps, bc, gravity_on,
                               inflow_c=None):
    """The fine upwind loop with a fresh flow solve at every step.

    Returns the (p, vx, vy, c) of steps 0..steps and the largest CFL.
    """
    c, states, worst = c0.copy(), [], 0.0
    for n in range(steps + 1):
        [(p, vx, vy)] = solve_flow(
            grid, lam_of(c), [FlowLoad(c if gravity_on else None, bc)])
        worst = max(worst, cfl(grid, vx, vy, tau))
        states.append((p, vx, vy, c))
        if n < steps:
            c = advance_upwind(grid, c, vx, vy, tau, inflow_c=inflow_c)
    return states, worst


def interp_velocity_whole(grid, vx, vy, px, py):
    """Whole-array clamped bilinear interpolation of the staggered field,
    one temporary per operation (the reference of the chunked kernel)."""

    def bilin(arr, gx, gy, nx_nodes, ny_nodes):
        gx = np.clip(gx, 0.0, nx_nodes - 1.0)
        gy = np.clip(gy, 0.0, ny_nodes - 1.0)
        i0 = np.minimum(gx.astype(int), nx_nodes - 2)
        j0 = np.minimum(gy.astype(int), ny_nodes - 2)
        fx = gx - i0
        fy = gy - j0
        flat = arr.ravel()
        k = i0 * ny_nodes + j0
        return ((1 - fx) * (1 - fy) * flat.take(k)
                + fx * (1 - fy) * flat.take(k + ny_nodes)
                + (1 - fx) * fy * flat.take(k + 1)
                + fx * fy * flat.take(k + ny_nodes + 1))

    ux = bilin(vx, (px - grid.x0) / grid.hx, (py - grid.y0) / grid.hy - 0.5,
               grid.nx + 1, grid.ny)
    uy = bilin(vy, (px - grid.x0) / grid.hx - 0.5, (py - grid.y0) / grid.hy,
               grid.nx, grid.ny + 1)
    return ux, uy


def _midpoints(v, axis, lo, hi):
    """0.5 (v[lo] + v[hi]) along ``axis``, whole arrays."""
    return 0.5 * (np.take(v, lo, axis=axis) + np.take(v, hi, axis=axis))


def velocity_table_whole(grid, vx, vy):
    """The quarter-cell tables (A, B, C, D) of ``fine.velocity_table``, each
    (2 nx + 1, 2 ny + 1) complex.

    Half node m of an axis lies between the node positions floor and ceil
    of (m - shift) / 2, clamped to the node range: shift 1 on the axis
    where the component's nodes sit at half cells, 0 on the other.  Every
    half-node value is the mean of those two nodes, equal ones included;
    vx is averaged along y first, vy along x first.  The tables are
    differences of the half-node values padded by their last row and
    column, which makes B, C and D zero on the top and right walls.
    """
    nx, ny = grid.nx, grid.ny

    def ends(count, shift, nodes):
        m = np.arange(count) - shift
        return (np.clip(np.floor(m / 2), 0, nodes - 1).astype(int),
                np.clip(np.ceil(m / 2), 0, nodes - 1).astype(int))

    ux = _midpoints(vx, 1, *ends(2 * ny + 1, 1, ny))
    ux = _midpoints(ux, 0, *ends(2 * nx + 1, 0, nx + 1))
    uy = _midpoints(vy, 0, *ends(2 * nx + 1, 1, nx))
    uy = _midpoints(uy, 1, *ends(2 * ny + 1, 0, ny + 1))
    W = ux + 1j * uy
    Wp = np.pad(W, ((0, 1), (0, 1)), mode="edge")
    B = Wp[1:, :-1] - Wp[:-1, :-1]
    C = Wp[:-1, 1:] - Wp[:-1, :-1]
    D = (Wp[1:, 1:] - Wp[1:, :-1]) - (Wp[:-1, 1:] - Wp[:-1, :-1])
    return W, B, C, D


def interp_velocity_table_whole(grid, vx, vy, px, py):
    """The quarter-cell table formula on whole arrays, one temporary per
    operation (the reference of the chunked kernel ``fine.interp_velocity``).

    Positions are clamped to the domain in half-cell units; each lies in
    quarter cell (trunc t, trunc s) at offsets (sx, sy), and its velocity is
    ((D sy + B) sx + C sy) + A, x in the real and y in the imaginary part.
    """
    A, B, C, D = velocity_table_whole(grid, vx, vy)
    t = np.clip((px - grid.x0) * (2.0 / grid.hx), 0.0, 2.0 * grid.nx)
    s = np.clip((py - grid.y0) * (2.0 / grid.hy), 0.0, 2.0 * grid.ny)
    a, b = np.trunc(t), np.trunc(s)
    sx, sy = t - a, s - b
    k = (a * (2 * grid.ny + 1) + b).astype(int)
    A, B, C, D = (T.ravel().take(k) for T in (A, B, C, D))
    u = ((D * sy + B) * sx + C * sy) + A
    return u.real.copy(), u.imag.copy()


def reflect_whole(grid, x, y):
    """Mirror at the walls with four full-array passes."""
    x1, x2 = grid.x0, grid.x0 + grid.L1
    y1, y2 = grid.y0, grid.y0 + grid.L2
    x = np.where(x < x1, 2 * x1 - x, x)
    x = np.where(x > x2, 2 * x2 - x, x)
    y = np.where(y < y1, 2 * y1 - y, y)
    y = np.where(y > y2, 2 * y2 - y, y)
    return x, y


def advance_particles_whole(grid, x0, y0, vx, vy, tau):
    """SSP-RK3 particle step on whole arrays through the quarter-cell table
    formula; returns the new (x, y)."""

    def vel(x, y):
        return interp_velocity_table_whole(grid, vx, vy, x, y)

    u1, v1 = vel(x0, y0)
    x1, y1 = reflect_whole(grid, x0 + tau * u1, y0 + tau * v1)
    u2, v2 = vel(x1, y1)
    x2 = 0.75 * x0 + 0.25 * (x1 + tau * u2)
    y2 = 0.75 * y0 + 0.25 * (y1 + tau * v2)
    x2, y2 = reflect_whole(grid, x2, y2)
    u3, v3 = vel(x2, y2)
    xn = x0 / 3.0 + 2.0 / 3.0 * (x2 + tau * u3)
    yn = y0 / 3.0 + 2.0 / 3.0 * (y2 + tau * v3)
    return reflect_whole(grid, xn, yn)


def advance_upwind_sides(grid, c, vx, vy, tau, inflow_c=None):
    """``fine.advance_upwind`` after its CFL guard, one block per side."""
    inflow_c = inflow_c or {}
    nx, ny = grid.nx, grid.ny
    cxd = np.empty((nx + 1, ny))
    cxd[1:-1, :] = np.where(vx[1:-1, :] >= 0, c[:-1, :], c[1:, :])
    left = inflow_c.get("left")
    cxd[0, :] = np.where(vx[0, :] > 0,
                         _side_values(left, ny) if left is not None
                         else c[0, :], c[0, :])
    right = inflow_c.get("right")
    cxd[-1, :] = np.where(vx[-1, :] < 0,
                          _side_values(right, ny) if right is not None
                          else c[-1, :], c[-1, :])
    cyd = np.empty((nx, ny + 1))
    cyd[:, 1:-1] = np.where(vy[:, 1:-1] >= 0, c[:, :-1], c[:, 1:])
    bottom = inflow_c.get("bottom")
    cyd[:, 0] = np.where(vy[:, 0] > 0,
                         _side_values(bottom, nx) if bottom is not None
                         else c[:, 0], c[:, 0])
    top = inflow_c.get("top")
    cyd[:, -1] = np.where(vy[:, -1] < 0,
                          _side_values(top, nx) if top is not None
                          else c[:, -1], c[:, -1])
    fx = vx * cxd
    fy = vy * cyd
    return c - tau / grid.cell_area * (
        (fx[1:, :] - fx[:-1, :]) * grid.hy + (fy[:, 1:] - fy[:, :-1]) * grid.hx)


def advect_labels_retrace(grid, labels0, velocity_history, tau, substeps=1):
    """``continua.advect_labels`` re-tracing every output time from the cell
    centres through the whole history: n(n+1) interpolations per substep."""
    x1, x2 = grid.x0, grid.x0 + grid.L1
    y1, y2 = grid.y0, grid.y0 + grid.L2
    xg, yg = grid.cell_centers()
    out = [labels0.copy()]
    h = tau / substeps
    for n in range(len(velocity_history)):
        px, py = xg.copy(), yg.copy()
        for m in range(n, -1, -1):
            vx, vy = velocity_history[m]
            for _ in range(substeps):
                ux, uy = interp_velocity(grid, vx, vy, px, py)
                xm, ym = px - 0.5 * h * ux, py - 0.5 * h * uy
                _reflect(grid, xm, ym)
                xm, ym = np.clip(xm, x1, x2), np.clip(ym, y1, y2)
                ux, uy = interp_velocity(grid, vx, vy, xm, ym)
                px, py = px - h * ux, py - h * uy
                _reflect(grid, px, py)
                px, py = np.clip(px, x1, x2), np.clip(py, y1, y2)
        ii = np.clip(((px - grid.x0) / grid.hx).astype(int), 0, grid.nx - 1)
        jj = np.clip(((py - grid.y0) / grid.hy).astype(int), 0, grid.ny - 1)
        out.append(labels0[ii, jj])
    return out
