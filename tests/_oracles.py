"""Independent oracles shared by the unit and acceptance suites."""

import numpy as np
from scipy import sparse

from dynmc import cells
from dynmc.fine import advance_upwind, cfl, solve_flow
from dynmc.continua import classify, ContinuumSpec
from dynmc.exceptions import InvariantError
from dynmc.grids import CoarseGrid, FineGrid, oversample_block
from dynmc.macro import _dense_solve


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


def kkt_bmat(ov, lam_local, labels_local, n):
    """The region KKT matrix [[A, C^T], [C, 0]] through ``sparse.bmat``,
    with C stacked from dense moment rows; also returns C and the
    (region, continuum, mass) of its rows."""
    A = cells.assemble_stiffness(ov.grid, lam_local)
    area = ov.grid.cell_area
    dense, rows = [], []
    for li, reg in enumerate(ov.regions):
        blk = labels_local[reg.sx]
        for j in range(n):
            w = np.zeros((ov.grid.nx, ov.grid.ny))
            w[reg.sx] = (blk == j) * area
            if w.sum() > 0:
                dense.append(w.ravel())
                rows.append((li, j, w.sum()))
    C = sparse.csr_matrix(np.vstack(dense))
    return sparse.bmat([[A, C.T], [C, None]], format="csc"), C, rows


def elliptic_oracle(ov, lam_local, labels_local, n, family):
    """Replays one constrained elliptic family through the dense path."""
    A = cells.assemble_stiffness(ov.grid, lam_local)
    C, rows = cells.region_moment_matrix(ov, labels_local, n)
    centers = None
    if family == "gradient":
        centers = cells.gradient_centers(ov, labels_local, n)
    out = {}
    present = sorted({r.continuum for r in rows})
    for i in present:
        if family == "average":
            b = np.zeros(ov.grid.n_cells)
            g = cells.moment_targets(ov, labels_local, rows, i, "average")
        elif family == "gradient":
            lam_i = lam_local * (labels_local == i)
            b = cells.gradient_boundary_source(ov.grid, lam_i).ravel()
            g = cells.moment_targets(ov, labels_local, rows, i, "gradient",
                                     centers)
        else:
            psi = (labels_local == i).astype(float)
            mass = psi[ov.central.sx].sum() * ov.grid.cell_area
            s = psi / mass if mass > 0 else psi
            b = cells.gravity_volume_source(ov.grid, lam_local, s).ravel()
            g = np.zeros(len(rows))
        u, _mu = dense_kkt_solve(A, C, b, g)
        out[i] = u.reshape(ov.grid.nx, ov.grid.ny)
    return out, rows


def moment_residuals(ov, labels_local, rows, basis_continuum, field,
                     family, centers=None):
    """Achieved region moments minus their targets, one value per row."""
    area = ov.grid.cell_area
    coord = ov.grid.cell_centers()[0]
    res = []
    for row in rows:
        reg = ov.regions[row.region]
        sel = labels_local[reg.sx] == row.continuum
        got = (field[reg.sx] * sel).sum() * area
        if row.continuum != basis_continuum:
            target = 0.0
        elif family == "average":
            target = row.mass
        else:
            x = coord[reg.sx]
            target = ((x - centers[row.continuum]) * sel).sum() * area
        res.append(got - target)
    return np.array(res)


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
        p, vx, vy = solve_flow(grid, lam_of(c), c, bc, gravity_on)
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
    """SSP-RK3 particle step on whole arrays; returns the new (x, y)."""

    def vel(x, y):
        return interp_velocity_whole(grid, vx, vy, x, y)

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
