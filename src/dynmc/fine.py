"""Fine-scale reference solvers.

Cell-centered two-point flux Darcy flow with gravity, donor-cell upwind
transport, and an optional particle advection scheme with clamped mean
deposition.  All face arrays follow the staggered layout of
:mod:`dynmc.grids`.  The TPFA operator (stiffness, gravity source,
pure-Neumann gauge and factorization) lives here only; the cell problems
reuse it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.ndimage import distance_transform_edt
from scipy.sparse.linalg import splu

from .exceptions import ConfigError, InvariantError, SolverError
from .grids import FineGrid

SIDES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class FlowBC:
    """Boundary condition per side: ('noflow',), ('flux', g), ('pressure', p).

    Flux values are outward normal flux densities; arrays must match the
    side's face count.
    """

    left: tuple = ("noflow",)
    right: tuple = ("noflow",)
    bottom: tuple = ("noflow",)
    top: tuple = ("noflow",)

    def side(self, name: str) -> tuple:
        return getattr(self, name)

    @property
    def has_dirichlet(self) -> bool:
        return any(self.side(s)[0] == "pressure" for s in SIDES)


def _side_values(spec, n) -> np.ndarray:
    v = np.asarray(spec, dtype=float)
    if v.ndim == 0:
        return np.full(n, float(v))
    if v.shape != (n,):
        raise ConfigError(f"boundary value shape {v.shape} != ({n},)")
    return v


def harmonic_face_mobility(lam: np.ndarray):
    """Harmonic means on interior x- and y-faces."""
    lx = 2.0 * lam[:-1, :] * lam[1:, :] / (lam[:-1, :] + lam[1:, :])
    ly = 2.0 * lam[:, :-1] * lam[:, 1:] / (lam[:, :-1] + lam[:, 1:])
    return lx, ly


# --- TPFA operator -----------------------------------------------------


def transmissibilities(grid: FineGrid, lam: np.ndarray):
    """Interior-face transmissibilities (harmonic mobility)."""
    lamx, lamy = harmonic_face_mobility(lam)
    return lamx * grid.hy / grid.hx, lamy * grid.hx / grid.hy


def assemble_stiffness(grid: FineGrid, lam: np.ndarray) -> sparse.csr_matrix:
    """Pure-Neumann TPFA stiffness (SPSD, constants in the null space)."""
    if np.any(lam <= 0):
        raise ConfigError("mobility must be positive")
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


def gravity_volume_source(grid: FineGrid, lam: np.ndarray,
                          s: np.ndarray) -> np.ndarray:
    """Weak-form RHS of the buoyancy term div(lam s e1), interior faces."""
    lamx, _ = harmonic_face_mobility(lam)
    sx = 0.5 * (s[:-1, :] + s[1:, :])
    g = lamx * sx * grid.hy
    b = np.zeros((grid.nx, grid.ny))
    b[1:, :] += g
    b[:-1, :] -= g
    return b


def solve_flow(grid: FineGrid, lam: np.ndarray, c: np.ndarray,
               bc: FlowBC | None = None, gravity_on: bool = True,
               f: np.ndarray | None = None):
    """Solve -div(lam (grad p - c e1)) = f; return (p, vx, vy).

    Face flux density is -lam_face (dp/dn - c_face [x-face]) with harmonic
    lam_face and arithmetic c_face.  Pure-Neumann problems are gauged by
    pinning cell (0,0) after a compatibility check.
    """
    bc = bc or FlowBC()
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    if lam.shape != (nx, ny):
        raise ConfigError(f"lam shape {lam.shape} != grid {(nx, ny)}")
    A = assemble_stiffness(grid, lam)
    rhs = np.zeros((nx, ny)) if f is None else f * grid.cell_area
    if gravity_on:
        rhs += gravity_volume_source(grid, lam, c)

    # side -> (boundary cells, normal spacing, face length, x-normal sign)
    sides = {"left": (np.s_[0, :], hx, hy, -1.0),
             "right": (np.s_[-1, :], hx, hy, +1.0),
             "bottom": (np.s_[:, 0], hy, hx, 0.0),
             "top": (np.s_[:, -1], hy, hx, 0.0)}
    diag_extra = np.zeros((nx, ny))
    for side in SIDES:
        kind = bc.side(side)[0]
        if kind == "noflow":
            continue
        sl, h, ln, gsgn = sides[side]
        if kind == "flux":
            rhs[sl] -= _side_values(bc.side(side)[1], rhs[sl].size) * ln
        elif kind == "pressure":
            pb = _side_values(bc.side(side)[1], rhs[sl].size)
            tb = 2.0 * lam[sl] * ln / h
            diag_extra[sl] += tb
            rhs[sl] += tb * pb
            if gravity_on and gsgn != 0.0:
                # outgoing gravity flux lam*c*(n.e1) at the boundary face
                rhs[sl] -= gsgn * lam[sl] * c[sl] * ln
        else:
            raise ConfigError(f"unknown BC kind {kind!r} on {side}")
    if np.any(diag_extra):
        A = A + sparse.diags(diag_extra.ravel())

    rhs = rhs.ravel()
    if not bc.has_dirichlet:
        scale = max(np.abs(rhs).max(), 1.0)
        if abs(rhs.sum()) > 1e-9 * scale * nx * ny:
            raise SolverError(
                f"pure-Neumann flow problem is incompatible: net source "
                f"{rhs.sum():.3e}")
        # gauge: row 0 becomes the identity row, in place in the CSR arrays
        if A.nnz == 0:  # a one-cell grid has no face entries to overwrite
            A = sparse.identity(1, format="csr")
        row0 = slice(A.indptr[0], A.indptr[1])
        A.data[row0] = np.where(A.indices[row0] == 0, 1.0, 0.0)
        A.eliminate_zeros()
        rhs[0] = 0.0

    lu = splu(A.tocsc())
    p_vec = lu.solve(rhs)
    # one step of iterative refinement: high-contrast lam amplifies the
    # factorization roundoff into spurious face fluxes otherwise
    p_vec += lu.solve(rhs - A @ p_vec)
    p = p_vec.reshape(nx, ny)
    vx, vy = flux_from_pressure(grid, p, lam, c, bc, gravity_on)
    return p, vx, vy


def flux_from_pressure(grid: FineGrid, p: np.ndarray, lam: np.ndarray,
                       c: np.ndarray, bc: FlowBC, gravity_on: bool):
    """Face flux densities consistent with :func:`solve_flow`."""
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    lamx, lamy = harmonic_face_mobility(lam)
    vx, vy = grid.zero_faces()
    dpx = (p[1:, :] - p[:-1, :]) / hx
    if gravity_on:
        dpx = dpx - 0.5 * (c[:-1, :] + c[1:, :])
    vx[1:-1, :] = -lamx * dpx
    vy[:, 1:-1] = -lamy * (p[:, 1:] - p[:, :-1]) / hy

    for side in SIDES:
        kind = bc.side(side)[0]
        if kind == "noflow":
            continue
        if kind == "flux":
            if side == "left":
                vx[0, :] = -_side_values(bc.side(side)[1], ny)
            elif side == "right":
                vx[-1, :] = _side_values(bc.side(side)[1], ny)
            elif side == "bottom":
                vy[:, 0] = -_side_values(bc.side(side)[1], nx)
            else:
                vy[:, -1] = _side_values(bc.side(side)[1], nx)
        else:  # pressure
            if side == "left":
                pb = _side_values(bc.side(side)[1], ny)
                g = c[0, :] if gravity_on else 0.0
                vx[0, :] = -lam[0, :] * ((p[0, :] - pb) / (hx / 2) - g)
            elif side == "right":
                pb = _side_values(bc.side(side)[1], ny)
                g = c[-1, :] if gravity_on else 0.0
                vx[-1, :] = -lam[-1, :] * ((pb - p[-1, :]) / (hx / 2) - g)
            elif side == "bottom":
                pb = _side_values(bc.side(side)[1], nx)
                vy[:, 0] = -lam[:, 0] * (p[:, 0] - pb) / (hy / 2)
            else:
                pb = _side_values(bc.side(side)[1], nx)
                vy[:, -1] = -lam[:, -1] * (pb - p[:, -1]) / (hy / 2)
    return vx, vy


def divergence(grid: FineGrid, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """Cell-integrated discrete divergence of a face flux field."""
    return ((vx[1:, :] - vx[:-1, :]) * grid.hy
            + (vy[:, 1:] - vy[:, :-1]) * grid.hx)


def cfl(grid: FineGrid, vx: np.ndarray, vy: np.ndarray, tau: float) -> float:
    """tau/h * max cell-reconstructed |v| with h the cell diameter."""
    vcx = 0.5 * (vx[:-1, :] + vx[1:, :])
    vcy = 0.5 * (vy[:, :-1] + vy[:, 1:])
    vmax = np.sqrt(vcx ** 2 + vcy ** 2).max()
    h = float(np.hypot(grid.hx, grid.hy))
    return tau / h * float(vmax)


def advance_upwind(grid: FineGrid, c: np.ndarray, vx: np.ndarray,
                   vy: np.ndarray, tau: float,
                   inflow_c: dict | None = None) -> np.ndarray:
    """One donor-cell step of c_t + div(v c) = 0.

    ``inflow_c`` maps side names to the concentration carried by entering
    boundary fluxes; sides without a value reuse the adjacent cell.
    """
    nu = cfl(grid, vx, vy, tau)
    if nu > 1.0:
        raise InvariantError(
            f"CFL {nu:.3f} > 1; reduce tau to <= {tau / nu:.3e}")
    if nu > 0.9:
        warnings.warn(f"CFL {nu:.3f} close to the stability limit")
    inflow_c = inflow_c or {}
    nx, ny = grid.nx, grid.ny

    cxd = np.empty((nx + 1, ny))
    cxd[1:-1, :] = np.where(vx[1:-1, :] >= 0, c[:-1, :], c[1:, :])
    left = inflow_c.get("left")
    cxd[0, :] = np.where(vx[0, :] > 0,
                         _side_values(left, ny) if left is not None else c[0, :],
                         c[0, :])
    right = inflow_c.get("right")
    cxd[-1, :] = np.where(vx[-1, :] < 0,
                          _side_values(right, ny) if right is not None else c[-1, :],
                          c[-1, :])

    cyd = np.empty((nx, ny + 1))
    cyd[:, 1:-1] = np.where(vy[:, 1:-1] >= 0, c[:, :-1], c[:, 1:])
    bottom = inflow_c.get("bottom")
    cyd[:, 0] = np.where(vy[:, 0] > 0,
                         _side_values(bottom, nx) if bottom is not None else c[:, 0],
                         c[:, 0])
    top = inflow_c.get("top")
    cyd[:, -1] = np.where(vy[:, -1] < 0,
                          _side_values(top, nx) if top is not None else c[:, -1],
                          c[:, -1])

    fx = vx * cxd
    fy = vy * cyd
    return c - tau / grid.cell_area * (
        (fx[1:, :] - fx[:-1, :]) * grid.hy + (fy[:, 1:] - fy[:, :-1]) * grid.hx)


# --- particle scheme ---------------------------------------------------


@dataclass
class ParticleCloud:
    x: np.ndarray
    y: np.ndarray
    val: np.ndarray

    @property
    def count(self) -> int:
        return self.x.size


def seed_particles(grid: FineGrid, c: np.ndarray, per_cell: int,
                   seed: int) -> ParticleCloud:
    """Uniformly seed ``per_cell`` particles per cell, values from c.

    Positions come from a counter-based generator so the layout is a pure
    function of (seed, cell index, slot).
    """
    if per_cell < 1:
        raise ConfigError("need at least one particle per cell")
    rng = np.random.Generator(np.random.Philox(seed))
    n = grid.n_cells * per_cell
    u = rng.random((n, 2))
    ci, cj = np.divmod(np.repeat(np.arange(grid.n_cells), per_cell), grid.ny)
    x = grid.x0 + (ci + u[:, 0]) * grid.hx
    y = grid.y0 + (cj + u[:, 1]) * grid.hy
    return ParticleCloud(x=x, y=y, val=c[ci, cj].copy())


def interp_velocity(grid: FineGrid, vx: np.ndarray, vy: np.ndarray,
                    px: np.ndarray, py: np.ndarray):
    """Clamped bilinear interpolation of the staggered velocity field."""

    def bilin(arr, gx, gy, nx_nodes, ny_nodes):
        gx = np.clip(gx, 0.0, nx_nodes - 1.0)
        gy = np.clip(gy, 0.0, ny_nodes - 1.0)
        i0 = np.minimum(gx.astype(int), nx_nodes - 2)
        j0 = np.minimum(gy.astype(int), ny_nodes - 2)
        fx = gx - i0
        fy = gy - j0
        return ((1 - fx) * (1 - fy) * arr[i0, j0]
                + fx * (1 - fy) * arr[i0 + 1, j0]
                + (1 - fx) * fy * arr[i0, j0 + 1]
                + fx * fy * arr[i0 + 1, j0 + 1])

    # vx nodes at (i*hx, (j+1/2)*hy); vy nodes at ((i+1/2)*hx, j*hy)
    ux = bilin(vx, (px - grid.x0) / grid.hx, (py - grid.y0) / grid.hy - 0.5,
               grid.nx + 1, grid.ny)
    uy = bilin(vy, (px - grid.x0) / grid.hx - 0.5, (py - grid.y0) / grid.hy,
               grid.nx, grid.ny + 1)
    return ux, uy


def _reflect(grid: FineGrid, x, y):
    x1, x2 = grid.x0, grid.x0 + grid.L1
    y1, y2 = grid.y0, grid.y0 + grid.L2
    x = np.where(x < x1, 2 * x1 - x, x)
    x = np.where(x > x2, 2 * x2 - x, x)
    y = np.where(y < y1, 2 * y1 - y, y)
    y = np.where(y > y2, 2 * y2 - y, y)
    return x, y


def advance_particles(grid: FineGrid, cloud: ParticleCloud, vx: np.ndarray,
                      vy: np.ndarray, tau: float) -> ParticleCloud:
    """Three-stage SSP Runge-Kutta advection through the interpolated field."""
    if cloud.count == 0:
        raise ConfigError("empty particle cloud")

    def vel(x, y):
        return interp_velocity(grid, vx, vy, x, y)

    x0, y0 = cloud.x, cloud.y
    u1, v1 = vel(x0, y0)
    x1, y1 = _reflect(grid, x0 + tau * u1, y0 + tau * v1)
    u2, v2 = vel(x1, y1)
    x2 = 0.75 * x0 + 0.25 * (x1 + tau * u2)
    y2 = 0.75 * y0 + 0.25 * (y1 + tau * v2)
    x2, y2 = _reflect(grid, x2, y2)
    u3, v3 = vel(x2, y2)
    xn = x0 / 3.0 + 2.0 / 3.0 * (x2 + tau * u3)
    yn = y0 / 3.0 + 2.0 / 3.0 * (y2 + tau * v3)
    xn, yn = _reflect(grid, xn, yn)
    if (np.any(xn < grid.x0) or np.any(xn > grid.x0 + grid.L1)
            or np.any(yn < grid.y0) or np.any(yn > grid.y0 + grid.L2)):
        raise InvariantError(
            "particle left the domain after reflection; velocity BCs broken")
    return ParticleCloud(x=xn, y=yn, val=cloud.val)


def deposit(grid: FineGrid, cloud: ParticleCloud) -> np.ndarray:
    """Clamped per-cell mean of particle values; empty cells copy nearest."""
    ci = np.clip(((cloud.x - grid.x0) / grid.hx).astype(int), 0, grid.nx - 1)
    cj = np.clip(((cloud.y - grid.y0) / grid.hy).astype(int), 0, grid.ny - 1)
    flat = ci * grid.ny + cj
    sums = np.bincount(flat, weights=cloud.val, minlength=grid.n_cells)
    cnts = np.bincount(flat, minlength=grid.n_cells)
    c = np.zeros(grid.n_cells)
    np.divide(sums, cnts, out=c, where=cnts > 0)
    c = c.reshape(grid.nx, grid.ny)
    empty = (cnts == 0).reshape(grid.nx, grid.ny)
    if empty.any():
        _, (ii, jj) = distance_transform_edt(
            empty, sampling=(grid.hx, grid.hy), return_indices=True)
        c = c[ii, jj]
    return np.clip(c, cloud.val.min(), cloud.val.max())


# --- time loop ---------------------------------------------------------


@dataclass
class Snapshot:
    step: int
    t: float
    p: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    c: np.ndarray


@dataclass
class FineRun:
    c0: np.ndarray  # initial concentration
    max_cfl: float = 0.0  # largest CFL over every solved step
    snapshots: list[Snapshot] = field(default_factory=list)


def run_fine(grid: FineGrid, lam_of, c0: np.ndarray, tau: float, steps: int,
             bc: FlowBC | None = None, gravity_on: bool = True,
             scheme: str = "upwind", inflow_c: dict | None = None,
             keep: range | tuple | None = None, particles_per_cell: int = 32,
             seed: int = 0) -> FineRun:
    """Sequential flow/transport loop with lagged mobility.

    Each step solves flow with lam(c^n) and advances transport to c^{n+1};
    snapshots are kept at the fine steps in ``keep`` (default: every step)
    and always at the final step.
    """
    if scheme not in ("upwind", "particles"):
        raise ConfigError(f"unknown transport scheme {scheme!r}")
    bc = bc or FlowBC()
    keep = range(steps + 1) if keep is None else keep
    run = FineRun(c0=c0.copy())
    nx, ny = grid.nx, grid.ny
    # one block per field for every kept snapshot: snapshot arrays held
    # between the solver's per-step temporaries would fragment the heap,
    # and by how much would depend on where the allocator places them
    kept = sum(n in keep for n in range(steps)) + 1
    store = [np.empty((kept,) + shape) for shape in
             ((nx, ny), (nx + 1, ny), (nx, ny + 1), (nx, ny))]

    def solve(c):
        p, vx, vy = solve_flow(grid, lam_of(c), c, bc, gravity_on)
        run.max_cfl = max(run.max_cfl, cfl(grid, vx, vy, tau))
        return p, vx, vy

    def record(n, *fields):
        i = len(run.snapshots)
        for block, a in zip(store, fields):
            block[i] = a
        run.snapshots.append(Snapshot(n, n * tau, *(b[i] for b in store)))

    c = c0.copy()
    cloud = None
    if scheme == "particles":
        cloud = seed_particles(grid, c0, particles_per_cell, seed)

    for n in range(steps):
        p, vx, vy = solve(c)
        if n in keep:
            record(n, p, vx, vy, c)
        if scheme == "upwind":
            c = advance_upwind(grid, c, vx, vy, tau, inflow_c=inflow_c)
        else:
            cloud = advance_particles(grid, cloud, vx, vy, tau)
            c = deposit(grid, cloud)

    record(steps, *solve(c), c)
    return run
