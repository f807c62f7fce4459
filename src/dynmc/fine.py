"""Fine-scale reference solvers.

Cell-centered two-point flux Darcy flow with gravity, donor-cell upwind
transport, and an optional particle advection scheme with clamped mean
deposition.  All face arrays follow the staggered layout of
:mod:`dynmc.grids`.  The TPFA operator (stiffness, gravity source,
pure-Neumann gauge and factorization) lives here only; the cell problems
reuse it.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .exceptions import ConfigError, InvariantError, SolverError
from .grids import FineGrid

SIDES = ("left", "right", "bottom", "top")

# The one SuperLU recipe for every TPFA and KKT factorization: minimum degree
# on A^T + A with unrelaxed supernodes, which leaves 0.3-0.65 times the fill of
# SuperLU's default COLAMD ordering on these 2-D stencils.  Partial pivoting
# stays at SuperLU's default: the KKT matrices have a zero (2,2) block, and
# with diagonal pivots (diag_pivot_thresh=0) the hydrostatic velocity of a
# contrast-1000 closed box rises above 1e-10.
SPLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "relax": 1, "panel_size": 1}


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


class FlowLoad(NamedTuple):
    """One right-hand side of :func:`solve_flow`: gravity concentration,
    boundary data, gravity switch and volume source."""

    c: np.ndarray | None  # read only with gravity on
    bc: FlowBC = FlowBC()
    gravity_on: bool = True
    f: np.ndarray | None = None


def check_residual(what: str, gap: float, norm: float, x: np.ndarray,
                   rhs: np.ndarray) -> None:
    """Reject a solve whose residual ``gap`` exceeds roundoff of the system:
    1e-10 (||K||_inf ||x||_inf + ||rhs||_inf) with ``norm`` = ||K||_inf."""
    bound = 1e-10 * (norm * np.abs(x).max() + np.abs(rhs).max())
    if not gap <= bound:
        raise SolverError(f"{what} residual {gap:.3e} above {bound:.3e}")


def _boundary_sides(grid: FineGrid) -> dict:
    """side -> (boundary cells, normal spacing, face length, outward normal
    sign, normal axis).  The cell slice also picks the side's faces out of
    the face array of the normal axis (vx for 0, vy for 1)."""
    hx, hy = grid.hx, grid.hy
    return {"left": (np.s_[0, :], hx, hy, -1.0, 0),
            "right": (np.s_[-1, :], hx, hy, +1.0, 0),
            "bottom": (np.s_[:, 0], hy, hx, -1.0, 1),
            "top": (np.s_[:, -1], hy, hx, +1.0, 1)}


def _load_rhs(grid: FineGrid, lam: np.ndarray, load: FlowLoad) -> np.ndarray:
    """Flattened right-hand side of one load (before the gauge)."""
    c, bc, gravity_on, f = load
    rhs = grid.zeros() if f is None else f * grid.cell_area
    if gravity_on:
        rhs += gravity_volume_source(grid, lam, c)
    sides = _boundary_sides(grid)
    for side in SIDES:
        kind = bc.side(side)[0]
        if kind == "noflow":
            continue
        sl, h, ln, out, axis = sides[side]
        if kind == "flux":
            rhs[sl] -= _side_values(bc.side(side)[1], rhs[sl].size) * ln
        elif kind == "pressure":
            pb = _side_values(bc.side(side)[1], rhs[sl].size)
            rhs[sl] += 2.0 * lam[sl] * ln / h * pb  # Dirichlet face term
            if gravity_on and axis == 0:
                # outgoing gravity flux lam*c*(n.e1) at the boundary face
                rhs[sl] -= out * lam[sl] * c[sl] * ln
        else:
            raise ConfigError(f"unknown BC kind {kind!r} on {side}")
    return rhs.ravel()


@dataclass
class LastSolve:
    """Caller-owned one-entry memo of :func:`solve_flow` (and of
    :func:`dynmc.cells.build_region_engine`).

    ``key`` is a blake2b digest of everything the last result depends on
    and ``result`` that result (for solve_flow its list of read-only
    (p, vx, vy)); ``reused`` tells whether the latest call returned it
    without solving.
    """

    key: bytes | None = None
    result: list | None = None
    reused: bool = False


def _pressure_sides(loads) -> set[tuple]:
    """The distinct tuples of pressure sides among the loads' boundaries."""
    return {tuple(s for s in SIDES if bc.side(s)[0] == "pressure")
            for _c, bc, _g, _f in loads}


def content_digest(meta, *arrays) -> bytes:
    """blake2b digest of ``repr(meta)`` and of each array's dtype, shape and
    bytes: the key of every one-entry reuse memo."""
    h = hashlib.blake2b(digest_size=32)
    h.update(repr(meta).encode())
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.digest()


def operator_key(lam: np.ndarray, loads) -> bytes:
    """Digest of what the matrix of :func:`solve_flow` depends on besides
    the grid's cell counts and sizes: lam and the loads' pressure sides."""
    return content_digest(sorted(_pressure_sides(loads)), lam)


def _flow_digest(grid: FineGrid, lam: np.ndarray, loads) -> bytes:
    """Digest of the geometry, lam and each load's gravity flag, boundary
    data, c (with gravity on) and f (when given)."""
    meta, arrays = [repr(grid)], [lam]
    for c, bc, gravity_on, f in loads:
        kinds = tuple(bc.side(s)[0] for s in SIDES)
        meta.append((bool(gravity_on), kinds, f is None))
        arrays += [np.asarray(value, dtype=float)
                   for s in SIDES for value in bc.side(s)[1:]]
        if gravity_on:
            arrays.append(c)
        if f is not None:
            arrays.append(f)
    return content_digest(meta, *arrays)


def solve_flow(grid: FineGrid, lam: np.ndarray, c: np.ndarray | None = None,
               bc: FlowBC | None = None, gravity_on: bool = True,
               f: np.ndarray | None = None, *,
               loads: list[FlowLoad] | None = None,
               memo: LastSolve | None = None):
    """Solve -div(lam (grad p - c e1)) = f; return (p, vx, vy).

    Face flux density is -lam_face (dp/dn - c_face [x-face]) with harmonic
    lam_face and arithmetic c_face.  Pure-Neumann problems are gauged by
    pinning cell (0,0) after a compatibility check.

    With ``loads`` the operator is assembled and factorized once and every
    load is solved against it; the loads must share their pressure sides
    (the only part of the boundary data in the matrix), and the result is
    the list of their (p, vx, vy).

    With ``memo`` a call whose inputs digest to the memo's key returns the
    stored arrays with no assembly, factorization or solve; otherwise the
    new result, made read-only, replaces the stored one.
    """
    single = loads is None
    if single:
        loads = [FlowLoad(c, bc or FlowBC(), gravity_on, f)]
    nx, ny = grid.nx, grid.ny
    if lam.shape != (nx, ny):
        raise ConfigError(f"lam shape {lam.shape} != grid {(nx, ny)}")
    pressure = _pressure_sides(loads)
    if len(pressure) != 1:
        raise ConfigError(
            "loads solved against one factorization must share their "
            f"pressure sides, got {sorted(pressure)}")
    pressure = pressure.pop()
    if memo is not None:
        key = _flow_digest(grid, lam, loads)
        memo.reused = key == memo.key
        if memo.reused:
            return memo.result[0] if single else list(memo.result)
    A = assemble_stiffness(grid, lam)
    rhss = [_load_rhs(grid, lam, load) for load in loads]

    if pressure:
        sides = _boundary_sides(grid)
        diag_extra = np.zeros((nx, ny))
        for side in pressure:
            sl, h, ln, _out, _axis = sides[side]
            diag_extra[sl] += 2.0 * lam[sl] * ln / h
        A = A + sparse.diags(diag_extra.ravel())
    else:
        for rhs in rhss:
            scale = max(np.abs(rhs).max(), 1.0)
            if abs(rhs.sum()) > 1e-9 * scale * nx * ny:
                raise SolverError(
                    f"pure-Neumann flow problem is incompatible: net source "
                    f"{rhs.sum():.3e}")
            rhs[0] = 0.0
        # gauge: row 0 becomes the identity row, in place in the CSR arrays
        if A.nnz == 0:  # a one-cell grid has no face entries to overwrite
            A = sparse.identity(1, format="csr")
        row0 = slice(A.indptr[0], A.indptr[1])
        A.data[row0] = np.where(A.indices[row0] == 0, 1.0, 0.0)
        A.eliminate_zeros()

    lu = splu(A.tocsc(), **SPLU_OPTIONS)
    norm = float(abs(A).sum(axis=1).max())  # ||A||_inf
    out = []
    for (c, bc, gravity_on, _f), rhs in zip(loads, rhss):
        p_vec = lu.solve(rhs)
        # one step of iterative refinement: high-contrast lam amplifies the
        # factorization roundoff into spurious face fluxes otherwise
        p_vec += lu.solve(rhs - A @ p_vec)
        check_residual("flow", np.abs(A @ p_vec - rhs).max(), norm, p_vec,
                       rhs)
        p = p_vec.reshape(nx, ny)
        out.append((p, *flux_from_pressure(grid, p, lam, c, bc, gravity_on)))
    if memo is not None:
        for arrays in out:
            for a in arrays:
                a.flags.writeable = False
        memo.key, memo.result = key, out
    return out[0] if single else list(out)


def flux_from_pressure(grid: FineGrid, p: np.ndarray, lam: np.ndarray,
                       c: np.ndarray, bc: FlowBC, gravity_on: bool):
    """Face flux densities consistent with :func:`solve_flow`."""
    hx, hy = grid.hx, grid.hy
    lamx, lamy = harmonic_face_mobility(lam)
    vx, vy = grid.zero_faces()
    dpx = (p[1:, :] - p[:-1, :]) / hx
    if gravity_on:
        dpx = dpx - 0.5 * (c[:-1, :] + c[1:, :])
    vx[1:-1, :] = -lamx * dpx
    vy[:, 1:-1] = -lamy * (p[:, 1:] - p[:, :-1]) / hy

    faces = (vx, vy)
    for side, (sl, h, _ln, out, axis) in _boundary_sides(grid).items():
        kind = bc.side(side)[0]
        if kind == "noflow":
            continue
        v = faces[axis]
        val = _side_values(bc.side(side)[1], v[sl].size)
        if kind == "flux":
            v[sl] = out * val
        else:  # pressure; buoyancy acts along x only
            g = c[sl] if gravity_on and axis == 0 else 0.0
            v[sl] = -lam[sl] * (out * (val - p[sl]) / (h / 2) - g)
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


# Particles are interpolated in slices of this many, so the work arrays of
# one slice (a dozen of them) stay cache-sized whatever the cloud size.
PARTICLE_CHUNK = 8192


def _bilin(flat, nx_nodes, ny_nodes, gx, gy, out, work):
    """Clamped bilinear interpolation of the raveled (nx_nodes, ny_nodes)
    node array ``flat`` at node coordinates (gx, gy), written to ``out``
    through the ``work`` arrays (eight float, then one int, of its length).

    Each step is the whole-array formula's, so the result is bit-identical
    to ``(1-fx)(1-fy) t00 + fx(1-fy) t10 + (1-fx) fy t01 + fx fy t11``
    summed and multiplied left to right.  The corner indices stay floats
    until the flat index: truncating the clipped (non-negative)
    coordinates gives astype(int)'s values, and every index is an integer
    far below 2**53, so the float arithmetic on them is exact.
    """
    cx, cy, ax, ay, t, s, i0, j0, k = work
    np.clip(gx, 0.0, nx_nodes - 1.0, out=cx)
    np.clip(gy, 0.0, ny_nodes - 1.0, out=cy)
    np.trunc(cx, out=i0)
    np.trunc(cy, out=j0)
    np.minimum(i0, nx_nodes - 2, out=i0)
    np.minimum(j0, ny_nodes - 2, out=j0)
    fx, fy = np.subtract(cx, i0, out=cx), np.subtract(cy, j0, out=cy)
    np.subtract(1, fx, out=ax)
    np.subtract(1, fy, out=ay)
    i0 *= ny_nodes
    i0 += j0  # corner (i, j) is flat[i * ny_nodes + j]
    np.copyto(k, i0, casting="unsafe")
    # the indices are in range, and mode="clip" lets take write straight
    # into t where mode="raise" would buffer
    np.multiply(ax, ay, out=out)
    out *= flat.take(k, out=t, mode="clip")
    for step, wx, wy in ((ny_nodes, fx, ay), (1 - ny_nodes, ax, fy),
                         (ny_nodes, fx, fy)):  # t10, t01, t11
        k += step
        np.multiply(wx, wy, out=s)
        s *= flat.take(k, out=t, mode="clip")
        out += s


def interp_velocity(grid: FineGrid, vx: np.ndarray, vy: np.ndarray,
                    px: np.ndarray, py: np.ndarray):
    """Clamped bilinear interpolation of the staggered velocity field.

    Positions may have any shape; the velocities come back in that shape.
    The particles are walked in slices of :data:`PARTICLE_CHUNK` through
    work arrays allocated once per call.
    """
    shape = np.shape(px)
    px, py = np.ravel(px), np.ravel(py)
    n = px.size
    ux, uy = np.empty(n), np.empty(n)
    m = min(n, PARTICLE_CHUNK)
    gx, gy, shifted = np.empty(m), np.empty(m), np.empty(m)
    work = [np.empty(m) for _ in range(8)] + [np.empty(m, dtype=int)]
    fvx, fvy = np.ravel(vx), np.ravel(vy)
    for lo in range(0, n, PARTICLE_CHUNK):
        hi = min(lo + PARTICLE_CHUNK, n)
        x, y, sh = gx[:hi - lo], gy[:hi - lo], shifted[:hi - lo]
        w = [a[:hi - lo] for a in work]
        np.subtract(px[lo:hi], grid.x0, out=x)
        x /= grid.hx
        np.subtract(py[lo:hi], grid.y0, out=y)
        y /= grid.hy
        # vx nodes at (i*hx, (j+1/2)*hy); vy nodes at ((i+1/2)*hx, j*hy)
        _bilin(fvx, grid.nx + 1, grid.ny, x, np.subtract(y, 0.5, out=sh),
               ux[lo:hi], w)
        _bilin(fvy, grid.nx, grid.ny + 1, np.subtract(x, 0.5, out=sh), y,
               uy[lo:hi], w)
    return ux.reshape(shape), uy.reshape(shape)


def _reflect(grid: FineGrid, x: np.ndarray, y: np.ndarray) -> None:
    """Mirror, in place, the entries of x and y beyond a domain wall."""
    for a, lo, hi in ((x, grid.x0, grid.x0 + grid.L1),
                      (y, grid.y0, grid.y0 + grid.L2)):
        for wall, beyond in ((lo, np.less), (hi, np.greater)):
            out = beyond(a, wall)
            if out.any():
                a[out] = 2 * wall - a[out]


def advance_particles(grid: FineGrid, cloud: ParticleCloud, vx: np.ndarray,
                      vy: np.ndarray, tau: float) -> ParticleCloud:
    """Three-stage SSP Runge-Kutta advection through the interpolated field.

    The stages run in place on the position arrays (x, y) of the new cloud
    and keep the operation order of x1 = x0 + tau u(x0),
    x2 = 0.75 x0 + 0.25 (x1 + tau u(x1)) and
    xn = x0 / 3 + 2/3 (x2 + tau u(x2)), each reflected at the walls.
    """
    if cloud.count == 0:
        raise ConfigError("empty particle cloud")
    x0, y0 = cloud.x, cloud.y
    x, y = interp_velocity(grid, vx, vy, x0, y0)  # u(x0), made into x1
    for p, p0 in ((x, x0), (y, y0)):
        p *= tau
        p += p0
    _reflect(grid, x, y)
    # x2 = np.multiply(x0, 0.75) + ..., then xn = np.divide(x0, 3.0) + ...
    for weight, start, c in ((0.25, np.multiply, 0.75),
                             (2.0 / 3.0, np.divide, 3.0)):
        u, v = interp_velocity(grid, vx, vy, x, y)
        for s, p, p0 in ((u, x, x0), (v, y, y0)):
            s *= tau
            s += p
            s *= weight
            start(p0, c, out=p)
            p += s
        del u, v, s  # free the stage velocities before the next call
        _reflect(grid, x, y)
    if (np.any(x < grid.x0) or np.any(x > grid.x0 + grid.L1)
            or np.any(y < grid.y0) or np.any(y > grid.y0 + grid.L2)):
        raise InvariantError(
            "particle left the domain after reflection; velocity BCs broken")
    return ParticleCloud(x=x, y=y, val=cloud.val)


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
        # imported here: scipy.ndimage is slow to import, and only
        # particle runs that leave cells empty need it
        from scipy.ndimage import distance_transform_edt
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
    # per flow solve, steps 0..steps: True where the previous step's
    # solution was returned because its inputs repeated
    flow_reused: list[bool] = field(default_factory=list)


def run_fine(grid: FineGrid, lam_of, c0: np.ndarray, tau: float, steps: int,
             bc: FlowBC | None = None, gravity_on: bool = True,
             scheme: str = "upwind", inflow_c: dict | None = None,
             keep: range | tuple | None = None, particles_per_cell: int = 32,
             seed: int = 0) -> FineRun:
    """Sequential flow/transport loop with lagged mobility.

    Each step solves flow with lam(c^n) and advances transport to c^{n+1};
    a step whose flow inputs repeat the previous step's (same lam, and c
    too with gravity on) reuses its solution.  Snapshots are kept at the
    fine steps in ``keep`` (default: every step) and always at the final
    step.
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

    memo = LastSolve()

    def solve(c):
        p, vx, vy = solve_flow(grid, lam_of(c), c, bc, gravity_on, memo=memo)
        run.flow_reused.append(memo.reused)
        if not memo.reused:  # a reused vx, vy has its CFL counted already
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
