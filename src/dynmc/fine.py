"""Fine-scale reference solvers.

Cell-centered two-point flux Darcy flow with gravity, donor-cell upwind
transport, and an optional particle advection scheme with clamped mean
deposition.  All face arrays follow the staggered layout of
:mod:`dynmc.grids`.  The TPFA operator (stiffness, gravity source and
pure-Neumann gauge) and the one SuperLU recipe live here only.  Its matrices
are built from five-point stencil values (:func:`operator_stencil`) straight
into their compressed arrays: in :func:`solve_flow`, the one entry point of
the fine flow and the mixed block loads, one triangular solve per load (with
buoyancy exactly when the load carries a concentration), and in the KKT
systems of the Galerkin block pieces of :mod:`dynmc.cells`.  Each matrix
is factored once, by ``splu(A.tocsc(), **SPLU_OPTIONS)``; only the fine run
keeps its last result (:class:`LastSolve`).  Particles,
:data:`PARTICLES_PER_CELL` per cell, read the velocity from quarter-cell
coefficient tables, built once per step, and take all three Runge-Kutta
stages one cache-sized slice of the cloud at a time.
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

SIDES = ("left", "right")

# The one SuperLU recipe for every TPFA and KKT factorization: minimum degree
# on A^T + A with unrelaxed supernodes, which leaves 0.3-0.65 times the fill of
# SuperLU's default COLAMD ordering on these 2-D stencils.  Partial pivoting
# stays at SuperLU's default: the KKT matrices have a zero (2,2) block, and
# with diagonal pivots (diag_pivot_thresh=0) the hydrostatic velocity of a
# contrast-1000 closed box rises above 1e-10.
SPLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "relax": 1, "panel_size": 1}


@dataclass(frozen=True)
class FlowBC:
    """Boundary condition of the channel's left and right x-faces:
    ('noflow',), ('flux', g) or ('pressure', p); its bottom and top are
    walls.

    Flux values are outward normal flux densities; arrays must match the
    side's face count, ny.
    """

    left: tuple = ("noflow",)
    right: tuple = ("noflow",)

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


# Row i of every TPFA matrix holds at most the columns i - ny, i - 1, i,
# i + 1 and i + ny, in that order: its five-point stencil slots.
SLOTS = 5


def _stencil(grid: FineGrid, lam: np.ndarray) -> np.ndarray:
    """(nx, ny, 5) entries of the pure-Neumann stiffness by stencil slot,
    0 where a slot leaves the grid.  The diagonal sums its faces in the
    order of :func:`apply_stiffness`: x-faces, then y-faces."""
    if not (np.isfinite(lam) & (lam > 0)).all():
        raise ConfigError("mobility must be finite and positive")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        tx, ty = transmissibilities(grid, lam)
    if not all((np.isfinite(t) & (t > 0)).all() for t in (tx, ty)):
        raise ConfigError("transmissibilities must be finite and positive: "
                          "the mobility's harmonic face means over- or "
                          "underflow")
    v = np.zeros((grid.nx, grid.ny, SLOTS))
    np.negative(tx, out=v[1:, :, 0])
    np.negative(ty, out=v[:, 1:, 1])
    np.negative(ty, out=v[:, :-1, 3])
    np.negative(tx, out=v[:-1, :, 4])
    diag = v[:, :, 2]
    diag[:-1] += tx
    diag[1:] += tx
    diag[:, :-1] += ty
    diag[:, 1:] += ty
    return v


class StencilLayout(NamedTuple):
    """Where the compressed arrays of a five-point matrix come from: entry
    k is entry ``take[k]`` of the raveled (nx, ny, 5) stencil; int32."""

    take: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def of(cls, nx: int, ny: int, gauged: bool = False) -> "StencilLayout":
        """The CSR layout of the slots inside an nx x ny grid; a gauged
        matrix keeps only the diagonal of row 0."""
        here = np.ones((nx, ny, SLOTS), dtype=bool)
        here[0, :, 0] = here[:, 0, 1] = here[:, -1, 3] = here[-1, :, 4] = 0
        if gauged:
            here[0, 0] = [0, 0, 1, 0, 0]
        take = np.flatnonzero(here).astype(np.int32)
        row, slot = np.divmod(take, SLOTS)
        indptr = np.zeros(nx * ny + 1, dtype=np.int32)
        np.cumsum(here.sum(axis=2).ravel(), out=indptr[1:])
        indices = row + np.array([-ny, -1, 0, 1, ny], dtype=np.int32)[slot]
        return cls(take, indptr, indices)

    def matrix(self, stencil: np.ndarray) -> sparse.csr_matrix:
        n = self.indptr.size - 1
        return sparse.csr_matrix((stencil.ravel().take(self.take),
                                  self.indices, self.indptr), shape=(n, n))


def apply_stiffness(grid: FineGrid, lam: np.ndarray, u: np.ndarray):
    """A u for the pure-Neumann TPFA stiffness A (SPSD, constants in its
    null space) by the face stencil, for a stack u of shape (nx, ny, k),
    and the row sums of |A| as (nx, ny); A is never assembled."""
    tx, ty = transmissibilities(grid, lam)
    out = np.zeros_like(u)
    # face fluxes from the low to the high cell, one axis at a time
    f = np.subtract(u[:-1], u[1:])
    f *= tx[:, :, None]
    out[:-1] += f
    out[1:] -= f
    del f
    f = np.subtract(u[:, :-1], u[:, 1:])
    f *= ty[:, :, None]
    out[:, :-1] += f
    out[:, 1:] -= f
    diag = grid.zeros()
    diag[:-1] += tx
    diag[1:] += tx
    diag[:, :-1] += ty
    diag[:, 1:] += ty
    return out, 2.0 * diag


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
    """One right-hand side of :func:`solve_flow`: the concentration whose
    buoyancy drives the flow (None: none), boundary data and volume source."""

    c: np.ndarray | None
    bc: FlowBC = FlowBC()
    f: np.ndarray | None = None


def check_residual(what: str, gap: float, norm: float, x: np.ndarray,
                   rhs: np.ndarray) -> None:
    """Reject a solve whose residual ``gap`` exceeds roundoff of the system:
    1e-10 (||K||_inf ||x||_inf + ||rhs||_inf) with ``norm`` = ||K||_inf."""
    bound = 1e-10 * (norm * np.abs(x).max() + np.abs(rhs).max())
    if not gap <= bound:
        raise SolverError(f"{what} residual {gap:.3e} above {bound:.3e}")


# side -> (its boundary cells, outward normal sign); the cell slice also
# picks the side's faces out of vx
_X_FACES = {"left": (np.s_[0, :], -1.0), "right": (np.s_[-1, :], +1.0)}


def pressure_diagonal(grid: FineGrid, lam: np.ndarray,
                      sides) -> np.ndarray:
    """(nx, ny) diagonal that pressure data on ``sides`` adds to the
    stiffness: the half transmissibility 2 lam hy / hx of each boundary
    x-face, from its cell centre to the face."""
    out = grid.zeros()
    for side in sides:
        sl, _out = _X_FACES[side]
        out[sl] += 2.0 * lam[sl] * grid.hy / grid.hx
    return out


def operator_stencil(grid: FineGrid, lam: np.ndarray,
                     pressure: tuple) -> np.ndarray:
    """The stencil of the :func:`solve_flow` matrix with pressure data on
    the ``pressure`` sides: the stiffness plus their
    :func:`pressure_diagonal`, or, with none, the pure-Neumann stiffness
    gauged by making row 0 the identity row."""
    stencil = _stencil(grid, lam)
    if pressure:
        stencil[:, :, 2] += pressure_diagonal(grid, lam, pressure)
    else:
        stencil[0, 0] = (0.0, 0.0, 1.0, 0.0, 0.0)
    return stencil


def _load_rhs(grid: FineGrid, lam: np.ndarray, load: FlowLoad) -> np.ndarray:
    """Flattened right-hand side of one load (before the gauge)."""
    c, bc, f = load
    rhs = grid.zeros() if f is None else f * grid.cell_area
    if c is not None:
        rhs += gravity_volume_source(grid, lam, c)
    for side, (sl, out) in _X_FACES.items():
        kind = bc.side(side)[0]
        if kind == "noflow":
            continue
        if kind == "flux":
            rhs[sl] -= _side_values(bc.side(side)[1], grid.ny) * grid.hy
        elif kind == "pressure":
            pb = _side_values(bc.side(side)[1], grid.ny)
            # Dirichlet face term
            rhs[sl] += 2.0 * lam[sl] * grid.hy / grid.hx * pb
            if c is not None:
                # outgoing gravity flux lam*c*(n.e1) at the boundary face
                rhs[sl] -= out * lam[sl] * c[sl] * grid.hy
        else:
            raise ConfigError(f"unknown BC kind {kind!r} on {side}")
    return rhs.ravel()


@dataclass
class LastSolve:
    """The fine run's memo of its last :func:`solve_flow` result.

    ``inputs`` holds copies of everything that result depends on and
    ``result`` the result, the list of read-only (p, vx, vy); ``reused``
    tells whether the latest call returned it without solving.
    """

    # the inputs are compared byte for byte, not keyed by a content digest:
    # digesting one 120 x 40 lam took 55-96 us against 3-8 us for the
    # comparison (two 2-vCPU VMs), 20-35 ms over the 401 fine flow solves
    # of the benchmark's shortened interface run
    inputs: tuple | None = None
    result: list | None = None
    reused: bool = False


def _pressure_sides(loads) -> set[tuple]:
    """The distinct tuples of pressure sides among the loads' boundaries."""
    return {tuple(s for s in SIDES if bc.side(s)[0] == "pressure")
            for _c, bc, _f in loads}


def content_digest(meta, *arrays) -> bytes:
    """blake2b digest of ``repr(meta)`` and of each array's dtype, shape and
    bytes: the key of every :class:`StepMemo` (of the coarse solves,
    Galerkin regions, block pieces and block loads) and, of lam_b alone,
    of the block matrices of the mixed cell problems."""
    h = hashlib.blake2b(digest_size=32)
    h.update(repr(meta).encode())
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.digest()


@dataclass
class StepMemo:
    """Caller-owned memo of values by content key, one step at a time.

    An entry lives as long as the step just settled got or touched it:
    ``used`` holds the keys of this step so far, and ``made`` and
    ``reused`` count its gets that made a value or found one.
    """

    entries: dict = field(default_factory=dict)
    used: set = field(default_factory=set)
    made: int = 0
    reused: int = 0

    def get(self, key, make):
        """The value of ``key``, held or made by ``make()``."""
        self.used.add(key)
        if key in self.entries:
            self.reused += 1
            return self.entries[key]
        value = self.entries[key] = make()
        self.made += 1
        return value

    def touch(self, keys) -> None:
        """Keep the entries of ``keys`` for the next step, uncounted."""
        self.used.update(keys)

    def settle(self) -> tuple[int, int]:
        """Drop every entry this step neither got nor touched; return the
        (made, reused) counts of its gets and start the next step."""
        counts = (self.made, self.reused)
        self.entries = {k: v for k, v in self.entries.items()
                        if k in self.used}
        self.used, self.made, self.reused = set(), 0, 0
        return counts


def load_inputs(load: FlowLoad) -> tuple:
    """(meta, arrays) of what one load adds to a :func:`solve_flow` result:
    whether c and f are given and its side kinds; its boundary values, c and
    f (when given)."""
    c, bc, f = load
    meta = (c is None, tuple(bc.side(s)[0] for s in SIDES), f is None)
    arrays = [np.asarray(value, dtype=float)
              for s in SIDES for value in bc.side(s)[1:]]
    if c is not None:
        arrays.append(c)
    if f is not None:
        arrays.append(f)
    return meta, arrays


def _flow_inputs(grid: FineGrid, lam: np.ndarray, loads) -> tuple:
    """(meta, arrays) of what a :func:`solve_flow` result depends on: the
    geometry and lam, then each load's :func:`load_inputs`."""
    meta, arrays = [grid], [lam]
    for load in loads:
        load_meta, load_arrays = load_inputs(load)
        meta.append(load_meta)
        arrays += load_arrays
    return meta, arrays


def _same_inputs(new: tuple, held: tuple | None) -> bool:
    """Whether :func:`_flow_inputs` equal held ones, arrays byte for byte."""
    return held is not None and new[0] == held[0] and len(new[1]) == len(
        held[1]) and all(a.dtype == b.dtype and a.shape == b.shape
                         and a.tobytes() == b.tobytes()
                         for a, b in zip(new[1], held[1]))


def solve_flow(grid: FineGrid, lam: np.ndarray, loads: list[FlowLoad], *,
               memo: LastSolve | None = None) -> list:
    """Solve -div(lam (grad p - c e1)) = f for each load (c = 0 for a load
    without c) against one factorization; return their (p, vx, vy).

    Face flux density is -lam_face (dp/dn - c_face [x-face]) with harmonic
    lam_face and arithmetic c_face.  Pure-Neumann problems are gauged by
    pinning cell (0,0) after a compatibility check.  The loads must share
    their pressure sides, the only part of the boundary data in the matrix.

    With ``memo`` a call whose inputs equal the memo's, byte for byte,
    returns the stored arrays with no assembly, factorization or solve;
    otherwise the new result, made read-only, replaces the stored one.
    """
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
        inputs = _flow_inputs(grid, lam, loads)
        memo.reused = _same_inputs(inputs, memo.inputs)
        if memo.reused:
            return list(memo.result)
    stencil = operator_stencil(grid, lam, pressure)
    rhss = [_load_rhs(grid, lam, load) for load in loads]
    if not pressure:
        for rhs in rhss:
            scale = max(np.abs(rhs).max(), 1.0)
            if abs(rhs.sum()) > 1e-9 * scale * nx * ny:
                raise SolverError(
                    f"pure-Neumann flow problem is incompatible: net source "
                    f"{rhs.sum():.3e}")
            rhs[0] = 0.0  # the gauge
    A = StencilLayout.of(nx, ny, gauged=not pressure).matrix(stencil)
    try:
        lu = splu(A.tocsc(), **SPLU_OPTIONS)
    except RuntimeError as exc:
        raise SolverError(f"flow factorization failed: {exc}") from exc
    # ||A||_inf from A's data, as abs(A).sum(axis=1) sums it; no row is
    # empty, each holds its diagonal
    norm = float(np.add.reduceat(np.abs(A.data), A.indptr[:-1]).max())
    faces = harmonic_face_mobility(lam)
    out = []
    # one triangular solve per load: a multi-column solve goes through the
    # BLAS, whose kernels round a column differently from a lone one on
    # some CPUs
    for (c, bc, _f), rhs in zip(loads, rhss):
        p_vec = lu.solve(rhs)
        # one step of iterative refinement: high-contrast lam amplifies the
        # factorization roundoff into spurious face fluxes otherwise
        p_vec += lu.solve(rhs - A @ p_vec)
        check_residual("flow", np.abs(A @ p_vec - rhs).max(), norm, p_vec,
                       rhs)
        p = p_vec.reshape(nx, ny)
        out.append((p, *flux_from_pressure(grid, p, lam, faces, c, bc)))
    if memo is not None:
        for arrays in out:
            for a in arrays:
                a.flags.writeable = False
        meta, arrays = inputs
        memo.inputs, memo.result = (meta, [a.copy() for a in arrays]), out
    return list(out)


def flux_from_pressure(grid: FineGrid, p: np.ndarray, lam: np.ndarray,
                       faces: tuple, c: np.ndarray | None, bc: FlowBC):
    """Face flux densities consistent with :func:`solve_flow` (buoyancy
    from c unless None); ``faces`` is ``harmonic_face_mobility(lam)``."""
    hx, hy = grid.hx, grid.hy
    lamx, lamy = faces
    vx, vy = grid.zero_faces()
    dpx = (p[1:, :] - p[:-1, :]) / hx
    if c is not None:
        dpx = dpx - 0.5 * (c[:-1, :] + c[1:, :])
    vx[1:-1, :] = -lamx * dpx
    vy[:, 1:-1] = -lamy * (p[:, 1:] - p[:, :-1]) / hy

    for side, (sl, out) in _X_FACES.items():
        kind = bc.side(side)[0]
        if kind == "noflow":
            continue
        val = _side_values(bc.side(side)[1], grid.ny)
        if kind == "flux":
            vx[sl] = out * val
        else:  # pressure
            g = c[sl] if c is not None else 0.0
            vx[sl] = -lam[sl] * (out * (val - p[sl]) / (hx / 2) - g)
    return vx, vy


def cfl(grid: FineGrid, vx: np.ndarray, vy: np.ndarray, tau: float) -> float:
    """tau/h * max cell-reconstructed |v| with h the cell diameter."""
    vcx = 0.5 * (vx[:-1, :] + vx[1:, :])
    vcy = 0.5 * (vy[:, :-1] + vy[:, 1:])
    vmax = np.sqrt(vcx ** 2 + vcy ** 2).max()
    h = float(np.hypot(grid.hx, grid.hy))
    return tau / h * float(vmax)


def advance_upwind(grid: FineGrid, c: np.ndarray, vx: np.ndarray,
                   vy: np.ndarray, tau: float,
                   inflow: float | np.ndarray | None = None,
                   nu: float | None = None) -> np.ndarray:
    """One donor-cell step of c_t + div(v c) = 0.

    ``inflow`` is the concentration that fluid entering through the left
    face carries, a scalar or one value per face; without it, and on every
    other boundary face, the donor is the adjacent cell.  ``nu`` is
    :func:`cfl` of (vx, vy) at tau, measured here when not given.
    """
    if nu is None:
        nu = cfl(grid, vx, vy, tau)
    if nu > 1.0:
        raise InvariantError(
            f"CFL {nu:.3f} > 1; reduce tau to <= {tau / nu:.3e}")
    if nu > 0.9:
        warnings.warn(f"CFL {nu:.3f} close to the stability limit")
    nx, ny = grid.nx, grid.ny
    cxd = np.empty((nx + 1, ny))
    cxd[1:-1, :] = np.where(vx[1:-1, :] >= 0, c[:-1, :], c[1:, :])
    # the left face lets fluid in where vx > 0
    cxd[0, :] = c[0, :] if inflow is None else np.where(
        vx[0, :] > 0, _side_values(inflow, ny), c[0, :])
    cxd[-1, :] = c[-1, :]
    cyd = np.empty((nx, ny + 1))
    cyd[:, 1:-1] = np.where(vy[:, 1:-1] >= 0, c[:, :-1], c[:, 1:])
    cyd[:, 0], cyd[:, -1] = c[:, 0], c[:, -1]

    fx = vx * cxd
    fy = vy * cyd
    return c - tau / grid.cell_area * (
        (fx[1:, :] - fx[:-1, :]) * grid.hy + (fy[:, 1:] - fy[:, :-1]) * grid.hx)


# --- particle scheme ---------------------------------------------------


@dataclass
class ParticleCloud:
    """Particle positions and values.  ``bounds`` holds (min, max) of
    ``val``, which no step changes: taken here when not given, and handed
    on from cloud to cloud by :func:`advance_particles`."""

    x: np.ndarray
    y: np.ndarray
    val: np.ndarray
    bounds: tuple | None = None

    def __post_init__(self):
        if self.bounds is None and self.val.size:
            self.bounds = (self.val.min(), self.val.max())

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


# Particles are stepped and interpolated in slices of this many, so the work
# arrays of one slice (four float, one int, two complex and the two stage
# velocities) stay cache-sized whatever the cloud size.  A step plus deposit
# of 193,536 particles took a median 16.0-16.8 ms at 16,384 against
# 17.2-17.3 ms at 8,192 (4,096: 20.3 ms, 32,768: 16.8 ms; 15 interleaved
# repetitions, 2-vCPU Xeon VM, one BLAS thread).
PARTICLE_CHUNK = 16384
PARTICLES_PER_CELL = 32  # the seeding of every particle run


def _half_nodes(v: np.ndarray) -> np.ndarray:
    """``v`` at its rows and at the midpoints between them, each midpoint
    0.5 (row + next row)."""
    out = np.empty((2 * v.shape[0] - 1,) + v.shape[1:])
    out[::2] = v
    out[1::2] = 0.5 * (v[:-1] + v[1:])
    return out


def velocity_table(grid: FineGrid, vx: np.ndarray, vy: np.ndarray):
    """Quarter-cell coefficient tables of the clamped bilinear velocity.

    The half-cell lines X = a/2, Y = b/2 (in cell units from the grid
    origin, 0 <= a <= 2 nx, 0 <= b <= 2 ny) cut the domain into quarter
    cells, and inside each one both clamped bilinear components are
    bilinear in the local offsets (sx, sy) in [0, 1]^2.  So the velocity
    vx + i vy is A + B sx + C sy + D sx sy there, with A the half-node value
    and B, C, D its differences along x, y and both.  Returns (A, B, C, D),
    each a contiguous complex array over the (2 nx + 1, 2 ny + 1) half
    nodes, raveled.  The last row (the right wall) has B = D = 0 and the
    last column (the top wall) C = D = 0, so a position on a wall reads
    its half node's value, as a node inside does.
    """
    nx, ny = grid.nx, grid.ny
    W = np.empty((2 * nx + 1, 2 * ny + 1), dtype=complex)
    # vx nodes sit at (i, j + 1/2): the clamp extends the outer node rows
    # to y = 0 and y = ny, as copies whose midpoint with them is their value
    ux = _half_nodes(vx[:, np.r_[0, 0:ny, ny - 1]].T)[1:-1].T
    W.real = _half_nodes(ux)
    # vy nodes sit at (i + 1/2, j): the outer node columns extend the same way
    uy = _half_nodes(vy[np.r_[0, 0:nx, nx - 1]])[1:-1]
    W.imag = _half_nodes(uy.T).T
    B, C, D = (np.zeros_like(W) for _ in range(3))
    np.subtract(W[1:], W[:-1], out=B[:-1])
    np.subtract(W[:, 1:], W[:, :-1], out=C[:, :-1])
    np.subtract(C[1:, :-1], C[:-1, :-1], out=D[:-1, :-1])
    return W.ravel(), B.ravel(), C.ravel(), D.ravel()


def _slice_work(m: int) -> tuple:
    """Work arrays of :func:`_interp_slice` for slices of up to m
    particles: four float, one index and two complex."""
    return ([np.empty(m) for _ in range(4)], np.empty(m, dtype=np.intp),
            np.empty(m, dtype=complex), np.empty(m, dtype=complex))


def _interp_slice(grid: FineGrid, table: tuple, px: np.ndarray,
                  py: np.ndarray, work: tuple, ux: np.ndarray,
                  uy: np.ndarray) -> None:
    """The velocity at one slice of positions (1-D, at most as long as the
    arrays of ``work``, :func:`_slice_work`), written into ux and uy; the
    formula of :func:`interp_velocity`."""
    A, B, C, D = table
    floats, index, acc, gathered = work
    m = px.size
    sx, sy, a, b = (w[:m] for w in floats)
    k, u, t = index[:m], acc[:m], gathered[:m]
    for s, p, origin, h, top in ((sx, px, grid.x0, grid.hx, grid.nx),
                                 (sy, py, grid.y0, grid.hy, grid.ny)):
        np.subtract(p, origin, out=s)
        s *= 2.0 / h
        np.clip(s, 0.0, 2.0 * top, out=s)
    # the quarter-cell indices stay floats until the flat index: they are
    # integers far below 2**53, so the arithmetic on them is exact
    np.trunc(sx, out=a)
    np.trunc(sy, out=b)
    sx -= a
    sy -= b
    a *= 2 * grid.ny + 1
    a += b
    np.copyto(k, a, casting="unsafe")
    # the indices are in range, and mode="clip" lets take write straight
    # into its buffer where mode="raise" would copy
    D.take(k, out=u, mode="clip")
    u *= sy
    u += B.take(k, out=t, mode="clip")
    u *= sx
    C.take(k, out=t, mode="clip")
    t *= sy
    u += t
    u += A.take(k, out=t, mode="clip")
    np.copyto(ux, u.real)
    np.copyto(uy, u.imag)


def interp_velocity(grid: FineGrid, vx: np.ndarray, vy: np.ndarray,
                    px: np.ndarray, py: np.ndarray,
                    table: tuple | None = None):
    """Clamped bilinear interpolation of the staggered velocity field.

    Positions may have any shape; the velocities come back in that shape.
    ``table`` is :func:`velocity_table` of (vx, vy), built here when not
    given.  Each position is clamped to the domain and scaled to half-cell
    units t = 2 (x - x0) / hx, s = 2 (y - y0) / hy; its quarter cell is
    (trunc t, trunc s), and the velocity A + sy C + sx (B + sy D) comes from
    one gather per table.  The particles are walked in slices of
    :data:`PARTICLE_CHUNK` through work arrays allocated once per call.
    """
    table = velocity_table(grid, vx, vy) if table is None else table
    shape = np.shape(px)
    px, py = np.ravel(px), np.ravel(py)
    n = px.size
    ux, uy = np.empty(n), np.empty(n)
    work = _slice_work(min(n, PARTICLE_CHUNK))
    for lo in range(0, n, PARTICLE_CHUNK):
        hi = min(lo + PARTICLE_CHUNK, n)
        _interp_slice(grid, table, px[lo:hi], py[lo:hi], work, ux[lo:hi],
                      uy[lo:hi])
    return ux.reshape(shape), uy.reshape(shape)


def _reflect(grid: FineGrid, x: np.ndarray, y: np.ndarray) -> bool:
    """Mirror, in place, the entries of x and y beyond a domain wall.

    Returns whether a mirrored entry is still outside the domain, which
    takes a step of more than one domain width.  Only the entries mirrored
    off the high wall can be: an entry mirrored off the low wall lands
    above it, and if it lands beyond the high wall it is mirrored again.
    """
    escaped = False
    for a, lo, hi in ((x, grid.x0, grid.x0 + grid.L1),
                      (y, grid.y0, grid.y0 + grid.L2)):
        below = a < lo
        if below.any():
            a[below] = 2 * lo - a[below]
        above = a > hi
        if above.any():
            a[above] = back = 2 * hi - a[above]
            escaped |= bool((back < lo).any())
    return escaped


def advance_particles(grid: FineGrid, cloud: ParticleCloud, vx: np.ndarray,
                      vy: np.ndarray, tau: float) -> ParticleCloud:
    """Three-stage SSP Runge-Kutta advection through the interpolated field.

    The cloud is walked in slices of :data:`PARTICLE_CHUNK`, each taken
    through all three stages before the next, on slice-sized work arrays.
    The stages run in place on the slice of the new cloud's positions (x,
    y) and keep the operation order of x1 = x0 + tau u(x0),
    x2 = 0.75 x0 + 0.25 (x1 + tau u(x1)) and
    xn = x0 / 3 + 2/3 (x2 + tau u(x2)), each reflected at the walls.
    """
    if cloud.count == 0:
        raise ConfigError("empty particle cloud")
    table = velocity_table(grid, vx, vy)
    x0, y0 = cloud.x, cloud.y
    n = cloud.count
    x, y = np.empty(n), np.empty(n)
    m = min(n, PARTICLE_CHUNK)
    work = _slice_work(m)
    stage = np.empty(m), np.empty(m)  # a slice's stage velocities
    escaped = False
    for lo in range(0, n, PARTICLE_CHUNK):
        hi = min(lo + PARTICLE_CHUNK, n)
        start = x0[lo:hi], y0[lo:hi]
        now = x[lo:hi], y[lo:hi]
        u = tuple(w[:hi - lo] for w in stage)
        _interp_slice(grid, table, *start, work, *now)  # u(x0), made into x1
        for p, p0 in zip(now, start):
            p *= tau
            p += p0
        _reflect(grid, *now)  # interpolation clamps: only the last must hold
        # x2 = np.multiply(x0, 0.75) + ..., then xn = np.divide(x0, 3.0) + ...
        for weight, first, c in ((0.25, np.multiply, 0.75),
                                 (2.0 / 3.0, np.divide, 3.0)):
            _interp_slice(grid, table, *now, work, *u)
            for s, p, p0 in zip(u, now, start):
                s *= tau
                s += p
                s *= weight
                first(p0, c, out=p)
                p += s
            last = _reflect(grid, *now)
        escaped |= last
    if escaped:
        raise InvariantError(
            "particle left the domain after reflection; velocity BCs broken")
    return ParticleCloud(x=x, y=y, val=cloud.val, bounds=cloud.bounds)


def deposit(grid: FineGrid, cloud: ParticleCloud) -> np.ndarray:
    """Per-cell mean of particle values, clamped to the cloud's bounds;
    empty cells copy the nearest filled one.  The flat cell index is built
    slice by slice, and one bincount over it keeps the summation order."""
    n = cloud.count
    flat = np.empty(n, dtype=np.intp)
    m = min(n, PARTICLE_CHUNK)
    t, k = np.empty(m), np.empty(m, dtype=np.intp)
    for lo in range(0, n, PARTICLE_CHUNK):
        hi = min(lo + PARTICLE_CHUNK, n)
        # the cell index clip(int((x - x0) / hx), 0, nx - 1) along each axis,
        # then the flat index ci * ny + cj
        for out, p, origin, h, top in (
                (flat[lo:hi], cloud.x, grid.x0, grid.hx, grid.nx),
                (k[:hi - lo], cloud.y, grid.y0, grid.hy, grid.ny)):
            s = t[:hi - lo]
            np.subtract(p[lo:hi], origin, out=s)
            s /= h
            np.copyto(out, s, casting="unsafe")
            np.clip(out, 0, top - 1, out=out)
        flat[lo:hi] *= grid.ny
        flat[lo:hi] += k[:hi - lo]
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
    return np.clip(c, *cloud.bounds)


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
             scheme: str = "upwind",
             inflow: float | np.ndarray | None = None,
             keep: range | tuple | None = None, seed: int = 0) -> FineRun:
    """Sequential flow/transport loop with lagged mobility.

    Each step solves flow with lam(c^n) and advances transport to c^{n+1};
    a step whose flow inputs repeat the previous step's (same lam, and c
    too with gravity on) reuses its solution.  ``inflow`` is the left-face
    inflow column of the upwind scheme (:func:`advance_upwind`).
    Snapshots are kept at the fine steps in ``keep`` (default: every step)
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

    memo = LastSolve()
    nu = 0.0  # the CFL of the latest flow

    def solve(c):
        nonlocal nu
        [(p, vx, vy)] = solve_flow(
            grid, lam_of(c), [FlowLoad(c if gravity_on else None, bc)],
            memo=memo)
        run.flow_reused.append(memo.reused)
        if not memo.reused:  # a reused vx, vy keeps the CFL of its solve
            nu = cfl(grid, vx, vy, tau)
            run.max_cfl = max(run.max_cfl, nu)
        return p, vx, vy

    def record(n, *fields):
        i = len(run.snapshots)
        for block, a in zip(store, fields):
            block[i] = a
        run.snapshots.append(Snapshot(n, n * tau, *(b[i] for b in store)))

    c = c0.copy()
    cloud = None
    if scheme == "particles":
        cloud = seed_particles(grid, c0, PARTICLES_PER_CELL, seed)

    for n in range(steps):
        p, vx, vy = solve(c)
        if n in keep:
            record(n, p, vx, vy, c)
        if scheme == "upwind":
            c = advance_upwind(grid, c, vx, vy, tau, inflow=inflow, nu=nu)
        else:
            cloud = advance_particles(grid, cloud, vx, vy, tau)
            c = deposit(grid, cloud)

    record(steps, *solve(c), c)
    return run
