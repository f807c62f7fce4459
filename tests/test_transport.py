"""Upwind and particle transport: exactness, conservation, monotonicity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rng
from dynmc.exceptions import ConfigError, InvariantError
from dynmc.fine import (ParticleCloud, advance_particles, advance_upwind,
                        cfl, deposit, run_fine, seed_particles, solve_flow)
from dynmc.grids import FineGrid


def upwind_reference(grid, c, vx, vy, tau):
    """Hand-rolled scalar-loop donor-cell step (no-inflow boundaries)."""
    nx, ny = grid.nx, grid.ny
    out = c.copy()
    for i in range(nx + 1):
        for j in range(ny):
            v = vx[i, j]
            if i == 0:
                donor = c[0, j]
            elif i == nx:
                donor = c[nx - 1, j]
            else:
                donor = c[i - 1, j] if v >= 0 else c[i, j]
            flux = v * donor * grid.hy * tau / grid.cell_area
            if i > 0:
                out[i - 1, j] -= flux
            if i < nx:
                out[i, j] += flux
    for i in range(nx):
        for j in range(ny + 1):
            v = vy[i, j]
            if j == 0:
                donor = c[i, 0]
            elif j == ny:
                donor = c[i, ny - 1]
            else:
                donor = c[i, j - 1] if v >= 0 else c[i, j]
            flux = v * donor * grid.hx * tau / grid.cell_area
            if j > 0:
                out[i, j - 1] -= flux
            if j < ny:
                out[i, j] += flux
    return out


def rotation_field(grid):
    """Divergence-free solid rotation about the domain center."""
    cx = grid.x0 + grid.L1 / 2
    cy = grid.y0 + grid.L2 / 2
    vx, vy = grid.zero_faces()
    yg = grid.yc()
    for i in range(grid.nx + 1):
        vx[i, :] = -(yg - cy)
    xg = grid.xc()
    for j in range(grid.ny + 1):
        vy[:, j] = xg - cx
    vx[0, :] = vx[-1, :] = 0.0
    vy[:, 0] = vy[:, -1] = 0.0
    return vx, vy


class TestUpwind:
    def test_unit_courant_exact_shift(self):
        grid = FineGrid(10, 1, 10.0, 1.0)
        c = np.zeros((10, 1))
        c[3, 0] = 1.0
        vx, vy = grid.zero_faces()
        vx[1:-1, :] = 1.0  # interior faces only; no inflow/outflow
        out = advance_upwind(grid, c, vx, vy, tau=grid.hx)
        expect = np.zeros((10, 1))
        expect[4, 0] = 1.0
        assert np.allclose(out, expect, atol=1e-14)

    def test_zero_velocity_is_identity(self):
        grid = FineGrid(6, 5, 1.0, 1.0)
        c = rng(0).random((6, 5))
        vx, vy = grid.zero_faces()
        assert (advance_upwind(grid, c, vx, vy, 0.01) == c).all()

    def test_matches_scalar_reference_rotating_body(self):
        grid = FineGrid(16, 16, 1.0, 1.0)
        vx, vy = rotation_field(grid)
        c = rng(1).random((16, 16))
        tau = 0.02
        for _ in range(10):
            ref = upwind_reference(grid, c, vx, vy, tau)
            c = advance_upwind(grid, c, vx, vy, tau)
            assert np.allclose(c, ref, atol=1e-14)

    def test_cfl_violation_reports_required_tau(self):
        grid = FineGrid(8, 1, 1.0, 1.0)
        vx, vy = grid.zero_faces()
        vx[1:-1, :] = 10.0
        with pytest.raises(InvariantError, match="reduce tau"):
            advance_upwind(grid, np.zeros((8, 1)), vx, vy, tau=1.0)

    def test_inflow_concentration_enters(self):
        grid = FineGrid(5, 2, 1.0, 1.0)
        c = np.zeros((5, 2))
        vx, vy = grid.zero_faces()
        vx[:, :] = 1.0
        out = advance_upwind(grid, c, vx, vy, tau=0.05,
                             inflow_c={"left": 1.0})
        assert out[0, 0] > 0 and np.abs(out[1:, :]).max() == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_upwind_conserves_and_stays_monotone(seed):
    grid = FineGrid(8, 6, 1.0, 1.0)
    g = rng(seed)
    c = g.random((8, 6))
    # divergence-free field from a random stream function, zero on the rim
    psi = np.zeros((grid.nx + 1, grid.ny + 1))
    psi[1:-1, 1:-1] = g.standard_normal((grid.nx - 1, grid.ny - 1))
    vx = (psi[:, 1:] - psi[:, :-1]) / grid.hy
    vy = -(psi[1:, :] - psi[:-1, :]) / grid.hx
    scale = max(np.abs(vx).max(), np.abs(vy).max(), 1.0)
    tau = 0.3 * min(grid.hx, grid.hy) / scale
    out = advance_upwind(grid, c, vx, vy, tau)
    assert abs(out.sum() - c.sum()) <= 1e-12 * max(abs(c.sum()), 1.0)
    assert out.min() >= c.min() - 1e-12
    assert out.max() <= c.max() + 1e-12


class TestParticles:
    def test_seed_is_deterministic(self):
        grid = FineGrid(4, 4, 1.0, 1.0)
        c = rng(2).random((4, 4))
        a = seed_particles(grid, c, 8, seed=3)
        b = seed_particles(grid, c, 8, seed=3)
        assert (a.x == b.x).all() and (a.y == b.y).all()
        d = seed_particles(grid, c, 8, seed=4)
        assert not (a.x == d.x).all()

    def test_zero_velocity_fixed_point(self):
        grid = FineGrid(4, 4, 1.0, 1.0)
        cloud = seed_particles(grid, rng(0).random((4, 4)), 8, seed=0)
        vx, vy = grid.zero_faces()
        out = advance_particles(grid, cloud, vx, vy, 0.1)
        assert np.allclose(out.x, cloud.x) and np.allclose(out.y, cloud.y)
        assert (deposit(grid, out) == deposit(grid, cloud)).all()

    def test_uniform_field_exact_translation(self):
        grid = FineGrid(10, 4, 10.0, 4.0)
        cloud = ParticleCloud(x=np.array([1.0, 2.5]), y=np.array([1.0, 2.0]),
                              val=np.array([0.3, 0.9]))
        vx, vy = grid.zero_faces()
        vx[:, :] = 1.0
        out = advance_particles(grid, cloud, vx, vy, 0.5)
        assert np.allclose(out.x, cloud.x + 0.5, atol=1e-14)
        assert np.allclose(out.y, cloud.y, atol=1e-14)

    def test_deposit_clamps_and_fills_empty_cells(self):
        grid = FineGrid(4, 1, 4.0, 1.0)
        cloud = ParticleCloud(x=np.array([0.5, 1.5]), y=np.array([0.5, 0.5]),
                              val=np.array([0.2, 0.8]))
        c = deposit(grid, cloud)
        assert c.min() >= 0.2 and c.max() <= 0.8
        assert c[2, 0] == 0.8 and c[3, 0] == 0.8  # nearest populated cell

    def test_rotation_beats_upwind_on_one_revolution(self):
        grid = FineGrid(24, 24, 1.0, 1.0)
        vx, vy = rotation_field(grid)
        xg, yg = grid.cell_centers()
        c0 = np.exp(-(((xg - 0.5) / 0.15) ** 2 + ((yg - 0.7) / 0.15) ** 2))
        steps = 200
        tau = 2 * np.pi / steps
        cloud = seed_particles(grid, c0, 16, seed=0)
        cu = c0.copy()
        for _ in range(steps):
            cloud = advance_particles(grid, cloud, vx, vy, tau)
            cu = advance_upwind(grid, cu, vx, vy, tau)
        cp = deposit(grid, cloud)
        err_p = np.linalg.norm(cp - c0) / np.linalg.norm(c0)
        err_u = np.linalg.norm(cu - c0) / np.linalg.norm(c0)
        assert err_p <= 0.02 * 10  # bounded return error
        assert err_p < err_u  # markedly less diffusive

    def test_empty_cloud_rejected(self):
        grid = FineGrid(4, 4, 1.0, 1.0)
        cloud = ParticleCloud(x=np.empty(0), y=np.empty(0), val=np.empty(0))
        vx, vy = grid.zero_faces()
        with pytest.raises(ConfigError):
            advance_particles(grid, cloud, vx, vy, 0.1)


class TestRunFine:
    def test_zero_steps_returns_initial_state(self):
        grid = FineGrid(6, 4, 1.0, 1.0)
        c0 = rng(0).random((6, 4))
        run = run_fine(grid, lambda c: np.ones_like(c), c0, 0.01, 0)
        assert len(run.snapshots) == 1
        assert (run.snapshots[0].c == c0).all()

    def test_snapshot_times_follow_tau(self):
        grid = FineGrid(6, 4, 1.0, 1.0)
        c0 = np.full((6, 4), 0.4)
        run = run_fine(grid, lambda c: np.ones_like(c), c0, 0.02, 3)
        assert [s.t for s in run.snapshots] == pytest.approx(
            [0.0, 0.02, 0.04, 0.06])

    def test_strided_snapshots_hold_their_own_step(self):
        grid = FineGrid(8, 4, 2.0, 1.0)
        c0 = rng(3).random((8, 4))

        def lam_of(c):
            return np.where(c > 0.5, 10.0, 1.0)

        run = run_fine(grid, lam_of, c0, 0.005, 7, keep=range(0, 8, 3))
        assert [s.step for s in run.snapshots] == [0, 3, 6, 7]
        c, states = c0.copy(), {}
        for n in range(8):
            p, vx, vy = solve_flow(grid, lam_of(c), c)
            states[n] = (p, vx, vy, c)
            c = advance_upwind(grid, c, vx, vy, 0.005)
        for s in run.snapshots:
            p, vx, vy, c = states[s.step]
            assert (s.p == p).all() and (s.vx == vx).all()
            assert (s.vy == vy).all() and (s.c == c).all()

    def test_keep_nothing_still_records_initial_field_and_max_cfl(self):
        grid = FineGrid(8, 4, 2.0, 1.0)
        c0 = rng(4).random((8, 4))

        def lam_of(c):
            return np.where(c > 0.5, 10.0, 1.0)

        run = run_fine(grid, lam_of, c0, 0.005, 7, keep=())
        assert [s.step for s in run.snapshots] == [7]
        assert (run.c0 == c0).all()
        c, worst = c0.copy(), 0.0
        for n in range(8):
            p, vx, vy = solve_flow(grid, lam_of(c), c)
            worst = max(worst, cfl(grid, vx, vy, 0.005))
            c = advance_upwind(grid, c, vx, vy, 0.005)
        assert worst > 0.0 and run.max_cfl == worst

    def test_unknown_scheme_rejected(self):
        grid = FineGrid(4, 4, 1.0, 1.0)
        with pytest.raises(ConfigError):
            run_fine(grid, lambda c: np.ones_like(c), np.zeros((4, 4)),
                     0.01, 1, scheme="spectral")

    def test_determinism_bitwise(self):
        grid = FineGrid(8, 4, 2.0, 1.0)
        c0 = rng(5).random((8, 4))

        def lam_of(c):
            return np.where(c > 0.5, 10.0, 1.0)

        a = run_fine(grid, lam_of, c0, 0.005, 5, scheme="particles", seed=2)
        b = run_fine(grid, lam_of, c0, 0.005, 5, scheme="particles", seed=2)
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert (sa.c == sb.c).all() and (sa.p == sb.p).all()
