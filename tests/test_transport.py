"""Upwind and particle transport: exactness, conservation, monotonicity."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (advance_particles_whole, advance_upwind_sides,
                      interp_velocity_table_whole, interp_velocity_whole,
                      reflect_whole, run_fine_upwind_unmemoized)
from conftest import rng
from dynmc import fine
from dynmc.config import get_preset
from dynmc.exceptions import ConfigError, InvariantError
from dynmc.fine import (PARTICLE_CHUNK, FlowBC, FlowLoad, ParticleCloud,
                        advance_particles, advance_upwind, cfl, deposit,
                        interp_velocity, run_fine, seed_particles,
                        solve_flow, velocity_table)
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
        out = advance_upwind(grid, c, vx, vy, tau=0.05, inflow=1.0)
        assert out[0, 0] > 0 and np.abs(out[1:, :]).max() == 0.0


def test_upwind_boundary_table_matches_per_side_blocks():
    # random grids and face velocities with exact zeros and -0.0 on the
    # rim, no inflow or a left inflow given as a scalar or per-face array
    for seed in range(300):
        g = rng(seed)
        nx, ny = (int(k) for k in g.integers(1, 7, size=2))
        grid = FineGrid(nx, ny, float(g.uniform(0.5, 2.0)),
                        float(g.uniform(0.5, 2.0)))
        c = g.random((nx, ny))
        vx, vy = (g.choice([-1.0, -0.0, 0.0, 1.0], size=shape)
                  * g.random(shape) for shape in ((nx + 1, ny), (nx, ny + 1)))
        inflow = [None, float(g.random()), g.random(ny)][g.integers(3)]
        tau = 0.2 * min(grid.hx, grid.hy)
        got = advance_upwind(grid, c, vx, vy, tau, inflow=inflow)
        ref = advance_upwind_sides(grid, c, vx, vy, tau, inflow=inflow)
        assert np.array_equal(got, ref)


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


def interp_reference(grid, vx, vy, px, py):
    """Clamped bilinear interpolation with 2-D fancy-index corner gathers."""

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

    return (bilin(vx, (px - grid.x0) / grid.hx,
                  (py - grid.y0) / grid.hy - 0.5, grid.nx + 1, grid.ny),
            bilin(vy, (px - grid.x0) / grid.hx - 0.5,
                  (py - grid.y0) / grid.hy, grid.nx, grid.ny + 1))


def assert_close_to_bilinear(got, want, vx, vy):
    """Within 1e-13 of the largest face velocity, componentwise."""
    scale = max(np.abs(vx).max(), np.abs(vy).max())
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-13 * scale


def test_interp_velocity_matches_fancy_index_gather():
    grid = FineGrid(7, 5, 3.5, 2.0, x0=0.5, y0=-0.25)
    vx = rng(30).standard_normal((8, 5))
    vy = rng(31).standard_normal((7, 6))
    x1, x2 = grid.x0, grid.x0 + grid.L1
    y1, y2 = grid.y0, grid.y0 + grid.L2
    u = rng(32).random((2, 200))
    xs = x1 + u[0] * grid.L1
    ys = y1 + u[1] * grid.L2
    # interior points, every wall, the four corners and cell-edge nodes
    px = np.concatenate([xs, np.full(50, x1), np.full(50, x2), xs[:50],
                         xs[50:100], [x1, x1, x2, x2],
                         x1 + grid.hx * np.arange(8)])
    py = np.concatenate([ys, ys[:50], ys[50:100], np.full(50, y1),
                         np.full(50, y2), [y1, y2, y1, y2],
                         y1 + grid.hy * np.arange(8) % grid.L2])
    got = interp_velocity(grid, vx, vy, px, py)
    want = interp_velocity_table_whole(grid, vx, vy, px, py)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert_close_to_bilinear(got, interp_reference(grid, vx, vy, px, py),
                             vx, vy)


def test_interp_velocity_clamps_outside_points_like_the_whole_array_formula():
    # points beyond every wall and corner clamp to the outermost nodes,
    # where the truncated float index meets the minimum against n - 2
    grid = FineGrid(6, 4, 1.5, 1.0, x0=-0.2, y0=0.3)
    vx = rng(33).standard_normal((7, 4))
    vy = rng(34).standard_normal((6, 5))
    x1, x2 = grid.x0, grid.x0 + grid.L1
    y1, y2 = grid.y0, grid.y0 + grid.L2
    u = rng(35).random((2, 40))
    xs, ys = x1 + u[0] * grid.L1, y1 + u[1] * grid.L2
    out = rng(36).random(40) * 0.3 + 1e-3  # distance beyond the wall
    px = np.concatenate([x1 - out, x2 + out, xs, xs,
                         x1 - out[:4], x2 + out[:4], x1 - out[:4],
                         x2 + out[:4], [x1 - 1e9, x2 + 1e9, x2, x2],
                         x1 + grid.hx * np.arange(7)])
    py = np.concatenate([ys, ys, y1 - out, y2 + out,
                         y1 - out[:4], y1 - out[:4], y2 + out[:4],
                         y2 + out[:4], [y1 - 1e9, y2 + 1e9, y2 - 1e-15, y2],
                         y1 + grid.hy * np.arange(7) % grid.L2])
    got = interp_velocity(grid, vx, vy, px, py)
    want = interp_velocity_table_whole(grid, vx, vy, px, py)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    for want in (interp_velocity_whole(grid, vx, vy, px, py),
                 interp_reference(grid, vx, vy, px, py)):
        assert_close_to_bilinear(got, want, vx, vy)


def test_interp_velocity_is_the_bilinear_field_to_roundoff():
    # the table formula against the clamped bilinear one: inside, on every
    # wall, corner and chunk seam, and beyond every wall
    grid, px, py, vx, vy = chunked_cloud()
    u = rng(43).random((2, 5000)) * 1.6 - 0.3  # reaches 0.3 widths beyond
    qx = np.concatenate([px, grid.x0 + u[0] * grid.L1])
    qy = np.concatenate([py, grid.y0 + u[1] * grid.L2])
    got = interp_velocity(grid, vx, vy, qx, qy)
    assert_close_to_bilinear(got, interp_velocity_whole(grid, vx, vy, qx, qy),
                             vx, vy)


def test_interp_velocity_is_exact_at_the_velocity_nodes():
    # binary spacings and origin: each node's position maps exactly onto
    # its half-node, walls and corners included
    grid = FineGrid(12, 7, 3.0, 3.5, x0=-0.5, y0=0.25)
    vx = rng(44).standard_normal((13, 7))
    vy = rng(45).standard_normal((12, 8))
    x_faces = grid.x0 + grid.hx * np.arange(13)
    y_faces = grid.y0 + grid.hy * np.arange(8)
    xs, ys = np.meshgrid(x_faces, grid.yc(), indexing="ij")
    assert np.array_equal(interp_velocity(grid, vx, vy, xs, ys)[0], vx)
    xs, ys = np.meshgrid(grid.xc(), y_faces, indexing="ij")
    assert np.array_equal(interp_velocity(grid, vx, vy, xs, ys)[1], vy)
    # the table's A holds each node's value at the node's half node
    A = velocity_table(grid, vx, vy)[0].reshape(25, 15)
    assert np.array_equal(A.real[::2, 1::2], vx)
    assert np.array_equal(A.imag[1::2, ::2], vy)


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

    def test_step_longer_than_the_domain_raises(self):
        # x1 = x0 + 3 mirrors to -1 - x0 (left unchecked: interpolation
        # clamps), x2 = 0.5 + x0 / 2, and xn = 7/3 + 2 x0 / 3 mirrors to
        # below the left wall
        grid = FineGrid(8, 4, 1.0, 1.0)
        cloud = seed_particles(grid, grid.zeros(), 2, seed=0)
        vx, vy = grid.zero_faces()
        vx[:, :] = 3.0
        with pytest.raises(InvariantError, match="left the domain"):
            advance_particles(grid, cloud, vx, vy, 1.0)
        vx[:, :] = 0.5  # a step within one width reflects and stays inside
        advance_particles(grid, cloud, vx, vy, 1.0)

    def test_reflect_flags_exactly_the_entries_left_outside(self):
        grid = FineGrid(6, 3, 1.5, 0.75, x0=-0.2, y0=0.1)
        walls = ((grid.x0, grid.x0 + grid.L1), (grid.y0, grid.y0 + grid.L2))
        for seed in range(200):
            g = rng(seed)
            span = float(g.choice([0.5, 1.0, 2.0, 3.5]))
            x, y = (lo + (hi - lo) * g.uniform(-span, 1 + span, 50)
                    for lo, hi in walls)
            want = reflect_whole(grid, x, y)
            outside = any(((w < lo) | (w > hi)).any()
                          for w, (lo, hi) in zip(want, walls))
            assert fine._reflect(grid, x, y) == outside
            assert np.array_equal(x, want[0]) and np.array_equal(y, want[1])

    def test_deposit_clamps_and_fills_empty_cells(self):
        grid = FineGrid(4, 1, 4.0, 1.0)
        cloud = ParticleCloud(x=np.array([0.5, 1.5]), y=np.array([0.5, 0.5]),
                              val=np.array([0.2, 0.8]))
        c = deposit(grid, cloud)
        assert c.min() >= 0.2 and c.max() <= 0.8
        assert c[2, 0] == 0.8 and c[3, 0] == 0.8  # nearest populated cell

    def test_deposit_clips_to_the_seeded_bounds(self):
        grid = FineGrid(4, 1, 4.0, 1.0)
        c0 = np.array([[0.2], [0.5], [0.8], [0.4]])
        cloud = seed_particles(grid, c0, 3, seed=0)
        assert cloud.bounds == (0.2, 0.8)
        vx, vy = grid.zero_faces()
        vx[1:-1] = 0.5
        out = advance_particles(grid, cloud, vx, vy, 0.5)
        assert out.bounds is cloud.bounds
        assert np.array_equal(deposit(grid, out),
                              np.clip(deposit_means(grid, out), 0.2, 0.8))
        # the clip reads the bounds the cloud carries, not its values
        narrow = dataclasses.replace(out, bounds=(0.3, 0.6))
        assert np.array_equal(deposit(grid, narrow),
                              np.clip(deposit_means(grid, out), 0.3, 0.6))
        assert deposit(grid, narrow).min() == 0.3
        assert deposit(grid, narrow).max() == 0.6

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


def deposit_means(grid, cloud):
    """Unclamped per-cell mean of the particle values, every cell filled."""
    ci = ((cloud.x - grid.x0) / grid.hx).astype(int).clip(0, grid.nx - 1)
    cj = ((cloud.y - grid.y0) / grid.hy).astype(int).clip(0, grid.ny - 1)
    sums, cnts = grid.zeros(), grid.zeros()
    np.add.at(sums, (ci, cj), cloud.val)
    np.add.at(cnts, (ci, cj), 1.0)
    assert cnts.all()
    return sums / cnts


def chunked_cloud():
    """A cloud of three chunks and a ragged tail, with particles on every
    wall and corner, in a random field strong enough to reflect."""
    grid = FineGrid(13, 9, 2.6, 1.35, x0=-0.4, y0=0.7)
    n = 3 * PARTICLE_CHUNK + 517
    u = rng(40).random((2, n))
    x1, x2 = grid.x0, grid.x0 + grid.L1
    y1, y2 = grid.y0, grid.y0 + grid.L2
    px, py = x1 + u[0] * grid.L1, y1 + u[1] * grid.L2
    for at in (0, PARTICLE_CHUNK - 2, n - 404):  # a chunk seam and the tail
        px[at:at + 100] = x1
        px[at + 100:at + 200] = x2
        py[at + 200:at + 300] = y1
        py[at + 300:at + 400] = y2
        px[at + 400:at + 404] = [x1, x1, x2, x2]
        py[at + 400:at + 404] = [y1, y2, y1, y2]
    vx = rng(41).standard_normal((grid.nx + 1, grid.ny))
    vy = rng(42).standard_normal((grid.nx, grid.ny + 1))
    return grid, px, py, vx, vy


class TestChunkedKernel:
    """The chunked, in-place particle kernel against the whole-array one."""

    def test_interpolation_is_bit_identical(self):
        grid, px, py, vx, vy = chunked_cloud()
        got = interp_velocity(grid, vx, vy, px, py)
        want = interp_velocity_table_whole(grid, vx, vy, px, py)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_two_dimensional_positions_keep_their_shape(self, order):
        grid, px, py, vx, vy = chunked_cloud()
        m = 2 * PARTICLE_CHUNK + 100
        qx = np.asarray(px[:m].reshape(4, -1), order=order)
        qy = np.asarray(py[:m].reshape(4, -1), order=order)
        got = interp_velocity(grid, vx, vy, qx, qy)
        want = interp_velocity_table_whole(grid, vx, vy, qx, qy)
        for g, w in zip(got, want):
            assert g.shape == qx.shape
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("tau", [0.05, 0.2])
    def test_step_is_bit_identical_and_reflects(self, tau):
        grid, px, py, vx, vy = chunked_cloud()
        u, v = interp_velocity_table_whole(grid, vx, vy, px, py)
        rx, ry = px + tau * u, py + tau * v
        assert (rx < grid.x0).any() and (rx > grid.x0 + grid.L1).any()
        assert (ry < grid.y0).any() and (ry > grid.y0 + grid.L2).any()
        cloud = ParticleCloud(x=px.copy(), y=py.copy(), val=np.zeros(px.size))
        out = advance_particles(grid, cloud, vx, vy, tau)
        want = advance_particles_whole(grid, px, py, vx, vy, tau)
        assert np.array_equal(out.x, want[0])
        assert np.array_equal(out.y, want[1])
        assert np.array_equal(cloud.x, px) and np.array_equal(cloud.y, py)

    def test_step_interpolates_each_slice_three_times(self, monkeypatch):
        """One pass over the cloud: each slice goes through its three
        stages, from its start positions, before the next slice, and none
        through the whole-cloud interp_velocity."""
        calls = []
        real = fine._interp_slice

        def spy(grid, table, px, py, *rest):
            calls.append((px.size, np.shares_memory(px, cloud.x)))
            return real(grid, table, px, py, *rest)

        def whole(*args):
            raise AssertionError("interp_velocity called by the step")

        monkeypatch.setattr(fine, "_interp_slice", spy)
        monkeypatch.setattr(fine, "interp_velocity", whole)
        grid, px, py, vx, vy = chunked_cloud()
        cloud = ParticleCloud(x=px, y=py, val=np.zeros(px.size))
        advance_particles(grid, cloud, vx, vy, 0.05)
        sizes = [PARTICLE_CHUNK] * 3 + [517]
        assert calls == [(size, stage == 0) for size in sizes
                         for stage in range(3)]

    def test_step_memory_is_bounded(self):
        grid = FineGrid(60, 32, 1.0, 1.0)
        cloud = seed_particles(grid, grid.zeros(), 64, seed=0)
        n = cloud.count  # 122,880
        vx, vy = rotation_field(grid)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            advance_particles(grid, cloud, vx, vy, 0.01)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 8 * n, f"peak {peak / (8 * n):.1f} x 8N bytes"


    def test_step_holds_no_cloud_sized_stage_arrays(self):
        # the peak grows with the cloud by the new cloud's x and y only:
        # the stage velocities and work arrays are slice-sized
        grid = FineGrid(60, 32, 1.0, 1.0)
        vx, vy = rotation_field(grid)
        peaks = []
        for per_cell in (32, 64):
            cloud = seed_particles(grid, grid.zeros(), per_cell, seed=0)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                advance_particles(grid, cloud, vx, vy, 0.01)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        grown = 32 * grid.n_cells  # particles added
        assert peaks[1] - peaks[0] <= 2 * 8 * grown * 1.01

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
            [(p, vx, vy)] = solve_flow(grid, lam_of(c), [FlowLoad(c)])
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
            [(p, vx, vy)] = solve_flow(grid, lam_of(c), [FlowLoad(c)])
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


class TestFlowReuse:
    """run_fine reuses the previous step's flow solution when its inputs
    repeat; on a Galerkin config lam changes only at threshold crossings."""

    def setup_method(self):
        cfg = dataclasses.replace(get_preset("interface"), nx=40, ny=16,
                                  tau=1e-2, tau_coarse=0.1, steps=60,
                                  coarse_steps=6)
        self.grid = cfg.layout().extended_fine
        self.c0 = cfg.initial_condition(self.grid)
        self.args = (self.grid, cfg.mobility(self.grid), self.c0, cfg.tau,
                     cfg.steps)
        self.kw = dict(bc=cfg.flow_bc(self.grid), gravity_on=cfg.gravity,
                       inflow=self.c0[0, :].copy())

    def test_snapshots_match_a_fresh_solve_every_step(self):
        run = run_fine(*self.args, **self.kw)
        # a hit at step 1, and a miss after hits: lam changed mid-run
        assert run.flow_reused[:2] == [False, True]
        assert not all(run.flow_reused[2:])
        states, worst = run_fine_upwind_unmemoized(*self.args, **self.kw)
        assert len(run.snapshots) == len(states)
        for s, (p, vx, vy, c) in zip(run.snapshots, states):
            assert (s.p == p).all() and (s.vx == vx).all()
            assert (s.vy == vy).all() and (s.c == c).all()
        assert run.max_cfl == worst

    def test_reuse_flags_repeat_across_runs(self):
        a = run_fine(*self.args, **self.kw, keep=())
        b = run_fine(*self.args, **self.kw, keep=())
        assert len(a.flow_reused) == self.args[-1] + 1
        assert a.flow_reused == b.flow_reused

    def test_cfl_is_measured_once_per_solved_flow(self, monkeypatch):
        # the upwind step takes the CFL run_fine measured when it solved
        # the flow: a reused flow is not measured again
        calls = []
        real = fine.cfl

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(fine, "cfl", counted)
        run = run_fine(*self.args, **self.kw, keep=())
        solved = run.flow_reused.count(False)
        assert len(calls) == solved < len(run.flow_reused)

    def test_cfl_guard_runs_on_every_step(self):
        # one flow, solved once and reused: at a CFL of 0.95 every step
        # still warns
        grid = FineGrid(8, 4, 2.0, 1.0)
        bc = FlowBC(left=("flux", -1.0), right=("pressure", 0.0))
        [(_p, vx, vy)] = solve_flow(grid, np.ones((8, 4)),
                                    [FlowLoad(None, bc)])
        tau = 0.95 / cfl(grid, vx, vy, 1.0)
        c0 = rng(43).random((8, 4))
        with pytest.warns(UserWarning, match="close to the stability") as rec:
            run = run_fine(grid, lambda c: np.ones((8, 4)), c0, tau, 5,
                           bc=bc, gravity_on=False)
        assert run.flow_reused == [False] + [True] * 5
        assert len(rec) == 5
        assert run.max_cfl == pytest.approx(0.95)
