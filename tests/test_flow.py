"""Fine-scale Darcy flow: exactness, conservation, and a dense oracle."""

import numpy as np
import pytest

from _oracles import assemble_stiffness_coo, divergence, flow_operator_coo
from conftest import random_mobility, rng
from dynmc import fine
from dynmc.exceptions import ConfigError, SolverError
from dynmc.fine import (FlowBC, FlowLoad, LastSolve, StepMemo, cfl, run_fine,
                        solve_flow)
from dynmc.grids import FineGrid


def solve_one(grid, lam, c, bc=FlowBC(), f=None, **memos):
    """The (p, vx, vy) of one load (buoyancy from c unless it is None):
    :func:`solve_flow` of a one-load list, with its ``memo``."""
    [out] = solve_flow(grid, lam, [FlowLoad(c, bc, f=f)], **memos)
    return out


def dense_tpfa(grid, lam, sides, f=None):
    """Independent scalar-loop assembly and dense solve of the TPFA system.

    ``sides`` maps 'left'/'right' to ('pressure', p) or ('flux', g); other
    sides are no-flow.  Without a pressure side, row 0 is pinned to p = 0
    as in solve_flow.
    """
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    n = nx * ny
    A = np.zeros((n, n))
    b = np.zeros(n)

    def k(i, j):
        return i * ny + j

    for i in range(nx):
        for j in range(ny):
            if f is not None:
                b[k(i, j)] += f[i, j] * hx * hy
            if i + 1 < nx:
                lf = 2 * lam[i, j] * lam[i + 1, j] / (lam[i, j] + lam[i + 1, j])
                t = lf * hy / hx
                A[k(i, j), k(i, j)] += t
                A[k(i, j), k(i + 1, j)] -= t
                A[k(i + 1, j), k(i + 1, j)] += t
                A[k(i + 1, j), k(i, j)] -= t
            if j + 1 < ny:
                lf = 2 * lam[i, j] * lam[i, j + 1] / (lam[i, j] + lam[i, j + 1])
                t = lf * hx / hy
                A[k(i, j), k(i, j)] += t
                A[k(i, j), k(i, j + 1)] -= t
                A[k(i, j + 1), k(i, j + 1)] += t
                A[k(i, j + 1), k(i, j)] -= t
    for side, i in (("left", 0), ("right", nx - 1)):
        kind, value = sides.get(side, ("noflow", 0.0))
        for j in range(ny):
            if kind == "pressure":
                tb = 2 * lam[i, j] * hy / hx
                A[k(i, j), k(i, j)] += tb
                b[k(i, j)] += tb * value
            elif kind == "flux":
                b[k(i, j)] -= value * hy  # outward flux density
    if all(kind != "pressure" for kind, _ in sides.values()):
        A[0, :] = 0.0
        A[0, 0] = 1.0
        b[0] = 0.0
    return np.linalg.solve(A, b).reshape(nx, ny)


class TestStencil:
    def test_apply_stiffness_equals_the_assembled_matrix(self):
        grid = FineGrid(9, 7, 2.25, 1.4)
        lam = random_mobility(9, 7, 51, 1000.0)
        u = rng(52).standard_normal((9, 7, 3))
        A = assemble_stiffness_coo(grid, lam)
        Au, rowsum = fine.apply_stiffness(grid, lam, u)
        want = A @ u.reshape(63, 3)
        assert np.abs(Au.reshape(63, 3) - want).max() <= 1e-13 * np.abs(
            want).max()
        assert np.abs(rowsum.ravel() - abs(A).sum(axis=1).A1).max() <= (
            1e-13 * rowsum.max())

    def test_pressure_diagonal_is_the_half_transmissibility(self):
        grid = FineGrid(5, 4, 2.5, 1.0)
        lam = random_mobility(5, 4, 53, 10.0)
        d = fine.pressure_diagonal(grid, lam, ("left", "right"))
        want = np.zeros((5, 4))
        want[0, :] += 2 * lam[0, :] * grid.hy / grid.hx
        want[-1, :] += 2 * lam[-1, :] * grid.hy / grid.hx
        assert np.allclose(d, want, rtol=1e-15, atol=0.0)


class TestHydrostatic:
    @pytest.mark.parametrize("seed,contrast", [(0, 1.0), (1, 10.0), (2, 1000.0)])
    def test_constant_c_noflow_gives_zero_velocity(self, seed, contrast):
        grid = FineGrid(12, 10, 3.0, 1.0)
        lam = random_mobility(12, 10, seed, contrast)
        c = np.full((12, 10), 0.7)
        p, vx, vy = solve_one(grid, lam, c, FlowBC())
        assert max(np.abs(vx).max(), np.abs(vy).max()) <= 1e-10 * 0.7 * grid.L1

    def test_pressure_matches_c_times_x(self):
        grid = FineGrid(10, 4, 2.0, 1.0)
        lam = np.ones((10, 4))
        c = np.full((10, 4), 0.7)
        p, _vx, _vy = solve_one(grid, lam, c, FlowBC())
        expect = 0.7 * grid.xc()[:, None]
        assert np.allclose(p - p[0, 0], expect - expect[0, 0], atol=1e-10)


class TestDenseOracle:
    def test_checkerboard_dirichlet_matches_dense_solve(self):
        grid = FineGrid(4, 4, 1.0, 1.0)
        lam = np.where((np.indices((4, 4)).sum(axis=0) % 2) == 0, 5.0, 0.2)
        bc = FlowBC(left=("pressure", 1.0), right=("pressure", 0.0))
        p, _vx, _vy = solve_one(grid, lam, None, bc)
        expect = dense_tpfa(grid, lam, {"left": ("pressure", 1.0),
                                        "right": ("pressure", 0.0)})
        assert np.allclose(p, expect, atol=1e-12)

    def test_closed_box_zero_mean_source_matches_pinned_dense_solve(self):
        grid = FineGrid(7, 5, 2.0, 1.0)
        lam = random_mobility(7, 5, 12, 1000.0)
        f = rng(13).standard_normal((7, 5))
        f -= f.mean()  # compatible with the closed box
        p, _vx, _vy = solve_one(grid, lam, None, FlowBC(), f=f)
        expect = dense_tpfa(grid, lam, {}, f=f)
        assert np.abs(p - expect).max() <= 1e-10 * np.abs(expect).max()

    def test_flux_bc_matches_pinned_dense_solve(self):
        grid = FineGrid(8, 4, 2.0, 1.0)
        lam = random_mobility(8, 4, 14, 1000.0)
        # unit inflow on the left, unit outflow on the right: no net source
        sides = {"left": ("flux", -1.0), "right": ("flux", 1.0)}
        p, vx, _vy = solve_one(grid, lam, None, FlowBC(**sides))
        expect = dense_tpfa(grid, lam, sides)
        assert np.abs(p - expect).max() <= 1e-10 * np.abs(expect).max()
        assert np.allclose(vx[0, :], 1.0) and np.allclose(vx[-1, :], 1.0)


    def test_one_cell_closed_box_is_pinned(self):
        grid = FineGrid(1, 1, 1.0, 1.0)
        p, vx, vy = solve_one(grid, np.full((1, 1), 2.0), np.full((1, 1), 0.5),
                              FlowBC())
        assert p[0, 0] == 0.0
        assert not vx.any() and not vy.any()


class TestConservation:
    def test_divergence_matches_source(self):
        grid = FineGrid(9, 7, 2.0, 1.5)
        lam = random_mobility(9, 7, 3, 10.0)
        f = rng(4).standard_normal((9, 7))
        f -= f.mean()  # compatible with no-flow
        p, vx, vy = solve_one(grid, lam, None, FlowBC(), f=f)
        assert np.abs(divergence(grid, vx, vy) - f * grid.cell_area).max() < 1e-9

    def test_inflow_equals_outflow_contrast(self):
        grid = FineGrid(16, 8, 4.0, 2.0)
        lam = np.where(rng(5).random((16, 8)) < 0.4, 1000.0, 1.0)
        bc = FlowBC(left=("flux", -1.0), right=("pressure", 0.0))
        _p, vx, vy = solve_one(grid, lam, None, bc)
        inflow = vx[0, :].sum() * grid.hy
        outflow = vx[-1, :].sum() * grid.hy
        assert inflow == pytest.approx(grid.L2, rel=1e-12)
        assert outflow == pytest.approx(inflow, rel=1e-9)
        assert np.abs(vy[:, 0]).max() == 0.0 and np.abs(vy[:, -1]).max() == 0.0

    def test_noflow_boundary_faces_carry_zero(self):
        grid = FineGrid(8, 6, 1.0, 1.0)
        c = rng(6).random((8, 6))
        _p, vx, vy = solve_one(grid, np.ones((8, 6)), c, FlowBC())
        assert np.abs(vx[0, :]).max() == 0.0
        assert np.abs(vx[-1, :]).max() == 0.0
        assert np.abs(vy[:, 0]).max() == 0.0
        assert np.abs(vy[:, -1]).max() == 0.0

    def test_boundary_faces_of_every_side_balance_each_cell(self):
        # pressure on the left and right (with buoyancy), walls on the
        # bottom and top: every cell's boundary faces must carry what the
        # right-hand side assembled for them
        grid = FineGrid(6, 5, 2.0, 1.5)
        lam = random_mobility(6, 5, 30, 100.0)
        c = rng(31).random((6, 5))
        r = rng(32)
        left, right = r.standard_normal(5), r.standard_normal(5)
        bc = FlowBC(left=("pressure", left), right=("pressure", right))
        p, vx, vy = solve_one(grid, lam, c, bc)
        scale = max(np.abs(vx).max(), np.abs(vy).max()) * grid.hx
        assert np.abs(divergence(grid, vx, vy)).max() <= 1e-12 * scale
        assert vx[-1, :] == pytest.approx(
            -lam[-1, :] * ((right - p[-1, :]) / (grid.hx / 2) - c[-1, :]),
            rel=1e-14)
        assert np.abs(vy[:, [0, -1]]).max() == 0.0


class TestErrors:
    def test_nonpositive_mobility_rejected(self):
        grid = FineGrid(4, 4, 1.0, 1.0)
        lam = np.ones((4, 4))
        lam[1, 1] = 0.0
        with pytest.raises(ConfigError, match="positive"):
            solve_one(grid, lam, None, FlowBC())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_mobility_not_finite_rejected(self, bad):
        # NaN passes a `lam <= 0` test and used to reach the factorization
        grid = FineGrid(4, 4, 1.0, 1.0)
        lam = np.ones((4, 4))
        lam[2, 1] = bad
        with pytest.raises(ConfigError, match="finite and positive"):
            solve_one(grid, lam, None, FlowBC())

    @pytest.mark.parametrize("lo, hi", [(1.0, 1e308), (1e308, 1e308),
                                        (1e-300, 1e-300)],
                             ids=["inf", "nan", "zero"])
    def test_face_mobility_overflow_rejected(self, lo, hi):
        # each lam is finite and positive, but 2 lam1 lam2 / (lam1 + lam2)
        # is inf, inf/inf or 0 on the faces between them: unchecked, SuperLU
        # found the matrix exactly singular
        grid = FineGrid(4, 4, 1.0, 1.0)
        lam = np.full((4, 4), lo)
        lam[2:] = hi
        with pytest.raises(ConfigError, match="transmissibilities must be "
                                              "finite and positive"):
            solve_one(grid, lam, None, FlowBC())

    def test_singular_factor_is_a_solver_error(self, monkeypatch):
        # SuperLU reports a singular matrix as a bare RuntimeError
        def singular(A, **kw):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(fine, "splu", singular)
        with pytest.raises(SolverError, match="flow factorization failed: "
                                              "Factor is exactly singular"):
            solve_one(FineGrid(4, 4, 1.0, 1.0), np.ones((4, 4)), None,
                      FlowBC())

    def test_incompatible_pure_neumann_rejected(self):
        grid = FineGrid(4, 4, 1.0, 1.0)
        f = np.ones((4, 4))  # net source with no outlet
        with pytest.raises(SolverError, match="incompatible"):
            solve_one(grid, np.ones((4, 4)), None, FlowBC(), f=f)

    def test_bad_boundary_value_shape_rejected(self):
        grid = FineGrid(4, 4, 1.0, 1.0)
        bc = FlowBC(left=("flux", np.ones(3)), right=("pressure", 0.0))
        with pytest.raises(ConfigError):
            solve_one(grid, np.ones((4, 4)), None, bc)


class TestManyLoads:
    """Several loads against one factorization equal one call per load."""

    def block_loads(self, nx=24, ny=36):
        """Edge-flux, gravity and interface loads of one cell block (the
        block size of the gravity presets, where a 2-D triangular solve of
        the stacked loads rounds differently from one solve per load on
        some BLAS kernels)."""
        grid = FineGrid(nx, ny, 2.0, 1.5)
        lam = random_mobility(nx, ny, 20, 1000.0)
        psi = (rng(21).random((nx, ny)) < 0.5).astype(float)
        edge = (rng(22).random(ny) < 0.5).astype(float)
        S = edge.sum() * grid.hy
        uniform = np.full((nx, ny), S / (nx * ny * grid.cell_area))
        theta = psi.sum() / (nx * ny - psi.sum())
        loads = [
            FlowLoad(None, FlowBC(right=("flux", edge)), f=uniform),
            FlowLoad(None, FlowBC(left=("flux", -edge)), f=-uniform),
            FlowLoad(psi),
            FlowLoad(None, f=psi - theta * (1.0 - psi)),
        ]
        return grid, lam, loads

    def test_matches_one_load_calls_bit_for_bit(self):
        grid, lam, loads = self.block_loads()
        many = solve_flow(grid, lam, loads)
        assert len(many) == len(loads)
        for load, got in zip(loads, many):
            [one] = solve_flow(grid, lam, [load])
            for a, b in zip(got, one):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("memo", ["none", "fresh"])
    def test_one_triangular_solve_per_load(self, monkeypatch, memo):
        """Every right-hand side reaching a factor is one column: a 2-D
        solve of the stacked loads rounds differently on some BLAS kernels,
        which the bit-for-bit comparison above cannot see on every CPU."""
        grid, lam, loads = self.block_loads()
        memo = None if memo == "none" else LastSolve()
        ndims, options = [], []
        splu = fine.splu

        class Factor:
            def __init__(self, lu):
                self.lu = lu

            def __getattr__(self, name):
                return getattr(self.lu, name)

            def solve(self, b, *args, **kwargs):
                ndims.append(np.ndim(b))
                return self.lu.solve(b, *args, **kwargs)

        def spy(A, **kwargs):
            options.append(kwargs["permc_spec"])
            return Factor(splu(A, **kwargs))

        monkeypatch.setattr(fine, "splu", spy)
        solve_flow(grid, lam, loads, memo=memo)
        assert options == ["MMD_AT_PLUS_A"]
        # a solve and a refinement solve per load
        assert ndims == [1] * (2 * len(loads))

    def test_shared_pressure_sides_with_their_own_values(self):
        grid = FineGrid(8, 4, 2.0, 1.0)
        lam = random_mobility(8, 4, 23, 1000.0)
        c = rng(24).random((8, 4))
        loads = [FlowLoad(c, FlowBC(left=("pressure", 1.0),
                                    right=("pressure", 0.0))),
                 FlowLoad(None, FlowBC(left=("pressure", 0.0),
                                       right=("pressure", rng(25).random(4))))]
        for load, got in zip(loads, solve_flow(grid, lam, loads)):
            for a, b in zip(got, solve_flow(grid, lam, [load])[0]):
                assert np.array_equal(a, b)

    def test_different_pressure_sides_rejected(self):
        grid = FineGrid(4, 4, 1.0, 1.0)
        loads = [FlowLoad(None, FlowBC(left=("pressure", 1.0))),
                 FlowLoad(None, FlowBC(right=("pressure", 1.0)))]
        with pytest.raises(ConfigError, match="pressure sides"):
            solve_flow(grid, np.ones((4, 4)), loads)

    def test_one_incompatible_load_rejected(self):
        grid, lam, loads = self.block_loads()
        bad = FlowLoad(None, f=np.ones((grid.nx, grid.ny)))
        with pytest.raises(SolverError, match="incompatible"):
            solve_flow(grid, lam, loads + [bad])


def test_large_flow_residual_rejected(monkeypatch):
    """A factor of the wrong matrix leaves a residual the check must catch."""
    grid = FineGrid(8, 6, 2.0, 1.5)
    lam = random_mobility(8, 6, 26, 1000.0)
    c = rng(27).random((8, 6))
    bc = FlowBC(left=("pressure", 1.0), right=("pressure", 0.0))
    solve_one(grid, lam, c, bc)
    splu = fine.splu
    monkeypatch.setattr(fine, "splu", lambda A, **kw: splu(2.0 * A, **kw))
    with pytest.raises(SolverError, match="flow residual"):
        solve_one(grid, lam, c, bc)


def test_tpfa_factor_fill_stays_small(monkeypatch):
    """The fine TPFA matrix is factored with a fill-reducing ordering.

    On the 120x40 interface grid MMD on A^T + A with unrelaxed supernodes
    gives L + U 141,380 nonzeros; SuperLU's default COLAMD gives 240,438.
    """
    grid = FineGrid(120, 40, 3.0, 1.0)
    lam = random_mobility(120, 40, 28, 1000.0)
    bc = FlowBC(left=("pressure", 1.0), right=("pressure", 0.0))
    factors = []
    splu = fine.splu

    def spy(A, **kw):
        factors.append(splu(A, **kw))
        return factors[-1]

    monkeypatch.setattr(fine, "splu", spy)
    solve_one(grid, lam, None, bc)
    (lu,) = factors
    assert lu.L.nnz + lu.U.nnz <= 160_000


class TestLastSolve:
    """The one-entry memo returns the stored solve only for equal inputs."""

    def setup_method(self):
        self.grid = FineGrid(10, 6, 2.0, 1.0)
        self.lam = random_mobility(10, 6, 31, 1000.0)
        self.c = rng(32).random((10, 6))
        self.f = rng(33).random((10, 6))
        self.bc = FlowBC(left=("flux", -1.0), right=("pressure", 0.0))

    def spy(self, monkeypatch):
        calls = []
        splu = fine.splu

        def counting(A, **kw):
            calls.append(A)
            return splu(A, **kw)

        monkeypatch.setattr(fine, "splu", counting)
        return calls

    def solve(self, memo, lam=None, c=None, bc=None, f=None):
        return solve_one(self.grid, self.lam if lam is None else lam,
                         self.c if c is None else c, bc or self.bc,
                         self.f if f is None else f, memo=memo)

    def test_hit_is_bit_identical_and_factors_nothing(self, monkeypatch):
        memo = LastSolve()
        self.solve(memo)
        assert not memo.reused
        calls = self.spy(monkeypatch)
        hit = self.solve(memo, c=self.c.copy())
        assert memo.reused and calls == []
        fresh = solve_one(self.grid, self.lam, self.c, self.bc, self.f)
        for a, b in zip(hit, fresh):
            assert (a == b).all()

    def test_hit_arrays_are_read_only(self):
        memo = LastSolve()
        self.solve(memo)
        p, vx, vy = self.solve(memo)
        assert memo.reused
        for a in (p, vx, vy):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0

    @pytest.mark.parametrize("change", ["lam", "c", "bc", "f"])
    def test_changed_input_factors_again(self, monkeypatch, change):
        memo = LastSolve()
        self.solve(memo)
        calls = self.spy(monkeypatch)
        lam, c, f = self.lam.copy(), self.c.copy(), self.f.copy()
        bc = self.bc
        if change == "lam":
            lam[4, 3] *= 2.0
        elif change == "c":
            c[4, 3] += 0.25
        elif change == "bc":
            bc = FlowBC(left=("flux", -1.0), right=("pressure", 0.5))
        else:
            f[4, 3] += 0.25
        self.solve(memo, lam=lam, c=c, bc=bc, f=f)
        assert not memo.reused and len(calls) == 1

    def test_c_without_gravity_still_hits(self, monkeypatch):
        # without gravity run_fine hands its loads no c, so a step whose c
        # moved but whose lam did not returns the stored solve
        calls = self.spy(monkeypatch)
        runs = [run_fine(self.grid, lambda c: self.lam, self.c, 5e-4, 3,
                         bc=self.bc, gravity_on=gravity, scheme="upwind")
                for gravity in (False, True)]
        assert not np.array_equal(runs[0].snapshots[-1].c, self.c)
        assert runs[0].flow_reused == [False, True, True, True]
        assert runs[1].flow_reused == [False] * 4
        assert len(calls) == 1 + 4
        first, *later = runs[0].snapshots
        for snap in later:
            assert snap.vx.tobytes() == first.vx.tobytes()


class TestStepMemo:
    """An entry lives as long as the step just settled used it."""

    def make(self, value):
        """A maker of ``value`` that records each call in ``self.made``."""
        def make():
            self.made.append(value)
            return value
        return make

    def setup_method(self):
        self.made = []

    def test_key_got_in_a_step_is_reused_in_the_next(self):
        memo = StepMemo()
        first = memo.get(b"a", self.make([1.0]))
        assert memo.settle() == (1, 0)
        assert memo.get(b"a", self.make([2.0])) is first
        assert memo.settle() == (0, 1) and self.made == [[1.0]]

    def test_entry_neither_got_nor_touched_is_gone_next_step(self):
        memo = StepMemo()
        memo.get(b"a", self.make("a"))
        memo.get(b"b", self.make("b"))
        memo.settle()
        memo.get(b"a", self.make("a2"))
        assert memo.settle() == (0, 1)
        assert set(memo.entries) == {b"a"}
        assert memo.get(b"b", self.make("b2")) == "b2"
        assert memo.settle() == (1, 0)
        assert self.made == ["a", "b", "b2"]

    def test_touch_keeps_only_held_keys_and_counts_nothing(self):
        memo = StepMemo()
        memo.get(b"a", self.make("a"))
        memo.settle()
        memo.touch([b"a", b"new"])
        assert memo.settle() == (0, 0)
        assert memo.entries == {b"a": "a"}
        assert memo.get(b"new", self.make("n")) == "n"
        assert memo.settle() == (1, 0)
        assert memo.entries == {b"new": "n"}

    def test_repeat_lookup_within_a_step_counts_as_reused(self):
        memo = StepMemo()
        for _ in range(3):
            assert memo.get(b"a", self.make("a")) == "a"
        assert (memo.made, memo.reused) == (1, 2)
        assert memo.settle() == (1, 2) and self.made == ["a"]

    def test_settle_returns_the_counts_and_resets_them(self):
        memo = StepMemo()
        memo.get(b"a", self.make("a"))
        memo.get(b"a", self.make("a"))
        assert memo.settle() == (1, 1)
        assert (memo.made, memo.reused, memo.used) == (0, 0, set())
        assert memo.settle() == (0, 0) and memo.entries == {}


# grids and pressure sides of the TPFA matrices the runs factor: the one-cell
# gauge, a closed box (gravity presets and every block of a mixed cell
# problem), an outlet (viscous) and a pressure drop along x (interface)
OPERATORS = {
    "one-cell": (FineGrid(1, 1, 0.5, 0.5), ()),
    "closed-box": (FineGrid(7, 5, 1.4, 1.0), ()),
    "outlet": (FineGrid(9, 6, 3.0, 1.0), ("right",)),
    "pressure-drop": (FineGrid(9, 6, 3.0, 1.0), ("left", "right")),
    "block": (FineGrid(24, 36, 2.0, 1.5), ()),
}


def bc_of(sides):
    """Boundary data with pressure on ``sides`` and no flow elsewhere."""
    return FlowBC(**{s: ("pressure", float(k)) for k, s in enumerate(sides)})


def assert_same_arrays(got, want):
    """Equal compressed arrays, dtypes included."""
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), name


class TestDirectAssembly:
    """The five-point CSR build and the factored matrix against the COO
    assembly they replaced."""

    @pytest.mark.parametrize("case", sorted(OPERATORS))
    def test_stiffness_equals_the_coo_assembly(self, case):
        # the stiffness plus the pressure diagonal of the left and right
        # sides, as a Galerkin block piece builds it
        grid, _sides = OPERATORS[case]
        lam = random_mobility(grid.nx, grid.ny, 80, 1000.0)
        sides = ("left", "right")
        got = fine.StencilLayout.of(grid.nx, grid.ny).matrix(
            fine.operator_stencil(grid, lam, sides))
        assert got.format == "csr"
        assert_same_arrays(got, flow_operator_coo(grid, lam, sides))

    @pytest.mark.parametrize("case", sorted(OPERATORS))
    def test_factored_matrices_equal_the_coo_operator(self, monkeypatch,
                                                      case):
        # each call factors A.tocsc() once, with the one recipe, from the
        # oracle's A arrays; a second lam on the same pattern is no different
        grid, sides = OPERATORS[case]
        calls = []
        splu = fine.splu

        def recording(A, **kw):
            calls.append((A, kw))
            return splu(A, **kw)

        monkeypatch.setattr(fine, "splu", recording)
        lam = random_mobility(grid.nx, grid.ny, 81, 1000.0)
        lams = [lam, lam * (1.0 + rng(82).random(lam.shape))]
        for lam in lams:
            solve_one(grid, lam, None, bc_of(sides))
        assert len(calls) == 2
        for (A, kw), lam in zip(calls, lams):
            assert kw == fine.SPLU_OPTIONS
            assert_same_arrays(A, flow_operator_coo(grid, lam, sides).tocsc())
        # the CSR the residuals are taken with
        csr = fine.StencilLayout.of(grid.nx, grid.ny, gauged=not sides).matrix(
            fine.operator_stencil(grid, lams[1], sides))
        assert_same_arrays(csr, flow_operator_coo(grid, lams[1], sides))


class TestCfl:
    def test_zero_velocity(self):
        grid = FineGrid(4, 4, 1.0, 1.0)
        vx, vy = grid.zero_faces()
        assert cfl(grid, vx, vy, 0.1) == 0.0

    def test_direct_formula(self):
        # |v|max = 2, h = sqrt(hx^2 + hy^2) = 0.05, tau = 0.01 -> 0.4
        side = 20 * 0.05 / np.sqrt(2)  # hx = hy so the cell diagonal is 0.05
        grid = FineGrid(20, 20, side, side)
        vx, vy = grid.zero_faces()
        vx[:, :] = 2.0
        assert cfl(grid, vx, vy, 0.01) == pytest.approx(0.4)
