"""Constrained cell problems: constraints, oracles, and flux-basis contracts."""

import weakref

import numpy as np
import pytest
from scipy.sparse.linalg import splu, SuperLU

from _oracles import (SaddleSolver, assemble_stiffness_coo,
                      dense_kkt_solve, elliptic_oracle, kkt_bmat,
                      moment_residuals, piece_kkt_bmat,
                      random_partition_region)
from conftest import rng
from dynmc import cells, fine, macro
from dynmc.config import get_preset
from dynmc.continua import classify, ContinuumSpec, indicator
from dynmc.exceptions import ConfigError, SolverError
from dynmc.fine import StepMemo, divergence
from dynmc.grids import CoarseGrid, FineGrid, oversample_block

DUAL = (0.5,)
TRIPLE = (0.8, 0.4)

CASES = [(8, 2, 0, 1.0, DUAL), (8, 2, 1, 10.0, DUAL),
         (8, 2, 2, 1000.0, DUAL), (12, 3, 3, 10.0, TRIPLE),
         (12, 3, 4, 1000.0, TRIPLE), (12, 3, 5, 1.0, TRIPLE)]


def interface_start():
    """The Galerkin coarse model of the interface preset with its lam and
    labels at t = 0."""
    cfg = get_preset("interface")
    layout = cfg.layout()
    ext = layout.extended_fine
    spec = cfg.continuum_spec()
    c0 = cfg.initial_condition(ext)
    model = macro.CoarseModel(
        coarse=cfg.extended_coarse(layout), spec=spec,
        approach=cfg.approach, lam_of=cfg.mobility(ext))
    return model, model.lam_of(c0), classify(c0, spec)


def flow_region(model, K):
    flow = CoarseGrid(model.coarse.fine, model.coarse.Nx * macro.FLOW_REFINE)
    return oversample_block(flow, K, macro.LAYERS, rule=macro.EXTENSION_RULE)


def single_continuum_region(nx=8):
    fine = FineGrid(nx, nx, float(nx), float(nx))
    coarse = CoarseGrid(fine, 2)
    ov = oversample_block(coarse, 1, 1, rule="none")
    lam = np.ones((nx, nx))
    labels = np.zeros((nx, nx), dtype=np.int8)
    return ov, ov.sample(lam), ov.sample(labels)


class TestGalerkinFamilies:
    def test_single_continuum_average_is_one(self):
        ov, lam, labels = single_continuum_region()
        out = cells.solve_constrained_elliptic(ov, lam, labels, 1, "average")
        b = out.by_continuum(0)
        assert np.allclose(b.scalar, 1.0, atol=1e-10)

    def test_single_continuum_gradient_is_linear(self):
        ov, lam, labels = single_continuum_region()
        out = cells.solve_constrained_elliptic(ov, lam, labels, 1, "gradient")
        b = out.by_continuum(0)
        xg, _ = ov.grid.cell_centers()
        assert np.allclose(b.scalar, xg - b.extras["center"], atol=1e-9)

    @pytest.mark.parametrize("nx,bx,seed,contrast,thr", CASES)
    @pytest.mark.parametrize("family", ["average", "gradient",
                                        "concentration"])
    def test_constraints_and_dense_oracle(self, nx, bx, seed, contrast, thr,
                                          family):
        ov, lam, labels, n = random_partition_region(nx, nx, bx, seed,
                                                     contrast, thr)
        out = cells.solve_constrained_elliptic(ov, lam, labels, n, family)
        oracle, rows = elliptic_oracle(ov, lam, labels, n, family)
        centers = (cells.gradient_centers(ov, labels, n)
                   if family == "gradient" else None)
        for i, expect in oracle.items():
            b = out.by_continuum(i)
            assert b.residual <= 1e-9
            scale = max(np.abs(expect).max(), 1.0)
            assert np.abs(b.scalar - expect).max() <= 1e-10 * scale
            if family != "concentration":
                res = moment_residuals(ov, labels, rows, i, b.scalar,
                                       family, centers)
                assert np.abs(res).max() <= 1e-9

    def test_unknown_family_rejected(self):
        ov, lam, labels = single_continuum_region()
        with pytest.raises(ConfigError):
            cells.solve_constrained_elliptic(ov, lam, labels, 1, "spectral")

    def test_absent_continuum_flagged(self):
        ov, lam, labels = single_continuum_region()
        out = cells.solve_constrained_elliptic(ov, lam, labels, 2, "average")
        assert out.by_continuum(1).flag == "absent"

    @pytest.mark.parametrize("bad", ["n", -1])
    def test_label_outside_the_continua_rejected(self, monkeypatch, bad):
        # a label n or -1 would belong to no continuum's moment row; the
        # block that holds it raises before its piece is factored, here
        # the region's first block, so before any factorization
        ov, lam, labels, n = random_partition_region(8, 8, 2, 0, 10.0, DUAL)
        labels = labels.copy()
        labels[1, 3] = n if bad == "n" else bad
        factored = count_calls(monkeypatch, cells, "splu")
        with pytest.raises(ConfigError, match="outside"):
            cells.solve_constrained_elliptic(ov, lam, labels, n, "average")
        assert factored == []


def block_grid(ov):
    """The grid of one block of the region, as the engine builds it."""
    mx = ov.coarse.mx
    return FineGrid(mx, ov.grid.ny, mx * ov.grid.hx, ov.grid.L2)


class TestSaddleSolver:
    """KKT systems: the monolithic region solver kept as the oracle, and
    the block-piece interiors the region engine factors."""

    def test_matches_dense_oracle_directly(self):
        ov, lam, labels, n = random_partition_region(8, 8, 2, 9, 10.0, DUAL)
        A = assemble_stiffness_coo(ov.grid, lam)
        _K, C, rows = kkt_bmat(ov, lam, labels, n)
        solver = SaddleSolver(A, C)
        b = rng(10).standard_normal(ov.grid.n_cells)
        g = rng(11).standard_normal(len(rows))
        sol = solver.solve(b, g)
        u, mu = dense_kkt_solve(A, C, b, g)
        assert np.abs(sol.u - u).max() <= 1e-10 * max(np.abs(u).max(), 1.0)
        assert np.abs(sol.multipliers - mu).max() <= 1e-10 * max(
            np.abs(mu).max(), 1.0)

    def test_sparse_path_matches_dense_oracle(self):
        # one splu factorization serves several right-hand sides on a
        # high-contrast three-continuum region
        ov, lam, labels, n = random_partition_region(12, 12, 3, 4, 1000.0,
                                                     TRIPLE)
        A = assemble_stiffness_coo(ov.grid, lam)
        _K, C, rows = kkt_bmat(ov, lam, labels, n)
        solver = SaddleSolver(A, C)
        assert isinstance(solver._lu, SuperLU)
        for seed in (20, 21, 22):
            b = rng(seed).standard_normal(ov.grid.n_cells)
            g = rng(seed + 10).standard_normal(len(rows))
            sol = solver.solve(b, g)
            u, mu = dense_kkt_solve(A, C, b, g)
            assert np.abs(sol.u - u).max() <= 1e-10 * max(np.abs(u).max(),
                                                          1.0)
            assert np.abs(sol.multipliers - mu).max() <= 1e-10 * max(
                np.abs(mu).max(), 1.0)

    @pytest.mark.parametrize("shift_primal", [False, True])
    def test_large_kkt_residual_rejected(self, monkeypatch, shift_primal):
        ov, lam, labels, n = random_partition_region(8, 8, 2, 9, 10.0, DUAL)
        A = assemble_stiffness_coo(ov.grid, lam)
        _K, C, rows = kkt_bmat(ov, lam, labels, n)
        engine = cells.build_region_engine(ov, lam, labels, n)
        solver = SaddleSolver(A, C)
        b = rng(10).standard_normal(ov.grid.n_cells)
        g = rng(11).standard_normal(len(rows))
        sol = engine.solve(b[:, None], g[:, None])
        solver.solve(b, g)

        # either shift leaves C u - g at zero but breaks A u + C^T mu = b:
        # the multipliers by a constant, or u along the null space of C
        Cd = C.toarray()
        r = rng(12).standard_normal(solver.n)
        null_shift = r - Cd.T @ np.linalg.solve(Cd @ Cd.T, Cd @ r)
        u, mu = sol.u.copy(), sol.multipliers.copy()
        if shift_primal:
            u[:, 0] += null_shift
        else:
            mu += 1.0
        with pytest.raises(SolverError, match="KKT residual"):
            engine.check(b[:, None], g[:, None], u, mu)

        def shifted(solve):
            def wrapper(*args):
                sol = solve(*args).copy()
                if shift_primal:
                    sol[:solver.n] += null_shift
                else:
                    sol[solver.n:] += 1.0
                return sol
            return wrapper

        monkeypatch.setattr(solver, "_lu", type(
            "ShiftedLU", (), {"solve": staticmethod(
                shifted(solver._lu.solve))})())
        with pytest.raises(SolverError, match="KKT residual"):
            solver.solve(b, g)

    def test_sparse_kkt_fill_is_at_most_half_of_default_ordering(
            self, monkeypatch):
        # the first Galerkin region of the interface preset at t = 0: on
        # its whole 3135-row KKT, which only the oracle factors now, the
        # recipe leaves 0.27 of the fill of SuperLU's default COLAMD
        # (L + U 108,052 against 394,470 nonzeros); on its 4 distinct
        # block pieces, each a 6x40 block with 1-2 moment rows, which the
        # engine factors, 0.34-0.86 each and 0.59 in total (13,284 against
        # 22,698)
        model, lam, labels = interface_start()
        ov = flow_region(model, 0)
        K = kkt_bmat(ov, ov.sample(lam), ov.sample(labels),
                     model.spec.count)[0]
        lu, default = splu(K, **fine.SPLU_OPTIONS), splu(K)
        assert 2 * (lu.L.nnz + lu.U.nnz) <= default.L.nnz + default.U.nnz
        factored = []

        def spy(K, **kw):
            factored.append((K, splu(K, **kw)))
            return factored[-1][1]

        monkeypatch.setattr(cells, "splu", spy)
        cells.build_region_engine(ov, ov.sample(lam), ov.sample(labels),
                                  model.spec.count)
        assert len(factored) == 4
        ours = sum(lu.L.nnz + lu.U.nnz for _K, lu in factored)
        default = [splu(K) for K, _lu in factored]
        assert ours <= 0.6 * sum(d.L.nnz + d.U.nnz for d in default)
        for (_K, lu), d in zip(factored, default):
            assert lu.L.nnz + lu.U.nnz <= 0.9 * (d.L.nnz + d.U.nnz)

    def test_empty_constraints_rejected(self):
        ov, lam, labels = single_continuum_region()
        A = assemble_stiffness_coo(ov.grid, lam)
        with pytest.raises(SolverError):
            SaddleSolver(A, A[:0, :])

    @pytest.mark.parametrize("case", CASES + ["interface", "one-block",
                                              "truncated"])
    def test_kkt_and_moments_equal_the_bmat_oracle_bit_for_bit(self, case):
        if case == "interface":
            model, lam, labels = interface_start()
            ov, n = flow_region(model, 3), model.spec.count
            lam, labels = ov.sample(lam), ov.sample(labels)
        elif case in ("one-block", "truncated"):
            ov, lam, labels, n = dict(zip(("one-block", "truncated"),
                                          edge_regions()))[case]
        else:
            nx, bx, seed, contrast, thr = case
            ov, lam, labels, n = random_partition_region(nx, nx, bx, seed,
                                                         contrast, thr)
        K_want, C_want, rows_want = kkt_bmat(ov, lam, labels, n)
        engine = cells.build_region_engine(ov, lam, labels, n)
        K = SaddleSolver(assemble_stiffness_coo(ov.grid, lam), engine.C)._K
        # each row's block, continuum and mass, in the oracle's row order
        blocks = np.repeat(np.arange(len(ov.regions)), np.diff(engine.starts))
        assert blocks.tolist() == [r.region for r in rows_want]
        assert engine.continua.tolist() == [r.continuum for r in rows_want]
        mass_want = np.array([r.mass for r in rows_want])
        assert engine.mass.tobytes() == mass_want.tobytes()
        pairs = [(engine.C, C_want), (K, K_want)]
        grid_b = block_grid(ov)
        for reg in ov.regions:
            args = (grid_b, lam[reg.sx], labels[reg.sx], n)
            pairs.append((cells.piece_kkt(*args)[0], piece_kkt_bmat(*args)))
        for got, want in pairs:
            assert got.format == want.format and got.shape == want.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def tiled_strip(nbx=6, mx=4, ny=6, seed=0):
    """A strip of nbx blocks whose lam and labels repeat block by block:
    with one layer and no extension, blocks 1..nbx-2 see the same region
    content at different positions."""
    lab_b = (rng(seed).random((mx, ny)) < 0.5).astype(np.int8)
    lam_b = np.where(lab_b == 0, 10.0, 1.0)
    fine_grid = FineGrid(nbx * mx, ny, float(nbx * mx) / 8, 1.0, x0=0.3)
    return (CoarseGrid(fine_grid, nbx), np.tile(lam_b, (nbx, 1)),
            np.tile(lab_b, (nbx, 1)))


def count_calls(monkeypatch, module, name):
    """Spy on ``module.name``; returns the list its calls append to."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestRegionEngineMemo:
    """Block pieces are memoized by content across regions and solves."""

    def build(self, coarse, K, lam, labels, memo=None, rule="none"):
        ov = oversample_block(coarse, K, 1, rule=rule)
        return ov, cells.build_region_engine(ov, ov.sample(lam),
                                             ov.sample(labels), 2,
                                             pieces=memo)

    def test_same_content_returns_the_same_engine(self, monkeypatch):
        # a region whose blocks the memo holds factors no piece and holds
        # the very pieces of the first; its solves equal a memoless one's
        coarse, lam, labels = tiled_strip()
        calls = count_calls(monkeypatch, cells, "splu")
        memo = StepMemo()
        _ov, first = self.build(coarse, 1, lam, labels, memo)
        ov, engine = self.build(coarse, 3, lam, labels, memo)
        assert len(calls) == 1 and len(memo.entries) == 1
        assert all(p is first.pieces[0] for p in first.pieces + engine.pieces)
        assert (memo.made, memo.reused) == (1, 5)
        _ov, fresh = self.build(coarse, 3, lam, labels)
        b = rng(1).standard_normal((ov.grid.n_cells, 2))
        g = rng(2).standard_normal((fresh.continua.size, 2))
        got, want = engine.solve(b, g), fresh.solve(b, g)
        assert got.u.tobytes() == want.u.tobytes()
        assert got.multipliers.tobytes() == want.multipliers.tobytes()
        for family in cells.FAMILIES:
            args = (ov, ov.sample(lam), ov.sample(labels), 2, family)
            a = cells.solve_constrained_elliptic(*args, engine=engine)
            w = cells.solve_constrained_elliptic(*args, engine=fresh)
            for ba, bw in zip(a.bases, w.bases):
                assert ba.scalar.tobytes() == bw.scalar.tobytes()

    @pytest.mark.parametrize("change", ["lam", "label", "boundary",
                                        "offsets"])
    def test_changed_content_factors_again(self, monkeypatch, change):
        # every region factors its own face system; a piece is factored
        # again only for a block whose content is new: one changed lam or
        # label cell, or the mirror image of a block (its own key); a
        # region truncated at the domain edge reuses every piece
        coarse, lam, labels = tiled_strip()
        memo = StepMemo()
        self.build(coarse, 2, lam, labels, memo)
        K, rule = 3, "none"
        if change == "boundary":
            K = 0
        elif change == "offsets":  # the block past the right edge mirrored
            K, rule = coarse.Nx - 1, "reflect-right"
        else:
            cell = (K * coarse.mx + 1, 2)
            field = lam if change == "lam" else labels
            field[cell] = 3.0 if change == "lam" else 1 - field[cell]
        pieces = count_calls(monkeypatch, cells, "splu")
        faces = count_calls(monkeypatch, cells, "cholesky_banded")
        ov, engine = self.build(coarse, K, lam, labels, memo, rule)
        new = 0 if change == "boundary" else 1
        assert len(pieces) == new and len(faces) == 1
        assert (memo.made, memo.reused) == (1 + new, 2 + len(
            ov.regions) - new)
        fresh = cells.build_region_engine(ov, ov.sample(lam),
                                          ov.sample(labels), 2)
        b = rng(3).standard_normal((ov.grid.n_cells, 1))
        g = rng(4).standard_normal((fresh.continua.size, 1))
        assert engine.solve(b, g).u.tobytes() == fresh.solve(b, g).u.tobytes()

    def test_galerkin_velocity_equals_a_memoless_run(self, monkeypatch):
        model, lam, labels = interface_start()
        n = model.spec.count
        V, P, (factored, reused, _regions) = macro._galerkin_velocity(
            model, lam, labels, n, StepMemo(), StepMemo())
        regions = flow_region(model, 0).coarse.Nx
        assert 0 < factored < reused
        assert factored + reused == regions * (2 * macro.LAYERS + 1)
        real = cells.build_region_engine
        monkeypatch.setattr(cells, "build_region_engine",
                            lambda *args, pieces: real(*args))
        V0, P0, counts = macro._galerkin_velocity(model, lam, labels, n,
                                                  StepMemo(), StepMemo())
        assert counts == (0, 0, 0)  # no region looked into the run's memo
        assert V.tobytes() == V0.tobytes() and P.tobytes() == P0.tobytes()

    def test_each_block_is_digested_once_per_solve(self, monkeypatch):
        # a region block is a flow block, its periodic copy or its mirror
        # image: one digest per distinct run of source columns, not one per
        # region that holds it
        model, lam, labels = interface_start()
        n = model.spec.count
        regions = [flow_region(model, K)
                   for K in range(model.coarse.Nx * macro.FLOW_REFINE)]
        runs = {(int(ov.src_ix[r.sx][0]), int(ov.src_ix[r.sx][-1]))
                for ov in regions for r in ov.regions}
        assert len(runs) < sum(len(ov.regions) for ov in regions)
        digests = count_calls(monkeypatch, cells, "content_digest")
        V, P, _counts = macro._galerkin_velocity(model, lam, labels, n,
                                                 StepMemo(), StepMemo())
        assert len(digests) == len(runs) <= 2 * len(regions)
        # every key is its block's own content key
        for ov in regions:
            lam_l, lab_l = ov.sample(lam), ov.sample(labels)
            assert cells.region_keys(ov, lam_l, lab_l, n, {}) == [
                cells.piece_key(cells._piece_grid(ov), lam_l[r.sx],
                                lab_l[r.sx], n) for r in ov.regions]
        # and an engine that digests the blocks of its region afresh, not
        # taking the keys its region was looked up by, gives the same solve
        real = cells.build_region_engine
        monkeypatch.setattr(cells, "build_region_engine",
                            lambda ov, lam_l, lab_l, n, keys, pieces: real(
                                ov, lam_l, lab_l, n, pieces=pieces))
        digests.clear()
        V0, P0, _counts = macro._galerkin_velocity(model, lam, labels, n,
                                                   StepMemo(), StepMemo())
        per_region = sum(len({(int(ov.src_ix[r.sx][0]),
                               int(ov.src_ix[r.sx][-1])) for r in ov.regions})
                         for ov in regions)
        assert per_region > len(runs)
        assert len(digests) == len(runs) + per_region
        assert V.tobytes() == V0.tobytes() and P.tobytes() == P0.tobytes()

    @pytest.mark.parametrize("field", ["lam", "label"])
    @pytest.mark.parametrize("block", [0, 9, 19])
    def test_changed_block_rebuilds_only_the_regions_holding_it(
            self, monkeypatch, field, block):
        # one changed lam cell or flipped label in flow block ``block``
        # (the first has periodic copies, the last a mirror image): the
        # next solve rebuilds every region that samples that block and
        # takes every other region's operators from the solve before
        model, lam, labels = interface_start()
        n = model.spec.count
        regions = [flow_region(model, K)
                   for K in range(model.coarse.Nx * macro.FLOW_REFINE)]
        memos = StepMemo(), StepMemo()  # pieces, regions
        macro._galerkin_velocity(model, lam, labels, n, *memos)
        mx = regions[0].coarse.mx
        cell = (block * mx + mx // 2, 3)
        if field == "lam":
            lam = lam.copy()
            lam[cell] *= 2.0
        else:
            labels = labels.copy()
            labels[cell] = 1 - labels[cell]
        built = []
        real = cells.build_region_engine

        def spy(ov, *args, **kwargs):
            built.append(int(ov.src_ix[ov.central.sx][0]) // mx)
            return real(ov, *args, **kwargs)

        monkeypatch.setattr(cells, "build_region_engine", spy)
        V, P, (factored, _reused, reused) = macro._galerkin_velocity(
            model, lam, labels, n, *memos)
        holding = [K for K, ov in enumerate(regions) if cell[0] in ov.src_ix]
        assert 0 < len(holding) < len(regions)
        assert built == holding and reused == len(regions) - len(holding)
        # the changed block's own piece, and that of its mirror image
        runs = {(int(src[0]), int(src[-1])) for ov in regions
                for src in (ov.src_ix[r.sx] for r in ov.regions)
                if cell[0] in src}
        assert factored == len(runs) == (2 if block == 19 else 1)
        monkeypatch.setattr(cells, "build_region_engine", real)
        V0, P0, _counts = macro._galerkin_velocity(model, lam, labels, n,
                                                   StepMemo(), StepMemo())
        assert np.array_equal(V, V0) and np.array_equal(P, P0,
                                                        equal_nan=True)

    def test_regions_are_looked_up_by_the_keys_their_engine_gets(
            self, monkeypatch):
        # region K is looked up by (K, its engine's keys), and those very
        # keys keep its pieces for the next solve
        model, lam, labels = interface_start()
        looked, touched, handed = [], [], []
        real_build = cells.build_region_engine

        class Regions(StepMemo):
            def get(self, key, make):
                looked.append(key)
                return super().get(key, make)

        class Pieces(StepMemo):
            def touch(self, keys):
                touched.append(keys)
                super().touch(keys)

        def build(ov, lam_l, lab_l, n, keys, *, pieces):
            handed.append(keys)
            return real_build(ov, lam_l, lab_l, n, keys, pieces=pieces)

        monkeypatch.setattr(cells, "build_region_engine", build)
        macro._galerkin_velocity(model, lam, labels, model.spec.count,
                                 Pieces(), Regions())
        assert len(handed) == model.coarse.Nx * macro.FLOW_REFINE
        assert looked == [(K, tuple(keys)) for K, keys in enumerate(handed)]
        assert len(touched) == len(handed)
        assert all(a is b for a, b in zip(touched, handed))

    def test_no_earlier_engine_alive_at_a_factorization(self, monkeypatch):
        """Every region engine a Galerkin coarse solve built before is gone
        when it factors a block piece or the next region's face system."""
        model, lam, labels = interface_start()
        engines, alive = [], []
        real_build = cells.build_region_engine
        real_splu, real_chol = cells.splu, cells.cholesky_banded

        def build(*args, **kwargs):
            engine = real_build(*args, **kwargs)
            engines.append(weakref.ref(engine))
            return engine

        def factor(real):
            def spy(*args, **kwargs):
                alive.append(sum(ref() is not None for ref in engines))
                return real(*args, **kwargs)
            return spy

        monkeypatch.setattr(cells, "build_region_engine", build)
        monkeypatch.setattr(cells, "splu", factor(real_splu))
        monkeypatch.setattr(cells, "cholesky_banded", factor(real_chol))
        _V, _P, (factored, _reused, _regions) = macro._galerkin_velocity(
            model, lam, labels, model.spec.count, StepMemo(), StepMemo())
        regions = flow_region(model, 0).coarse.Nx
        assert len(engines) == regions
        assert alive == [0] * (factored + regions)


def interface_regions():
    """Every Galerkin region of the interface preset at t = 0, including
    the periodic-left and reflect-right ones."""
    model, lam, labels = interface_start()
    for K in range(model.coarse.Nx * macro.FLOW_REFINE):
        ov = flow_region(model, K)
        yield ov, ov.sample(lam), ov.sample(labels), model.spec.count


def edge_regions():
    """A one-block region (no layers) and a region truncated at the domain
    edge, on a random three-continuum strip at contrast 100."""
    fine_grid = FineGrid(24, 10, 6.0, 2.5)
    coarse = CoarseGrid(fine_grid, 6)
    labels = classify(rng(31).random((24, 10)), ContinuumSpec(TRIPLE))
    lam = np.where(rng(32).random((24, 10)) < 0.5, 100.0, 1.0)
    for K, layers, rule in ((2, 0, "periodic-left,reflect-right"),
                            (0, 2, "none")):
        ov = oversample_block(coarse, K, layers, rule=rule)
        yield ov, ov.sample(lam), ov.sample(labels), 3


class TestBlockSubstructuring:
    """The region engine against the monolithic KKT, and its checks."""

    @pytest.mark.parametrize("regions", ["partitions", "interface",
                                         "edges"])
    def test_every_family_matches_the_monolithic_kkt(self, regions):
        if regions == "partitions":  # criterion 2's
            found = [random_partition_region(nx, nx, bx, seed, contrast,
                                             thr)
                     for nx, bx, seed, contrast, thr in CASES]
        else:
            found = list(interface_regions() if regions == "interface"
                         else edge_regions())
        if regions == "edges":
            assert [len(ov.regions) for ov, *_ in found] == [1, 3]
        worst = 0.0
        for ov, lam, labels, n in found:
            got = cells.solve_constrained_elliptic(ov, lam, labels, n,
                                                   cells.FAMILIES)
            for family, bset in zip(cells.FAMILIES, got):
                want, _rows = elliptic_oracle(ov, lam, labels, n, family,
                                              kkt="splu")
                for i, u in want.items():
                    gap = np.abs(bset.by_continuum(i).scalar - u).max()
                    worst = max(worst, gap / max(np.abs(u).max(), 1.0))
        assert worst <= 1e-12

    @pytest.mark.parametrize("piece", range(4))
    def test_scaled_schur_piece_rejected(self, piece):
        # the families of a Galerkin solve, on the first interface region
        # at t = 0 with one of its 4 cached pieces scaled by 1 + 1e-6
        model, lam, labels = interface_start()
        ov = flow_region(model, 0)
        args = (ov, ov.sample(lam), ov.sample(labels), model.spec.count)
        families = ("average", "gradient")
        memo = StepMemo()
        cells.solve_constrained_elliptic(*args, families,
                                         engine=cells.build_region_engine(
                                             *args, pieces=memo))
        list(memo.entries.values())[piece].band *= 1.0 + 1e-6
        engine = cells.build_region_engine(*args, pieces=memo)
        with pytest.raises(SolverError, match="KKT residual"):
            cells.solve_constrained_elliptic(*args, families, engine=engine)

    def test_memo_keeps_only_the_last_solves_pieces(self):
        model, lam, labels = interface_start()
        n = model.spec.count
        memo = StepMemo()
        macro._galerkin_velocity(model, lam, labels, n, memo, StepMemo())
        first = set(memo.entries)
        # one changed lam cell changes the content of one flow block
        lam2 = lam.copy()
        lam2[5, 3] *= 2.0
        _V, _P, (factored, _reused, _regions) = macro._galerkin_velocity(
            model, lam2, labels, n, memo, StepMemo())
        assert factored >= 1 and memo.used == set()
        probe = StepMemo()
        for K in range(model.coarse.Nx * macro.FLOW_REFINE):
            ov = flow_region(model, K)
            cells.build_region_engine(ov, ov.sample(lam2),
                                      ov.sample(labels), n, pieces=probe)
        assert set(memo.entries) == set(probe.entries) != first

    def test_repeat_solve_is_bit_identical(self):
        model, lam, labels = interface_start()
        n = model.spec.count
        memos = StepMemo(), StepMemo()  # pieces, regions
        V, P, (factored, _reused, _regions) = macro._galerkin_velocity(
            model, lam, labels, n, *memos)
        pieces = set(memos[0].entries)
        # every region is taken whole from the solve before, and keeps its
        # pieces alive for the next solve
        V2, P2, counts = macro._galerkin_velocity(model, lam, labels, n,
                                                  *memos)
        assert factored > 0
        assert counts == (0, 0, model.coarse.Nx * macro.FLOW_REFINE)
        assert set(memos[0].entries) == pieces
        assert V.tobytes() == V2.tobytes() and P.tobytes() == P2.tobytes()

    def test_one_column_blocks(self):
        # mx = 1: a block's first and last cell column coincide
        fine_grid = FineGrid(6, 5, 3.0, 2.5)
        coarse = CoarseGrid(fine_grid, 6)
        labels = classify(rng(41).random((6, 5)), ContinuumSpec(DUAL))
        lam = np.where(labels == 0, 10.0, 1.0)
        ov = oversample_block(coarse, 2, 2, rule="none")
        lam_l, lab_l = ov.sample(lam), ov.sample(labels)
        got = cells.solve_constrained_elliptic(ov, lam_l, lab_l, 2,
                                               "gradient")
        want, _rows = elliptic_oracle(ov, lam_l, lab_l, 2, "gradient")
        for i, u in want.items():
            assert np.abs(got.by_continuum(i).scalar - u).max() <= 1e-12 * max(
                np.abs(u).max(), 1.0)


def strip_setup(nx=16, ny=4, Nx=4, seed=0, contrast=1.0, thresholds=DUAL):
    fine = FineGrid(nx, ny, float(nx) / 4, 1.0)
    coarse = CoarseGrid(fine, Nx)
    c = rng(seed).random((nx, ny))
    labels = classify(c, ContinuumSpec(thresholds))
    lam = np.where(rng(seed + 100).random((nx, ny)) < 0.5, contrast, 1.0)
    return coarse, lam, labels


class TestEdgeFluxBasis:
    def test_single_continuum_uniform_unit_flux(self):
        coarse, lam, _ = strip_setup(contrast=1.0)
        labels = np.zeros((16, 4), dtype=np.int8)
        elab = np.zeros(4, dtype=np.int8)
        out = cells.solve_edge_flux_basis(coarse, 2, np.ones((16, 4)), labels,
                                          0, elab, variant="uniform")
        b = out.bases[0]
        mid = coarse.mx  # local index of the shared edge column
        assert np.allclose(b.fx[mid, :], 1.0, atol=1e-12)

    def test_edge_flux_equals_continuum_face_count(self):
        coarse, lam, labels = strip_setup(seed=3, contrast=10.0)
        elab = labels[coarse.mx]  # edge 1, plus-side convention for the test
        for k in (0, 1):
            out = cells.solve_edge_flux_basis(coarse, 1, lam, labels, k, elab)
            b = out.bases[0]
            share = (elab == k).sum() * coarse.fine.hy
            if share == 0:
                assert b.flag == "absent"
                continue
            mid = coarse.mx
            got = (b.fx[mid, :] * (elab == k)).sum() * coarse.fine.hy
            assert got == pytest.approx(share, rel=1e-12)

    @pytest.mark.parametrize("variant", ["uniform", "psi"])
    def test_compatibility_source_balances_edge_share(self, variant):
        coarse, lam, labels = strip_setup(seed=4, contrast=1000.0)
        elab = labels[2 * coarse.mx]
        out = cells.solve_edge_flux_basis(coarse, 2, lam, labels, 0, elab,
                                          variant=variant)
        b = out.bases[0]
        S = b.extras["edge_flux"]
        area = coarse.fine.cell_area
        for blk, src in b.extras["sources"].items():
            if variant == "uniform":
                total = src * coarse.mx * coarse.my * area
            else:
                psi = indicator(labels[coarse.block_slice(blk)], 0)
                total = src * psi.sum() * area
            assert abs(abs(total) - S) <= 1e-12 * max(S, 1.0)

    def test_divergence_matches_source_field(self):
        coarse, lam, labels = strip_setup(seed=5, contrast=10.0)
        elab = labels[2 * coarse.mx]
        out = cells.solve_edge_flux_basis(coarse, 2, lam, labels, 1, elab,
                                          variant="psi")
        b = out.bases[0]
        div = divergence(out.grid, b.fx, b.fy)
        # net divergence over each block equals the signed edge share
        S = b.extras["edge_flux"]
        mx = coarse.mx
        assert div[:mx, :].sum() == pytest.approx(S, rel=1e-10)
        assert div[mx:, :].sum() == pytest.approx(-S, rel=1e-10)


class TestGravityBasis:
    def test_full_continuum_constant_lam_is_hydrostatic(self):
        coarse, _, _ = strip_setup()
        labels = np.zeros((16, 4), dtype=np.int8)
        out = cells.solve_gravity_basis(coarse, 1, np.ones((16, 4)),
                                        labels, 0)
        b = out.bases[0]
        assert np.abs(b.fx).max() <= 1e-10 and np.abs(b.fy).max() <= 1e-10

    def test_recirculation_is_divergence_free_and_closed(self):
        coarse, lam, labels = strip_setup(seed=6, contrast=10.0)
        out = cells.solve_gravity_basis(coarse, 2, lam, labels, 0)
        b = out.bases[0]
        assert b.flag is None
        assert np.abs(b.fx[0, :]).max() == 0.0
        assert np.abs(b.fx[-1, :]).max() == 0.0
        assert np.abs(b.fy[:, 0]).max() == 0.0
        assert np.abs(b.fy[:, -1]).max() == 0.0
        div = divergence(out.grid, b.fx, b.fy)
        # driven by div(lam psi e1): block-total divergence cancels
        assert abs(div.sum()) <= 1e-10

    def test_absent_continuum_flagged(self):
        coarse, lam, _ = strip_setup()
        labels = np.zeros((16, 4), dtype=np.int8)
        out = cells.solve_gravity_basis(coarse, 0, lam, labels, 1)
        assert out.bases[0].flag == "absent"


class TestInterfaceBasis:
    def test_theta_is_mass_ratio(self):
        coarse, lam, _ = strip_setup()
        labels = np.ones((16, 4), dtype=np.int8)
        sx = coarse.block_slice(1)
        labels[sx, :2] = 0  # half the block -> theta = 1
        out = cells.solve_interface_basis(coarse, 1, np.ones((16, 4)),
                                          labels)
        assert out.bases[0].extras["theta"] == pytest.approx(1.0)
        labels2 = np.ones((16, 4), dtype=np.int8)
        labels2[sx][:2, :2] = 0  # quarter of the block -> theta = 1/3
        out2 = cells.solve_interface_basis(coarse, 1, np.ones((16, 4)),
                                           labels2)
        assert out2.bases[0].extras["theta"] == pytest.approx(1.0 / 3.0)

    def test_divergence_and_no_flow_contract(self):
        coarse, lam, labels = strip_setup(seed=7, contrast=1000.0)
        out = cells.solve_interface_basis(coarse, 2, lam, labels)
        b = out.bases[0]
        if b.flag == "absent":
            pytest.skip("random partition left one continuum empty")
        assert np.abs(b.fx[0, :]).max() == 0.0
        assert np.abs(b.fx[-1, :]).max() == 0.0
        div = divergence(out.grid, b.fx, b.fy) / out.grid.cell_area
        assert np.abs(div - b.extras["div"]).max() <= 1e-9
        assert abs(b.extras["div"].sum()) <= 1e-12  # compatibility

    def test_single_continuum_block_flagged(self):
        coarse, lam, _ = strip_setup()
        labels = np.zeros((16, 4), dtype=np.int8)
        out = cells.solve_interface_basis(coarse, 0, lam, labels)
        assert out.bases[0].flag == "absent"


class TestBlockFamilies:
    """Blocks with equal lam share one solve_flow call and one splu."""

    def spy(self, monkeypatch):
        calls = {"solve_flow": 0, "splu": 0}
        inside = []
        real_flow, real_splu = cells.solve_flow, fine.splu

        def flow(*args, **kwargs):
            calls["solve_flow"] += 1
            inside.append(True)
            try:
                return real_flow(*args, **kwargs)
            finally:
                inside.pop()

        def factor(*args, **kwargs):
            assert inside, "splu reached outside cells.solve_flow"
            calls["splu"] += 1
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(cells, "solve_flow", flow)
        monkeypatch.setattr(fine, "splu", factor)
        return calls

    def loads(self, coarse, labels):
        elab = labels[coarse.mx]
        items = [(I, cells.gravity_load(coarse, I, labels, k))
                 for I in coarse.blocks() for k in (0, 1)]
        items += [(I, found[1]) for I in coarse.blocks()
                  if (found := cells.interface_load(coarse, I, labels))]
        items += cells.edge_flux_loads(coarse, 1, labels, 0, elab)[2]
        return [(I, load) for I, load in items if load is not None]

    @pytest.mark.parametrize("split", [False, True])
    def test_one_factorization_per_distinct_block(self, monkeypatch, split):
        coarse, _, labels = strip_setup(seed=8)
        lam = np.full((16, 4), 3.0)
        if split:
            lam[coarse.block_slice(2)][1, 2] = 30.0
        items = self.loads(coarse, labels)
        want = [cells.solve_block_loads(coarse, lam, [item])[0]
                for item in items]
        calls = self.spy(monkeypatch)
        got = cells.solve_block_loads(coarse, lam, items)
        assert calls == {"solve_flow": 1 + split, "splu": 1 + split}
        assert len(got) == len(want) >= 8
        for g, w in zip(got, want):
            for a, b in zip(g, w, strict=True):
                assert np.array_equal(a, b)
