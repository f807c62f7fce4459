"""Constrained cell problems: constraints, oracles, and flux-basis contracts."""

import numpy as np
import pytest

from _oracles import (dense_kkt_solve, elliptic_oracle, moment_residuals,
                      random_partition_region)
from conftest import rng
from dynmc import cells
from dynmc.continua import classify, ContinuumSpec, indicator
from dynmc.exceptions import ConfigError, SolverError
from dynmc.fine import divergence
from dynmc.grids import CoarseEdge, CoarseGrid, FineGrid, oversample_block

DUAL = (0.5,)
TRIPLE = (0.8, 0.4)

CASES = [(8, 2, 0, 1.0, DUAL), (8, 2, 1, 10.0, DUAL),
         (8, 2, 2, 1000.0, DUAL), (12, 3, 3, 10.0, TRIPLE),
         (12, 3, 4, 1000.0, TRIPLE), (12, 3, 5, 1.0, TRIPLE)]


def single_continuum_region(nx=8):
    fine = FineGrid(nx, nx, float(nx), float(nx))
    coarse = CoarseGrid(fine, 2, 2)
    ov = oversample_block(coarse, (1, 1), 1, rule="none")
    lam = np.ones((nx, nx))
    labels = np.zeros((nx, nx), dtype=np.int8)
    return ov, ov.sample(lam), ov.sample(labels)


class TestGalerkinFamilies:
    def test_single_continuum_average_is_one(self):
        ov, lam, labels = single_continuum_region()
        out = cells.solve_constrained_elliptic(ov, lam, labels, 1, "average")
        b = out.by_continuum(0)
        assert np.allclose(b.scalar, 1.0, atol=1e-10)
        assert max(abs(v) for v in b.multipliers.values()) < 1e-9

    def test_single_continuum_gradient_is_linear(self):
        ov, lam, labels = single_continuum_region()
        out = cells.solve_constrained_elliptic(ov, lam, labels, 1, "gradient",
                                               direction=0)
        b = out.by_continuum(0)
        xg, _ = ov.grid.cell_centers()
        assert np.allclose(b.scalar, xg - b.extras["center"], atol=1e-9)

    @pytest.mark.parametrize("nx,bx,seed,contrast,thr", CASES)
    @pytest.mark.parametrize("family", ["average", "gradient",
                                        "concentration"])
    def test_constraints_and_dense_oracle(self, nx, bx, seed, contrast, thr,
                                          family):
        ov, lam, labels, n = random_partition_region(nx, nx, bx, bx, seed,
                                                     contrast, thr)
        out = cells.solve_constrained_elliptic(ov, lam, labels, n, family,
                                               direction=0)
        oracle, rows = elliptic_oracle(ov, lam, labels, n, family)
        centers = (cells.gradient_centers(ov, labels, n, 0)
                   if family == "gradient" else None)
        for i, expect in oracle.items():
            b = out.by_continuum(i)
            assert b.residual <= 1e-9
            scale = max(np.abs(expect).max(), 1.0)
            assert np.abs(b.scalar - expect).max() <= 1e-10 * scale
            if family != "concentration":
                res = moment_residuals(ov, labels, rows, i, b.scalar,
                                       family, 0, centers)
                assert np.abs(res).max() <= 1e-9

    def test_unknown_family_rejected(self):
        ov, lam, labels = single_continuum_region()
        with pytest.raises(ConfigError):
            cells.solve_constrained_elliptic(ov, lam, labels, 1, "spectral")

    def test_absent_continuum_flagged(self):
        ov, lam, labels = single_continuum_region()
        out = cells.solve_constrained_elliptic(ov, lam, labels, 2, "average")
        assert out.by_continuum(1).flag == "absent"


class TestSaddleSolver:
    def check_dense_oracle(self, sparse_path):
        ov, lam, labels, n = random_partition_region(8, 8, 2, 2, 9, 10.0,
                                                     DUAL)
        A = cells.assemble_stiffness(ov.grid, lam)
        C, rows = cells.region_moment_matrix(ov, labels, n)
        solver = cells.SaddleSolver(A, C)
        assert (solver._lu is not None) == sparse_path
        b = rng(10).standard_normal(ov.grid.n_cells)
        g = rng(11).standard_normal(len(rows))
        sol = solver.solve(b, g)
        u, mu = dense_kkt_solve(A, C, b, g)
        assert np.abs(sol.u - u).max() <= 1e-10 * max(np.abs(u).max(), 1.0)
        assert np.abs(sol.multipliers - mu).max() <= 1e-10 * max(
            np.abs(mu).max(), 1.0)

    def test_matches_dense_oracle_directly(self):
        self.check_dense_oracle(sparse_path=False)

    def test_sparse_path_matches_dense_oracle(self, monkeypatch):
        monkeypatch.setattr(cells, "DENSE_LIMIT", 0)
        self.check_dense_oracle(sparse_path=True)

    @pytest.mark.parametrize("sparse_path", [False, True])
    def test_large_kkt_residual_rejected(self, monkeypatch, sparse_path):
        if sparse_path:
            monkeypatch.setattr(cells, "DENSE_LIMIT", 0)
        ov, lam, labels, n = random_partition_region(8, 8, 2, 2, 9, 10.0,
                                                     DUAL)
        A = cells.assemble_stiffness(ov.grid, lam)
        C, rows = cells.region_moment_matrix(ov, labels, n)
        solver = cells.SaddleSolver(A, C)
        b = rng(10).standard_normal(ov.grid.n_cells)
        g = rng(11).standard_normal(len(rows))
        solver.solve(b, g)

        # shifted multipliers leave C u - g at zero but break A u + C^T mu = b
        def shifted(solve):
            def wrapper(*args):
                sol = solve(*args).copy()
                sol[solver.n:] += 1.0
                return sol
            return wrapper

        if sparse_path:
            monkeypatch.setattr(solver, "_lu", type(
                "ShiftedLU", (), {"solve": staticmethod(
                    shifted(solver._lu.solve))})())
        else:
            monkeypatch.setattr(np.linalg, "solve", shifted(np.linalg.solve))
        with pytest.raises(SolverError, match="KKT residual"):
            solver.solve(b, g)

    def test_empty_constraints_rejected(self):
        ov, lam, labels = single_continuum_region()
        A = cells.assemble_stiffness(ov.grid, lam)
        with pytest.raises(SolverError):
            cells.SaddleSolver(A, A[:0, :])


def strip_setup(nx=16, ny=4, Nx=4, seed=0, contrast=1.0, thresholds=DUAL):
    fine = FineGrid(nx, ny, float(nx) / 4, 1.0)
    coarse = CoarseGrid(fine, Nx, 1)
    c = rng(seed).random((nx, ny))
    labels = classify(c, ContinuumSpec(thresholds))
    lam = np.where(rng(seed + 100).random((nx, ny)) < 0.5, contrast, 1.0)
    return coarse, lam, labels


class TestEdgeFluxBasis:
    def test_single_continuum_uniform_unit_flux(self):
        coarse, lam, _ = strip_setup(contrast=1.0)
        labels = np.zeros((16, 4), dtype=np.int8)
        e = CoarseEdge("x", 2, 0)
        elab = np.zeros(4, dtype=np.int8)
        out = cells.solve_edge_flux_basis(coarse, e, np.ones((16, 4)), labels,
                                          0, elab, variant="uniform")
        b = out.bases[0]
        mid = coarse.mx  # local index of the shared edge column
        assert np.allclose(b.fx[mid, :], 1.0, atol=1e-12)

    def test_edge_flux_equals_continuum_face_count(self):
        coarse, lam, labels = strip_setup(seed=3, contrast=10.0)
        e = CoarseEdge("x", 1, 0)
        fi, sl = coarse.edge_faces(e)
        elab = labels[fi, sl]  # plus-side convention for the test
        for k in (0, 1):
            out = cells.solve_edge_flux_basis(coarse, e, lam, labels, k, elab)
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
        e = CoarseEdge("x", 2, 0)
        fi, sl = coarse.edge_faces(e)
        elab = labels[fi, sl]
        out = cells.solve_edge_flux_basis(coarse, e, lam, labels, 0, elab,
                                          variant=variant)
        b = out.bases[0]
        S = b.extras["edge_flux"]
        area = coarse.fine.cell_area
        for blk, src in b.extras["sources"].items():
            sx, sy = coarse.block_slices(*blk)
            if variant == "uniform":
                total = src * coarse.mx * coarse.my * area
            else:
                psi = indicator(labels[sx, sy], 0)
                total = src * psi.sum() * area
            assert abs(abs(total) - S) <= 1e-12 * max(S, 1.0)

    def test_divergence_matches_source_field(self):
        coarse, lam, labels = strip_setup(seed=5, contrast=10.0)
        e = CoarseEdge("x", 2, 0)
        fi, sl = coarse.edge_faces(e)
        elab = labels[fi, sl]
        out = cells.solve_edge_flux_basis(coarse, e, lam, labels, 1, elab,
                                          variant="psi")
        b = out.bases[0]
        div = divergence(out.grid, b.fx, b.fy)
        # net divergence over each block equals the signed edge share
        S = b.extras["edge_flux"]
        mx = coarse.mx
        assert div[:mx, :].sum() == pytest.approx(S, rel=1e-10)
        assert div[mx:, :].sum() == pytest.approx(-S, rel=1e-10)

    def test_y_edges_rejected(self):
        coarse, lam, labels = strip_setup()
        with pytest.raises(ConfigError):
            cells.solve_edge_flux_basis(coarse, CoarseEdge("y", 1, 0), lam,
                                        labels, 0, np.zeros(4, dtype=np.int8))


class TestGravityBasis:
    def test_full_continuum_constant_lam_is_hydrostatic(self):
        coarse, _, _ = strip_setup()
        labels = np.zeros((16, 4), dtype=np.int8)
        out = cells.solve_gravity_basis(coarse, (1, 0), np.ones((16, 4)),
                                        labels, 0)
        b = out.bases[0]
        assert np.abs(b.fx).max() <= 1e-10 and np.abs(b.fy).max() <= 1e-10

    def test_recirculation_is_divergence_free_and_closed(self):
        coarse, lam, labels = strip_setup(seed=6, contrast=10.0)
        out = cells.solve_gravity_basis(coarse, (2, 0), lam, labels, 0)
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
        out = cells.solve_gravity_basis(coarse, (0, 0), lam, labels, 1)
        assert out.bases[0].flag == "absent"


class TestInterfaceBasis:
    def test_theta_is_mass_ratio(self):
        coarse, lam, _ = strip_setup()
        labels = np.ones((16, 4), dtype=np.int8)
        sx, sy = coarse.block_slices(1, 0)
        labels[sx, sy][:, :2] = 0  # half the block -> theta = 1
        out = cells.solve_interface_basis(coarse, (1, 0), np.ones((16, 4)),
                                          labels)
        assert out.bases[0].extras["theta"] == pytest.approx(1.0)
        labels2 = np.ones((16, 4), dtype=np.int8)
        labels2[sx, sy][:2, :2] = 0  # quarter of the block -> theta = 1/3
        out2 = cells.solve_interface_basis(coarse, (1, 0), np.ones((16, 4)),
                                           labels2)
        assert out2.bases[0].extras["theta"] == pytest.approx(1.0 / 3.0)

    def test_divergence_and_no_flow_contract(self):
        coarse, lam, labels = strip_setup(seed=7, contrast=1000.0)
        out = cells.solve_interface_basis(coarse, (2, 0), lam, labels)
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
        out = cells.solve_interface_basis(coarse, (0, 0), lam, labels)
        assert out.bases[0].flag == "absent"
