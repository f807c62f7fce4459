"""Effective-coefficient assembly: oracles, symmetry, and conservation."""

import numpy as np
import pytest

from _oracles import random_partition_region
from dynmc import cells, macro
from dynmc.fine import harmonic_face_mobility
from dynmc.grids import CoarseGrid, FineGrid, oversample_block


def region_energy_oracle(ov, lam, u, v):
    """Independent scalar loop over interior faces of the local grid."""
    grid = ov.grid
    inside = np.zeros((grid.nx, grid.ny))
    inside[ov.central] = 1.0
    lamx, lamy = harmonic_face_mobility(lam)
    total = 0.0
    for i in range(grid.nx - 1):
        for j in range(grid.ny):
            w = 0.5 * (inside[i, j] + inside[i + 1, j])
            t = lamx[i, j] * grid.hy / grid.hx
            total += w * t * (u[i + 1, j] - u[i, j]) * (v[i + 1, j] - v[i, j])
    for i in range(grid.nx):
        for j in range(grid.ny - 1):
            w = 0.5 * (inside[i, j] + inside[i, j + 1])
            t = lamy[i, j] * grid.hx / grid.hy
            total += w * t * (u[i, j + 1] - u[i, j]) * (v[i, j + 1] - v[i, j])
    return total / ov.coarse.block_area


def solve_ops(ov, lam, labels, n):
    engine = cells.build_region_engine(ov, lam, labels, n)
    avg = cells.solve_constrained_elliptic(ov, lam, labels, n, "average",
                                           engine=engine)
    grad = cells.solve_constrained_elliptic(ov, lam, labels, n, "gradient",
                                            engine=engine)
    return macro.assemble_effective(ov, lam, labels, n, avg, grad), avg, grad


def check_against_oracle(ov, lam, labels, n):
    """Every alpha entry and every off-diagonal beta entry between present
    continua equals the scalar face loop over the solved bases."""
    ops, avg, grad = solve_ops(ov, lam, labels, n)
    for coef, bset in ((ops.alpha, grad), (ops.beta, avg)):
        for i in np.flatnonzero(ops.present):
            for j in np.flatnonzero(ops.present):
                if coef is ops.beta and i == j:
                    continue
                expect = region_energy_oracle(ov, lam,
                                              bset.by_continuum(i).scalar,
                                              bset.by_continuum(j).scalar)
                assert coef[i, j] == pytest.approx(expect, rel=1e-12,
                                                   abs=1e-12)
    return ops


class TestAssembleEffective:
    def test_single_continuum_unit_alpha_zero_beta(self):
        fine = FineGrid(12, 12, 3.0, 3.0)
        coarse = CoarseGrid(fine, 3)
        ov = oversample_block(coarse, 1, 1, truncate=True)
        lam = np.ones((12, 12))
        labels = np.zeros((12, 12), dtype=np.int8)
        ops, _, _ = solve_ops(ov, ov.sample(lam), ov.sample(labels), 1)
        assert ops.alpha[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert ops.beta[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_summation_oracle(self):
        ov, lam, labels, n = random_partition_region(8, 8, 2, 21, 10.0,
                                                     (0.5,))
        check_against_oracle(ov, lam, labels, n)

    def test_continuum_absent_from_central_block_has_no_coefficients(self):
        fine = FineGrid(12, 12, 12.0, 12.0)
        coarse = CoarseGrid(fine, 3)
        gen = np.random.Generator(np.random.Philox(25))
        labels = gen.integers(0, 3, (12, 12)).astype(np.int8)
        labels[4:8, :] = gen.integers(0, 2, (4, 12))  # no continuum 2
        lam = np.where(gen.random((12, 12)) < 0.5, 10.0, 1.0)
        ov = oversample_block(coarse, 1, 1, truncate=True)
        lam_l, lab_l = ov.sample(lam), ov.sample(labels)
        ops = check_against_oracle(ov, lam_l, lab_l, 3)
        assert ops.present.tolist() == [True, True, False]
        for coef in (ops.alpha, ops.beta):
            assert not coef[2, :].any() and not coef[:, 2].any()
            assert (coef[:2, :2] != 0.0).all()

    def test_alpha_symmetric_and_psd_under_contrast(self):
        ov, lam, labels, n = random_partition_region(12, 12, 3, 22, 1000.0,
                                                     (0.5,))
        ops, _, _ = solve_ops(ov, lam, labels, n)
        sub = ops.alpha[np.ix_(ops.present, ops.present)]
        assert np.abs(sub - sub.T).max() <= 1e-10 * np.abs(sub).max()
        assert np.linalg.eigvalsh(0.5 * (sub + sub.T)).min() >= -1e-10

    def test_high_contrast_dominates_diagonal(self):
        ov, _lam, labels, n = random_partition_region(12, 12, 3, 23, 1000.0,
                                                      (0.5,))
        # the helper draws lam independently of the labels; give continuum
        # 0 the high mobility so that its gradient energy must dominate
        lam = np.where(labels == 0, 1000.0, 1.0)
        ops, _, _ = solve_ops(ov, lam, labels, n)
        if ops.present.all():
            assert ops.alpha[0, 0] > ops.alpha[1, 1]

    def test_beta_rows_balance_over_present_continua(self):
        ov, lam, labels, n = random_partition_region(12, 12, 3, 24, 10.0,
                                                     (0.8, 0.4))
        ops, _, _ = solve_ops(ov, lam, labels, n)
        for i in range(n):
            if ops.present[i]:
                row = sum(ops.beta[i, j] for j in range(n) if ops.present[j])
                assert abs(row) <= 1e-12
