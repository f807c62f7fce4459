"""Continuum labeling, macroscopic averages, and the label-advection oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import continuum_masses_loops
from conftest import rng
from dynmc.continua import (ContinuumSpec, DUAL_THRESHOLDS, TRIPLE_THRESHOLDS,
                            advect_labels, averages, classify, classify_values,
                            continuum_masses, indicator, label_agreement,
                            single_continuum)
from dynmc.exceptions import ConfigError
from dynmc.grids import CoarseGrid, FineGrid


class TestClassify:
    def test_dual_lower_endpoint_closed(self):
        spec = ContinuumSpec(DUAL_THRESHOLDS)
        assert spec.label_of(0.5) == 0
        assert spec.label_of(0.499999) == 1
        assert spec.label_of(1.0) == 0
        assert spec.label_of(0.0) == 1

    def test_triple_band_membership(self):
        spec = ContinuumSpec(TRIPLE_THRESHOLDS)
        assert spec.label_of(0.9) == 0
        assert spec.label_of(0.8) == 0  # closed at the band's lower edge
        assert spec.label_of(0.4) == 1
        assert spec.label_of(0.2) == 2

    def test_all_zero_maps_to_last_continuum(self):
        spec = ContinuumSpec(TRIPLE_THRESHOLDS)
        labels = classify(np.zeros((4, 4)), spec)
        assert (labels == spec.count - 1).all()

    def test_nonfinite_rejected(self):
        spec = ContinuumSpec(DUAL_THRESHOLDS)
        c = np.zeros((2, 2))
        c[0, 0] = np.nan
        with pytest.raises(ConfigError):
            classify(c, spec)

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            ContinuumSpec((0.4, 0.8))
        with pytest.raises(ConfigError):
            ContinuumSpec((1.0,))

    def test_single_continuum(self):
        spec = single_continuum()
        assert spec.count == 1
        assert (classify(rng(0).random((3, 3)), spec) == 0).all()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       nthr=st.integers(0, 3))
def test_partition_completeness(seed, nthr):
    thresholds = tuple(np.round(np.linspace(0.8, 0.2, nthr), 3)) if nthr else ()
    spec = ContinuumSpec(thresholds)
    c = rng(seed).random((6, 5))
    labels = classify(c, spec)
    total = sum(indicator(labels, k) for k in range(spec.count))
    assert (total == 1.0).all()


class TestAverages:
    def setup_method(self):
        self.fine = FineGrid(8, 4, 2.0, 1.0)
        self.coarse = CoarseGrid(self.fine, 2)
        self.spec = ContinuumSpec(DUAL_THRESHOLDS)

    def test_single_continuum_block_means(self):
        spec = single_continuum()
        c = rng(1).random((8, 4))
        p = rng(2).random((8, 4))
        vx, _ = self.fine.zero_faces()
        av = averages(self.coarse, p, c, vx, classify(c, spec), 1)
        sx = self.coarse.block_slice(0)
        assert av.C[0, 0] == pytest.approx(
            c[sx].sum() * self.fine.cell_area, rel=1e-14)
        assert av.P[0, 0] == pytest.approx(p[sx].mean(), rel=1e-14)

    def test_half_block_plateau(self):
        c = np.zeros((8, 4))
        c[:2, :] = 1.0  # left half of block 0
        vx, _ = self.fine.zero_faces()
        av = averages(self.coarse, np.zeros_like(c), c, vx,
                      classify(c, self.spec), 2)
        block_area = self.coarse.block_area
        assert av.C[0, 0] == pytest.approx(0.5 * block_area)
        assert av.C[0, 1] == 0.0  # c = 0 contributes nothing
        assert np.isnan(av.P[1, 0])  # continuum absent in block 1

    def test_matches_direct_summation_oracle(self):
        c = rng(3).random((8, 4))
        p = rng(4).random((8, 4))
        labels = classify(c, self.spec)
        vx, _ = self.fine.zero_faces()
        av = averages(self.coarse, p, c, vx, labels, 2)
        area = self.fine.cell_area
        for I in range(2):
            for k in range(2):
                tot, cnt, ptot = 0.0, 0, 0.0
                for i in range(I * 4, (I + 1) * 4):
                    for j in range(4):
                        if labels[i, j] == k:
                            tot += c[i, j] * area
                            ptot += p[i, j]
                            cnt += 1
                assert av.C[I, k] == pytest.approx(tot, abs=1e-14)
                if cnt:
                    assert av.P[I, k] == pytest.approx(ptot / cnt, rel=1e-13)

    def test_mass_ledger_exact(self):
        c = rng(5).random((8, 4))
        labels = classify(c, self.spec)
        vx, _ = self.fine.zero_faces()
        av = averages(self.coarse, np.zeros_like(c), c, vx, labels, 2)
        assert av.C.sum() == pytest.approx(c.sum() * self.fine.cell_area,
                                           rel=1e-14)

    def test_edge_flux_decomposition_sums_to_total(self):
        c = rng(6).random((8, 4))
        labels = classify(c, self.spec)
        vx, _ = self.fine.zero_faces()
        vx[:, :] = rng(7).standard_normal((9, 4))
        av = averages(self.coarse, np.zeros_like(c), c, vx, labels, 2)
        assert av.V.shape == (self.coarse.Nx + 1, 2)
        for I, v in enumerate(av.V):
            total = vx[I * self.coarse.mx].sum() * self.fine.hy
            assert v.sum() == pytest.approx(total, abs=1e-13)

    def test_continuum_masses_partition_block_area(self):
        c = rng(8).random((8, 4))
        labels = classify(c, self.spec)
        m = continuum_masses(labels, self.coarse, 2)
        assert np.allclose(m.sum(axis=1), self.coarse.block_area)

    @pytest.mark.parametrize("thresholds", [(), DUAL_THRESHOLDS,
                                            TRIPLE_THRESHOLDS])
    @pytest.mark.parametrize("Nx", [1, 3, 6])
    def test_continuum_masses_match_per_block_counts(self, thresholds, Nx):
        spec = ContinuumSpec(thresholds)
        coarse = CoarseGrid(FineGrid(12, 5, 3.0, 1.25), Nx)
        c = rng(Nx).random((12, 5)) ** 2  # skews toward the low continua
        c[:coarse.mx] = 0.0  # block 0 holds only the last continuum
        labels = classify(c, spec)
        got = continuum_masses(labels, coarse, spec.count)
        assert np.array_equal(
            got, continuum_masses_loops(labels, coarse, spec.count))


class TestAdvectLabels:
    def test_zero_velocity_keeps_labels(self):
        grid = FineGrid(8, 8, 1.0, 1.0)
        labels0 = (rng(0).random((8, 8)) > 0.5).astype(np.int8)
        vx, vy = grid.zero_faces()
        series = advect_labels(grid, labels0, [(vx, vy)] * 3, tau=0.01)
        for lab in series:
            assert (lab == labels0).all()

    def test_uniform_translation_shifts_one_cell_per_step(self):
        grid = FineGrid(10, 1, 10.0, 1.0)
        labels0 = np.zeros((10, 1), dtype=np.int8)
        labels0[:3, 0] = 1
        vx, vy = grid.zero_faces()
        vx[:, :] = 1.0
        series = advect_labels(grid, labels0, [(vx, vy)] * 2, tau=grid.hx)
        # the label front advances exactly one cell per step (traces behind
        # the front reflect at the left boundary and keep its label)
        assert (series[1][:4, 0] == 1).all() and (series[1][4:, 0] == 0).all()
        assert (series[2][:5, 0] == 1).all() and (series[2][5:, 0] == 0).all()

    def test_agreement_metric(self):
        a = np.zeros((6, 6), dtype=np.int8)
        b = a.copy()
        assert label_agreement(a, b) == 1.0
        b[0, 0] = 1
        frac = label_agreement(a, b, exclude_band=0)
        assert frac == pytest.approx(35 / 36)
        # the flipped cell sits inside its own interface band once excluded
        assert label_agreement(a, b, exclude_band=1) == 1.0
