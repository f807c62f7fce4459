"""Grid geometry, coarse partitions, oversampling, and domain layouts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynmc.exceptions import ConfigError
from dynmc.grids import CoarseGrid, FineGrid, build_layout, oversample_block


class TestFineGrid:
    def test_spacing_closes_exactly(self):
        g = FineGrid(7, 3, 9.0, 3.0)
        assert g.nx * g.hx == pytest.approx(9.0, abs=0)
        assert g.ny * g.hy == pytest.approx(3.0, abs=0)

    def test_cell_centers_shapes(self):
        g = FineGrid(5, 4, 2.0, 1.0, x0=-0.5)
        xg, yg = g.cell_centers()
        assert xg.shape == (5, 4)
        assert xg[0, 0] == pytest.approx(-0.5 + 0.5 * g.hx)
        assert yg[0, -1] == pytest.approx(1.0 - 0.5 * g.hy)

    @pytest.mark.parametrize("bad", [(0, 4), (4, 0)])
    def test_nonpositive_counts_rejected(self, bad):
        with pytest.raises(ConfigError):
            FineGrid(bad[0], bad[1], 1.0, 1.0)

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(ConfigError):
            FineGrid(4, 4, -1.0, 1.0)


class TestCoarseGrid:
    def test_non_divisible_counts_named(self):
        fine = FineGrid(10, 4, 1.0, 1.0)
        with pytest.raises(ConfigError, match="nx=10"):
            CoarseGrid(fine, 4)

    def test_block_partition_covers_all_cells(self):
        coarse = CoarseGrid(FineGrid(8, 4, 1.0, 1.0), 4)
        seen = np.zeros((8, 4), dtype=int)
        for I in coarse.blocks():
            seen[coarse.block_slice(I)] += 1
        assert (seen == 1).all()

    def test_edge_faces_partition_edge_lines(self):
        coarse = CoarseGrid(FineGrid(8, 4, 1.0, 1.0), 4)
        vx = np.arange(9 * 4, dtype=float).reshape(9, 4)
        # edge I reads exactly the fine x-face column I * mx
        assert (coarse.edge_flux(vx) == vx[[0, 2, 4, 6, 8]]).all()

    def test_edge_neighbors_boundary(self):
        coarse = CoarseGrid(FineGrid(8, 4, 1.0, 1.0), 4)
        lo, hi = coarse.edge_neighbors(0)
        assert lo is None and hi == 0
        assert coarse.edge_neighbors(2) == (1, 2)
        lo, hi = coarse.edge_neighbors(4)
        assert lo == 3 and hi is None
        for I in (-1, 5):
            with pytest.raises(ConfigError, match="outside"):
                coarse.edge_neighbors(I)

    def test_edge_donor_cells_follow_sign(self):
        coarse = CoarseGrid(FineGrid(8, 4, 1.0, 1.0), 4)
        labels = np.arange(8 * 4).reshape(8, 4)
        flux = np.array([[-1.0, 1.0, -1.0, 1.0]] * 5)
        flux[2] = [1.0, -1.0, 1.0, -1.0]
        donor = coarse.edge_donor_labels(labels, flux)
        assert list(donor[2]) == [labels[3, 0], labels[4, 1], labels[3, 2],
                                  labels[4, 3]]
        # boundary faces read the cell inside the domain, whatever the sign
        assert (donor[0] == labels[0]).all() and (donor[4] == labels[7]).all()


class TestOversample:
    def setup_method(self):
        self.coarse = CoarseGrid(FineGrid(20, 2, 10.0, 1.0), 10)

    def test_zero_layers_is_the_block(self):
        ov = oversample_block(self.coarse, 4, 0)
        assert ov.grid.nx == self.coarse.mx
        assert len(ov.regions) == 1 and ov.regions[0].is_central

    def test_middle_block_two_layers_five_blocks(self):
        ov = oversample_block(self.coarse, 5, 2, rule="none")
        assert len(ov.regions) == 5
        assert sorted(r.offset for r in ov.regions) == [-2, -1, 0, 1, 2]

    def test_truncation_without_rule(self):
        ov = oversample_block(self.coarse, 0, 1, rule="none")
        assert len(ov.regions) == 2

    def test_periodic_left_maps_to_right_columns(self):
        ov = oversample_block(self.coarse, 0, 1, rule="periodic-left")
        field = np.arange(40, dtype=float).reshape(20, 2)
        local = ov.sample(field)
        # left neighbor block samples the rightmost fine columns
        assert (local[:2, :] == field[18:20, :]).all()
        assert (local[2:4, :] == field[0:2, :]).all()

    def test_reflect_right_maps_to_mirror_columns(self):
        ov = oversample_block(self.coarse, 9, 1, rule="reflect-right")
        field = np.arange(40, dtype=float).reshape(20, 2)
        local = ov.sample(field)
        # right neighbor block mirrors the last fine columns
        assert (local[2:4, :] == field[18:20, :]).all()
        assert (local[4, :] == field[19, :]).all()
        assert (local[5, :] == field[18, :]).all()

    def test_mirror_map_is_involution_on_its_image(self):
        ov = oversample_block(self.coarse, 9, 1, rule="reflect-right")
        n = self.coarse.fine.nx
        for k, src in enumerate(ov.src_ix):
            virtual = 16 + k  # global column of local index k
            if virtual >= n:
                assert src == 2 * n - 1 - virtual
                assert 2 * n - 1 - src == virtual

    def test_virtual_coordinates_continue_spacing(self):
        ov = oversample_block(self.coarse, 9, 1, rule="reflect-right")
        xs = ov.grid.xc()
        assert np.allclose(np.diff(xs), self.coarse.fine.hx)
        assert xs[-1] > self.coarse.fine.L1  # extends past the boundary

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError, match="unknown extension rule"):
            oversample_block(self.coarse, 0, 1, rule="wrap-both")

    def test_mirror_past_one_domain_width_rejected(self):
        coarse = CoarseGrid(FineGrid(8, 2, 8.0, 2.0), 4)
        rule = "periodic-left,reflect-right"
        # layers = Nx: the last block's region ends on the mirror's far wall
        ov = oversample_block(coarse, 3, 4, rule=rule)
        assert list(ov.src_ix[-8:]) == [7, 6, 5, 4, 3, 2, 1, 0]
        for layers in (5, 6):
            with pytest.raises(ConfigError, match="past the mirror image"):
                oversample_block(coarse, 3, layers, rule=rule)
        # periodic wrapping never leaves the domain, however deep
        assert oversample_block(coarse, 0, 6, rule="periodic-left"
                                ).src_ix.min() >= 0

    def test_invalid_block_rejected(self):
        with pytest.raises(ConfigError):
            oversample_block(self.coarse, 10, 1)


class TestDomainLayout:
    def test_paper_scale_extension_counts(self):
        lay = build_layout(9.0, 3.0, 280, 90,
                           extension="two-sided", ext_margin=1.8)
        assert lay.extended_fine.nx == 392
        assert lay.extended_fine.ny == 90
        assert lay.offset_x == 56
        assert lay.extended_fine.x0 == pytest.approx(-1.8)

    def test_minimal_single_block(self):
        lay = build_layout(1.0, 1.0, 2, 2)
        assert lay.extended_fine == FineGrid(2, 2, 1.0, 1.0)
        assert lay.offset_x == 0
        coarse = CoarseGrid(lay.extended_fine, 1)
        assert list(coarse.blocks()) == [0]
        assert coarse.mx * coarse.my == 4

    def test_right_extension_grows_only_right(self):
        lay = build_layout(9.0, 3.0, 120, 36,
                           extension="right", ext_margin=1.8)
        assert lay.extended_fine.x0 == 0.0
        assert lay.extended_fine.nx == 120 + 2 * 24
        assert lay.offset_x == 0

    def test_fractional_margin_rejected(self):
        with pytest.raises(ConfigError, match="whole number"):
            build_layout(9.0, 3.0, 120, 36,
                         extension="two-sided", ext_margin=1.7)

    def test_unknown_extension_rejected(self):
        with pytest.raises(ConfigError):
            build_layout(1.0, 1.0, 4, 4, extension="left")


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(1, 6), mx=st.integers(1, 4), ny=st.integers(1, 6))
def test_partition_property(nx, mx, ny):
    fine = FineGrid(nx * mx, ny, 2.0, 1.0)
    coarse = CoarseGrid(fine, nx)
    total = sum((s.stop - s.start) * coarse.my
                for s in map(coarse.block_slice, coarse.blocks()))
    assert total == fine.nx * fine.ny
    assert len(coarse.blocks()) == nx
