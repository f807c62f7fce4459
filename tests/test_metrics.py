"""Error-norm reporting: relative/absolute rules, alignment, regression."""

import os
from pathlib import Path

import numpy as np
import pytest

from dynmc import io
from dynmc.exceptions import ConfigError
from dynmc.metrics import (ErrorReport, compute_errors, concentration_errors,
                           velocity_errors)


def vdict(values):
    """Edge fluxes of four coarse edges, one row per edge."""
    return np.asarray(values, dtype=float)


class FakeState:
    def __init__(self, t, C, V):
        self.t = t
        self.C = C
        self.V = V


class TestVelocityErrors:
    def test_identical_series_zero_error(self):
        V = vdict([[1.0, 2.0], [0.5, -1.0], [2.0, 0.0], [1.0, 1.0]])
        ev = velocity_errors(V, V, 2)
        assert ev.global_relative == 0.0
        assert np.allclose(ev.relative[~np.isnan(ev.relative)], 0.0)
        assert np.allclose(ev.absolute, 0.0)

    def test_half_scale_gives_fifty_percent(self):
        V_ref = vdict([[2.0], [4.0], [-2.0], [6.0]])
        ev = velocity_errors(V_ref, 0.5 * V_ref, 1)
        assert ev.relative[0] == pytest.approx(50.0, rel=1e-14)
        assert ev.global_relative == pytest.approx(50.0, rel=1e-14)

    def test_near_zero_continuum_uses_absolute(self):
        V_ref = vdict([[1.0, 1e-12], [2.0, 0.0], [1.0, 0.0], [3.0, 1e-12]])
        V_mh = vdict([[1.0, 1e-3], [2.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        ev = velocity_errors(V_ref, V_mh, 2)
        assert ev.near_zero[1] and not ev.near_zero[0]
        assert np.isnan(ev.relative[1])
        assert ev.absolute[1] == pytest.approx(1e-3, rel=1e-9)

    def test_missing_edge_rejected(self):
        V = vdict([[1.0]] * 4)
        with pytest.raises(ConfigError, match="misaligned"):
            velocity_errors(V, V[:-1], 1)


class TestConcentrationErrors:
    def test_identical_zero(self):
        C = np.random.default_rng(0).random((3, 2))
        assert np.allclose(concentration_errors(C, C, np.s_[:]), 0.0)

    def test_relative_scaling(self):
        C = np.ones((4, 1))
        out = concentration_errors(1.25 * C, C, np.s_[:])
        assert out[0] == pytest.approx(25.0, rel=1e-14)

    def test_zero_reference_rules(self):
        C = np.zeros((2, 1))
        assert concentration_errors(C, C, np.s_[:])[0] == 0.0
        assert np.isinf(concentration_errors(C + 1, C, np.s_[:])[0])

    def test_block_selection_restricts_norm(self):
        C_ref = np.ones((4, 1))
        C = C_ref.copy()
        C[0, 0] = 2.0  # error only outside the selection
        out = concentration_errors(C, C_ref, np.s_[1:])
        assert out[0] == 0.0


def make_series(scale_mh=1.0, shift_between=0.0):
    times = [0.0, 0.1, 0.2]
    ref, mrv, mmv = [], [], []
    g = np.random.default_rng(3)
    for t in times:
        C = g.random((4, 2)) + 1.0
        V = vdict(g.random((4, 2)) + 0.5)
        ref.append(FakeState(t, C, V))
        mrv.append(FakeState(t, C * (1.0 + shift_between), V))
        mmv.append(FakeState(t, C, scale_mh * V))
    return ref, mrv, mmv


class TestComputeErrors:
    def test_aligned_identical_series(self):
        ref, mrv, mmv = make_series()
        rep = compute_errors(ref, mrv, mmv, 2)
        assert rep.eV.global_relative == 0.0
        assert np.allclose(rep.eC_mh_vel, 0.0)
        assert rep.ordering_ok
        assert len(rep.eV_series) == 3

    def test_velocity_scale_propagates(self):
        ref, mrv, mmv = make_series(scale_mh=0.9)
        rep = compute_errors(ref, mrv, mmv, 2)
        assert rep.eV.global_relative == pytest.approx(10.0, rel=1e-12)

    def test_edge_selection_restricts_norm(self):
        ref, mrv, mmv = make_series()
        for s in mmv:
            s.V = s.V.copy()
            s.V[0] *= 2.0  # error only outside the selection
        assert compute_errors(ref, mrv, mmv, 2).eV.global_relative > 0
        rep = compute_errors(ref, mrv, mmv, 2, edge_sel=np.s_[1:])
        assert rep.eV.global_relative == 0.0

    def test_ordering_flag_reflects_final_errors(self):
        ref, mrv, mmv = make_series(shift_between=0.05)
        rep = compute_errors(ref, mrv, mmv, 2)
        # mh(V_ref) carries error, mh(V_mh) none: ordering violated
        assert not rep.ordering_ok
        assert np.all(rep.eC_ref_vel > 0) and np.allclose(rep.eC_mh_vel, 0.0)

    def test_misaligned_times_listed(self):
        ref, mrv, mmv = make_series()
        mrv[-1].t = 0.3
        with pytest.raises(ConfigError, match="misaligned"):
            compute_errors(ref, mrv, mmv, 2)
        with pytest.raises(ConfigError, match="misaligned"):
            compute_errors(ref, mrv[:-1], mmv, 2)

    def test_rows_cover_all_metrics(self):
        ref, mrv, mmv = make_series()
        rep = compute_errors(ref, mrv, mmv, 2)
        names = [r[0] for r in rep.rows()]
        assert names.count("e_V_rel") == 2
        assert "ordering_ok" in names and "e_C_between" in names


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "errors_golden.csv")


def test_error_csv_matches_golden_bytes(tmp_path):
    ref, mrv, mmv = make_series(scale_mh=0.875, shift_between=0.01)
    rep = compute_errors(ref, mrv, mmv, 2)
    out = tmp_path / "errors.csv"
    io.write_errors_csv(str(out), rep)
    assert out.read_bytes() == Path(GOLDEN).read_bytes()
