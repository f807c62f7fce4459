"""Coarse flow solves and the donor-block transport step."""

import dataclasses

import numpy as np
import pytest

from conftest import rng
from dynmc import macro
from dynmc.continua import (ContinuumSpec, DUAL_THRESHOLDS, classify,
                            continuum_masses, single_continuum)
from dynmc.exceptions import ConfigError, InvariantError
from dynmc.fine import Snapshot
from dynmc.grids import CoarseEdge, CoarseGrid, FineGrid
from dynmc.macro import (CoarseModel, EffectiveOperators, coarse_cfl,
                         run_coarse, solve_coarse_flow_galerkin,
                         solve_coarse_flow_mixed, step_macro_concentration)


def edge_labels_still(coarse, labels):
    """Donor labels for a quiescent field (ties donate from the minus side)."""
    snap = Snapshot(step=0, t=0.0, p=np.zeros_like(labels, dtype=float),
                    vx=np.zeros((coarse.fine.nx + 1, coarse.fine.ny)),
                    vy=np.zeros((coarse.fine.nx, coarse.fine.ny + 1)),
                    c=labels.astype(float))
    return macro._edge_labels_by_donor(coarse, labels, snap)


def striped_setup(nblocks=2, mx=8, my=6):
    """Horizontal two-continuum stripes present in every block and edge."""
    nx = nblocks * mx
    fine = FineGrid(nx, my, float(nx), float(my))
    coarse = CoarseGrid(fine, nblocks, 1)
    c = np.zeros((nx, my))
    c[:, : my // 2] = 1.0
    labels = classify(c, ContinuumSpec(DUAL_THRESHOLDS))
    lam = np.where(labels == 0, 100.0, 1.0)
    return fine, coarse, c, labels, lam


class TestMixedGravity:
    def test_uniform_concentration_is_quiescent(self):
        fine, coarse, c, labels, lam = striped_setup(nblocks=4)
        # equal concentrations everywhere: no buoyancy contrast at all
        Chat = np.full((4, 1, 2), 0.7)
        ms = solve_coarse_flow_mixed(coarse, lam, labels, 2, Chat,
                                     edge_labels_still(coarse, labels),
                                     variant="gravity")
        for v in ms.V.values():
            assert np.abs(v).max() <= 1e-10
        assert ms.balance_residual <= 1e-10

    def test_buoyancy_contrast_drives_exchange_loop(self):
        fine, coarse, c, labels, lam = striped_setup(nblocks=4)
        Chat = np.zeros((4, 1, 2))
        Chat[:, :, 0] = [[1.0], [0.8], [0.6], [0.4]]  # heavy fluid on the left
        ms = solve_coarse_flow_mixed(coarse, lam, labels, 2, Chat,
                                     edge_labels_still(coarse, labels),
                                     variant="gravity")
        e1 = CoarseEdge("x", 2, 0).key()
        # net flow through an interior edge cancels (closed box) but the
        # continua carry opposite directions
        assert abs(ms.V[e1].sum()) <= 1e-10
        assert np.abs(ms.V[e1]).max() > 1e-6
        assert ms.V[e1][0] > 0  # high-concentration continuum moves right

    def test_balance_rows_conserve_each_block(self):
        fine, coarse, c, labels, lam = striped_setup(nblocks=4)
        Chat = np.zeros((4, 1, 2))
        Chat[:, :, 0] = rng(0).random((4, 1))
        Chat[:, :, 1] = rng(1).random((4, 1))
        ms = solve_coarse_flow_mixed(coarse, lam, labels, 2, Chat,
                                     edge_labels_still(coarse, labels),
                                     variant="gravity")
        for I in range(4):
            inflow = ms.V[CoarseEdge("x", I, 0).key()].sum()
            outflow = ms.V[CoarseEdge("x", I + 1, 0).key()].sum()
            assert abs(inflow - outflow) <= 1e-10

    def test_tall_grid_rejected(self):
        fine = FineGrid(8, 8, 1.0, 1.0)
        coarse = CoarseGrid(fine, 2, 2)
        with pytest.raises(ConfigError):
            solve_coarse_flow_mixed(coarse, np.ones((8, 8)),
                                    np.zeros((8, 8), dtype=np.int8), 1,
                                    np.zeros((2, 2, 1)), {})


class TestMixedViscous:
    def solve(self, nblocks=2, g_in=-1.0):
        fine, coarse, c, labels, lam = striped_setup(nblocks=nblocks)
        ms = solve_coarse_flow_mixed(coarse, lam, labels, 2,
                                     np.zeros((nblocks, 1, 2)),
                                     edge_labels_still(coarse, labels),
                                     variant="viscous", g_in=g_in, p_out=0.0,
                                     inflow_labels=labels[0, :])
        return fine, coarse, ms

    def test_total_flux_matches_inflow_on_every_edge(self):
        fine, coarse, ms = self.solve()
        total_in = fine.L2  # |g_in| * ny * hy
        for e in coarse.edges():
            if e.orientation == "x":
                assert ms.V[e.key()].sum() == pytest.approx(total_in,
                                                            rel=1e-9)

    def test_inflow_edge_split_by_boundary_labels(self):
        fine, coarse, ms = self.solve()
        v0 = ms.V[CoarseEdge("x", 0, 0).key()]
        assert v0[0] == pytest.approx(fine.L2 / 2, rel=1e-12)
        assert v0[1] == pytest.approx(fine.L2 / 2, rel=1e-12)

    def test_high_mobility_continuum_carries_more_downstream(self):
        fine, coarse, ms = self.solve()
        vlast = ms.V[CoarseEdge("x", coarse.Nx, 0).key()]
        assert vlast[0] > vlast[1]

    def test_balance_residual_small(self):
        _fine, _coarse, ms = self.solve(nblocks=3)
        assert ms.balance_residual <= 1e-9


class TestGalerkinFlow:
    def unit_ops(self, NX, alpha=1.0):
        a = np.array([[alpha]])
        return [EffectiveOperators(n=1, alpha=a.copy(),
                                   beta=np.zeros((1, 1)),
                                   present=np.array([True]))
                for _ in range(NX)]

    def test_homogeneous_column_linear_pressure_uniform_flux(self):
        fine = FineGrid(20, 4, 5.0, 1.0)
        coarse = CoarseGrid(fine, 5, 1)
        P, V, U = solve_coarse_flow_galerkin(coarse, coarse,
                                             self.unit_ops(5), 1,
                                             p_in=1.0, p_out=0.0)
        dx = fine.L1 / 5
        expect_p = 1.0 - (np.arange(5) + 0.5) * dx / fine.L1
        assert np.allclose(P[:, 0], expect_p, atol=1e-12)
        flux = fine.L2 / fine.L1  # alpha * L2 * dP/L1
        for e in coarse.edges():
            if e.orientation == "x":
                assert V[e.key()][0] == pytest.approx(flux, rel=1e-12)
        assert np.allclose(U[:, 0], flux, atol=1e-12)

    def test_refined_flow_grid_restricts_to_base_edges(self):
        fine = FineGrid(24, 4, 6.0, 1.0)
        base = CoarseGrid(fine, 3, 1)
        flow = CoarseGrid(fine, 6, 1)
        P, V, U = solve_coarse_flow_galerkin(flow, base, self.unit_ops(6), 1,
                                             p_in=2.0, p_out=0.0)
        flux = 2.0 * fine.L2 / fine.L1
        for e in base.edges():
            if e.orientation == "x":
                assert V[e.key()][0] == pytest.approx(flux, rel=1e-12)

    def test_continuum_absent_downstream_is_no_flow(self):
        ops = self.unit_ops(4)
        for o in ops:
            o.n = 2
            o.alpha = np.eye(2)
            o.beta = np.zeros((2, 2))
            o.present = np.array([True, True])
        ops[2].present = np.array([True, False])
        ops[3].present = np.array([True, False])
        # continuum 1 must convert (beta) to continue; give it a channel
        for o in ops:
            o.beta = np.array([[0.5, -0.5], [-0.5, 0.5]]) \
                if o.present.all() else np.zeros((2, 2))
        fine = FineGrid(16, 4, 4.0, 1.0)
        coarse = CoarseGrid(fine, 4, 1)
        P, V, U = solve_coarse_flow_galerkin(coarse, coarse, ops, 2,
                                             p_in=1.0, p_out=0.0)
        assert np.isnan(P[2, 1]) and np.isnan(P[3, 1])
        assert U[2, 1] == 0.0 and U[3, 1] == 0.0  # no flow where absent
        e_out = CoarseEdge("x", 4, 0).key()
        total_in = V[CoarseEdge("x", 0, 0).key()].sum()
        assert V[e_out].sum() == pytest.approx(total_in, rel=1e-9)

    def test_mismatched_refinement_rejected(self):
        fine = FineGrid(12, 4, 3.0, 1.0)
        with pytest.raises(ConfigError):
            solve_coarse_flow_galerkin(CoarseGrid(fine, 3, 1),
                                       CoarseGrid(fine, 2, 1),
                                       self.unit_ops(3), 1, 1.0, 0.0)


def chain(nblocks, F):
    """1D single-continuum chain with a uniform interior flux F."""
    fine = FineGrid(nblocks * 4, 4, float(nblocks), 1.0)
    coarse = CoarseGrid(fine, nblocks, 1)
    V = {}
    for e in coarse.edges():
        interior = coarse.is_interior(e) and e.orientation == "x"
        V[e.key()] = np.array([F if interior else 0.0])
    masses = np.full((nblocks, 1, 1), coarse.block_area)
    return coarse, V, masses


class TestMacroTransport:
    def test_zero_velocity_is_identity(self):
        coarse, V, masses = chain(4, 0.0)
        C = rng(0).random((4, 1, 1))
        out, skipped = step_macro_concentration(coarse, C, masses, V, 0.1)
        assert (out == C).all() and not skipped

    def test_unit_courant_shifts_one_block(self):
        coarse, V, masses = chain(4, 1.0)
        C = np.zeros((4, 1, 1))
        C[0, 0, 0] = 1.0
        tau = float(coarse.block_area)  # one full donor mass per step
        out, _ = step_macro_concentration(coarse, C, masses, V, tau)
        assert out[0, 0, 0] == pytest.approx(0.0, abs=1e-15)
        assert out[1, 0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_conserves_total_mass(self):
        coarse, V, masses = chain(5, 0.7)
        C = rng(1).random((5, 1, 1))
        out, _ = step_macro_concentration(coarse, C, masses, V, 0.2)
        assert out.sum() == pytest.approx(C.sum(), rel=1e-14)

    def test_cfl_guard_reports_required_tau(self):
        coarse, V, masses = chain(3, 1.0)
        C = np.ones((3, 1, 1))
        with pytest.raises(InvariantError, match="reduce tau"):
            step_macro_concentration(coarse, C, masses, V,
                                     tau=10.0 * coarse.block_area)

    def test_boundary_inflow_requires_data(self):
        coarse, V, masses = chain(3, 0.0)
        V[CoarseEdge("x", 0, 0).key()] = np.array([1.0])
        C = np.zeros((3, 1, 1))
        with pytest.raises(InvariantError, match="inflow"):
            step_macro_concentration(coarse, C, masses, V, 0.1)
        out, _ = step_macro_concentration(coarse, C, masses, V, 0.1,
                                          inflow_conc=np.array([0.5]))
        assert out[0, 0, 0] == pytest.approx(0.05)

    def test_coarse_cfl_formula(self):
        coarse, V, masses = chain(3, 2.0)
        assert coarse_cfl(coarse, V, masses, tau=1.0) == pytest.approx(
            2.0 / coarse.block_area)
        assert coarse_cfl(coarse, V, masses, tau=0.0) == 0.0


class TestRunCoarse:
    def make_snapshots(self, grid, steps, c, vx):
        vy = np.zeros((grid.nx, grid.ny + 1))
        p = np.zeros((grid.nx, grid.ny))
        return [Snapshot(step=k, t=0.1 * k, p=p, vx=vx, vy=vy, c=c)
                for k in range(steps + 1)]

    def test_ref_velocity_single_continuum_matches_hand_upwind(self):
        grid = FineGrid(16, 4, 4.0, 1.0)
        coarse = CoarseGrid(grid, 4, 1)
        c = rng(2).random((16, 4))
        vx = np.zeros((17, 4))
        vx[1:-1, :] = 0.3
        snaps = self.make_snapshots(grid, 6, c, vx)
        model = CoarseModel(coarse=coarse, spec=single_continuum(),
                            approach="mixed-gravity", lam_of=np.ones_like)
        tau = 0.05
        states = run_coarse(model, snaps, 6, tau, velocity="ref")

        # hand-rolled coarse donor upwind on the block means
        labels = np.zeros((16, 4), dtype=np.int8)
        masses = continuum_masses(labels, coarse, 1)[:, :, 0]
        C = states[0].C[:, :, 0].copy()
        F = 0.3 * grid.L2  # interior-edge flux
        for _ in range(6):
            flux = np.zeros(5)
            flux[1:-1] = F * (C[:-1, 0] / masses[:-1, 0])
            C[:, 0] += tau * (flux[:-1] - flux[1:])
        assert np.allclose(states[-1].C[:, :, 0], C, atol=1e-10)

    def test_missing_snapshots_rejected(self):
        grid = FineGrid(8, 4, 2.0, 1.0)
        coarse = CoarseGrid(grid, 2, 1)
        snaps = self.make_snapshots(grid, 2, np.full((8, 4), 0.4),
                                    np.zeros((9, 4)))
        model = CoarseModel(coarse=coarse, spec=single_continuum(),
                            approach="mixed-gravity", lam_of=np.ones_like)
        with pytest.raises(ConfigError, match="missing"):
            run_coarse(model, snaps, 5, 0.1, velocity="ref")

    def test_unknown_velocity_mode_and_approach(self):
        grid = FineGrid(8, 4, 2.0, 1.0)
        coarse = CoarseGrid(grid, 2, 1)
        model = CoarseModel(coarse=coarse, spec=single_continuum(),
                            approach="mixed-gravity", lam_of=np.ones_like)
        with pytest.raises(ConfigError):
            run_coarse(model, [], 1, 0.1, velocity="direct")
        with pytest.raises(ConfigError):
            CoarseModel(coarse=coarse, spec=single_continuum(),
                        approach="spectral", lam_of=np.ones_like)

    def test_coarse_flow_reuses_only_the_previous_step(self, monkeypatch):
        fine = FineGrid(24, 6, 3.0, 0.75)
        coarse = CoarseGrid(fine, 3, 1)
        model = CoarseModel(coarse=coarse,
                            spec=ContinuumSpec(DUAL_THRESHOLDS),
                            approach="mixed-gravity",
                            lam_of=lambda cc: np.where(cc >= 0.5, 100.0, 1.0))
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_coarse_flow_mixed(*args, **kwargs)

        monkeypatch.setattr(macro, "solve_coarse_flow_mixed", counted)
        vx = np.zeros((fine.nx + 1, fine.ny))
        same = self.make_snapshots(fine, 3, np.full((24, 6), 0.7), vx)
        run_coarse(model, same, 3, 0.05, velocity="mh")
        assert len(calls) == 1
        calls.clear()
        aba = self.make_snapshots(fine, 2, np.full((24, 6), 0.7), vx)
        aba[1] = dataclasses.replace(aba[1], c=np.full((24, 6), 0.71))
        run_coarse(model, aba, 2, 0.05, velocity="mh")
        assert len(calls) == 3

    def test_mh_gravity_quiescent_keeps_concentration(self):
        # globally uniform concentration: hydrostatic, nothing moves
        fine = FineGrid(24, 6, 3.0, 0.75)
        coarse = CoarseGrid(fine, 3, 1)
        c = np.full((24, 6), 0.7)
        snaps = self.make_snapshots(fine, 3, c,
                                    np.zeros((fine.nx + 1, fine.ny)))
        model = CoarseModel(coarse=coarse,
                            spec=ContinuumSpec(DUAL_THRESHOLDS),
                            approach="mixed-gravity",
                            lam_of=lambda cc: np.where(cc >= 0.5, 100.0, 1.0))
        states = run_coarse(model, snaps, 3, 0.05, velocity="mh")
        assert np.allclose(states[-1].C, states[0].C, atol=1e-9)
