"""Coarse flow solves and the donor-block transport step."""

import dataclasses

import numpy as np
import pytest

from _oracles import (coarse_cfl_loops, galerkin_loops,
                      step_macro_concentration_loops)
from conftest import rng
from dynmc import cells, macro
from dynmc.continua import (ContinuumSpec, DUAL_THRESHOLDS, classify,
                            continuum_masses, single_continuum)
from dynmc.exceptions import ConfigError, InvariantError, SolverError
from dynmc.fine import Snapshot, solve_flow
from dynmc.grids import CoarseGrid, FineGrid
from dynmc.macro import (CoarseModel, EffectiveOperators, coarse_cfl,
                         run_coarse, solve_coarse_flow_galerkin,
                         solve_coarse_flow_mixed, step_macro_concentration)


def edge_labels_still(coarse, labels):
    """Donor labels for a quiescent field (ties donate from the minus side)."""
    vx = np.zeros((coarse.fine.nx + 1, coarse.fine.ny))
    return coarse.edge_donor_labels(labels, coarse.edge_flux(vx))


def striped_setup(nblocks=2, mx=8, my=6):
    """Horizontal two-continuum stripes present in every block and edge."""
    nx = nblocks * mx
    fine = FineGrid(nx, my, float(nx), float(my))
    coarse = CoarseGrid(fine, nblocks)
    c = np.zeros((nx, my))
    c[:, : my // 2] = 1.0
    labels = classify(c, ContinuumSpec(DUAL_THRESHOLDS))
    lam = np.where(labels == 0, 100.0, 1.0)
    return fine, coarse, c, labels, lam


class TestMixedGravity:
    def test_uniform_concentration_is_quiescent(self):
        fine, coarse, c, labels, lam = striped_setup(nblocks=4)
        # equal concentrations everywhere: no buoyancy contrast at all
        Chat = np.full((4, 2), 0.7)
        ms = solve_coarse_flow_mixed(coarse, lam, labels, 2, Chat,
                                     edge_labels_still(coarse, labels),
                                     variant="gravity")
        assert np.abs(ms.V).max() <= 1e-10
        assert ms.balance_residual <= 1e-10

    def test_buoyancy_contrast_drives_exchange_loop(self):
        fine, coarse, c, labels, lam = striped_setup(nblocks=4)
        Chat = np.zeros((4, 2))
        Chat[:, 0] = [1.0, 0.8, 0.6, 0.4]  # heavy fluid on the left
        ms = solve_coarse_flow_mixed(coarse, lam, labels, 2, Chat,
                                     edge_labels_still(coarse, labels),
                                     variant="gravity")
        # net flow through an interior edge cancels (closed box) but the
        # continua carry opposite directions
        assert abs(ms.V[2].sum()) <= 1e-10
        assert np.abs(ms.V[2]).max() > 1e-6
        assert ms.V[2][0] > 0  # high-concentration continuum moves right

    def test_balance_rows_conserve_each_block(self):
        fine, coarse, c, labels, lam = striped_setup(nblocks=4)
        Chat = np.zeros((4, 2))
        Chat[:, 0] = rng(0).random(4)
        Chat[:, 1] = rng(1).random(4)
        ms = solve_coarse_flow_mixed(coarse, lam, labels, 2, Chat,
                                     edge_labels_still(coarse, labels),
                                     variant="gravity")
        for I in range(4):
            inflow = ms.V[I].sum()
            outflow = ms.V[I + 1].sum()
            assert abs(inflow - outflow) <= 1e-10

    def test_missing_chat_rejected(self):
        fine, coarse, c, labels, lam = striped_setup()
        with pytest.raises(ConfigError, match="needs Chat"):
            solve_coarse_flow_mixed(coarse, lam, labels, 2, None,
                                    edge_labels_still(coarse, labels),
                                    variant="gravity")


class TestMixedViscous:
    def solve(self, nblocks=2, g_in=-1.0):
        fine, coarse, c, labels, lam = striped_setup(nblocks=nblocks)
        ms = solve_coarse_flow_mixed(coarse, lam, labels, 2, None,
                                     edge_labels_still(coarse, labels),
                                     variant="viscous", g_in=g_in, p_out=0.0,
                                     inflow_labels=labels[0, :])
        return fine, coarse, ms

    def test_total_flux_matches_inflow_on_every_edge(self):
        fine, coarse, ms = self.solve()
        total_in = fine.L2  # |g_in| * ny * hy
        assert ms.V.shape == (coarse.Nx + 1, 2)
        for v in ms.V:
            assert v.sum() == pytest.approx(total_in, rel=1e-9)

    def test_inflow_edge_split_by_boundary_labels(self):
        fine, coarse, ms = self.solve()
        v0 = ms.V[0]
        assert v0[0] == pytest.approx(fine.L2 / 2, rel=1e-12)
        assert v0[1] == pytest.approx(fine.L2 / 2, rel=1e-12)

    def test_high_mobility_continuum_carries_more_downstream(self):
        fine, coarse, ms = self.solve()
        vlast = ms.V[coarse.Nx]
        assert vlast[0] > vlast[1]

    def test_balance_residual_small(self):
        _fine, _coarse, ms = self.solve(nblocks=3)
        assert ms.balance_residual <= 1e-9


def shift_first_unknown(monkeypatch):
    """Make np.linalg.solve return a solution off in its first entry."""
    solve = np.linalg.solve

    def shifted(K, rhs):
        sol = solve(K, rhs).copy()
        sol[0] += 1.0
        return sol

    monkeypatch.setattr(np.linalg, "solve", shifted)


def test_large_mixed_kkt_residual_rejected(monkeypatch):
    fine, coarse, c, labels, lam = striped_setup(nblocks=3)
    Chat = np.zeros((3, 2))
    Chat[:, 0] = [1.0, 0.6, 0.2]
    args = (coarse, lam, labels, 2, Chat, edge_labels_still(coarse, labels))
    solve_coarse_flow_mixed(*args, variant="gravity")
    shift_first_unknown(monkeypatch)
    with pytest.raises(SolverError, match="coarse mixed residual"):
        solve_coarse_flow_mixed(*args, variant="gravity")


def random_mixed_setup(seed, nblocks=3, mx=8, my=6):
    """Random two-continuum labels (contrast 1000); the inlet column and
    the last block hold continuum 0 only, so some bases are absent."""
    nx = nblocks * mx
    fine = FineGrid(nx, my, float(nx), float(my))
    coarse = CoarseGrid(fine, nblocks)
    labels = classify(rng(seed).random((nx, my)),
                      ContinuumSpec(DUAL_THRESHOLDS))
    labels[-mx:, :] = 0
    labels[0, :] = 0
    lam = np.where(labels == 0, 1000.0, 1.0)
    return coarse, labels, lam, edge_labels_still(coarse, labels)


class TestMixedBases:
    """All of a block's cell problems share one factorization."""

    @pytest.mark.parametrize("variant", ["gravity", "viscous"])
    def test_one_block_flow_per_block(self, monkeypatch, variant):
        coarse, labels, lam, elab = random_mixed_setup(40)
        blocks = []

        def counted(grid, *args, **kwargs):
            blocks.append((grid.x0, grid.y0))
            return solve_flow(grid, *args, **kwargs)

        monkeypatch.setattr(cells, "solve_flow", counted)
        solve_coarse_flow_mixed(coarse, lam, labels, 2,
                                rng(41).random((coarse.Nx, 2)), elab,
                                variant=variant, g_in=-1.0, p_out=0.0,
                                inflow_labels=labels[0, :])
        assert len(blocks) == len(set(blocks)) == coarse.Nx

    @pytest.mark.parametrize("gravity", [True, False])
    def test_bases_equal_one_solve_per_basis(self, gravity):
        coarse, labels, lam, elab = random_mixed_setup(42)
        inflow = None if gravity else labels[0, :]
        bases, gsup, isup = macro.mixed_bases(coarse, lam, labels, 2, elab,
                                              gravity, inflow)
        # one public family call per basis, in the order the Gram matrix
        # is assembled
        variant = "uniform" if gravity else "psi"
        want = []
        for I in range(1, coarse.Nx if gravity else coarse.Nx + 1):
            for i in range(2):
                bset = cells.solve_edge_flux_basis(coarse, I, lam, labels, i,
                                                   elab[I], variant)
                if bset.bases[0].flag != "absent":
                    want.append((I, i, bset.bases[0].extras[
                        "edge_flux"], macro._split_edge_support(coarse, I,
                                                                 bset)))
        want_g, want_i = {}, []
        for blk in coarse.blocks():
            if gravity:
                for i in range(2):
                    g = cells.solve_gravity_basis(coarse, blk, lam, labels,
                                                  i).bases[0]
                    if g.flag != "absent":
                        want_g[(blk, i)] = macro._faces(g.fx, g.fy)
            else:
                w = cells.solve_interface_basis(coarse, blk, lam,
                                                labels).bases[0]
                if w.flag != "absent":
                    want.append((None, None, None,
                                 {blk: macro._faces(w.fx, w.fy)}))
        if not gravity:
            for i in range(2):
                iset = cells.solve_edge_flux_basis(coarse, 0, lam, labels, i,
                                                   inflow, "psi")
                if iset.bases[0].flag != "absent":
                    want_i.append(macro._split_edge_support(coarse, 0, iset))

        def same(a, b):
            assert a.keys() == b.keys()
            for k in a:
                assert np.array_equal(a[k], b[k])

        # the last block lacks continuum 1: its gravity or interface basis
        # is absent
        if gravity:
            assert len(want_g) == 2 * coarse.Nx - 1
        else:
            assert sum(w[1] is None for w in want) == coarse.Nx - 1
        assert [(b.edge, b.continuum) for b in bases] == [w[:2] for w in want]
        for b, (_key, _i, S, support) in zip(bases, want):
            if S is not None:
                assert b.S == S
            same(b.support, support)
        same(gsup, want_g)
        assert len(isup) == len(want_i) == (0 if gravity else 1)
        for got, ref in zip(isup, want_i):
            same(got, ref)


class TestGalerkinFlow:
    def unit_ops(self, NX, alpha=1.0):
        a = np.array([[alpha]])
        return [EffectiveOperators(n=1, alpha=a.copy(),
                                   beta=np.zeros((1, 1)),
                                   present=np.array([True]))
                for _ in range(NX)]

    def test_homogeneous_column_linear_pressure_uniform_flux(self):
        fine = FineGrid(20, 4, 5.0, 1.0)
        coarse = CoarseGrid(fine, 5)
        P, V, U = solve_coarse_flow_galerkin(coarse, coarse,
                                             self.unit_ops(5), 1,
                                             p_in=1.0, p_out=0.0)
        dx = fine.L1 / 5
        expect_p = 1.0 - (np.arange(5) + 0.5) * dx / fine.L1
        assert np.allclose(P[:, 0], expect_p, atol=1e-12)
        flux = fine.L2 / fine.L1  # alpha * L2 * dP/L1
        assert V.shape == (6, 1)
        for v in V:
            assert v[0] == pytest.approx(flux, rel=1e-12)
        assert np.allclose(U[:, 0], flux, atol=1e-12)

    def test_refined_flow_grid_restricts_to_base_edges(self):
        fine = FineGrid(24, 4, 6.0, 1.0)
        base = CoarseGrid(fine, 3)
        flow = CoarseGrid(fine, 6)
        P, V, U = solve_coarse_flow_galerkin(flow, base, self.unit_ops(6), 1,
                                             p_in=2.0, p_out=0.0)
        flux = 2.0 * fine.L2 / fine.L1
        assert V.shape == (4, 1)
        for v in V:
            assert v[0] == pytest.approx(flux, rel=1e-12)

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
        coarse = CoarseGrid(fine, 4)
        P, V, U = solve_coarse_flow_galerkin(coarse, coarse, ops, 2,
                                             p_in=1.0, p_out=0.0)
        assert np.isnan(P[2, 1]) and np.isnan(P[3, 1])
        assert U[2, 1] == 0.0 and U[3, 1] == 0.0  # no flow where absent
        assert V[4].sum() == pytest.approx(V[0].sum(), rel=1e-9)

    def test_large_residual_rejected(self, monkeypatch):
        fine = FineGrid(20, 4, 5.0, 1.0)
        coarse = CoarseGrid(fine, 5)
        args = (coarse, coarse, self.unit_ops(5), 1, 1.0, 0.0)
        solve_coarse_flow_galerkin(*args)
        shift_first_unknown(monkeypatch)
        with pytest.raises(SolverError, match="coarse Galerkin residual"):
            solve_coarse_flow_galerkin(*args)

    def test_mismatched_refinement_rejected(self):
        fine = FineGrid(12, 4, 3.0, 1.0)
        with pytest.raises(ConfigError):
            solve_coarse_flow_galerkin(CoarseGrid(fine, 3),
                                       CoarseGrid(fine, 2),
                                       self.unit_ops(3), 1, 1.0, 0.0)


def random_galerkin_ops(seed, n, NX):
    """Random energies on a random presence pattern in which every block
    holds a continuum and shares one with each neighbour, so every unknown
    connects to a Dirichlet face.  Absent continua carry zero energies, as
    from :func:`macro.assemble_effective`."""
    r = rng(seed)
    while True:
        present = r.random((NX, n)) < 0.6
        present[np.arange(NX), r.integers(0, n, NX)] = True
        if (present[:-1] & present[1:]).any(axis=1).all():
            break
    ops = []
    for here in present:
        on = np.outer(here, here)
        M = r.standard_normal((n, n))
        off = r.random((n, n))
        beta = np.where(on, -(off + off.T), 0.0)
        beta[here, here] = 0.0
        beta[here, here] = -beta[here].sum(axis=1)
        ops.append(EffectiveOperators(
            n=n, alpha=np.where(on, M @ M.T + np.eye(n), 0.0), beta=beta,
            present=here))
    return ops


class TestGalerkinMatchesLoops:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("refine", [1, 2])
    def test_random_presence_bit_for_bit(self, seed, refine):
        for n in (1, 2, 3):
            for NX in range(2, 9, refine):
                ops = random_galerkin_ops(100 * seed + 10 * n + NX, n, NX)
                fine = FineGrid(4 * NX, 3, 1.5 * NX, 2.0)
                args = (CoarseGrid(fine, NX), CoarseGrid(fine, NX // refine),
                        ops, n, 1.3, -0.2)
                for got, ref in zip(solve_coarse_flow_galerkin(*args),
                                    galerkin_loops(*args)):
                    assert np.array_equal(got, ref, equal_nan=True)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_block_within_roundoff(self, n):
        # both faces of a lone block are boundary faces: the right-hand
        # side sums the two faces' terms in another order
        for seed in range(20):
            ops = random_galerkin_ops(seed, n, 1)
            coarse = CoarseGrid(FineGrid(4, 3, 1.5, 2.0), 1)
            args = (coarse, coarse, ops, n, 1.3, -0.2)
            for got, ref in zip(solve_coarse_flow_galerkin(*args),
                                galerkin_loops(*args)):
                assert np.array_equal(np.isnan(got), np.isnan(ref))
                np.testing.assert_allclose(
                    got, ref, rtol=0, atol=1e-15 * np.nanmax(np.abs(ref)))


def chain(nblocks, F):
    """1D single-continuum chain with a uniform interior flux F."""
    fine = FineGrid(nblocks * 4, 4, float(nblocks), 1.0)
    coarse = CoarseGrid(fine, nblocks)
    V = np.zeros((nblocks + 1, 1))
    V[1:-1] = F
    masses = np.full((nblocks, 1), coarse.block_area)
    return coarse, V, masses


class TestMacroTransport:
    def test_zero_velocity_is_identity(self):
        coarse, V, masses = chain(4, 0.0)
        C = rng(0).random((4, 1))
        out, skipped = step_macro_concentration(coarse, C, masses, V, 0.1)
        assert (out == C).all() and not skipped.any()

    def test_unit_courant_shifts_one_block(self):
        coarse, V, masses = chain(4, 1.0)
        C = np.zeros((4, 1))
        C[0, 0] = 1.0
        tau = float(coarse.block_area)  # one full donor mass per step
        out, _ = step_macro_concentration(coarse, C, masses, V, tau)
        assert out[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert out[1, 0] == pytest.approx(1.0, rel=1e-15)

    def test_conserves_total_mass(self):
        coarse, V, masses = chain(5, 0.7)
        C = rng(1).random((5, 1))
        out, _ = step_macro_concentration(coarse, C, masses, V, 0.2)
        assert out.sum() == pytest.approx(C.sum(), rel=1e-14)

    def test_cfl_guard_reports_required_tau(self):
        coarse, V, masses = chain(3, 1.0)
        C = np.ones((3, 1))
        with pytest.raises(InvariantError, match="reduce tau"):
            step_macro_concentration(coarse, C, masses, V,
                                     tau=10.0 * coarse.block_area)

    def test_boundary_inflow_requires_data(self):
        coarse, V, masses = chain(3, 0.0)
        V[0] = 1.0
        C = np.zeros((3, 1))
        with pytest.raises(InvariantError, match="inflow"):
            step_macro_concentration(coarse, C, masses, V, 0.1)
        out, _ = step_macro_concentration(coarse, C, masses, V, 0.1,
                                          inflow_conc=np.array([0.5]))
        assert out[0, 0] == pytest.approx(0.05)

    def test_coarse_cfl_formula(self):
        coarse, V, masses = chain(3, 2.0)
        assert coarse_cfl(coarse, V, masses, tau=1.0) == pytest.approx(
            2.0 / coarse.block_area)
        assert coarse_cfl(coarse, V, masses, tau=0.0) == 0.0


def transport_case(seed, nblocks=6, n=3):
    """Random edge fluxes of both signs with exact zeros; block 2 lacks
    continuum 1 and donates it through both of its edges."""
    g = rng(seed)
    coarse = CoarseGrid(FineGrid(2 * nblocks, 2, float(nblocks), 1.0),
                        nblocks)
    V = 0.05 * g.standard_normal((nblocks + 1, n))
    V[g.random(V.shape) < 0.25] = 0.0
    V[2, 1], V[3, 1] = -0.03, 0.02
    masses = coarse.block_area * (0.5 + g.random((nblocks, n)))
    masses[2, 1] = 0.0
    C = masses * g.random((nblocks, n))
    return coarse, C, masses, V, g.random(n)


class TestTransportMatchesLoops:
    """The array transport step and CFL equal their per-edge loop forms
    bit for bit (tests/_oracles.py)."""

    def same(self, coarse, C, masses, V, tau, inflow):
        out, skipped = step_macro_concentration(coarse, C, masses, V, tau,
                                                inflow_conc=inflow)
        want, want_skipped = step_macro_concentration_loops(
            coarse, C, masses, V, tau, inflow_conc=inflow)
        assert out.tobytes() == want.tobytes()
        assert skipped.dtype == bool and skipped.shape == V.shape
        assert (skipped == want_skipped).all()
        assert coarse_cfl(coarse, V, masses, tau) == coarse_cfl_loops(
            coarse, V, masses, tau)
        return out, skipped

    @pytest.mark.parametrize("seed", range(5))
    def test_random_fluxes(self, seed):
        coarse, C, masses, V, inflow = transport_case(seed)
        _out, skipped = self.same(coarse, C, masses, V, 0.7, inflow)
        assert skipped[2, 1] and skipped[3, 1] and skipped.sum() == 2

    @pytest.mark.parametrize("edge,sign", [(0, 1.0), (6, -1.0)])
    def test_inflow_through_each_boundary_edge(self, edge, sign):
        coarse, C, masses, V, inflow = transport_case(7)
        V[edge] = sign * np.array([0.04, 0.0, 0.01])
        out, _ = self.same(coarse, C, masses, V, 0.7, inflow)
        blk = 0 if edge == 0 else coarse.Nx - 1
        V[edge] = 0.0
        closed, _ = step_macro_concentration(coarse, C, masses, V, 0.7,
                                             inflow_conc=inflow)
        assert (out[blk, [0, 2]] > closed[blk, [0, 2]]).all()
        assert out[blk, 1] == closed[blk, 1]

    @pytest.mark.parametrize("edge,sign", [(0, 1.0), (6, -1.0)])
    def test_missing_inflow_conc_raises(self, edge, sign):
        coarse, C, masses, V, _inflow = transport_case(8)
        V[[0, -1]] = 0.0
        V[edge, 2] = sign * 0.01
        for step in (step_macro_concentration,
                     step_macro_concentration_loops):
            with pytest.raises(InvariantError, match=f"edge {edge}"):
                step(coarse, C, masses, V, 0.7)


class TestRunCoarse:
    def make_snapshots(self, grid, steps, c, vx):
        vy = np.zeros((grid.nx, grid.ny + 1))
        p = np.zeros((grid.nx, grid.ny))
        return [Snapshot(step=k, t=0.1 * k, p=p, vx=vx, vy=vy, c=c)
                for k in range(steps + 1)]

    def test_ref_velocity_single_continuum_matches_hand_upwind(self):
        grid = FineGrid(16, 4, 4.0, 1.0)
        coarse = CoarseGrid(grid, 4)
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
        masses = continuum_masses(labels, coarse, 1)
        C = states[0].C.copy()
        F = 0.3 * grid.L2  # interior-edge flux
        for _ in range(6):
            flux = np.zeros(5)
            flux[1:-1] = F * (C[:-1, 0] / masses[:-1, 0])
            C[:, 0] += tau * (flux[:-1] - flux[1:])
        assert np.allclose(states[-1].C, C, atol=1e-10)

    def test_missing_snapshots_rejected(self):
        grid = FineGrid(8, 4, 2.0, 1.0)
        coarse = CoarseGrid(grid, 2)
        snaps = self.make_snapshots(grid, 2, np.full((8, 4), 0.4),
                                    np.zeros((9, 4)))
        model = CoarseModel(coarse=coarse, spec=single_continuum(),
                            approach="mixed-gravity", lam_of=np.ones_like)
        with pytest.raises(ConfigError, match="missing"):
            run_coarse(model, snaps, 5, 0.1, velocity="ref")

    def test_unknown_velocity_mode_and_approach(self):
        grid = FineGrid(8, 4, 2.0, 1.0)
        coarse = CoarseGrid(grid, 2)
        model = CoarseModel(coarse=coarse, spec=single_continuum(),
                            approach="mixed-gravity", lam_of=np.ones_like)
        with pytest.raises(ConfigError):
            run_coarse(model, [], 1, 0.1, velocity="direct")
        with pytest.raises(ConfigError):
            CoarseModel(coarse=coarse, spec=single_continuum(),
                        approach="spectral", lam_of=np.ones_like)

    def test_coarse_flow_reuses_only_the_previous_step(self, monkeypatch):
        fine = FineGrid(24, 6, 3.0, 0.75)
        coarse = CoarseGrid(fine, 3)
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

    def test_mh_viscous_averages_only_the_first_snapshot(self, monkeypatch):
        # the viscous coarse flow reads no Chat, so no per-step averages
        fine, coarse, c, labels, lam = striped_setup(nblocks=3)
        model = CoarseModel(coarse=coarse,
                            spec=ContinuumSpec(DUAL_THRESHOLDS),
                            approach="mixed-viscous",
                            lam_of=lambda cc: np.where(cc >= 0.5, 100.0, 1.0),
                            g_in=-1.0, p_out=0.0,
                            inflow_conc=np.array([1.0, 0.0]))
        counts = {"averages": 0, "solves": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(macro, "averages",
                            counted("averages", macro.averages))
        monkeypatch.setattr(macro, "solve_coarse_flow_mixed",
                            counted("solves", solve_coarse_flow_mixed))
        vx = np.zeros((fine.nx + 1, fine.ny))
        snaps = self.make_snapshots(fine, 2, c, vx)
        moved = c.copy()
        moved[0, 0] = 0.0  # a new label: no reuse of the coarse flow
        snaps[1] = dataclasses.replace(snaps[1], c=moved)
        run_coarse(model, snaps, 2, 1e-3, velocity="mh")
        assert counts == {"averages": 1, "solves": 3}

    def test_mh_gravity_quiescent_keeps_concentration(self):
        # globally uniform concentration: hydrostatic, nothing moves
        fine = FineGrid(24, 6, 3.0, 0.75)
        coarse = CoarseGrid(fine, 3)
        c = np.full((24, 6), 0.7)
        snaps = self.make_snapshots(fine, 3, c,
                                    np.zeros((fine.nx + 1, fine.ny)))
        model = CoarseModel(coarse=coarse,
                            spec=ContinuumSpec(DUAL_THRESHOLDS),
                            approach="mixed-gravity",
                            lam_of=lambda cc: np.where(cc >= 0.5, 100.0, 1.0))
        states = run_coarse(model, snaps, 3, 0.05, velocity="mh")
        assert np.allclose(states[-1].C, states[0].C, atol=1e-9)
