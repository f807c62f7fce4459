"""Coarse flow solves and the donor-block transport step."""

import dataclasses
import re

import numpy as np
import pytest

from _oracles import (coarse_cfl_loops, galerkin_loops, mixed_loops,
                      step_macro_concentration_loops)
from conftest import rng
from dynmc import cells, macro
from dynmc.continua import (ContinuumSpec, DUAL_THRESHOLDS, classify,
                            continuum_masses)
from dynmc.exceptions import ConfigError, InvariantError, SolverError
from dynmc.fine import SIDES, Snapshot, StepMemo, solve_flow
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
                                     edge_labels_still(coarse, labels))
        assert np.abs(ms.V).max() <= 1e-10
        assert ms.balance_residual <= 1e-10

    def test_buoyancy_contrast_drives_exchange_loop(self):
        fine, coarse, c, labels, lam = striped_setup(nblocks=4)
        Chat = np.zeros((4, 2))
        Chat[:, 0] = [1.0, 0.8, 0.6, 0.4]  # heavy fluid on the left
        ms = solve_coarse_flow_mixed(coarse, lam, labels, 2, Chat,
                                     edge_labels_still(coarse, labels))
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
                                     edge_labels_still(coarse, labels))
        for I in range(4):
            inflow = ms.V[I].sum()
            outflow = ms.V[I + 1].sum()
            assert abs(inflow - outflow) <= 1e-10


class TestMixedViscous:
    def solve(self, nblocks=2):
        # no Chat: the viscous variant, inflow G_IN = -1 and outlet P_OUT = 0
        fine, coarse, c, labels, lam = striped_setup(nblocks=nblocks)
        ms = solve_coarse_flow_mixed(coarse, lam, labels, 2, None,
                                     edge_labels_still(coarse, labels))
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
    solve_coarse_flow_mixed(*args)
    shift_first_unknown(monkeypatch)
    with pytest.raises(SolverError, match="coarse mixed residual"):
        solve_coarse_flow_mixed(*args)


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
        Chat = rng(41).random((coarse.Nx, 2))
        solve_coarse_flow_mixed(coarse, lam, labels, 2,
                                Chat if variant == "gravity" else None, elab)
        assert len(blocks) == len(set(blocks)) == coarse.Nx

    @pytest.mark.parametrize("gravity", [True, False])
    def test_bases_equal_one_solve_per_basis(self, gravity):
        coarse, labels, lam, elab = random_mixed_setup(42)
        bases, table = macro.mixed_bases(coarse, lam, labels, 2, elab,
                                         gravity)
        # one public basis call per basis, in the order the Gram matrix
        # is assembled
        variant = "uniform" if gravity else "psi"
        mx = coarse.mx

        def per_block(I, bset):
            """Faces of a stitched edge basis, cut block by block."""
            b = bset.bases[0]
            blocks = [k for k in coarse.edge_neighbors(I) if k is not None]
            return {blk: macro._faces(b.fx[k * mx:(k + 1) * mx + 1, :],
                                      b.fy[k * mx:(k + 1) * mx, :])
                    for k, blk in enumerate(blocks)}

        want = []
        for I in range(1, coarse.Nx if gravity else coarse.Nx + 1):
            for i in range(2):
                bset = cells.solve_edge_flux_basis(coarse, I, lam, labels, i,
                                                   elab[I], variant)
                if bset.bases[0].flag != "absent":
                    want.append((I, i, bset.bases[0].extras["edge_flux"],
                                 per_block(I, bset)))
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
                                                   labels[0, :], "psi")
                if iset.bases[0].flag != "absent":
                    want_i.append(per_block(0, iset))

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
        assert [b[:2] for b in bases] == [w[:2] for w in want]
        # each block lists its solutions by ascending key
        for own, grav, lifts in table:
            for kind in (own, grav, lifts):
                keys = [key for key, _faces in kind]
                assert keys == sorted(set(keys))
        for a, (b, (_key, _i, S, support)) in enumerate(zip(bases, want)):
            if S is not None:
                assert b[2] == S
            same({blk: faces for blk, (own, _g, _l) in enumerate(table)
                  for key, faces in own if key == a}, support)
        same({(blk, i): faces for blk, (_o, grav, _l) in enumerate(table)
              for i, faces in grav}, want_g)
        lifts = {}
        for blk, (_o, _g, lift) in enumerate(table):
            for i, faces in lift:
                lifts.setdefault(i, {})[blk] = faces
        assert len(lifts) == len(want_i) == (0 if gravity else 1)
        for got, ref in zip(lifts.values(), want_i):
            same(got, ref)


def same_load(a, b) -> bool:
    """Whether two FlowLoads carry the same data, byte for byte."""
    (ca, bca, fa), (cb, bcb, fb) = a, b
    if (ca is None) != (cb is None) or (fa is None) != (fb is None):
        return False
    for side in SIDES:
        sa, sb = bca.side(side), bcb.side(side)
        if sa[0] != sb[0] or any(
                np.asarray(x).tobytes() != np.asarray(y).tobytes()
                for x, y in zip(sa[1:], sb[1:])):
            return False
    return ((ca is None or ca.tobytes() == cb.tobytes())
            and (fa is None or fa.tobytes() == fb.tobytes()))


class TestBlockLoadMemo:
    """Each distinct block load is solved once, and a load the memo holds
    from the solve before is not solved again."""

    def solve(self, monkeypatch, memo, coarse, lam, labels, elab):
        """One viscous ``mixed_bases`` call through ``memo``: returns its
        (block, load) items, the loads handed to ``cells.solve_flow`` and
        the memo's (solved, reused) counts."""
        items, solved = [], []
        real_loads, real_flow = cells.solve_block_loads, cells.solve_flow

        def block_loads(coarse, lam, its, *args):
            items.extend(its)
            return real_loads(coarse, lam, its, *args)

        def flow(grid, lam_b, loads, **kwargs):
            solved.extend(loads)
            return real_flow(grid, lam_b, loads, **kwargs)

        monkeypatch.setattr(cells, "solve_block_loads", block_loads)
        monkeypatch.setattr(cells, "solve_flow", flow)
        macro.mixed_bases(coarse, lam, labels, 2, elab, False, memo)
        monkeypatch.setattr(cells, "solve_block_loads", real_loads)
        monkeypatch.setattr(cells, "solve_flow", real_flow)
        return items, solved, memo.settle()

    @pytest.mark.parametrize("change", ["lam", "label", "donor"])
    def test_a_change_solves_exactly_the_loads_it_touches(self, monkeypatch,
                                                          change):
        coarse, labels, lam, elab = random_mixed_setup(44)
        mx, b = coarse.mx, 1
        memo = StepMemo()
        first, solved, counts = self.solve(monkeypatch, memo, coarse, lam,
                                           labels, elab)
        assert counts == (len(solved), len(first) - len(solved))
        lam2, labels2, elab2 = lam.copy(), labels.copy(), elab.copy()
        cell = (b * mx + 3, 2)  # inside block 1, off its edge columns
        if change == "lam":
            lam2[cell] *= 2.0
        elif change == "label":
            labels2[cell] = 1 - labels2[cell]
        else:  # a face of edge 2, between blocks 1 and 2
            elab2[2, 3] = 1 - elab2[2, 3]
        items, solved, counts = self.solve(monkeypatch, memo, coarse, lam2,
                                           labels2, elab2)

        def block_lam(field, blk):
            return field[coarse.block_slice(blk)]

        def equal(item, other, field):
            (blk, load), (oblk, old) = item, other
            return same_load(load, old) and np.array_equal(
                block_lam(lam2, blk), block_lam(field, oblk))

        new = [item for item in items
               if not any(equal(item, old, lam) for old in first)]
        distinct = [item for k, item in enumerate(new)
                    if not any(equal(item, other, lam2)
                               for other in new[:k])]
        assert counts == (len(distinct), len(items) - len(distinct))
        assert len(solved) == len(distinct) > 0
        for load in solved:
            assert any(load is item[1] for item in distinct)
        touched = {blk for blk, _load in new}
        if change == "donor":
            assert touched == {1, 2}
            edge = [item for item in items if any(
                side[0] == "flux" for side in (item[1].bc.right,
                                               item[1].bc.left))]
            assert all(any(item is e for e in edge) for item in new)
        else:  # every load the block carries, no other
            assert touched == {b}
            assert len(new) == sum(blk == b for blk, _load in items)

    def test_a_solve_whose_loads_repeat_solves_nothing(self, monkeypatch):
        coarse, labels, lam, elab = random_mixed_setup(45)
        memo = StepMemo()
        first, _solved, _counts = self.solve(monkeypatch, memo, coarse, lam,
                                             labels, elab)
        items, solved, counts = self.solve(monkeypatch, memo, coarse,
                                           lam.copy(), labels.copy(), elab)
        assert solved == [] and counts == (0, len(items))
        assert len(items) == len(first) > 0

    def test_shared_results_are_read_only(self):
        coarse, labels, lam, _elab = random_mixed_setup(46)
        load = cells.gravity_load(coarse, 0, labels, 0)
        twin = cells.gravity_load(coarse, 0, labels, 0)
        memo = StepMemo()
        got = cells.solve_block_loads(coarse, lam, [(0, load), (0, twin)],
                                      memo)
        assert memo.settle() == (1, 1)
        assert all(a is b for a, b in zip(*got))
        for a in got[0]:
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0
        # without a memo the call still dedupes its loads
        again = cells.solve_block_loads(coarse, lam, [(0, load), (0, twin)])
        assert all(a is b for a, b in zip(*again))
        assert not any(a.flags.writeable for a in again[0])


def random_presence_setup(seed, n=2):
    """Random labels over 2-4 blocks; some blocks, and sometimes the inlet
    column, hold one continuum only; random donor edge labels."""
    g = rng(seed)
    nblocks, mx, my = int(g.integers(2, 5)), 6, 5
    fine = FineGrid(nblocks * mx, my, float(nblocks * mx), float(my))
    coarse = CoarseGrid(fine, nblocks)
    labels = g.integers(0, n, size=(fine.nx, fine.ny)).astype(np.int8)
    for blk in coarse.blocks():
        if g.random() < 0.3:
            labels[coarse.block_slice(blk)] = g.integers(0, n)
    if g.random() < 0.5:
        labels[0, :] = g.integers(0, n)
    lam = np.where(labels == 0, 1000.0, 1.0)
    vx = g.standard_normal((fine.nx + 1, fine.ny))
    return coarse, labels, lam, coarse.edge_donor_labels(
        labels, coarse.edge_flux(vx))


@pytest.mark.parametrize("variant", ["gravity", "viscous"])
def test_one_block_pass_equals_per_basis_loops(monkeypatch, variant):
    # boundary data other than the presets', passed to the loops and set
    # on macro's constants
    monkeypatch.setattr(macro, "G_IN", -1.3)
    monkeypatch.setattr(macro, "P_OUT", 0.4)
    gravity = variant == "gravity"
    solved = missing = 0
    for seed in range(40):
        n = 2 + seed % 2 if gravity else 2
        coarse, labels, lam, elab = random_presence_setup(seed, n)
        Chat = rng(100 + seed).random((coarse.Nx, n))
        Chat[seed % coarse.Nx, -1] = np.nan  # an absent continuum's mean
        args = (coarse, lam, labels, n, Chat if gravity else None, elab)
        try:
            ref = mixed_loops(*args, variant, g_in=-1.3, p_out=0.4,
                              inflow_labels=labels[0, :])
        except SolverError as exc:
            with pytest.raises(SolverError, match=re.escape(str(exc))):
                solve_coarse_flow_mixed(*args)
            continue
        got = solve_coarse_flow_mixed(*args)
        assert np.array_equal(got.V, ref.V)
        assert list(got.P) == list(ref.P)
        assert all(got.P[k] == ref.P[k] for k in ref.P)
        assert got.balance_residual == ref.balance_residual
        solved += 1
        present = continuum_masses(labels, coarse, n) > 0
        missing += (not present.all()) + (len(set(labels[0, :])) < n)
    assert solved >= 30 and missing >= 10


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
        # the inlet and outlet pressures P_IN = 1 and P_OUT = 0
        P, V, U = solve_coarse_flow_galerkin(coarse, coarse,
                                             self.unit_ops(5), 1)
        dx = fine.L1 / 5
        expect_p = 1.0 - (np.arange(5) + 0.5) * dx / fine.L1
        assert np.allclose(P[:, 0], expect_p, atol=1e-12)
        flux = fine.L2 / fine.L1  # alpha * L2 * dP/L1
        assert V.shape == (6, 1)
        for v in V:
            assert v[0] == pytest.approx(flux, rel=1e-12)
        assert np.allclose(U[:, 0], flux, atol=1e-12)

    def test_refined_flow_grid_restricts_to_base_edges(self, monkeypatch):
        monkeypatch.setattr(macro, "P_IN", 2.0)
        fine = FineGrid(24, 4, 6.0, 1.0)
        base = CoarseGrid(fine, 3)
        flow = CoarseGrid(fine, 6)
        P, V, U = solve_coarse_flow_galerkin(flow, base, self.unit_ops(6), 1)
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
        P, V, U = solve_coarse_flow_galerkin(coarse, coarse, ops, 2)
        assert np.isnan(P[2, 1]) and np.isnan(P[3, 1])
        assert U[2, 1] == 0.0 and U[3, 1] == 0.0  # no flow where absent
        assert V[4].sum() == pytest.approx(V[0].sum(), rel=1e-9)

    def test_large_residual_rejected(self, monkeypatch):
        fine = FineGrid(20, 4, 5.0, 1.0)
        coarse = CoarseGrid(fine, 5)
        args = (coarse, coarse, self.unit_ops(5), 1)
        solve_coarse_flow_galerkin(*args)
        shift_first_unknown(monkeypatch)
        with pytest.raises(SolverError, match="coarse Galerkin residual"):
            solve_coarse_flow_galerkin(*args)

    def test_mismatched_refinement_rejected(self):
        fine = FineGrid(12, 4, 3.0, 1.0)
        with pytest.raises(ConfigError):
            solve_coarse_flow_galerkin(CoarseGrid(fine, 3),
                                       CoarseGrid(fine, 2),
                                       self.unit_ops(3), 1)


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
    """Boundary pressures other than the presets', passed to the loops and
    set on macro's constants."""

    @pytest.fixture(autouse=True)
    def pressures(self, monkeypatch):
        monkeypatch.setattr(macro, "P_IN", 1.3)
        monkeypatch.setattr(macro, "P_OUT", -0.2)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("refine", [1, 2])
    def test_random_presence_bit_for_bit(self, seed, refine):
        for n in (1, 2, 3):
            for NX in range(2, 9, refine):
                ops = random_galerkin_ops(100 * seed + 10 * n + NX, n, NX)
                fine = FineGrid(4 * NX, 3, 1.5 * NX, 2.0)
                args = (CoarseGrid(fine, NX), CoarseGrid(fine, NX // refine),
                        ops, n)
                for got, ref in zip(solve_coarse_flow_galerkin(*args),
                                    galerkin_loops(*args, 1.3, -0.2)):
                    assert np.array_equal(got, ref, equal_nan=True)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_block_within_roundoff(self, n):
        # both faces of a lone block are boundary faces: the right-hand
        # side sums the two faces' terms in another order
        for seed in range(20):
            ops = random_galerkin_ops(seed, n, 1)
            coarse = CoarseGrid(FineGrid(4, 3, 1.5, 2.0), 1)
            args = (coarse, coarse, ops, n)
            for got, ref in zip(solve_coarse_flow_galerkin(*args),
                                galerkin_loops(*args, 1.3, -0.2)):
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
        model = CoarseModel(coarse=coarse, spec=ContinuumSpec(()),
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

    def test_ref_velocity_never_evaluates_the_mobility(self):
        # lam feeds only the homogenized coarse flow
        grid = FineGrid(16, 4, 4.0, 1.0)
        calls = []

        def lam_of(c):
            calls.append(1)
            return np.ones_like(c)

        model = CoarseModel(coarse=CoarseGrid(grid, 4),
                            spec=ContinuumSpec(()),
                            approach="mixed-gravity", lam_of=lam_of)
        snaps = self.make_snapshots(grid, 3, rng(3).random((16, 4)),
                                    np.zeros((17, 4)))
        run_coarse(model, snaps, 3, 0.05, velocity="ref")
        assert calls == []
        run_coarse(model, snaps, 3, 0.05, velocity="mh")
        assert len(calls) == 4

    def test_missing_snapshots_rejected(self):
        grid = FineGrid(8, 4, 2.0, 1.0)
        coarse = CoarseGrid(grid, 2)
        snaps = self.make_snapshots(grid, 2, np.full((8, 4), 0.4),
                                    np.zeros((9, 4)))
        model = CoarseModel(coarse=coarse, spec=ContinuumSpec(()),
                            approach="mixed-gravity", lam_of=np.ones_like)
        with pytest.raises(ConfigError, match="missing"):
            run_coarse(model, snaps, 5, 0.1, velocity="ref")

    def test_unknown_velocity_mode_and_approach(self):
        grid = FineGrid(8, 4, 2.0, 1.0)
        coarse = CoarseGrid(grid, 2)
        model = CoarseModel(coarse=coarse, spec=ContinuumSpec(()),
                            approach="mixed-gravity", lam_of=np.ones_like)
        with pytest.raises(ConfigError):
            run_coarse(model, [], 1, 0.1, velocity="direct")
        with pytest.raises(ConfigError):
            CoarseModel(coarse=coarse, spec=ContinuumSpec(()),
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
