"""Acceptance suite: one pass/fail line per criterion.

Each criterion prints ``[criterion NN] PASS|FAIL <title>: <measured>`` so a
full run doubles as the benchmark scorecard.  Criterion 10 is reported and
flagged but never fails the suite (empirical regularity, not a theorem).
"""

import json

import numpy as np
import pytest

from _oracles import elliptic_oracle, moment_residuals, random_partition_region
from conftest import rng
from dynmc import cells
from dynmc.config import apply_overrides, get_preset
from dynmc.continua import (ContinuumSpec, advect_labels, averages, classify,
                            continuum_masses, indicator, label_agreement,
                            single_continuum)
from dynmc.experiment import run_experiment
from dynmc.fine import (FlowLoad, advance_upwind, divergence, run_fine,
                        solve_flow)
from dynmc.grids import CoarseGrid, FineGrid
from dynmc.macro import (CoarseModel, run_coarse, solve_coarse_flow_mixed,
                         step_macro_concentration)

DUAL = (0.5,)
TRIPLE = (0.8, 0.4)


def emit(capsys, num, title, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} "
              f"{title}: {detail}")


# --- shared benchmark runs (one per preset, reused by criteria 6-10) ----


@pytest.fixture(scope="module")
def bench_gravity_dual():
    return run_experiment(get_preset("gravity-dual"))


@pytest.fixture(scope="module")
def bench_gravity_triple():
    return run_experiment(get_preset("gravity-triple"))


@pytest.fixture(scope="module")
def bench_viscous():
    return run_experiment(get_preset("viscous"))


@pytest.fixture(scope="module")
def bench_interface():
    return run_experiment(get_preset("interface"))


# --- criterion 1: hydrostatic exactness ---------------------------------


def test_criterion_01_hydrostatic_exactness(capsys):
    grid = FineGrid(24, 12, 3.0, 1.5)
    lam = np.where(rng(0).random((24, 12)) < 0.5, 1000.0, 1.0)
    c = np.full((24, 12), 0.7)
    [(_p, vx, vy)] = solve_flow(grid, lam, [FlowLoad(c)])
    vmax = max(np.abs(vx).max(), np.abs(vy).max())

    coarse = CoarseGrid(grid, 4)
    labels = classify(c, ContinuumSpec(DUAL))
    Chat = np.zeros((4, 2))
    Chat[:, 0] = 0.7
    from test_coarse import edge_labels_still
    elab = edge_labels_still(coarse, labels)
    ms = solve_coarse_flow_mixed(coarse, lam, labels, 2, Chat, elab)
    Vmax = np.abs(ms.V).max()
    ok = vmax <= 1e-10 and Vmax <= 1e-10
    emit(capsys, 1, "hydrostatic exactness",
         ok, f"max fine |v| {vmax:.2e} (<=1e-10), max coarse |V| {Vmax:.2e}")
    assert ok


# --- criterion 2: cell-problem constraint suite -------------------------


def test_criterion_02_cell_problem_constraints(capsys):
    cases = [(8, 2, 0, 1.0, DUAL), (8, 2, 1, 10.0, DUAL),
             (8, 2, 2, 1000.0, DUAL), (12, 3, 3, 1.0, TRIPLE),
             (12, 3, 4, 10.0, TRIPLE), (12, 3, 5, 1000.0, TRIPLE)]
    worst_con = 0.0
    worst_oracle = 0.0
    for nx, bx, seed, contrast, thr in cases:
        ov, lam, labels, n = random_partition_region(nx, nx, bx, seed,
                                                     contrast, thr)
        for family in ("average", "gradient", "concentration"):
            out = cells.solve_constrained_elliptic(ov, lam, labels, n,
                                                   family)
            oracle, rows = elliptic_oracle(ov, lam, labels, n, family)
            centers = (cells.gradient_centers(ov, labels, n)
                       if family == "gradient" else None)
            for i, expect in oracle.items():
                b = out.by_continuum(i)
                worst_con = max(worst_con, b.residual)
                scale = max(np.abs(expect).max(), 1.0)
                worst_oracle = max(worst_oracle,
                                   np.abs(b.scalar - expect).max() / scale)
                if family != "concentration":
                    res = moment_residuals(ov, labels, rows, i, b.scalar,
                                           family, centers)
                    worst_con = max(worst_con, np.abs(res).max())
    ok = worst_con <= 1e-9 and worst_oracle <= 1e-10
    emit(capsys, 2, "cell-problem constraint suite", ok,
         f"max constraint residual {worst_con:.2e} (<=1e-9), "
         f"max dense-oracle rel diff {worst_oracle:.2e} (<=1e-10)")
    assert ok


# --- criterion 3: compatibility identities ------------------------------


def test_criterion_03_compatibility_identities(capsys):
    fine = FineGrid(16, 4, 4.0, 1.0)
    coarse = CoarseGrid(fine, 4)
    c = rng(4).random((16, 4))
    labels = classify(c, ContinuumSpec(DUAL))
    lam = np.where(labels == 0, 1000.0, 1.0)
    area = fine.cell_area
    worst = 0.0

    # edge-basis balancing sources absorb exactly the edge share
    elab = labels[2 * coarse.mx]  # edge 2, plus-side labels
    for variant in ("uniform", "psi"):
        for k in (0, 1):
            out = cells.solve_edge_flux_basis(coarse, 2, lam, labels, k, elab,
                                              variant=variant)
            b = out.bases[0]
            if b.flag == "absent":
                continue
            S = b.extras["edge_flux"]
            for blk, src in b.extras["sources"].items():
                sx = coarse.block_slice(blk)
                if variant == "uniform":
                    total = src * coarse.mx * coarse.my * area
                else:
                    total = src * indicator(labels[sx], k).sum() * area
                worst = max(worst, abs(abs(total) - S) / max(S, 1.0))

    # interface basis: zero-mean divergence and the mass-ratio weight
    sx = coarse.block_slice(1)
    lab = np.ones((16, 4), dtype=np.int8)
    lab[sx][:2, :2] = 0  # quarter of the block in continuum 0
    wset = cells.solve_interface_basis(coarse, 1, np.ones((16, 4)), lab)
    b = wset.bases[0]
    worst = max(worst, abs(b.extras["div"].sum()) * area)
    worst = max(worst, abs(b.extras["theta"] - 1.0 / 3.0))

    # gravity recirculation basis: closed and globally balanced
    gset = cells.solve_gravity_basis(coarse, 2, lam, labels, 0)
    g = gset.bases[0]
    worst = max(worst, abs(divergence(gset.grid, g.fx, g.fy).sum()))

    ok = worst <= 1e-12
    emit(capsys, 3, "compatibility identities", ok,
         f"max identity residual {worst:.2e} (<=1e-12)")
    assert ok


# --- criterion 4: conservation ledger -----------------------------------


def test_criterion_04_conservation_ledger(capsys):
    grid = FineGrid(24, 12, 3.0, 1.5)
    coarse = CoarseGrid(grid, 4)
    spec = ContinuumSpec(DUAL)
    c0 = np.where(rng(5).random((24, 12)) < 0.4, 1.0, 0.333)
    lam_of = lambda c: np.where(classify(c, spec) == 0, 1000.0, 1.0)
    run = run_fine(grid, lam_of, c0, 1e-3, 10, scheme="upwind")
    worst = 0.0
    total0 = run.snapshots[0].c.sum()
    for a, b in zip(run.snapshots, run.snapshots[1:]):
        worst = max(worst, abs(b.c.sum() - a.c.sum()) / abs(total0))

    # block-continuum averages tile the fine mass exactly
    for s in run.snapshots:
        labels = classify(s.c, spec)
        av = averages(coarse, s.p, s.c, s.vx, labels, 2)
        for I in range(4):
            sx = coarse.block_slice(I)
            fine_mass = s.c[sx].sum() * grid.cell_area
            worst = max(worst, abs(av.C[I].sum() - fine_mass)
                        / max(abs(fine_mass), 1.0))

    # coarse stepping in a closed box conserves the ledger
    labels = classify(run.snapshots[-1].c, spec)
    masses = continuum_masses(labels, coarse, 2)
    av = averages(coarse, s.p, s.c, s.vx, labels, 2)
    C = av.C.copy()
    V = np.zeros((coarse.Nx + 1, 2))
    V[1:-1] = rng(6).standard_normal(2) * 0.1  # closed box: interior edges
    for _ in range(5):
        C2, _sk = step_macro_concentration(coarse, C, masses, V, 0.05)
        worst = max(worst, abs(C2.sum() - C.sum()) / abs(C.sum()))
        C = C2

    ok = worst <= 1e-12
    emit(capsys, 4, "conservation ledger", ok,
         f"max relative mass drift {worst:.2e} (<=1e-12)")
    assert ok


# --- criterion 5: single-continuum reduction ----------------------------


def test_criterion_05_single_continuum_reduction(capsys):
    fine = FineGrid(40, 8, 5.0, 1.0)
    coarse = CoarseGrid(fine, 5)
    spec = single_continuum()
    xg, _ = fine.cell_centers()
    c0 = 0.2 + 0.6 * (1.0 - xg / fine.L1)  # smooth decreasing profile

    from dynmc.fine import Snapshot
    steps = 10
    vx = np.zeros((41, 8))
    vy = np.zeros((40, 9))
    snaps = [Snapshot(k, 0.5 * k, np.zeros_like(c0), vx, vy, c0)
             for k in range(steps + 1)]
    model = CoarseModel(coarse=coarse, spec=spec, approach="galerkin",
                        lam_of=np.ones_like, inflow_conc=np.array([0.8]))
    states = run_coarse(model, snaps, steps, 0.5, velocity="mh")

    # direct coarse Darcy transport: exact flux and donor upwinding
    F = (1.0 - 0.0) * fine.L2 / fine.L1
    masses = np.full(5, coarse.block_area)
    C = states[0].C[:, 0].copy()
    worst_v = np.abs(states[0].V[:, 0] - F).max()
    worst_c = 0.0
    for k in range(steps):
        flux = np.empty(6)
        flux[0] = F * 0.8  # inflow concentration
        flux[1:] = F * (C / masses)
        C = C + 0.5 * (flux[:-1] - flux[1:])
        worst_c = max(worst_c,
                      np.abs(states[k + 1].C[:, 0] - C).max())
    ok = worst_v <= 1e-10 and worst_c <= 1e-10
    emit(capsys, 5, "single-continuum reduction", ok,
         f"max flux diff {worst_v:.2e}, max per-step C diff {worst_c:.2e} "
         "(<=1e-10)")
    assert ok


# --- criteria 6-9: benchmark error bands --------------------------------


def _fmt_arr(a):
    return "[" + ", ".join(f"{v:.3f}" for v in np.atleast_1d(a)) + "]"


def test_criterion_06_gravity_dual_benchmark(capsys, bench_gravity_dual):
    rep = bench_gravity_dual.report
    eV = rep.eV.relative
    eC = np.concatenate([rep.eC_ref_vel, rep.eC_mh_vel, rep.eC_between])
    ok = (np.nanmax(eV) <= 15.0 and np.nanmax(eC) <= 6.0
          and bench_gravity_dual.wall_time < 600)
    emit(capsys, 6, "gravity dual-continuum benchmark", ok,
         f"e_V {_fmt_arr(eV)}% (<=15), e_C max {np.nanmax(eC):.3f}% (<=6), "
         f"{bench_gravity_dual.wall_time:.1f}s (<600)")
    assert ok


def test_criterion_07_gravity_triple_benchmark(capsys, bench_gravity_triple):
    rep = bench_gravity_triple.report
    eVg = rep.eV.global_relative
    eC = np.concatenate([rep.eC_ref_vel, rep.eC_mh_vel, rep.eC_between])
    ok = (eVg <= 8.0 and np.nanmax(eC) <= 6.0
          and bench_gravity_triple.wall_time < 900)
    emit(capsys, 7, "triple-continuum benchmark", ok,
         f"e_V global {eVg:.3f}% (<=8), e_C max {np.nanmax(eC):.3f}% (<=6), "
         f"{bench_gravity_triple.wall_time:.1f}s (<900)")
    assert ok


def test_criterion_08_viscous_fingering_benchmark(capsys, bench_viscous):
    rep = bench_viscous.report
    eV = rep.eV.relative
    eC = np.concatenate([rep.eC_ref_vel, rep.eC_mh_vel])
    ok = (eV[0] <= 2.0 and eV[1] <= 6.0 and np.nanmax(eC) <= 8.0
          and np.nanmax(rep.eC_between) <= 1.5
          and bench_viscous.wall_time < 600)
    emit(capsys, 8, "viscous fingering benchmark", ok,
         f"e_V {_fmt_arr(eV)}% (<=[2, 6]), e_C max {np.nanmax(eC):.3f}% "
         f"(<=8), between max {np.nanmax(rep.eC_between):.3f}% (<=1.5), "
         f"{bench_viscous.wall_time:.1f}s (<600)")
    assert ok


def test_criterion_09_interface_flattening_benchmark(capsys, bench_interface):
    cfg = bench_interface.cfg
    rep = bench_interface.report
    eV = rep.eV.relative
    eC = np.concatenate([rep.eC_ref_vel, rep.eC_mh_vel])
    tau_ratio = cfg.tau_coarse / cfg.tau
    ok = (np.nanmax(eV) <= 10.0 and np.nanmax(eC) <= 5.0
          and tau_ratio == pytest.approx(10.0, rel=1e-12)
          and bench_interface.wall_time < 600)
    emit(capsys, 9, "interface flattening benchmark", ok,
         f"e_V {_fmt_arr(eV)}% (<=10), e_C max {np.nanmax(eC):.3f}% (<=5), "
         f"tau_coarse/tau {tau_ratio:.0f}x, "
         f"{bench_interface.wall_time:.1f}s (<600)")
    assert ok


# --- criterion 10: error ordering (reported, never a hard failure) ------


def test_criterion_10_error_ordering_soft(capsys, bench_gravity_dual,
                                          bench_gravity_triple, bench_viscous,
                                          bench_interface):
    results = {
        "gravity-dual": bench_gravity_dual.report.ordering_ok,
        "gravity-triple": bench_gravity_triple.report.ordering_ok,
        "viscous": bench_viscous.report.ordering_ok,
        "interface": bench_interface.report.ordering_ok,
    }
    ok = all(results.values())
    detail = ", ".join(f"{k}: {'ok' if v else 'FLAGGED'}"
                       for k, v in results.items())
    emit(capsys, 10, "error ordering (soft)", True,
         detail + ("" if ok else "  -- flagged for review, not a failure"))


# --- criterion 11: label-advection oracle -------------------------------


def test_criterion_11_label_advection_oracle(capsys):
    cfg = apply_overrides(get_preset("gravity-dual"),
                          ["steps=20", "coarse_steps=20"])
    ext = cfg.layout().extended_fine
    c0 = cfg.initial_condition(ext)
    run = run_fine(ext, cfg.mobility(ext), c0, cfg.tau, cfg.steps,
                   gravity_on=True, scheme="particles",
                   seed=cfg.particle_seed)
    spec = cfg.continuum_spec()
    labels0 = classify(run.snapshots[0].c, spec)
    fields = [(s.vx, s.vy) for s in run.snapshots[:-1]]
    series = advect_labels(ext, labels0, fields, tau=cfg.tau)
    final_ref = classify(run.snapshots[-1].c, spec)
    frac = label_agreement(series[-1], final_ref, exclude_band=1)
    ok = frac >= 0.90
    emit(capsys, 11, "label-advection oracle", ok,
         f"agreement outside one-cell band {100 * frac:.1f}% (>=90)")
    assert ok


# --- criterion 12: reproducibility --------------------------------------


VOLATILE_MANIFEST_KEYS = ("wall_time_s", "written_at")


def test_criterion_12_reproducibility(capsys, tmp_path):
    cfg = get_preset("smoke")
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for d in dirs:
        run_experiment(cfg, outdir=str(d))
    names = sorted(p.name for p in dirs[0].iterdir())
    diffs = []
    for name in names:
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        if name == "manifest.json":
            da, db = json.loads(a), json.loads(b)
            for key in VOLATILE_MANIFEST_KEYS:
                da.pop(key, None)
                db.pop(key, None)
            if da != db:
                diffs.append(name)
        elif a != b:
            diffs.append(name)
    ok = not diffs and len(names) >= 6
    emit(capsys, 12, "reproducibility", ok,
         f"{len(names)} artifacts byte-identical across two runs"
         + (f"; differing: {diffs}" if diffs else ""))
    assert ok
