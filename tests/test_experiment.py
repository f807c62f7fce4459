"""End-to-end driver: which fine steps feed which coarse time points."""

import ast
import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from dynmc import cells, experiment, fine, macro
from dynmc.config import ExperimentConfig, apply_overrides, get_preset
from dynmc.continua import averages, classify
from dynmc.exceptions import ConfigError
from dynmc.experiment import run_experiment
from dynmc.fine import run_fine
from dynmc.io import write_cell_csv
from dynmc.macro import FLOW_REFINE, LAYERS
from test_solve_paths import callers

ROOT = Path(__file__).resolve().parents[1]


def test_coarse_points_read_fine_steps_pre_plus_k_substeps():
    cfg = dataclasses.replace(get_preset("smoke"), steps=7, pre_steps=2,
                              tau_coarse=4e-2, coarse_steps=2)
    assert cfg.substeps == 2  # smoke's tau is 2e-2
    res = run_experiment(cfg)
    assert [s.step for s in res.fine.snapshots] == [2, 4, 6, 7]

    ext = cfg.layout().extended_fine
    c0 = cfg.initial_condition(ext)
    every = run_fine(ext, cfg.mobility(ext), c0, cfg.tau, cfg.steps,
                     bc=cfg.flow_bc(ext), gravity_on=cfg.gravity,
                     scheme=cfg.scheme)
    spec = cfg.continuum_spec()
    assert len(res.reference) == cfg.coarse_steps + 1
    for k, ref in enumerate(res.reference):
        s = every.snapshots[2 + 2 * k]
        av = averages(res.coarse, s.p, s.c, s.vx, classify(s.c, spec),
                      spec.count)
        assert (ref.C == av.C).all()
        assert (ref.V == av.V).all()
        # the 'ref' coarse run takes its velocities from the same snapshot
        assert (res.mh_refvel[k].V == av.V).all()
    assert (res.mh_refvel[0].C == res.reference[0].C).all()
    assert (res.fine.c0 == c0).all()
    assert np.isfinite(res.report.eV.global_relative)


@pytest.mark.parametrize("override,match", [
    # 120 fine columns do not split into Nx x 2 = 16 flow blocks
    ("Nx=8", "16 blocks does not divide fine nx=120"),
    # the Galerkin region settings are fixed, no keys
    ("layers=-1", "unknown config key 'layers'"),
    ("extension_rule=bogus", "unknown config key 'extension_rule'"),
    # 6 layers reach past the mirror image of the Nx x 2 = 4 flow blocks
    ("Nx=2", "6 layers reach past the reflect-right mirror image of the "
             "4-block"),
], ids=["flow_refine", "layers", "extension_rule", "layers_past_mirror"])
def test_galerkin_flow_grid_checked_before_the_fine_run(monkeypatch, override,
                                                        match):
    def no_fine_run(*args, **kwargs):
        raise AssertionError("run_fine called")

    monkeypatch.setattr(experiment, "run_fine", no_fine_run)
    with pytest.raises(ConfigError, match=match):
        run_experiment(apply_overrides(get_preset("interface"), [override]))


def test_coarse_block_count_checked_before_the_fine_run(monkeypatch):
    def no_fine_run(*args, **kwargs):
        raise AssertionError("run_fine called")

    monkeypatch.setattr(experiment, "run_fine", no_fine_run)
    # 120 fine columns do not split into 7 coarse blocks
    with pytest.raises(ConfigError, match="Nx=7 coarse blocks"):
        run_experiment(apply_overrides(get_preset("gravity-dual"), ["Nx=7"]))


@pytest.mark.parametrize("preset", ["gravity-dual", "viscous"])
def test_extension_margin_checked_before_the_fine_run(monkeypatch, preset):
    def no_fine_run(*args, **kwargs):
        raise AssertionError("run_fine called")

    monkeypatch.setattr(experiment, "run_fine", no_fine_run)
    # the 1.8-wide margins add 3.6 to the domain: 1.6 blocks of 9 / 4
    with pytest.raises(ConfigError, match="extension margin 1.8 is not a "
                                          "whole number of coarse blocks"):
        run_experiment(apply_overrides(get_preset(preset), ["Nx=4"]))


@pytest.mark.parametrize("kind", ["lam", "ic"])
def test_file_fields_read_back_bit_for_bit(tmp_path, kind):
    # a field written by write_cell_csv comes back as lam or c0 exactly
    cfg = get_preset("gravity-dual-hetero")
    grid = cfg.layout().extended_fine
    c0 = cfg.initial_condition(grid)
    field = cfg.mobility(grid)(c0) if kind == "lam" else c0
    path = str(tmp_path / f"{kind}.csv")
    write_cell_csv(path, field)
    cfg = apply_overrides(cfg, [f"{kind}_kind=file", f"{kind}_file={path}"])
    got = cfg.mobility(grid)(c0) if kind == "lam" else cfg.initial_condition(
        grid)
    assert got.tobytes() == field.tobytes()


def test_file_inputs_run_the_experiment_they_were_written_from(tmp_path):
    # c0 and lam of a preset, written by write_cell_csv, read back as
    # ic_kind=file and lam_kind=file: the same report and series to the bit
    cfg = apply_overrides(get_preset("gravity-dual-hetero"),
                          ["steps=10", "coarse_steps=10"])
    grid = cfg.layout().extended_fine
    c0 = cfg.initial_condition(grid)
    ic, lam = str(tmp_path / "c0.csv"), str(tmp_path / "lam.csv")
    write_cell_csv(ic, c0)
    write_cell_csv(lam, cfg.mobility(grid)(c0))
    files = apply_overrides(cfg, ["ic_kind=file", f"ic_file={ic}",
                                  "lam_kind=file", f"lam_file={lam}"])
    runs = {name: run_experiment(c, str(tmp_path / name))
            for name, c in (("preset", cfg), ("files", files))}

    def report(res):
        rep = res.report
        return ([key for *key, _v in rep.rows()],
                np.array([v for *_key, v in rep.rows()]).tobytes(),
                [(e.relative.tobytes(), e.absolute.tobytes(),
                  e.global_relative) for e in rep.eV_series],
                {k: np.asarray(v).tobytes() for k, v in rep.eC_series.items()})

    assert report(runs["files"]) == report(runs["preset"])
    for name in ("averages_reference.csv", "averages_mh_refvel.csv",
                 "averages_mh_mhvel.csv", "errors.csv", "c_initial.csv",
                 "c_final.csv"):
        assert ((tmp_path / "files" / name).read_bytes()
                == (tmp_path / "preset" / name).read_bytes())


@pytest.mark.parametrize("kind", ["lam", "ic"])
def test_file_of_the_wrong_shape_fails_before_the_fine_run(monkeypatch,
                                                           tmp_path, kind):
    def no_fine_run(*args, **kwargs):
        raise AssertionError("run_fine called")

    monkeypatch.setattr(experiment, "run_fine", no_fine_run)
    path = str(tmp_path / f"{kind}.csv")
    write_cell_csv(path, np.ones((8, 3)))  # smoke's fine grid is 8x4
    cfg = apply_overrides(get_preset("smoke"),
                          [f"{kind}_kind=file", f"{kind}_file={path}"])
    with pytest.raises(ConfigError, match="grid is 8x3, expected 8x4"):
        run_experiment(cfg)


def test_manifest_counts_reused_fine_flow_solves(tmp_path):
    cfg = dataclasses.replace(get_preset("interface"), steps=30,
                              coarse_steps=3)
    res = run_experiment(cfg, outdir=str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(res.fine.flow_reused) == cfg.steps + 1
    assert manifest["fine_flow_reused"] == sum(res.fine.flow_reused) > 0


def multi_solve_galerkin():
    """The benchmark's shortened interface run: four Galerkin coarse flow
    solves, whose later ones meet regions of the solve before."""
    return dataclasses.replace(get_preset("interface"), steps=400,
                               coarse_steps=40)


def spy_galerkin_solves(monkeypatch):
    """Record the memos of every Galerkin coarse flow solve after it: the
    regions' entries and keys in use, and the pieces' keys."""
    memos = []
    real = macro._galerkin_velocity

    def spy(model, lam, labels, n, pieces, regions):
        out = real(model, lam, labels, n, pieces, regions)
        memos.append((dict(regions.entries), set(regions.used),
                      set(pieces.entries)))
        return out

    monkeypatch.setattr(macro, "_galerkin_velocity", spy)
    return memos


class Forgetful(fine.StepMemo):
    """A StepMemo that keeps nothing past the step it serves."""

    def settle(self):
        counts = super().settle()
        self.entries = {}
        return counts


class Unkept(fine.LastSolve):
    """A LastSolve that never keeps its inputs."""

    inputs = property(lambda self: None, lambda self, value: None)


def memos_off(monkeypatch):
    """Make every memo of a run forget: no step takes anything from the
    step before."""
    for module in (fine, cells, macro):
        monkeypatch.setattr(module, "StepMemo", Forgetful)
    monkeypatch.setattr(fine, "LastSolve", Unkept)


def assert_same_result(res, fresh):
    """Every state's C, V and P and every report row and per-step series
    of two runs are equal bit for bit."""
    for run in ("reference", "mh_refvel", "mh_mhvel"):
        for a, b in zip(getattr(res, run), getattr(fresh, run), strict=True):
            assert np.array_equal(a.C, b.C) and np.array_equal(a.V, b.V)
            assert type(a.P) is type(b.P)
            if isinstance(a.P, dict):
                assert a.P.keys() == b.P.keys()
                assert np.array_equal(list(a.P.values()),
                                      list(b.P.values()))
            elif a.P is not None:
                assert np.array_equal(a.P, b.P, equal_nan=True)
    rows, fresh_rows = list(res.report.rows()), list(fresh.report.rows())
    assert [r[:2] for r in rows] == [r[:2] for r in fresh_rows]
    assert np.array_equal([r[2] for r in rows], [r[2] for r in fresh_rows],
                          equal_nan=True)
    for a, b in zip(res.report.eV_series, fresh.report.eV_series,
                    strict=True):
        assert np.array_equal(a.relative, b.relative, equal_nan=True)
        assert np.array_equal(a.absolute, b.absolute)
    assert res.report.eC_series.keys() == fresh.report.eC_series.keys()
    for key, series in res.report.eC_series.items():
        assert np.array_equal(series, fresh.report.eC_series[key],
                              equal_nan=True)


def test_manifest_counts_factored_and_reused_block_pieces(monkeypatch,
                                                          tmp_path):
    cfg = multi_solve_galerkin()
    solves = spy_galerkin_solves(monkeypatch)
    res = run_experiment(cfg, outdir=str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    regions = cfg.Nx * FLOW_REFINE
    # a step that solves the coarse flow looks up the pieces of every
    # block of each region it builds, (regions built) x (2 LAYERS + 1),
    # and none of a region it reuses; a step that reuses the previous
    # solve whole looks up nothing
    solving = [s for s in res.mh_mhvel
               if s.pieces != (0, 0) or s.regions_reused]
    built = [regions - s.regions_reused for s in solving]
    assert len(solving) == len(solves) == 4
    assert built[0] == regions and min(built) > 0
    assert sum(built) < 4 * regions
    assert [sum(s.pieces) for s in solving] == [
        b * (2 * LAYERS + 1) for b in built]
    factored = sum(s.pieces[0] for s in res.mh_mhvel)
    reused = sum(s.pieces[1] for s in res.mh_mhvel)
    assert 0 < factored < reused
    assert manifest["block_pieces_factored"] == factored
    assert manifest["block_pieces_reused"] == reused
    assert manifest["galerkin_regions_reused"] == sum(
        s.regions_reused for s in res.mh_mhvel) == 4 * regions - sum(built)
    assert "region_engines_reused" not in manifest
    assert all(s.pieces == (0, 0) and s.regions_reused == 0
               for s in res.mh_refvel)


def test_manifest_counts_reused_coarse_flow_solves(monkeypatch, tmp_path):
    # 4 of the 41 homogenized-velocity steps solve the coarse flow; every
    # other one takes the previous step's V and P whole
    cfg = multi_solve_galerkin()
    solves = spy_galerkin_solves(monkeypatch)
    res = run_experiment(cfg, outdir=str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    flags = [s.flow_reused for s in res.mh_mhvel]
    assert len(flags) == cfg.coarse_steps + 1 and len(solves) == 4
    assert manifest["coarse_flow_reused"] == sum(flags) == 37
    assert not flags[0]
    for before, s in zip(res.mh_mhvel, res.mh_mhvel[1:]):
        assert (s.V is before.V and s.P is before.P) == s.flow_reused
        if s.flow_reused:
            assert s.pieces == (0, 0) and s.regions_reused == 0
    assert not any(s.flow_reused for s in res.mh_refvel)


def test_region_memo_changes_no_result(monkeypatch):
    # a run whose every memo forgets at each step (coarse flows, regions,
    # block pieces and the fine flow's result) solves and
    # rebuilds everything; its states and every report value are bit for
    # bit those of the run that reuses
    cfg = multi_solve_galerkin()
    memos = spy_galerkin_solves(monkeypatch)
    res = run_experiment(cfg)
    assert sum(s.regions_reused for s in res.mh_mhvel) > 0
    # after each solve the memo holds that solve's regions, no others, and
    # the pieces of every one of them, reused or built
    regions = cfg.Nx * FLOW_REFINE
    assert [(len(kept), used) for kept, used, _pieces in memos] == [
        (regions, set())] * 4
    assert [{K for K, _keys in kept} for kept, _u, _pieces in memos] == [
        set(range(regions))] * 4
    assert [pieces for _k, _u, pieces in memos] == [
        {key for _K, keys in kept for key in keys} for kept, _u, _x in memos]
    # a reused region keeps its pieces, so a solve factors only the pieces
    # the solve before did not hold
    held = [set()] + [pieces for _k, _u, pieces in memos[:-1]]
    assert [s.pieces[0] for s in res.mh_mhvel if sum(s.pieces)] == [
        len(pieces - before)
        for (_k, _u, pieces), before in zip(memos, held)]

    memos_off(monkeypatch)
    fresh = run_experiment(cfg)
    assert len(memos) == 4 + cfg.coarse_steps + 1
    assert not any(fresh.fine.flow_reused)
    assert not any(s.flow_reused or s.regions_reused
                   for s in fresh.mh_mhvel)
    assert_same_result(res, fresh)


def test_region_memo_changes_no_result_when_lam_leaves_labels_free(
        monkeypatch):
    # on interface lam is the threshold contrast of c, so lam fixes the
    # labels, and a piece or region key that left the labels out would
    # pass the test above; a random-field lam does not move with c
    cfg = dataclasses.replace(get_preset("interface"),
                              lam_kind="random-field", steps=200,
                              coarse_steps=20)
    res = run_experiment(cfg)
    assert sum(s.regions_reused for s in res.mh_mhvel) > 0
    assert sum(s.pieces[1] for s in res.mh_mhvel) > 0
    memos_off(monkeypatch)
    assert_same_result(res, run_experiment(cfg))


class MixedRuns(NamedTuple):
    """One shortened mixed workload run with every memo and without:
    results, the memo-on run's manifest and the ``permc_spec`` of each fine
    factorization of either run."""

    res: object
    manifest: dict
    orders: list
    fresh: object
    fresh_orders: list


def mixed_runs(workload, tmp_path_factory) -> MixedRuns:
    """The benchmark's shortened ``workload`` run, written out, and the
    same run under :func:`memos_off`."""
    short = {"gravity-dual": {"steps": 30, "coarse_steps": 30},
             "viscous": {"pre_steps": 40, "steps": 70, "coarse_steps": 30}}
    cfg = dataclasses.replace(get_preset(workload), **short[workload])
    out = tmp_path_factory.mktemp(workload)
    orders = []  # the column ordering of each fine factorization
    real = fine.splu

    def splu(A, **kwargs):
        orders.append(kwargs["permc_spec"])
        return real(A, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fine, "splu", splu)
        res = run_experiment(cfg, outdir=str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        on = orders.copy()
        orders.clear()
        memos_off(mp)
        fresh = run_experiment(cfg)
    return MixedRuns(res, manifest, on, fresh, orders)


@pytest.fixture(scope="module")
def gravity_dual_runs(tmp_path_factory):
    return mixed_runs("gravity-dual", tmp_path_factory)


@pytest.fixture(scope="module")
def viscous_runs(tmp_path_factory):
    return mixed_runs("viscous", tmp_path_factory)


def runs_of(request, workload) -> MixedRuns:
    """The module's :class:`MixedRuns` of ``workload``."""
    return request.getfixturevalue(f"{workload.replace('-', '_')}_runs")


@pytest.mark.parametrize("workload", ["gravity-dual", "viscous"])
def test_memos_change_no_result(request, workload):
    # the benchmark's shortened runs of the mixed models, with and without
    # cross-step reuse; test_region_memo_changes_no_result runs interface
    res, _manifest, orders, fresh, fresh_orders = runs_of(request, workload)
    assert set(orders) == {fine.SPLU_OPTIONS["permc_spec"]}
    assert set(fresh_orders) == {fine.SPLU_OPTIONS["permc_spec"]}
    assert not any(fresh.fine.flow_reused)
    assert not any(s.flow_reused for s in fresh.mh_mhvel)
    assert_same_result(res, fresh)


@pytest.mark.parametrize("workload, solved, total, fresh_solved, fresh_total", [
    ("gravity-dual", 195, 806, 527, 806), ("viscous", 164, 756, 551, 1016)])
def test_manifest_counts_solved_and_reused_block_loads(
        request, workload, solved, total, fresh_solved, fresh_total):
    # the benchmark's shortened runs at particle seed 0: of the block loads
    # of every mixed solve, those distinct within their solve and not
    # solved by the solve before are solved.  Without memos each solve
    # solves its distinct loads, and the viscous run solves the coarse flow
    # on 31 steps, not 23
    res, manifest, _orders, fresh, _fresh_orders = runs_of(request, workload)
    assert manifest["block_loads_solved"] == solved
    assert manifest["block_loads_reused"] == total - solved
    assert sum(s.loads[0] for s in res.mh_mhvel) == solved
    assert all(s.loads == (0, 0) for s in res.mh_refvel)
    assert all(s.loads == (0, 0) for s in res.mh_mhvel if s.flow_reused)
    assert sum(s.loads[0] for s in fresh.mh_mhvel) == fresh_solved
    assert sum(sum(s.loads) for s in fresh.mh_mhvel) == fresh_total


@pytest.mark.parametrize("preset, shorten", [
    ("smoke", {}),
    ("viscous", {"steps": 2, "pre_steps": 0, "coarse_steps": 2}),
    ("interface", {"steps": 10, "coarse_steps": 1}),
])
def test_coarse_model_has_the_fine_boundary_data(monkeypatch, preset,
                                                  shorten):
    # the fine run reads its boundary data from cfg.flow_bc and the coarse
    # models from macro's constants; the inflow flux and the pressures must
    # agree
    models = []

    def spy(model, *args, **kwargs):
        models.append(model)
        return macro.run_coarse(model, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_coarse", spy)
    cfg = dataclasses.replace(get_preset(preset), **shorten)
    run_experiment(cfg)
    bc = cfg.flow_bc(cfg.layout().extended_fine)
    assert len(models) == 2  # reference and homogenized velocities
    for model in models:
        # a closed box (mixed-gravity) reads none of them
        want = {"mixed-gravity": (("noflow",), ("noflow",)),
                "mixed-viscous": (("flux", macro.G_IN),
                                  ("pressure", macro.P_OUT)),
                "galerkin": (("pressure", macro.P_IN),
                             ("pressure", macro.P_OUT))}[model.approach]
        assert (bc.left, bc.right) == want


def test_importing_the_cli_leaves_scipy_ndimage_unloaded():
    code = ("import sys, dynmc.experiment, dynmc.cli; "
            "print('scipy.ndimage' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_every_fine_run_is_set_up_in_one_place():
    files = sorted((ROOT / "src" / "dynmc").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py"))
    sites = {path.relative_to(ROOT).as_posix():
             callers(ast.parse(path.read_text()), "run_fine")
             for path in files}
    assert {k: v for k, v in sites.items() if v} == {
        "src/dynmc/experiment.py": ["fine_reference"]}


def test_mobility_and_initial_condition_built_once_per_experiment(
        monkeypatch):
    calls = []
    for name in ("mobility", "initial_condition"):
        method = getattr(ExperimentConfig, name)

        def counted(self, grid, _name=name, _method=method):
            calls.append(_name)
            return _method(self, grid)

        monkeypatch.setattr(ExperimentConfig, name, counted)
    run_experiment(get_preset("smoke"))
    assert sorted(calls) == ["initial_condition", "mobility"]


def label_consistency():
    spec = importlib.util.spec_from_file_location(
        "label_consistency", ROOT / "scripts" / "label_consistency.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("preset", ["viscous", "interface"])
def test_label_consistency_runs_the_preset_flow(monkeypatch, capsys, preset):
    seen = []

    def spy(*args, **kwargs):
        run = run_fine(*args, **kwargs)
        seen.append((kwargs["bc"], kwargs["inflow_c"], run))
        return run

    monkeypatch.setattr(experiment, "run_fine", spy)
    assert label_consistency().main(
        ["--preset", preset, "--steps", "2"]) == 0
    cfg = get_preset(preset)
    [(bc, inflow, run)] = seen
    assert bc == cfg.flow_bc(cfg.layout().extended_fine)
    assert (inflow["left"] == run.c0[0, :]).all()
    assert all(np.abs(s.vx).max() > 0 for s in run.snapshots)
    assert f"{preset}: 2 steps" in capsys.readouterr().out


@pytest.mark.parametrize("argv, match", [
    (["--preset", "bogus"], "error: unknown preset 'bogus'"),
    (["--preset", "viscous", "--steps", "-1"], "error: coarse horizon"),
], ids=["unknown-preset", "negative-steps"])
def test_label_consistency_reports_a_bad_config(capsys, argv, match):
    assert label_consistency().main(argv) == ConfigError.exit_code
    assert capsys.readouterr().err.startswith(match)
