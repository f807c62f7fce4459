"""Command-line entry points: exit codes, artifacts, printed reports."""

import dataclasses
import json

import numpy as np
import pytest

from dynmc import cells, experiment, io, macro
from dynmc.cli import main
from dynmc.config import get_preset
from dynmc.exceptions import ConfigError
from dynmc.experiment import run_experiment
from dynmc.grids import oversample_block
from dynmc.macro import EXTENSION_RULE, FLOW_REFINE, LAYERS


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert "smoke" in out and "gravity-dual" in out and "interface" in out


def test_unknown_preset_exit_code(capsys):
    assert main(["run-fine", "--preset", "gravity"]) == ConfigError.exit_code
    assert "unknown preset" in capsys.readouterr().err


def test_missing_config_source(capsys):
    assert main(["run-fine"]) == ConfigError.exit_code
    assert "--preset or --config" in capsys.readouterr().err


def test_run_fine_smoke_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "fine"
    assert main(["run-fine", "--preset", "smoke", "--out", str(out)]) == 0
    assert "fine steps" in capsys.readouterr().out
    c = io.read_cell_csv(str(out / "c_final.csv"))
    assert c.shape == (8, 4)
    vx, vy = io.read_face_csv(str(out / "v_final.csv"))
    assert vx.shape == (9, 4) and vy.shape == (8, 5)
    manifest = json.loads((out / "manifest.json").read_text())
    # smoke has gravity on and c moves every step: no solve repeats
    assert manifest["fine_flow_reused"] == 0
    assert (out / "c_final.pgm").exists()


def test_run_fine_accepts_overrides(tmp_path, capsys):
    assert main(["run-fine", "--preset", "smoke", "--set", "steps=2",
                 "--set", "coarse_steps=2"]) == 0
    assert "2 fine steps" in capsys.readouterr().out


def test_run_coarse_smoke_reports_errors(tmp_path, capsys):
    out = tmp_path / "coarse"
    assert main(["run-coarse", "--preset", "smoke", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "e_V global" in text and "e_C continuum 0" in text
    assert (out / "errors.csv").exists()


def test_config_file_source(tmp_path, capsys):
    from dynmc.config import to_ini
    path = tmp_path / "cfg.ini"
    path.write_text(to_ini(get_preset("smoke")))
    assert main(["run-fine", "--config", str(path)]) == 0
    assert main(["run-fine", "--config", str(path),
                 "--preset", "smoke"]) == ConfigError.exit_code


def test_run_fine_reports_a_missing_config_file(tmp_path, capsys):
    path = str(tmp_path / "nope.ini")
    assert main(["run-fine", "--config", path]) == ConfigError.exit_code
    assert f"cannot read '{path}'" in capsys.readouterr().err


def test_run_coarse_reports_a_missing_mobility_file(tmp_path, capsys):
    assert main(["run-coarse", "--preset", "smoke", "--set",
                 "lam_kind=file"]) == ConfigError.exit_code
    assert "lam_kind=file needs lam_file" in capsys.readouterr().err
    path = str(tmp_path / "lam.csv")
    assert main(["run-coarse", "--preset", "smoke", "--set", "lam_kind=file",
                 "--set", f"lam_file={path}"]) == ConfigError.exit_code
    assert f"cannot read '{path}'" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[time]\nsteps = 7\nsteps = 8\n",
                                  "steps = 7\n"])
def test_run_coarse_reports_a_malformed_config_file(tmp_path, capsys, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["run-coarse", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: malformed INI")
    assert "Traceback" not in err and "<string>" not in err


def test_run_coarse_names_the_config_file_of_an_unknown_key(tmp_path,
                                                            capsys):
    path = tmp_path / "unk.ini"
    path.write_text("[time]\nstepz = 3\n")
    assert main(["run-coarse", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: unknown key 'stepz' in [time]")
    assert "Traceback" not in err


def test_run_coarse_reports_a_repeated_mobility_row(tmp_path, capsys):
    path = tmp_path / "lam.csv"
    path.write_text("i,j,value\n0,0,1\n0,0,9\n")
    assert main(["run-coarse", "--preset", "smoke", "--set", "lam_kind=file",
                 "--set", f"lam_file={path}"]) == 2
    err = capsys.readouterr().err
    assert (f"{path}, line 3: a second row for (0, 0); the first is at "
            f"{path}, line 2") in err
    assert "Traceback" not in err


def test_run_coarse_reports_a_mobility_row_outside_the_grid(tmp_path,
                                                             capsys):
    path = tmp_path / "lam.csv"
    path.write_text("i,j,value\n0,0,1\n10000000,10000000,1\n")
    assert main(["run-coarse", "--preset", "smoke", "--set", "lam_kind=file",
                 "--set", f"lam_file={path}"]) == 2
    err = capsys.readouterr().err
    assert f"{path}, line 3: cell (10000000, 10000000) outside the 8x4" in err


def test_cells_solve_reports_an_unreadable_ic_file(tmp_path, capsys):
    assert main(["cells-solve", "--preset", "interface", "--set",
                 "ic_kind=file", "--set",
                 f"ic_file={tmp_path}"]) == ConfigError.exit_code
    assert f"cannot read '{tmp_path}'" in capsys.readouterr().err


def test_compare_reports_a_missing_series(tmp_path, capsys):
    a, b = str(tmp_path / "nope.csv"), str(tmp_path / "nope2.csv")
    assert main(["compare", a, b]) == ConfigError.exit_code
    assert f"cannot read '{a}'" in capsys.readouterr().err


def test_cells_solve_smoke(tmp_path, capsys):
    out = tmp_path / "cells"
    assert main(["cells-solve", "--preset", "interface", "--family", "average",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "residual" in text
    assert (out / "residuals.txt").exists()


def test_cells_solve_has_no_layers_option(tmp_path, capsys):
    # the region is the model's own: LAYERS blocks either side
    with pytest.raises(SystemExit) as exc:
        main(["cells-solve", "--preset", "interface", "--layers", "1",
              "--out", str(tmp_path / "cells")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --layers 1" in capsys.readouterr().err
    assert not (tmp_path / "cells").exists()


@pytest.mark.parametrize("command, preset", [
    ("run-fine", "smoke"), ("run-coarse", "smoke"),
    ("cells-solve", "interface")])
def test_an_out_that_cannot_be_a_directory_fails_before_any_compute(
        tmp_path, monkeypatch, capsys, command, preset):
    def never(*args, **kwargs):
        raise AssertionError("computed before the output directory")

    monkeypatch.setattr(experiment, "run_fine", never)
    monkeypatch.setattr(cells, "solve_constrained_elliptic", never)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    assert main([command, "--preset", preset, "--out",
                 str(taken)]) == ConfigError.exit_code
    assert f"error: cannot create '{taken}'" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["gravity-dual", "viscous"])
def test_cells_solve_rejects_an_approach_without_galerkin_regions(
        tmp_path, monkeypatch, capsys, preset):
    # no mixed model solves an oversampled region, so its fields would
    # describe no step of the run
    calls = []
    monkeypatch.setattr(cells, "solve_constrained_elliptic",
                        lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "cells"
    assert main(["cells-solve", "--preset", preset, "--out",
                 str(out)]) == ConfigError.exit_code
    assert repr(get_preset(preset).approach) in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_cells_solve_oversamples_a_galerkin_region(tmp_path, monkeypatch,
                                                   capsys):
    # the CLI's region is one the Galerkin model solves: a block of the
    # refined flow grid (Nx x FLOW_REFINE blocks), by default the middle one
    calls = []

    def spy(grid, K, layers, rule="none"):
        calls.append((grid.Nx, K, layers, rule))
        return oversample_block(grid, K, layers, rule=rule)

    monkeypatch.setattr(macro, "oversample_block", spy)
    assert main(["cells-solve", "--preset", "interface", "--out",
                 str(tmp_path)]) == 0
    shown = calls[:]
    cfg = get_preset("interface")
    run_experiment(dataclasses.replace(cfg, steps=10, coarse_steps=1))
    flow_blocks = cfg.Nx * FLOW_REFINE
    assert shown == [(flow_blocks, flow_blocks // 2, LAYERS, EXTENSION_RULE)]
    assert shown[0] in calls[1:]


def test_compare_two_series(tmp_path, capsys):
    class S:
        def __init__(self, t, C, V):
            self.t, self.C, self.V = t, C, V

    g = np.random.default_rng(0)
    ref = [S(0.1 * k, g.random((2, 1)) + 1, g.random((3, 1)) + 1)
           for k in range(2)]
    other = [S(s.t, 1.1 * s.C, 0.9 * s.V) for s in ref]
    pa, pb = tmp_path / "ref.csv", tmp_path / "other.csv"
    io.write_averages_csv(str(pa), ref, 1)
    io.write_averages_csv(str(pb), other, 1)
    assert main(["compare", str(pa), str(pb)]) == 0
    assert capsys.readouterr().out == (
        "e_V[0]: 10.000%\ne_V global: 10.000%\ne_C[0]: 10.000%\n")


class _State:
    def __init__(self, t, C, V):
        self.t, self.C, self.V = t, C, V


def write_series(path, steps, blocks, seed=0, edges=None):
    """A one-continuum averages file of ``steps`` times 0, 0.1, ..."""
    g = np.random.default_rng(seed)
    io.write_averages_csv(str(path), [
        _State(0.1 * k, g.random((blocks, 1)) + 1,
               g.random((edges or blocks + 1, 1)) + 1)
        for k in range(steps)], 1)
    return str(path)


@pytest.mark.parametrize("other, error", [
    ({"steps": 3, "blocks": 5}, "b.csv misaligned; missing [0.3, 0.4]"),
    ({"steps": 5, "blocks": 3, "edges": 6}, "b.csv: 6 edges for 3 blocks"),
], ids=["times", "blocks"])
def test_compare_two_series_must_line_up(tmp_path, capsys, other, error):
    # unchecked, 5 against 3 times compared t = 0.4 with t = 0.2, and C
    # rows for 3 blocks against 5 ended in a numpy traceback
    a = write_series(tmp_path / "a.csv", 5, 5)
    b = write_series(tmp_path / "b.csv", seed=1, **other)
    assert main(["compare", a, b]) == ConfigError.exit_code
    captured = capsys.readouterr()
    assert captured.out == "" and error in captured.err


def test_compare_wrong_arity(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("time,kind,location,continuum,value\n0,C,0:0,0,1\n")
    assert main(["compare", str(path)]) == 2
    assert "two or three" in capsys.readouterr().err


def test_compare_rejects_a_malformed_series(tmp_path, capsys):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("time,kind,location,continuum,value\n0,C,0:0,0,1\n"
                    "0,V,x:0:0,0,1\n0,V,x:1:0,0,1\n")
    bad.write_text("time,kind,location,continuum,value\n0,C,0:0,-1,1\n")
    assert main(["compare", str(good), str(bad)]) == 2
    assert "bad.csv, line 2: C row of continuum -1" in capsys.readouterr().err
