"""Experiment configuration: presets, INI round-trip, invariants."""

import dataclasses

import numpy as np
import pytest

from dynmc.config import (_SECTIONS, L1, L2, ExperimentConfig,
                          apply_overrides, from_ini, get_preset, presets,
                          to_ini)
from dynmc.exceptions import ConfigError
from dynmc.fine import FlowBC
from dynmc.grids import build_layout


class TestPresets:
    def test_expected_presets_available(self):
        names = set(presets())
        expected = {"smoke", "gravity-dual", "gravity-triple", "viscous",
                    "interface"}
        assert expected <= names

    def test_every_preset_round_trips_through_ini(self):
        for name, cfg in presets().items():
            back = from_ini(to_ini(cfg))
            assert back == cfg, name

    def test_every_preset_builds_derived_objects(self):
        for cfg in presets().values():
            layout = cfg.layout()
            coarse = cfg.extended_coarse(layout)
            assert coarse.Nx >= cfg.Nx
            spec = cfg.continuum_spec()
            assert spec.count == len(cfg.thresholds) + 1
            grid = layout.extended_fine
            ic = cfg.initial_condition(grid)
            assert ic.shape == (grid.nx, grid.ny)
            lam = cfg.mobility(grid)(ic)
            assert lam.shape == ic.shape and (lam > 0).all()

    def test_target_block_offset_counts_whole_blocks(self):
        # two-sided margins of 24 fine cells: one desk block of 24 columns,
        # two paper blocks of 28
        want = {"gravity-dual": 1, "gravity-dual-paper": 2, "viscous": 0,
                "interface": 0}
        for name, off in want.items():
            cfg = get_preset(name)
            assert cfg.target_block_offset(cfg.layout()) == off, name
        # a 12-cell margin on both sides adds one whole block in all, but
        # the target domain starts half way into the first
        cfg = get_preset("gravity-dual")
        layout = build_layout(L1, L2, cfg.nx, cfg.ny, extension="two-sided",
                              ext_margin=0.9)
        assert cfg.extended_coarse(layout).Nx == cfg.Nx + 1
        with pytest.raises(ConfigError, match="not aligned"):
            cfg.target_block_offset(layout)

    def test_unknown_preset_lists_available(self):
        with pytest.raises(ConfigError, match="available"):
            get_preset("gravity")

    def test_config_hash_distinguishes_presets(self):
        hashes = {cfg.config_hash() for cfg in presets().values()}
        assert len(hashes) == len(presets())

    def test_one_field_sets_each_plateau_pair_and_mobility_range(self):
        # the wave reads its plateaus and the random field its range from
        # the fields that finger patterns and contrasts read
        cfg = get_preset("interface")
        c0 = cfg.initial_condition(cfg.layout().extended_fine)
        assert set(np.unique(c0)) == {cfg.plateaus[0], cfg.plateaus[-1]}
        cfg = get_preset("gravity-dual-hetero")
        assert (cfg.lam_lo, cfg.lam_hi) == (0.3, 3.0)
        grid = cfg.layout().extended_fine
        lam = cfg.mobility(grid)(cfg.initial_condition(grid))
        # the field spans the range end to end
        assert (lam.min(), lam.max()) == pytest.approx((0.3, 3.0))
        wider = dataclasses.replace(cfg, lam_hi=30.0)
        assert wider.mobility(grid)(None).max() == pytest.approx(30.0)


class TestIniAndOverrides:
    def test_override_changes_named_field(self):
        cfg = get_preset("smoke")
        out = apply_overrides(cfg, ["steps=10", "tau=0.005",
                                    "tau_coarse=0.005"])
        assert out.steps == 10 and out.tau == 0.005
        assert out.name == cfg.name

    def test_tuple_parsing(self):
        cfg = apply_overrides(get_preset("smoke"),
                              ["thresholds=0.8,0.4", "ic_centers="])
        assert cfg.thresholds == (0.8, 0.4)
        assert cfg.ic_centers == ()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(get_preset("smoke"), ["viscosity=2"])
        with pytest.raises(ConfigError):
            apply_overrides(get_preset("smoke"), ["steps"])
        with pytest.raises(ConfigError, match="stride"):
            from_ini("[time]\nstride = 1\n", base=get_preset("smoke"))

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(get_preset("smoke"), ["steps=soon"])

    def test_sections_list_every_field_once(self):
        # a field missing here would drop out of config.ini silently
        listed = [name for names in _SECTIONS.values() for name in names]
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert sorted(listed) == sorted(fields)

    @pytest.mark.parametrize("text, what", [
        ("[time]\nsteps = 7\nsteps = 8\n", "option 'steps'"),
        ("steps = 7\n", "no section headers"),
        ("[time]\nsteps = 7\n[time]\n", "section 'time'"),
        ("[time]\nsteps = 50%\n", "'%' must be followed"),
    ])
    def test_malformed_ini_names_its_file(self, text, what):
        # configparser's own errors would name '<string>' and exit 1
        with pytest.raises(ConfigError, match="bad.ini: malformed INI") as exc:
            from_ini(text, source="bad.ini")
        assert what in str(exc.value) and "\n" not in str(exc.value)
        assert exc.value.exit_code == 2

    @pytest.mark.parametrize("text, what", [
        ("[time]\nstepz = 3\n", "unknown key 'stepz' in [time]"),
        ("[bc]\nleft = 1\n", "unknown config section [bc]"),
        ("[time]\nsteps = soon\n", "steps: expected an integer, got 'soon'"),
        ("[time]\ncoarse_steps = 9\n", "coarse horizon exceeds the fine"),
        ("[continua]\nthresholds = 0.3,0.6\n",
         "thresholds must strictly decrease: (0.3, 0.6)"),
        ("[mobility]\nlam_kind = random-field\nlam_hi = 5\nlam_lo = 9\n",
         "random-field needs lam_lo <= lam_hi, got 9.0, 5.0"),
        ("[mobility]\nlam_kind = contrast\nlam_hi = 1e308\n",
         "lam_hi=1e+308 over- or underflows"),
        ("[ic]\nband_hi = 99999999999999999999\n",
         "band heights need 1 <= band_lo <= band_hi < 2**63"),
        ("[ic]\nwiggle = 1e308\n", "wiggle=1e+308 overflows"),
    ], ids=["key", "section", "value", "check", "thresholds",
            "random-field", "mobility-overflow", "band-int64",
            "wiggle-overflow"])
    def test_every_ini_error_names_its_file(self, text, what):
        # an unknown section or key, a bad value and the checks that run
        # when the config is built
        with pytest.raises(ConfigError) as exc:
            from_ini(text, base=get_preset("smoke"), source="bad.ini")
        assert str(exc.value).startswith(f"bad.ini: {what}")

    def test_ini_base_merge(self):
        base = get_preset("smoke")
        text = "[time]\nsteps = 7\ncoarse_steps = 7\n"
        cfg = from_ini(text, base=base)
        assert cfg.steps == 7 and cfg.nx == base.nx


class TestInvariants:
    def test_coarse_horizon_cannot_exceed_fine(self):
        with pytest.raises(ConfigError, match=r"horizon.*0 \+ 20 x 1 > 10"):
            ExperimentConfig(steps=10, coarse_steps=20)
        with pytest.raises(ConfigError, match=r"horizon.*0 \+ 6 x 2 > 10"):
            ExperimentConfig(tau=0.01, tau_coarse=0.02, steps=10,
                             coarse_steps=6)

    def test_tau_coarse_must_match_substeps(self):
        # substeps is read off tau_coarse / tau, which must be whole
        assert ExperimentConfig(tau=0.01, tau_coarse=0.03, steps=15,
                                coarse_steps=5).substeps == 3
        assert get_preset("interface").substeps == 10
        with pytest.raises(ConfigError, match="tau_coarse=0.025 must be a "
                                              "whole multiple"):
            ExperimentConfig(tau=0.01, tau_coarse=0.025, steps=10,
                             coarse_steps=4)
        with pytest.raises(ConfigError, match="whole multiple"):
            ExperimentConfig(tau=1e-10, tau_coarse=1e300)  # ratio overflows

    def test_multi_row_coarse_grid_rejected(self):
        # every coarse model is one block tall, so Ny is no longer a key
        with pytest.raises(ConfigError, match="unknown key 'Ny'"):
            from_ini("[geometry]\nNy = 2\n", base=get_preset("smoke"))

    @pytest.mark.parametrize("Nx", [0, 3])
    def test_coarse_blocks_must_divide_fine_nx(self, Nx):
        # smoke has 8 fine columns
        with pytest.raises(ConfigError, match="do not divide fine nx=8"):
            dataclasses.replace(get_preset("smoke"), Nx=Nx)

    @pytest.mark.parametrize("tau", [0.0, -0.01])
    def test_tau_must_be_positive(self, tau):
        with pytest.raises(ConfigError, match=f"tau={tau} must be positive"):
            dataclasses.replace(get_preset("smoke"), tau=tau, tau_coarse=tau)

    def test_substeps_must_be_positive(self):
        # smoke's tau is 0.02: a coarse step below one fine step is no
        # whole multiple, not even where the rounding gap is tiny
        smoke = get_preset("smoke")
        for tau_coarse in (0.01, 1e-16, 0.0, -0.02):
            with pytest.raises(ConfigError, match=r"whole multiple \(>= 1\)"):
                dataclasses.replace(smoke, tau_coarse=tau_coarse)
        with pytest.raises(TypeError, match="substeps"):
            dataclasses.replace(smoke, substeps=2)

    def test_galerkin_layers_must_stay_inside_the_mirror_image(self):
        # 6 layers either side, mirrored on the right: Nx = 3 gives 6 flow
        # blocks, which the mirror image just holds; Nx = 2 gives 4
        cfg = get_preset("interface")
        assert dataclasses.replace(cfg, Nx=3).Nx == 3
        with pytest.raises(ConfigError, match="6 layers reach past .* "
                                              "4-block Galerkin flow grid"):
            dataclasses.replace(cfg, Nx=2)

    def test_viscous_needs_two_continua(self):
        with pytest.raises(ConfigError, match="exactly 2 continua"):
            dataclasses.replace(get_preset("viscous"), thresholds=(0.8, 0.4))

    @pytest.mark.parametrize("section, key", [
        ("ic", "wave_high"), ("ic", "wave_low"), ("mobility", "lam_min"),
        ("mobility", "lam_max"), ("time", "substeps")])
    def test_merged_keys_are_unknown_keys(self, section, key):
        # plateaus, lam_lo / lam_hi and tau_coarse / tau set these
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            apply_overrides(get_preset("interface"), [f"{key}=1"])
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in"):
            from_ini(f"[{section}]\n{key} = 1\n", base=get_preset("smoke"))

    @pytest.mark.parametrize("key", ["gravity", "bc_kind"])
    def test_gravity_and_bc_kind_are_unknown_keys(self, key):
        # the approach fixes the physics; a config may not restate it
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            apply_overrides(get_preset("interface"), [f"{key}=noflow"])
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in"):
            from_ini(f"[experiment]\n{key} = false\n",
                     base=get_preset("smoke"))

    @pytest.mark.parametrize("section, key", [
        ("geometry", "L1"), ("geometry", "L2"), ("mobility", "lam_value"),
        ("mobility", "lam_seed"), ("mobility", "lam_corr_cells"),
        ("bc", "g_in"), ("bc", "p_in"), ("bc", "p_out"), ("ic", "wave_x0"),
        ("ic", "wave_amplitude"), ("ic", "wave_periods"),
        ("geometry", "ext_margin"), ("geometry", "flow_refine"),
        ("geometry", "layers"), ("geometry", "extension_rule"),
        ("time", "particles_per_cell")])
    def test_shared_values_are_unknown_keys(self, section, key):
        # every model problem has the same domain, boundary data, wave and
        # random-field texture, so config.py fixes them as constants; no
        # preset varies the extension margin (config.py), the Galerkin
        # regions (macro.py) or the particle seeding (fine.py) either
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            apply_overrides(get_preset("interface"), [f"{key}=1"])
        match = (r"unknown config section \[bc\]" if section == "bc"
                 else f"unknown key '{key}' in")
        with pytest.raises(ConfigError, match=match):
            from_ini(f"[{section}]\n{key} = 1\n", base=get_preset("smoke"))

    def test_approach_fixes_gravity_and_flow_bc(self):
        # the gravity and bc_kind fields every preset used to set
        closed = (True, FlowBC())
        inflow = (False, FlowBC(left=("flux", -1.0),
                                right=("pressure", 0.0)))
        drop = (False, FlowBC(left=("pressure", 1.0),
                              right=("pressure", 0.0)))
        want = {"smoke": closed, "gravity-dual": closed,
                "gravity-triple": closed, "gravity-dual-hetero": closed,
                "gravity-triple-hetero": closed, "gravity-dual-paper": closed,
                "gravity-triple-paper": closed, "viscous": inflow,
                "viscous-paper": inflow, "interface": drop,
                "interface-paper": drop}
        table = presets()
        assert set(table) == set(want)
        for name, cfg in table.items():
            ext = cfg.layout().extended_fine
            assert (cfg.gravity, cfg.flow_bc(ext)) == want[name], name

    @pytest.mark.parametrize("preset, overrides, match", [
        ("smoke", ["coarse_steps=-1"], "coarse_steps=-1 must be >= 0"),
        ("viscous", ["pre_steps=-3"], "pre_steps=-3 must be >= 0"),
        ("viscous", ["ic_centers="], "stripe-fingers needs"),
        ("viscous", ["plateaus="], "plateaus must name"),
        ("smoke", ["plateaus="], "plateaus must name"),
        ("smoke", ["band_lo=3", "band_hi=2"], "got 3, 2"),
        ("smoke", ["band_lo=0", "band_hi=0"], "got 0, 0"),
        ("smoke", ["thresholds=inf"], r"thresholds=\(inf,\) must be finite"),
        ("smoke", ["plateaus=1e400,0.2"], "plateaus=.* must be finite"),
        ("smoke", ["tau=inf"], "tau=inf must be finite"),
        ("smoke", ["L1=inf"], "unknown config key 'L1'"),
        ("smoke", ["lam_value=nan"], "unknown config key 'lam_value'"),
        ("viscous", ["g_in=nan"], "unknown config key 'g_in'"),
        ("viscous", ["ic_centers=0.8,-inf"], "ic_centers=.* must be finite"),
        ("viscous", ["lam_lo=0"], "lam_lo=0.0 must be positive"),
        ("smoke", ["lam_value=-1"], "unknown config key 'lam_value'"),
        ("gravity-dual-hetero", ["lam_hi=-3"], "lam_hi=-3.0 must be positive"),
        ("smoke", ["lam_kind=file"], "lam_kind=file needs lam_file"),
        ("smoke", ["ic_kind=file"], "ic_kind=file needs ic_file"),
        ("viscous", ["plateaus=1.5,0.3"], "plateau values must lie in"),
        ("interface", ["plateaus=-0.2,0.3"], "plateau values must lie in"),
        ("smoke", ["wiggle=-3"], r"wiggle=-3.0 must be >= 0"),
        ("gravity-dual", ["ic_seed=-1"], "ic_seed=-1 must be >= 0"),
        ("gravity-dual", ["particle_seed=-1"],
         "particle_seed=-1 must be >= 0"),
        ("smoke", ["approach=galerkin-mixed"],
         "unknown approach 'galerkin-mixed'"),
        ("smoke", ["scheme=particle"], "unknown scheme 'particle'"),
        ("smoke", ["lam_kind=random"], "unknown lam_kind 'random'"),
        ("smoke", ["ic_kind=wave"], "unknown ic_kind 'wave'"),
        ("smoke", ["extension=left"], "unknown extension 'left'"),
        ("smoke", ["lam_kind=contrast", "lam_hi=1e308"],
         r"lam_hi=1e\+308 over- or underflows the harmonic face mobility"),
        ("viscous", ["lam_lo=1e-300"],
         "lam_lo=1e-300 over- or underflows the harmonic face mobility"),
        ("gravity-dual-hetero", ["lam_hi=1e300"],
         r"lam_hi=1e\+300 over- or underflows"),
        ("smoke", ["band_hi=99999999999999999999"],
         r"band_lo <= band_hi < 2\*\*63, got 1, 99999999999999999999"),
        ("smoke", ["band_hi=9223372036854775808"],
         r"got 1, 9223372036854775808"),
        ("smoke", ["wiggle=1e308"], r"wiggle=1e\+308 overflows the width"),
    ])
    def test_bad_value_rejected_before_any_run(self, preset, overrides,
                                               match):
        # unchecked, each fails late (after the fine run or in its first
        # flow solve) or as a bare IndexError, ValueError, OverflowError or
        # FileNotFoundError; zero-height bands never finish drawing the
        # initial condition, and plateaus outside [0, 1] give a c0 outside
        # them; the values every preset shares are no keys at all; a
        # negative wiggle or seed ends in a bare ValueError, and a kind
        # that names nothing fails only where it is read; a lam whose
        # harmonic face mean over- or underflows ends in SuperLU's bare
        # RuntimeError, and band heights past int64 or a wiggle whose
        # range overflows in numpy's ValueError or OverflowError
        with pytest.raises(ConfigError, match=match):
            apply_overrides(get_preset(preset), overrides)

    def test_the_largest_drawable_band_height_is_accepted(self):
        # rng.integers(lo, hi + 1) draws int64: hi + 1 = 2**63 is its bound
        cfg = apply_overrides(get_preset("smoke"), [f"band_hi={2 ** 63 - 1}"])
        assert cfg.initial_condition(cfg.layout().extended_fine).shape == (
            8, 4)

    def test_frozen(self):
        cfg = get_preset("smoke")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.steps = 3
