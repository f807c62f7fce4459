"""Experiment configuration: presets, INI round-trip, invariants."""

import dataclasses

import pytest

from dynmc.config import (ExperimentConfig, apply_overrides, from_ini,
                          get_preset, presets, to_ini)
from dynmc.exceptions import ConfigError


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

    def test_unknown_preset_lists_available(self):
        with pytest.raises(ConfigError, match="available"):
            get_preset("gravity")

    def test_config_hash_distinguishes_presets(self):
        hashes = {cfg.config_hash() for cfg in presets().values()}
        assert len(hashes) == len(presets())


class TestIniAndOverrides:
    def test_override_changes_named_field(self):
        cfg = get_preset("smoke")
        out = apply_overrides(cfg, ["steps=10", "tau=0.005",
                                    "tau_coarse=0.005"])
        assert out.steps == 10 and out.tau == 0.005
        assert out.name == cfg.name

    def test_tuple_and_bool_parsing(self):
        cfg = apply_overrides(get_preset("smoke"),
                              ["thresholds=0.8,0.4", "gravity=false"])
        assert cfg.thresholds == (0.8, 0.4)
        assert cfg.gravity is False

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

    def test_ini_base_merge(self):
        base = get_preset("smoke")
        text = "[time]\nsteps = 7\ncoarse_steps = 7\n"
        cfg = from_ini(text, base=base)
        assert cfg.steps == 7 and cfg.nx == base.nx


class TestInvariants:
    def test_coarse_horizon_cannot_exceed_fine(self):
        with pytest.raises(ConfigError, match="horizon"):
            ExperimentConfig(steps=10, coarse_steps=20, substeps=1)

    def test_tau_coarse_must_match_substeps(self):
        with pytest.raises(ConfigError, match="tau_coarse"):
            ExperimentConfig(tau=0.01, tau_coarse=0.03, substeps=2,
                             steps=10, coarse_steps=5)

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
        with pytest.raises(ConfigError, match="substeps=0 must be >= 1"):
            dataclasses.replace(get_preset("smoke"), substeps=0)

    def test_layers_must_be_non_negative(self):
        with pytest.raises(ConfigError, match="layers=-1 must be >= 0"):
            dataclasses.replace(get_preset("interface"), layers=-1)

    def test_unknown_extension_rule_rejected(self):
        with pytest.raises(ConfigError, match="unknown extension rule"):
            dataclasses.replace(get_preset("interface"),
                                extension_rule="periodic-left,bogus")

    def test_viscous_needs_two_continua(self):
        with pytest.raises(ConfigError, match="exactly 2 continua"):
            dataclasses.replace(get_preset("viscous"), thresholds=(0.8, 0.4))

    def test_bc_kind_must_match_approach(self):
        with pytest.raises(ConfigError, match="needs bc_kind='dirichlet-x'"):
            dataclasses.replace(get_preset("interface"), bc_kind="noflow")

    @pytest.mark.parametrize("preset, overrides, match", [
        ("smoke", ["coarse_steps=-1"], "coarse_steps=-1 must be >= 0"),
        ("viscous", ["pre_steps=-3"], "pre_steps=-3 must be >= 0"),
        ("viscous", ["ic_centers="], "stripe-fingers needs"),
        ("viscous", ["plateaus="], "plateaus must name"),
        ("smoke", ["plateaus="], "plateaus must name"),
        ("smoke", ["band_lo=3", "band_hi=2"], "got 3, 2"),
        ("smoke", ["band_lo=0", "band_hi=0"], "got 0, 0"),
    ])
    def test_bad_value_rejected_before_any_run(self, preset, overrides,
                                               match):
        # unchecked, each fails late (after the fine run) or as a bare
        # IndexError or ValueError; zero-height bands never finish drawing
        # the initial condition
        with pytest.raises(ConfigError, match=match):
            apply_overrides(get_preset(preset), overrides)

    def test_frozen(self):
        cfg = get_preset("smoke")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.steps = 3
