"""Checks of the benchmark's tracer and workloads on small configurations.

Run with ``PYTHONPATH=src python3 -m pytest perfbench``; the repository's
own suite does not collect this file.
"""

import dataclasses
import importlib
from collections import Counter

import pytest

from dynmc.config import get_preset
from dynmc.experiment import run_experiment
from tracer import Tracer, layer_metrics
from worker import _report_digest
from workloads import WORKLOADS

# the module-level bindings each layer is reached through
BINDINGS = (
    "dynmc.fine.solve_flow", "dynmc.cells.solve_flow",
    "dynmc.fine.splu", "dynmc.cells.splu",
    "dynmc.experiment.averages", "dynmc.macro.averages",
    "dynmc.experiment.classify", "dynmc.macro.classify",
    "dynmc.experiment.run_fine", "dynmc.experiment.run_coarse",
    "dynmc.experiment.reference_states", "dynmc.experiment.compute_errors",
)


def small_galerkin():
    """Interface preset cut to three coarse steps (Galerkin, cache hits)."""
    return dataclasses.replace(get_preset("interface"), steps=30,
                               coarse_steps=3)


def traced(cfg):
    with Tracer() as tr:
        res = run_experiment(cfg)
    return res, tr, layer_metrics(tr)


def _binding(name):
    module, attr = name.rsplit(".", 1)
    return importlib.import_module(module), attr


def test_every_binding_is_wrapped_and_restored():
    originals = {b: getattr(*_binding(b)) for b in BINDINGS}
    with Tracer() as tr:
        assert not tr.missing
        assert set(BINDINGS) <= set(tr.bindings)
        for b, fn in originals.items():
            assert getattr(*_binding(b)) is not fn, f"{b} not wrapped"
    for b, fn in originals.items():
        assert getattr(*_binding(b)) is fn, f"{b} not restored"


def test_same_function_gets_the_name_of_its_binding():
    cfg = get_preset("smoke")
    _res, tr, _m = traced(cfg)
    names = Counter(name for name, *_ in tr.spans)
    assert names["fine.flow"] == cfg.steps + 1
    assert names["cells.block_flow"] > 0
    assert names["fine.splu"] == names["fine.flow"] + names["cells.block_flow"]


@pytest.mark.parametrize("cfg", [get_preset("smoke"), small_galerkin()],
                         ids=["mixed-gravity", "galerkin"])
def test_counts_follow_from_the_config(cfg):
    _res, _tr, m = traced(cfg)
    assert m["fine.flow.calls"] == cfg.steps + 1
    assert (m["macro.coarse_flow.calls"] + m["macro.coarse_cache_hits"]
            == cfg.coarse_steps + 1)
    assert m["cells.calls_in_ref"] == 0
    assert m["cells.calls_in_mh"] > 0
    assert m["fine.factorizations_distinct"] <= m["fine.factorizations"]


def test_galerkin_counts_its_cache_hits_and_sparse_saddles():
    cfg = small_galerkin()
    _res, _tr, m = traced(cfg)
    assert m["macro.coarse_cache_hits"] > 0
    # one region engine per refined coarse block per coarse flow solve
    assert m["cells.region_engine.calls"] == (
        m["macro.coarse_flow.calls"] * cfg.Nx * cfg.flow_refine)
    assert m["cells.saddle_sparse_factorizations"] > 0


def test_tracing_changes_no_result_and_counts_repeat():
    cfg = small_galerkin()
    plain = _report_digest(run_experiment(cfg).report)
    res_a, _, a = traced(cfg)
    res_b, _, b = traced(cfg)
    assert _report_digest(res_a.report) == plain
    assert _report_digest(res_b.report) == plain
    counts = [k for k in a if not k.endswith((".s", "_s"))]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}


def test_self_time_excludes_children():
    _res, _tr, m = traced(get_preset("smoke"))
    assert 0.0 <= m["fine.flow.self_s"] <= m["fine.flow.s"]
    assert m["fine.flow.factor_s"] <= m["fine.flow.s"]
    assert 0.0 <= m["macro.coarse_flow.self_s"] <= m["macro.coarse_flow.s"]


def test_bands_flag_leaving_the_acceptance_band():
    ok = {"eV_rel": [1.0, 2.0], "eC_ref_vel": [0.5, 0.5],
          "eC_mh_vel": [0.5, 0.5], "eC_between": [0.1, 0.1],
          "tau_ratio": 10.0}
    for wl in WORKLOADS.values():
        assert wl.band(ok) == []
        assert wl.band(dict(ok, eC_mh_vel=[0.5, 50.0]))
    assert WORKLOADS["viscous"].band(dict(ok, eV_rel=[1.0, 6.5]))
    assert WORKLOADS["gravity-dual"].band_applies(0)
    assert not WORKLOADS["gravity-dual"].band_applies(1000)
    assert WORKLOADS["interface"].band_applies(1000)
