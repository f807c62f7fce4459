"""End-to-end driver: which fine steps feed which coarse time points."""

import dataclasses

import numpy as np

from dynmc.config import get_preset
from dynmc.continua import averages, classify
from dynmc.experiment import run_experiment
from dynmc.fine import run_fine


def test_coarse_points_read_fine_steps_pre_plus_k_substeps():
    cfg = dataclasses.replace(get_preset("smoke"), steps=7, pre_steps=2,
                              substeps=2, tau_coarse=4e-2, coarse_steps=2)
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
        av = averages(res.coarse, s.p, s.c, s.vx, s.vy, classify(s.c, spec),
                      spec.count)
        assert (ref.C == av.C).all()
        assert all((ref.V[e] == av.V[e]).all() for e in av.V)
        # the 'ref' coarse run takes its velocities from the same snapshot
        assert all((res.mh_refvel[k].V[e] == av.V[e]).all() for e in av.V)
    assert (res.mh_refvel[0].C == res.reference[0].C).all()
    assert (res.fine.c0 == c0).all()
    assert np.isfinite(res.report.eV.global_relative)
