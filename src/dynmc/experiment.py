"""End-to-end benchmark driver: fine reference, coarse runs, error report."""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import io as iomod
from .config import ExperimentConfig, to_ini
from .continua import averages, classify
from .exceptions import DynmcError
from .fine import FineRun, Snapshot, run_fine
from .grids import CoarseGrid, DomainLayout
from .macro import CoarseModel, CoarseState, run_coarse
from .metrics import ErrorReport, compute_errors

log = logging.getLogger(__name__)


def reference_states(coarse: CoarseGrid, snapshots: list[Snapshot],
                     spec, tau_coarse: float) -> list[CoarseState]:
    """Continuum-averaged fine solution; snapshot k is coarse time point k."""
    out = []
    n = spec.count
    for k, snap in enumerate(snapshots):
        labels = classify(snap.c, spec)
        av = averages(coarse, snap.p, snap.c, snap.vx, labels, n)
        out.append(CoarseState(step=k, t=k * tau_coarse, C=av.C, V=av.V,
                               P=av.P))
    return out


def inflow_concentrations(col: np.ndarray, spec) -> np.ndarray:
    """Per-continuum mean of the left-boundary inflow concentration."""
    labels = classify(col, spec)
    out = np.zeros(spec.count)
    for k in range(spec.count):
        sel = labels == k
        if sel.any():
            out[k] = float(col[sel].mean())
    return out


def fine_reference(cfg: ExperimentConfig, keep: range | tuple | None = None):
    """Build the fine problem of ``cfg`` and run it.

    The approach fixes the physics: mixed-gravity is a closed box driven
    by buoyancy, and every other approach injects the left column of c0
    through the boundary condition of :meth:`ExperimentConfig.flow_bc`.
    Snapshots are kept as :func:`run_fine` keeps them.  Returns the fine
    grid, the mobility c -> lam, the inflow column (None without inflow)
    and the run.
    """
    grid = cfg.layout().extended_fine
    c0 = cfg.initial_condition(grid)
    lam_of = cfg.mobility(grid)
    inflow = None if cfg.gravity else c0[0, :].copy()
    log.info("%s: fine run %dx%d, %d steps", cfg.name, grid.nx, grid.ny,
             cfg.steps)
    run = run_fine(grid, lam_of, c0, cfg.tau, cfg.steps,
                   bc=cfg.flow_bc(grid), gravity_on=cfg.gravity,
                   scheme=cfg.scheme,
                   inflow_c=None if inflow is None else {"left": inflow},
                   keep=keep, seed=cfg.particle_seed)
    return grid, lam_of, inflow, run


@dataclass
class ExperimentResult:
    cfg: ExperimentConfig
    layout: DomainLayout
    coarse: CoarseGrid  # transport grid over the extended domain
    target_offset: int  # first target block index on that grid
    fine: FineRun
    reference: list
    mh_refvel: list
    mh_mhvel: list
    report: ErrorReport
    wall_time: float
    artifacts: dict = field(default_factory=dict)


def run_experiment(cfg: ExperimentConfig, outdir: str | None = None
                   ) -> ExperimentResult:
    """Run the full benchmark for one configuration.

    Solves the fine reference, forms its continuum averages, runs the
    homogenized coarse model with reference and with homogenized
    velocities, and compares all three over the target region.  When
    ``outdir`` is given, artifacts (series, errors, manifest) are written
    there; on failure a manifest with the error is still written.
    """
    t0 = time.monotonic()
    if outdir:
        iomod.ensure_dir(outdir)
    try:
        result = _run(cfg, outdir, t0)
    except DynmcError as exc:
        if outdir:
            iomod.write_manifest(os.path.join(outdir, "manifest.json"), cfg,
                                 {"status": "failed", "error": str(exc),
                                  "wall_time_s": time.monotonic() - t0})
        raise
    return result


def _run(cfg: ExperimentConfig, outdir: str | None,
         t0: float) -> ExperimentResult:
    layout = cfg.layout()
    coarse = cfg.extended_coarse(layout)
    off = cfg.target_block_offset(layout)
    spec = cfg.continuum_spec()
    n = spec.count

    # the coarse runs read the fine field at the coarse time points only
    end = cfg.pre_steps + cfg.coarse_steps * cfg.substeps
    _, lam_of, inflow, fine = fine_reference(
        cfg, keep=range(cfg.pre_steps, end + 1, cfg.substeps))
    snaps = fine.snapshots[:cfg.coarse_steps + 1]

    reference = reference_states(coarse, snaps, spec, cfg.tau_coarse)

    model = CoarseModel(coarse=coarse, spec=spec, approach=cfg.approach,
                        lam_of=lam_of, inflow_conc=None if inflow is None
                        else inflow_concentrations(inflow, spec))
    log.info("%s: coarse run with reference velocities", cfg.name)
    mh_refvel = run_coarse(model, snaps, cfg.coarse_steps, cfg.tau_coarse,
                           velocity="ref")
    log.info("%s: coarse run with homogenized velocities", cfg.name)
    mh_mhvel = run_coarse(model, snaps, cfg.coarse_steps, cfg.tau_coarse,
                          velocity="mh")

    report = compute_errors(reference, mh_refvel, mh_mhvel, n,
                            block_sel=np.s_[off:off + cfg.Nx],
                            edge_sel=np.s_[off:off + cfg.Nx + 1])

    wall = time.monotonic() - t0
    result = ExperimentResult(cfg=cfg, layout=layout, coarse=coarse,
                              target_offset=off, fine=fine,
                              reference=reference, mh_refvel=mh_refvel,
                              mh_mhvel=mh_mhvel, report=report,
                              wall_time=wall)
    if outdir:
        result.artifacts = _write_artifacts(result, outdir)
    return result


def _write_artifacts(res: ExperimentResult, outdir: str) -> dict:
    cfg = res.cfg
    paths = {}

    def p(name):
        paths[name] = os.path.join(outdir, name)
        return paths[name]

    with open(p("config.ini"), "w") as fh:
        fh.write(to_ini(cfg))
    n = cfg.continuum_spec().count
    iomod.write_averages_csv(p("averages_reference.csv"), res.reference, n)
    iomod.write_averages_csv(p("averages_mh_refvel.csv"), res.mh_refvel, n)
    iomod.write_averages_csv(p("averages_mh_mhvel.csv"), res.mh_mhvel, n)
    iomod.write_errors_csv(p("errors.csv"), res.report)
    last = res.fine.snapshots[-1]
    iomod.write_cell_csv(p("c_initial.csv"), res.fine.c0)
    iomod.write_cell_csv(p("c_final.csv"), last.c)
    iomod.write_pgm(p("c_final.pgm"), last.c)
    iomod.write_manifest(p("manifest.json"), cfg, {
        "status": "ok",
        "wall_time_s": res.wall_time,
        "max_fine_cfl": res.fine.max_cfl,
        "fine_flow_reused": sum(res.fine.flow_reused),
        "block_pieces_factored": sum(s.pieces[0] for s in res.mh_mhvel),
        "block_pieces_reused": sum(s.pieces[1] for s in res.mh_mhvel),
        "galerkin_regions_reused": sum(s.regions_reused
                                       for s in res.mh_mhvel),
        "block_loads_solved": sum(s.loads[0] for s in res.mh_mhvel),
        "block_loads_reused": sum(s.loads[1] for s in res.mh_mhvel),
        "coarse_flow_reused": sum(s.flow_reused for s in res.mh_mhvel),
        "e_V_global_percent": res.report.eV.global_relative,
        "e_C_mhvel_percent": [float(v) for v in res.report.eC_mh_vel],
        "ordering_ok": res.report.ordering_ok,
    })
    return paths
