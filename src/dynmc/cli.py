"""Command-line interface: run-fine, run-coarse, cells-solve, compare,
list-presets."""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import cells
from . import io as iomod
from .config import (ExperimentConfig, apply_overrides, from_ini, get_preset,
                     presets)
from .exceptions import ConfigError, DynmcError
from .experiment import run_experiment
from .fine import run_fine
from .grids import oversample_block
from .continua import classify
from .metrics import compute_errors, concentration_errors, velocity_errors

log = logging.getLogger(__name__)


def _add_config_args(sp):
    sp.add_argument("--preset", help="named preset (see list-presets)")
    sp.add_argument("--config", help="INI config file")
    sp.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="KEY=VALUE", help="override a config key")
    sp.add_argument("--out", default=None, help="artifact directory")


def _load_config(args) -> ExperimentConfig:
    if args.preset and args.config:
        raise ConfigError("give either --preset or --config, not both")
    if args.preset:
        cfg = get_preset(args.preset)
    elif args.config:
        with open(args.config) as fh:
            cfg = from_ini(fh.read())
    else:
        raise ConfigError("one of --preset or --config is required")
    return apply_overrides(cfg, args.overrides)


def _cmd_list_presets(_args) -> int:
    table = presets()
    width = max(len(k) for k in table)
    for name in sorted(table):
        c = table[name]
        print(f"{name:<{width}}  {c.approach:<13} fine {c.nx}x{c.ny}  "
              f"coarse {c.Nx}x{c.Ny}  steps {c.steps}  tau {c.tau:g}")
    return 0


def _cmd_run_fine(args) -> int:
    cfg = _load_config(args)
    layout = cfg.layout()
    ext = layout.extended_fine
    c0 = cfg.initial_condition(ext)
    lam_of = cfg.mobility(ext)
    inflow = None
    if cfg.bc_kind in ("inflow-outlet", "dirichlet-x"):
        inflow = {"left": c0[0, :].copy()}
    run = run_fine(ext, lam_of, c0, cfg.tau, cfg.steps,
                   bc=cfg.flow_bc(ext), gravity_on=cfg.gravity,
                   scheme=cfg.scheme, inflow_c=inflow, keep=(),
                   particles_per_cell=cfg.particles_per_cell,
                   seed=cfg.particle_seed)
    last = run.snapshots[-1]
    print(f"{cfg.name}: {cfg.steps} fine steps on {ext.nx}x{ext.ny}, "
          f"max CFL {run.max_cfl:.3f}")
    if args.out:
        iomod.ensure_dir(args.out)
        iomod.write_cell_csv(os.path.join(args.out, "c_final.csv"), last.c)
        iomod.write_cell_csv(os.path.join(args.out, "p_final.csv"), last.p)
        iomod.write_face_csv(os.path.join(args.out, "v_final.csv"),
                             last.vx, last.vy)
        iomod.write_pgm(os.path.join(args.out, "c_final.pgm"), last.c)
        iomod.write_manifest(os.path.join(args.out, "manifest.json"), cfg,
                             {"status": "ok", "mode": "fine-only",
                              "max_fine_cfl": run.max_cfl})
        print(f"artifacts in {args.out}")
    return 0


def _cmd_run_coarse(args) -> int:
    cfg = _load_config(args)
    res = run_experiment(cfg, outdir=args.out)
    rep = res.report
    print(f"{cfg.name}: done in {res.wall_time:.1f}s")
    for k in range(rep.n):
        rel = rep.eV.relative[k]
        shown = (f"{rel:.3f}%" if np.isfinite(rel)
                 else f"abs {rep.eV.absolute[k]:.3e}")
        print(f"  e_V continuum {k}: {shown}")
    print(f"  e_V global: {rep.eV.global_relative:.3f}%")
    for k in range(rep.n):
        print(f"  e_C continuum {k}: ref-vel {rep.eC_ref_vel[k]:.3f}%  "
              f"mh-vel {rep.eC_mh_vel[k]:.3f}%  "
              f"between {rep.eC_between[k]:.3f}%")
    if not rep.ordering_ok:
        print("  note: reference-velocity run is not uniformly more accurate")
    if args.out:
        print(f"artifacts in {args.out}")
    return 0


def _cmd_cells_solve(args) -> int:
    cfg = _load_config(args)
    layout = cfg.layout()
    ext = layout.extended_fine
    coarse = cfg.extended_coarse(layout)
    spec = cfg.continuum_spec()
    n = spec.count
    c0 = cfg.initial_condition(ext)
    labels = classify(c0, spec)
    lam = cfg.mobility(ext)(c0)
    block = (args.block if args.block is not None else coarse.Nx // 2, 0)
    ov = oversample_block(coarse, block, args.layers
                          if args.layers is not None else cfg.layers,
                          rule=cfg.extension_rule)
    lam_l, lab_l = ov.sample(lam), ov.sample(labels)
    bset = cells.solve_constrained_elliptic(ov, lam_l, lab_l, n, args.family)
    outdir = iomod.ensure_dir(args.out or f"cells_{args.family}")
    lines = []
    for b in bset.bases:
        tag = f"{args.family}_c{b.continuum}"
        if b.scalar is not None:
            iomod.write_cell_csv(os.path.join(outdir, f"{tag}.csv"), b.scalar)
        lines.append(f"{tag}: residual {b.residual:.3e}"
                     + (f" [{b.flag}]" if b.flag else ""))
    report = "\n".join(lines) + "\n"
    with open(os.path.join(outdir, "residuals.txt"), "w") as fh:
        fh.write(report)
    print(report, end="")
    print(f"artifacts in {outdir}")
    return 0


def _cmd_compare(args) -> int:
    series = [iomod.read_averages_csv(p) for p in args.series]
    ref = series[0]
    n = ref[0].C.shape[2]
    if len(series) == 3:
        rep = compute_errors(ref, series[1], series[2], n)
        for name, k, v in rep.rows():
            print(f"{name}[{k}]: {v:.6g}" if k >= 0 else f"{name}: {v:.6g}")
        return 0
    other = series[1]
    keys = sorted(ref[-1].V.keys())
    ev = velocity_errors(ref[-1].V, other[-1].V, keys, n)
    ec = concentration_errors(other[-1].C, ref[-1].C, np.s_[:, :])
    for k in range(n):
        rel = ev.relative[k]
        shown = f"{rel:.3f}%" if np.isfinite(rel) else f"abs {ev.absolute[k]:.3e}"
        print(f"e_V[{k}]: {shown}")
    print(f"e_V global: {ev.global_relative:.3f}%")
    for k in range(n):
        print(f"e_C[{k}]: {ec[k]:.3f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dynmc",
        description="Multicontinuum transport benchmarks with dynamic "
                    "concentration-band continua.")
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("list-presets", help="show the experiment catalog")
    sp.set_defaults(func=_cmd_list_presets)

    sp = sub.add_parser("run-fine", help="fine-scale reference run only")
    _add_config_args(sp)
    sp.set_defaults(func=_cmd_run_fine)

    sp = sub.add_parser("run-coarse",
                        help="full benchmark: fine + coarse + errors")
    _add_config_args(sp)
    sp.set_defaults(func=_cmd_run_coarse)

    sp = sub.add_parser("cells-solve",
                        help="solve one block's cell problems, dump fields")
    _add_config_args(sp)
    sp.add_argument("--family", default="average",
                    choices=["average", "gradient", "concentration"])
    sp.add_argument("--block", type=int, default=None,
                    help="block index along x (default: middle)")
    sp.add_argument("--layers", type=int, default=None)
    sp.set_defaults(func=_cmd_cells_solve)

    sp = sub.add_parser("compare",
                        help="error report from stored averages CSVs")
    sp.add_argument("series", nargs="+",
                    help="reference.csv other.csv [third.csv]")
    sp.set_defaults(func=_cmd_compare)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    if args.command == "compare" and not 2 <= len(args.series) <= 3:
        print("compare takes two or three series files", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except DynmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
