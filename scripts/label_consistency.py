#!/usr/bin/env python3
"""Compare advected continuum labels against threshold re-classification.

Runs a short fine experiment of any preset, with the preset's boundary
condition, inflow and transport scheme, advects the initial labels through
the stored velocity fields, and reports the fraction of cells (outside a
one-cell interface band) where the advected labels agree with
re-classifying the transported concentration.

Usage: python3 scripts/label_consistency.py [--preset gravity-dual]
       [--steps 20] [--band 1]
"""

import argparse
import sys

from dynmc.config import apply_overrides, get_preset
from dynmc.continua import advect_labels, classify, label_agreement
from dynmc.exceptions import DynmcError
from dynmc.experiment import fine_reference


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="gravity-dual")
    ap.add_argument("--steps", type=int, default=20)
    ap.add_argument("--band", type=int, default=1,
                    help="interface band half-width excluded from the score")
    args = ap.parse_args(argv)

    try:
        # no coarse run reads the fine snapshots, so no coarse horizon
        cfg = apply_overrides(get_preset(args.preset),
                              [f"steps={args.steps}", "pre_steps=0",
                               "coarse_steps=0"])
        ext, _, _, run = fine_reference(cfg)
    except DynmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code

    spec = cfg.continuum_spec()
    labels = classify(run.snapshots[0].c, spec)
    fields = [(s.vx, s.vy) for s in run.snapshots[:-1]]
    series = advect_labels(ext, labels, fields, tau=cfg.tau)

    print(f"{cfg.name}: {args.steps} steps on {ext.nx}x{ext.ny}, "
          f"band half-width {args.band}")
    print(f"{'step':>5}  {'agreement %':>12}")
    for k, lab in enumerate(series):
        ref = classify(run.snapshots[k].c, spec)
        frac = label_agreement(lab, ref, exclude_band=args.band)
        print(f"{k:>5}  {100.0 * frac:>12.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
