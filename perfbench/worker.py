"""One benchmark sample: a single ``run_experiment`` call in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED OUTDIR [--full] [--trace]
                                  [--setup-only]

Prints one JSON line with the sample's timings, peak RSS, error report and
output checks; with ``--trace`` also the per-layer metrics.  With
``--setup-only`` it stops where ``run_experiment`` would be called.  ``run.py``
starts one of these per sample with the BLAS thread pools pinned to one
thread and the checkout's ``src`` on ``PYTHONPATH``.
"""

import json
import os
import sys
import time
import traceback

from workloads import WORKLOADS, nanmax


def _report_values(rep) -> dict:
    return {
        "eV_rel": [float(v) for v in rep.eV.relative],
        "eV_abs": [float(v) for v in rep.eV.absolute],
        "eV_global": float(rep.eV.global_relative),
        "eC_ref_vel": [float(v) for v in rep.eC_ref_vel],
        "eC_mh_vel": [float(v) for v in rep.eC_mh_vel],
        "eC_between": [float(v) for v in rep.eC_between],
    }


def step_means(rep) -> tuple[float, float]:
    """Mean over the coarse steps of the largest per-continuum e_V and of
    the largest e_C over the three comparisons, in percent."""
    ev = [nanmax(e.relative) for e in rep.eV_series[1:]]
    ec = [nanmax(list(a) + list(b) + list(c)) for a, b, c in zip(
        rep.eC_series["refvel"][1:], rep.eC_series["mhvel"][1:],
        rep.eC_series["between"][1:])]
    if not ev:
        return float("nan"), float("nan")
    return sum(ev) / len(ev), sum(ec) / len(ec)


def _report_digest(rep) -> str:
    """blake2b of every value of the report, final and per time, bit for bit."""
    import hashlib

    import numpy as np
    h = hashlib.blake2b(digest_size=16)

    def put(*arrays):
        for a in arrays:
            h.update(np.asarray(a, dtype=float).tobytes())

    put(rep.eV.relative, rep.eV.absolute, [rep.eV.global_relative],
        rep.eC_ref_vel, rep.eC_mh_vel, rep.eC_between, rep.times)
    for ev in rep.eV_series:
        put(ev.relative, ev.absolute, [ev.global_relative])
    for key in sorted(rep.eC_series):
        h.update(key.encode())
        put(*rep.eC_series[key])
    return h.hexdigest()


def _check_artifacts(res, outdir: str) -> list[str]:
    """Written artifacts exist and errors.csv round-trips the report."""
    import csv
    problems = []
    for name, path in res.artifacts.items():
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            problems.append(f"artifact {name} missing or empty")
    with open(os.path.join(outdir, "errors.csv"), newline="") as fh:
        written = [(row["metric"], int(row["continuum"]), float(row["value"]))
                   for row in csv.DictReader(fh)]
    expected = list(res.report.rows())
    if len(written) != len(expected):
        problems.append(f"errors.csv has {len(written)} rows, "
                        f"report has {len(expected)}")
    for (wn, wk, wv), (en, ek, ev) in zip(written, expected):
        same = wv == ev or (wv != wv and ev != ev)
        if (wn, wk) != (en, ek) or not same:
            problems.append(f"errors.csv row {wn}[{wk}]={wv!r} "
                            f"!= report {en}[{ek}]={float(ev)!r}")
    with open(os.path.join(outdir, "manifest.json")) as fh:
        status = json.load(fh).get("status")
    if status != "ok":
        problems.append(f"manifest status {status!r}")
    return problems


def environment() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = blas.get("openblas configuration") or blas.get("version")
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def sample(workload: str, seed: int, outdir: str, full: bool,
           trace: bool, setup_only: bool = False) -> dict:
    import dataclasses
    import resource

    import dynmc
    from dynmc.config import get_preset
    from dynmc.experiment import run_experiment

    wl = WORKLOADS[workload]
    cfg = dataclasses.replace(get_preset(wl.preset),
                              **wl.overrides(seed, full))
    # the derived inputs a user pays for before any compute
    layout = cfg.layout()
    ext = layout.extended_fine
    c0 = cfg.initial_condition(ext)
    cfg.mobility(ext)(c0)
    cfg.flow_bc(ext)
    if setup_only:
        return {"ok": True, "t_call": time.monotonic()}

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    t_call = time.monotonic()
    try:
        res = run_experiment(cfg, outdir=outdir)
    finally:
        wall = time.monotonic() - t_call
        if tracer is not None:
            tracer.uninstall()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    snaps = res.fine.snapshots
    snapshot_bytes = sum(a.nbytes for s in snaps
                         for a in (s.p, s.vx, s.vy, s.c))
    artifact_bytes = sum(os.path.getsize(p) for p in res.artifacts.values())
    out = {
        "ok": True,
        "dynmc": os.path.dirname(os.path.abspath(dynmc.__file__)),
        "t_call": t_call,
        "wall_s": wall,
        "peak_rss_mb": rss_mib,
        "steps": cfg.steps,
        "coarse_steps": cfg.coarse_steps,
        "particle_seed": cfg.particle_seed,
        "report": dict(_report_values(res.report),
                       tau_ratio=cfg.tau_coarse / cfg.tau),
        "step_means": step_means(res.report),
        "report_digest": _report_digest(res.report),
        "problems": _check_artifacts(res, outdir),
        "fine.snapshots": len(snaps),
        "fine.snapshot_mb": snapshot_bytes / 2**20,
        "io.artifact_bytes": artifact_bytes,
        "env": environment(),
    }
    if tracer is not None:
        from tracer import layer_metrics
        out["layers"] = layer_metrics(tracer)
        out["bindings"] = tracer.bindings
        out["missing"] = tracer.missing
    return out


def main(argv) -> int:
    workload, seed, outdir = argv[0], int(argv[1]), argv[2]
    try:
        out = sample(workload, seed, outdir, full="--full" in argv,
                     trace="--trace" in argv,
                     setup_only="--setup-only" in argv)
    except Exception:  # report any failure of the sample to the parent
        out = {"ok": False, "error": traceback.format_exc(limit=8)}
    print(json.dumps(out))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
