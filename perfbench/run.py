#!/usr/bin/env python3
"""dynmc benchmark: time to solution, set-up time, peak memory and accuracy.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--full]

Run from the root of a checkout.  A sample is one ``run_experiment`` call
(fine reference, continuum averages, coarse ``ref`` and ``mh`` runs, error
report, artifacts) in a fresh single process, with the OpenBLAS and OpenMP
pools pinned to one thread.  Samples repeat until ``--seconds`` is used up;
at least three are taken.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the samples.  Sample i uses particle seed ``1000 * seed + i``, so a
run's medians cover several particle layouts.  Between samples, set-up-only
processes add set-up times to the ``setup_s`` median.

``--trace 1`` alternates traced and untraced samples, all on particle seed
``1000 * seed``, and reports the per-layer metrics.  The traced error
report must be bit-identical to the untraced one, every count must repeat
exactly, and the counts must agree with the configuration.

A sample fails if it raises, if an error value is not finite, if its
artifacts do not match its report or, on the preset's own particle seed, if
it leaves its acceptance band.  Failed samples count against the attempts.

``--full`` runs the desk preset at its own length instead of the shortened
workload.  The last line of standard output is the result as one JSON
object; the lines above it are for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 170.0  # a run must end within 180 s
MIN_SAMPLES = 3
SETUPS_PER_SAMPLE = 2  # extra set-up-only processes after each sample
FOLLOW_INTERVAL_S = 0.5
PROBE_LOOP = 30_000  # about 2 ms on the reference machine
MOVE_RATIO = 0.8  # move a worker when another CPU is 20% faster
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Sample:
    """Outcome of one worker process."""

    def __init__(self, traced: bool, seconds: float, out: dict | None,
                 error: str | None, setup_s: float | None):
        self.traced = traced
        self.seconds = seconds  # process start to exit
        self.out = out
        self.error = error
        self.setup_s = setup_s
        self.problems: list[str] = []

    @property
    def ran(self) -> bool:
        return self.out is not None


def _probe(cpu: int) -> float:
    """Seconds a short loop takes on ``cpu`` (best of two).

    The loop runs at real-time priority where that is permitted, so that a
    worker running on ``cpu`` cannot stretch it.
    """
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
    except (OSError, AttributeError):
        pass
    best = math.inf
    try:
        for _ in range(2):
            t = time.perf_counter()
            s = 0
            for i in range(PROBE_LOOP):
                s += i * i
            best = min(best, time.perf_counter() - t)
    finally:
        try:
            os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
        except (OSError, AttributeError):
            pass
    return best


class CpuFollower:
    """Keeps a worker on whichever CPU currently runs fastest.

    On a shared virtual machine a virtual CPU is often slowed by up to
    1.8x for seconds at a time by work elsewhere on its host core, and the
    two CPUs of the reference machine were slowed independently.  Every
    ``FOLLOW_INTERVAL_S`` a short probe loop runs on each CPU; the worker
    moves when another CPU is clearly faster than its own.  The probe on
    the worker's own CPU pauses the worker for a few milliseconds.  Without
    CPU affinity (one CPU, or not Linux) nothing moves.
    """

    def __init__(self):
        self.cpus = (os.sched_getaffinity(0)
                     if hasattr(os, "sched_getaffinity") else set())
        self.cpu = None

    def _speeds(self) -> dict[int, float]:
        try:
            return {cpu: _probe(cpu) for cpu in sorted(self.cpus)}
        finally:
            os.sched_setaffinity(0, self.cpus)

    def pin_next_child(self) -> None:
        """Pin this process, and so the next child, to the fastest CPU."""
        if len(self.cpus) > 1:
            speeds = self._speeds()
            self.cpu = min(speeds, key=speeds.get)
            os.sched_setaffinity(0, {self.cpu})

    def release(self) -> None:
        if self.cpu is not None:
            os.sched_setaffinity(0, self.cpus)

    def follow(self, pid: int) -> None:
        if self.cpu is None:
            return
        speeds = self._speeds()
        best = min(speeds, key=speeds.get)
        if speeds[best] < MOVE_RATIO * speeds[self.cpu]:
            try:
                os.sched_setaffinity(pid, {best})
            except ProcessLookupError:
                return
            self.cpu = best


def run_worker(args: list[str], tmp: Path, timeout: float,
               traced: bool = False) -> Sample:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env["TMPDIR"] = str(tmp)
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    follower = CpuFollower()
    # files, not pipes: the parent polls the worker instead of reading it
    with tempfile.TemporaryFile("w+", dir=tmp) as out_f, \
            tempfile.TemporaryFile("w+", dir=tmp) as err_f:
        follower.pin_next_child()
        try:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out_f, stderr=err_f,
                                    text=True, env=env, cwd=str(ROOT))
        finally:
            follower.release()
        try:
            while True:
                try:
                    proc.wait(timeout=FOLLOW_INTERVAL_S)
                    break
                except subprocess.TimeoutExpired:
                    pass
                if time.monotonic() - t_spawn > timeout:
                    return Sample(traced, time.monotonic() - t_spawn, None,
                                  f"timed out after {timeout:.0f} s", None)
                follower.follow(proc.pid)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        seconds = time.monotonic() - t_spawn
        out_f.seek(0)
        err_f.seek(0)
        stdout, stderr = out_f.read(), err_f.read()
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        out = None
    if not out or not out.get("ok"):
        err = (out or {}).get("error") or stderr.strip()[-2000:] or (
            f"exit code {proc.returncode}")
        return Sample(traced, seconds, None, err, None)
    return Sample(traced, seconds, out, None, out["t_call"] - t_spawn)


def check_sample(s: Sample, wl, reference: Sample | None) -> None:
    """Fill ``s.problems`` with every way the sample's output is wrong."""
    if not s.ran:
        s.problems.append(s.error)
        return
    out = s.out
    src = (ROOT / "src" / "dynmc").resolve()
    if Path(out["dynmc"]).resolve() != src:
        s.problems.append(f"imported dynmc from {out['dynmc']}, not {src}")
    s.problems.extend(out["problems"])
    r = out["report"]
    values = (r["eV_rel"] + r["eV_abs"] + [r["eV_global"]] + r["eC_ref_vel"]
              + r["eC_mh_vel"] + r["eC_between"] + out["step_means"])
    if not all(math.isfinite(v) for v in values):
        s.problems.append(f"non-finite error values: {r}, step means "
                          f"{out['step_means']}")
    if wl.band_applies(out["particle_seed"]):
        s.problems.extend(wl.band(r))
    if reference is not None and reference.ran and \
            out["report_digest"] != reference.out["report_digest"]:
        s.problems.append("traced error report differs from the untraced "
                          "one on the same inputs")
    if s.traced:
        lay = out["layers"]
        if out["missing"]:
            s.problems.append(f"traced functions not found: {out['missing']}")
        if lay["fine.flow.calls"] != out["steps"] + 1:
            s.problems.append(f"fine.flow.calls {lay['fine.flow.calls']} "
                              f"!= steps + 1 = {out['steps'] + 1}")
        coarse = lay["macro.coarse_flow.calls"] + lay["macro.coarse_cache_hits"]
        if coarse != out["coarse_steps"] + 1:
            s.problems.append(f"coarse flow calls + cache hits {coarse} "
                              f"!= coarse_steps + 1 = {out['coarse_steps'] + 1}")
        if lay["cells.calls_in_ref"] != 0:
            s.problems.append(f"the ref coarse run made "
                              f"{lay['cells.calls_in_ref']} cell-problem calls")


def tail_percentile(values: list[float]):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def timing_line(name: str, unit: str, values: list[float]) -> str:
    tail = tail_percentile(values)
    tail_s = (f"p{tail[0]} {tail[1]:.4f}" if tail
              else "no tail percentile (needs 11 samples)")
    return (f"{name:<16} median {statistics.median(values):.4f} {unit}, "
            f"{tail_s}, n={len(values)}, "
            f"min {min(values):.4f}, max {max(values):.4f}")


def end_to_end(plain: list[Sample], setups: list[float]) -> dict:
    ran = [s for s in plain if s.ran]
    # accuracy over the first samples only, so that it depends on the seed
    # and not on how many samples a run had time for
    first = [s for s in plain[:MIN_SAMPLES] if s.ran]
    if not ran or not first:
        return {}
    return {
        "wall_s": statistics.median(s.out["wall_s"] for s in ran),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s.out["peak_rss_mb"] for s in ran),
        "e_V_max_pct": statistics.median(s.out["step_means"][0]
                                         for s in first),
        "e_C_max_pct": statistics.median(s.out["step_means"][1]
                                         for s in first),
    }


def per_layer(plain: list[Sample], traced: list[Sample]
              ) -> tuple[dict, list[str]]:
    """Medians of the traced samples' layer times; counts must repeat."""
    problems = []
    ran = [s for s in traced if s.ran]
    plain_ran = [s for s in plain if s.ran]
    if not ran:
        return {}, problems
    merged = {}
    for name in ran[0].out["layers"]:
        vals = [s.out["layers"][name] for s in ran]
        if name.endswith((".s", "_s")):
            merged[name] = statistics.median(vals)
        else:
            if any(v != vals[0] for v in vals):
                problems.append(f"count {name} did not repeat: {vals}")
            merged[name] = vals[0]
    for name in ("fine.snapshots", "fine.snapshot_mb"):
        vals = [s.out[name] for s in ran]
        if any(v != vals[0] for v in vals):
            problems.append(f"count {name} did not repeat: {vals}")
        merged[name] = vals[0]
    merged["io.artifact_bytes"] = statistics.median(
        s.out["io.artifact_bytes"] for s in ran)
    if plain_ran:
        merged["trace.overhead_pct"] = 100.0 * (
            statistics.median(s.out["wall_s"] for s in ran)
            / statistics.median(s.out["wall_s"] for s in plain_ran) - 1.0)
    return merged, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--full", action="store_true",
                    help="run the desk preset at its own length")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dynmc" / "__init__.py").is_file():
        print(f"perfbench: no dynmc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wl = WORKLOADS[args.workload]
    traced_run = args.trace == 1
    print(f"perfbench {wl.name} (preset {wl.preset}, "
          + ("full length" if args.full else f"shortened {wl.short}")
          + f") seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if not wl.seeded:
        print(f"{wl.name} has no random input: --seed changes nothing; "
              "the acceptance band is checked on every sample")

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_tmp"))
    t_start = time.monotonic()
    samples: list[Sample] = []
    setups: list[float] = []
    try:
        while True:
            now = time.monotonic()
            longest = max((s.seconds for s in samples), default=0.0)
            if len(samples) >= MIN_SAMPLES and \
                    now + longest > t_start + args.seconds:
                break
            if samples and now + longest > t_start + HARD_LIMIT_S:
                break
            # trace runs alternate traced and untraced samples on one seed
            traced = traced_run and len(samples) % 2 == 0
            seed = 1000 * args.seed + (0 if traced_run else len(samples))
            outdir = tmp / f"sample-{len(samples)}"
            s = run_worker([wl.name, str(seed), str(outdir)]
                           + (["--full"] if args.full else [])
                           + (["--trace"] if traced else []),
                           tmp, t_start + HARD_LIMIT_S - now, traced)
            shutil.rmtree(outdir, ignore_errors=True)
            samples.append(s)
            print(f"sample {len(samples)} {'traced' if traced else 'plain':<6}"
                  f" particle_seed {seed if wl.seeded else '-'}"
                  + (f" wall_s {s.out['wall_s']:.4f} setup_s {s.setup_s:.4f}"
                     f" peak_rss_mb {s.out['peak_rss_mb']:.1f}"
                     if s.ran else f" FAILED: {s.error}"), flush=True)
            if s.ran and not traced:
                setups.append(s.setup_s)
            for _ in range(0 if traced_run else SETUPS_PER_SAMPLE):
                u = run_worker([wl.name, str(seed), str(outdir),
                                "--setup-only"], tmp,
                               max(t_start + HARD_LIMIT_S - time.monotonic(),
                                   1.0))
                if u.ran:
                    setups.append(u.setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass

    plain = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    reference = next((s for s in plain if s.ran), None) if traced_run \
        else None
    for s in samples:
        check_sample(s, wl, reference)
    failed = sum(1 for s in samples if s.problems)
    for i, s in enumerate(samples, 1):
        for p in s.problems:
            print(f"sample {i} FAILED: {p}")

    env = next((s.out["env"] for s in samples if s.ran), None)
    print("environment " + json.dumps(env, sort_keys=True))
    ran = [s for s in plain if s.ran]
    if ran:
        print(timing_line("wall_s", "s", [s.out["wall_s"] for s in ran]))
        print(timing_line("setup_s", "s", setups))
        print(timing_line("peak_rss_mb", "MiB",
                          [s.out["peak_rss_mb"] for s in ran]))
        for s in ran:
            r = s.out["report"]
            print(f"particle_seed {s.out['particle_seed']} final-time errors "
                  f"(%): e_V {r['eV_rel']}, e_C ref-V {r['eC_ref_vel']}, "
                  f"mh-V {r['eC_mh_vel']}, between {r['eC_between']}; "
                  f"step means e_V {s.out['step_means'][0]:.4f}, "
                  f"e_C {s.out['step_means'][1]:.4f}")

    problems = []
    if traced_run:
        metrics, problems = per_layer(plain, traced)
        for p in problems:
            print(f"FAILED: {p}")
        if metrics.get("fine.factorizations"):
            print(f"fine.factor_reuse = "
                  f"{metrics['fine.factorizations_distinct']} distinct / "
                  f"{metrics['fine.factorizations']} factorizations")
        for name, value in metrics.items():
            print(f"  {name:<36} {value}")
        if traced and traced[0].ran:
            print("wrapped bindings: " + ", ".join(traced[0].out["bindings"]))
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(plain, setups)
        wanted = spec["end_to_end"]

    def number(v):
        return v if isinstance(v, int) or (
            isinstance(v, float) and math.isfinite(v)) else None

    result = {
        "correct": failed == 0 and not problems and bool(metrics),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": number(metrics.get(m["name"])),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
