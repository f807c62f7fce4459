"""CSV/JSON artifact readers and writers.

All floating-point output uses %.17g so written artifacts round-trip
bit-identically.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import time

import numpy as np

from .config import LAM_SEED
from .exceptions import ConfigError
from .macro import CoarseState

_F = "%.17g"
# per row kind: location pattern, its name and its written form
_BLOCK = (re.compile(r"(\d+):0"), "block", "I:0")
_LOCATIONS = {"C": _BLOCK, "P": _BLOCK,
              "V": (re.compile(r"x:(\d+):0"), "edge", "x:I:0")}


def _fmt(v) -> str:
    return _F % float(v)


# --- cell and face fields ----------------------------------------------


def write_cell_csv(path: str, field: np.ndarray) -> None:
    """Cell field as ``i,j,value`` rows (i fastest along x)."""
    nx, ny = field.shape
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "value"])
        for j in range(ny):
            for i in range(nx):
                w.writerow([i, j, _fmt(field[i, j])])


def _data_rows(path: str, header: list[str]):
    """(where, fields) of every non-blank row of a CSV file whose first row
    is ``header``; ``where`` names the file and line for error messages.
    A file that cannot be opened raises :class:`ConfigError` naming it."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc.strerror}") from None
    with fh:
        r = csv.reader(fh)
        head = next(r, None)
        if head is None or [h.strip() for h in head] != header:
            raise ConfigError(f"{path}: expected header {','.join(header)}")
        for line in r:
            if line:
                yield f"{path}, line {r.line_num}", line


def _indexed_value(where: str, fields: list, shape: tuple | None = None
                   ) -> tuple:
    """(i, j, value) of one ``i,j,value`` row; a malformed row, a NaN value
    (the reader's mark of a missing entry) or, with ``shape``, a cell
    outside it raises :class:`ConfigError` naming ``where``."""
    if len(fields) != 3:
        raise ConfigError(f"{where}: {len(fields)} fields for i,j,value")
    try:
        i, j, v = int(fields[0]), int(fields[1]), float(fields[2])
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if i < 0 or j < 0:
        raise ConfigError(f"{where}: negative index ({i}, {j})")
    if shape is not None and not (i < shape[0] and j < shape[1]):
        raise ConfigError(f"{where}: cell ({i}, {j}) outside the "
                          f"{shape[0]}x{shape[1]} grid")
    if math.isnan(v):
        raise ConfigError(f"{where}: value is nan")
    return i, j, v


def read_cell_csv(path: str, nx: int | None = None,
                  ny: int | None = None) -> np.ndarray:
    """Cell field written by :func:`write_cell_csv`, of shape (nx, ny) when
    given, else sized by the largest indices; every cell must have one
    row.  A malformed or repeated row raises :class:`ConfigError` naming
    the file and line (both lines for a repeat), a row outside the shape
    before anything is sized by it."""
    shape = None if nx is None else (nx, ny)
    rows = [(where, *_indexed_value(where, line, shape))
            for where, line in _data_rows(path, ["i", "j", "value"])]
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    out = np.full((max(t[1] for t in rows) + 1, max(t[2] for t in rows) + 1),
                  np.nan)
    first = {}  # (i, j) -> where its row is
    for where, i, j, v in rows:
        if (i, j) in first:
            raise ConfigError(f"{where}: a second row for ({i}, {j}); the "
                              f"first is at {first[i, j]}")
        first[i, j] = where
        out[i, j] = v
    if np.isnan(out).any():
        raise ConfigError(f"{path}: missing cells")
    if nx is not None and out.shape != (nx, ny):
        raise ConfigError(f"{path}: grid is {out.shape[0]}x{out.shape[1]}, "
                          f"expected {nx}x{ny}")
    return out


def write_face_csv(path: str, vx: np.ndarray, vy: np.ndarray) -> None:
    """Face fluxes as ``orientation,i,j,flux`` (x faces then y faces)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["orientation", "i", "j", "flux"])
        for j in range(vx.shape[1]):
            for i in range(vx.shape[0]):
                w.writerow(["x", i, j, _fmt(vx[i, j])])
        for j in range(vy.shape[1]):
            for i in range(vy.shape[0]):
                w.writerow(["y", i, j, _fmt(vy[i, j])])


# --- macroscopic series -------------------------------------------------


def write_averages_csv(path: str, states, n: int) -> None:
    """Coarse state series: ``time,kind,location,continuum,value`` rows.

    kind is P, C, or V; location is ``I:0`` for block I and ``x:I:0`` for
    coarse edge I (row I of V, the x-face column between blocks I-1 and I).
    P rows are written only for a pressure per block and continuum, such as
    the reference's, or for the mixed models' multipliers.  A Galerkin
    coarse pressure lives on the refined flow grid (Nx * ``macro.FLOW_REFINE``
    blocks), not on the transport blocks, and is not written.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "kind", "location", "continuum", "value"])
        for s in states:
            t = _fmt(s.t)
            P = getattr(s, "P", None)
            p_grid = (isinstance(P, np.ndarray) and P.shape == s.C.shape)
            for I, row in enumerate(s.C):
                for k in range(n):
                    if p_grid and np.isfinite(P[I, k]):
                        w.writerow([t, "P", f"{I}:0", k, _fmt(P[I, k])])
                    w.writerow([t, "C", f"{I}:0", k, _fmt(row[k])])
            if isinstance(P, dict):
                # mixed-model multipliers: one row per block or (block, k)
                for key in sorted(P):
                    I, k = (key[0], -1) if len(key) == 1 else key
                    w.writerow([t, "P", f"{I}:0", k, _fmt(P[key])])
            for I, v in enumerate(s.V):
                for k in range(n):
                    w.writerow([t, "V", f"x:{I}:0", k, _fmt(v[k])])


def read_averages_csv(path: str) -> list[CoarseState]:
    """Coarse state series written by :func:`write_averages_csv`.

    Every continuum must be one of the C rows' 0..n-1, except that a P row
    may carry -1 (a per-block multiplier, which is not read back).  A
    malformed row raises :class:`ConfigError` naming the file and line; a
    missing C or V entry, or edges other than the blocks + 1, one naming
    the file; a second row for the same time, kind, location and
    continuum, one naming both lines.
    """
    rows = []
    first = {}  # (time, kind, location, continuum) -> where its row is
    for where, line in _data_rows(
            path, ["time", "kind", "location", "continuum", "value"]):
        if len(line) != 5:
            raise ConfigError(f"{where}: {len(line)} fields, expected 5")
        t, kind, loc, k, v = line
        if kind not in _LOCATIONS:
            raise ConfigError(f"{where}: unknown kind {kind!r}")
        pattern, what, form = _LOCATIONS[kind]
        hit = pattern.fullmatch(loc)
        if hit is None:
            raise ConfigError(
                f"{where}: {what} location {loc!r} is not {form}")
        try:
            t, k, v = float(t), int(k), float(v)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if k < (-1 if kind == "P" else 0):
            raise ConfigError(f"{where}: {kind} row of continuum {k}")
        entry = (t, kind, int(hit[1]), k)
        if entry in first:
            raise ConfigError(f"{where}: a second {kind} row at time "
                              f"{_fmt(t)}, {loc}, continuum {k}; the first "
                              f"is at {first[entry]}")
        first[entry] = where
        rows.append((*entry, v, where))
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    n = 1 + max((k for _t, kind, _loc, k, _v, _w in rows if kind == "C"),
                default=-1)
    if n == 0:
        raise ConfigError(f"{path}: no C rows")
    NI = 1 + max(loc for _t, kind, loc, _k, _v, _w in rows if kind != "V")
    NE = 1 + max((loc for _t, kind, loc, _k, _v, _w in rows if kind == "V"),
                 default=-1)
    times = sorted({t for t, *_ in rows})
    step_of = {t: step for step, t in enumerate(times)}
    Cs = np.zeros((len(times), NI, n))
    Ps = np.full((len(times), NI, n), np.nan)
    Vs = np.zeros((len(times), NE, n))
    seen = {"C": np.zeros(Cs.shape, bool), "V": np.zeros(Vs.shape, bool)}
    for t, kind, loc, k, v, where in rows:
        if k >= n:
            raise ConfigError(
                f"{where}: continuum {k} has no C rows (they cover 0..{n - 1})")
        step = step_of[t]
        if kind == "C":
            Cs[step, loc, k] = v
        elif kind == "V":
            Vs[step, loc, k] = v
        elif k >= 0:
            Ps[step, loc, k] = v
        if kind in seen:
            seen[kind][step, loc, k] = True
    if NE != NI + 1:
        raise ConfigError(f"{path}: {NE} edges for {NI} blocks, "
                          f"expected {NI + 1}")
    for kind, got in seen.items():
        if not got.all():
            step, loc, k = np.argwhere(~got)[0]
            where = _LOCATIONS[kind][2].replace("I", str(loc))
            raise ConfigError(f"{path}: no {kind} row at time "
                              f"{_fmt(times[step])}, {where}, continuum {k}")
    return [CoarseState(step=step, t=t, C=C, V=V, P=P)
            for step, (t, C, V, P) in enumerate(zip(times, Cs, Vs, Ps))]


def write_errors_csv(path: str, report) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "continuum", "value"])
        for name, k, v in report.rows():
            w.writerow([name, k, _fmt(v)])


# --- manifest -----------------------------------------------------------


def write_manifest(path: str, cfg, extra: dict | None = None) -> None:
    data = {
        "name": cfg.name,
        "config_hash": cfg.config_hash(),
        "seeds": {"ic": cfg.ic_seed, "mobility": LAM_SEED,
                  "particles": cfg.particle_seed},
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if extra:
        data.update(extra)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_pgm(path: str, field: np.ndarray, vmin: float = 0.0,
              vmax: float = 1.0) -> None:
    """Quicklook grayscale image (plain PGM), y upward."""
    scaled = np.clip((field - vmin) / (vmax - vmin), 0.0, 1.0)
    img = (scaled.T[::-1, :] * 255).astype(int)
    with open(path, "w") as fh:
        fh.write(f"P2\n{img.shape[1]} {img.shape[0]}\n255\n")
        for row in img:
            fh.write(" ".join(str(v) for v in row) + "\n")


def ensure_dir(path: str) -> str:
    """Create ``path``; one that cannot be a directory raises ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {path!r}: {exc.strerror}") from None
    return path
