"""Error norms comparing homogenized coarse series against reference averages."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError

NEAR_ZERO_FRACTION = 1e-8


@dataclass
class VelocityErrors:
    relative: np.ndarray  # per continuum, percent (NaN where near-zero rule)
    absolute: np.ndarray  # per continuum
    global_relative: float  # percent, whole multicontinuum field
    near_zero: np.ndarray  # mask of continua where the absolute variant rules


def velocity_errors(V_ref: np.ndarray, V_mh: np.ndarray,
                    n: int) -> VelocityErrors:
    """Edge-L2 errors of V_mh against V_ref, both (edges, continua)."""
    if V_ref.shape != V_mh.shape:
        raise ConfigError(f"edge series misaligned: V shapes {V_ref.shape} "
                          f"and {V_mh.shape}")
    ref = V_ref[:, :n]
    diff = V_mh[:, :n] - ref
    nk = np.sqrt((ref ** 2).sum(axis=0))
    ab = np.sqrt((diff ** 2).sum(axis=0))
    gnorm = float(np.sqrt((ref ** 2).sum()))
    near = nk < NEAR_ZERO_FRACTION * gnorm
    rel = np.full(n, np.nan)
    ok = ~near & (nk > 0)
    rel[ok] = ab[ok] / nk[ok] * 100.0
    gdiff = float(np.sqrt((diff ** 2).sum()))
    grel = gdiff / gnorm * 100.0 if gnorm > 0 else 0.0
    return VelocityErrors(relative=rel, absolute=ab, global_relative=grel,
                          near_zero=near)


def concentration_errors(C_a: np.ndarray, C_b: np.ndarray,
                         block_sel) -> np.ndarray:
    """Relative block-L2 errors of C_a against C_b, percent per continuum."""
    if C_a.shape != C_b.shape:
        raise ConfigError(f"block series misaligned: C shapes {C_a.shape} "
                          f"and {C_b.shape}")
    a = C_a[block_sel]
    b = C_b[block_sel]
    n = a.shape[-1]
    out = np.zeros(n)
    for k in range(n):
        ref = float(np.sqrt((b[..., k] ** 2).sum()))
        diff = float(np.sqrt(((a[..., k] - b[..., k]) ** 2).sum()))
        out[k] = diff / ref * 100.0 if ref > 0 else (0.0 if diff == 0 else np.inf)
    return out


@dataclass
class ErrorReport:
    """Final-time and per-time errors of a pair of homogenized runs.

    e_C rows follow the three comparisons: homogenized-with-reference-
    velocities vs reference, homogenized-with-homogenized-velocities vs
    reference, and between the two homogenized series.
    """

    n: int
    times: list
    eV: VelocityErrors  # final time, V^mh vs V^ref
    eC_ref_vel: np.ndarray  # C^mh(V^ref) vs C^ref, final, percent
    eC_mh_vel: np.ndarray  # C^mh(V^mh) vs C^ref
    eC_between: np.ndarray  # C^mh(V^mh) vs C^mh(V^ref)
    eV_series: list = field(default_factory=list)
    eC_series: dict = field(default_factory=dict)
    ordering_ok: bool = True

    def rows(self):
        for k in range(self.n):
            yield ("e_V_rel", k, self.eV.relative[k])
            yield ("e_V_abs", k, self.eV.absolute[k])
        yield ("e_V_global", -1, self.eV.global_relative)
        for name, arr in (("e_C_refvel", self.eC_ref_vel),
                          ("e_C_mhvel", self.eC_mh_vel),
                          ("e_C_between", self.eC_between)):
            for k in range(self.n):
                yield (name, k, arr[k])
        yield ("ordering_ok", -1, float(self.ordering_ok))


def check_times(reference: list, other: list, name: str) -> None:
    """Reject a series ``other`` whose times are not those of
    ``reference``, naming it and the first times it lacks, or whose first
    state's C or V shape (blocks or edges by continua) is not the
    reference's, naming it and both shapes."""
    times_r = [s.t for s in reference]
    times_o = [s.t for s in other]
    if len(times_o) != len(times_r) or np.max(
            np.abs(np.asarray(times_o) - np.asarray(times_r))) > 1e-12:
        missing = sorted(set(np.round(times_r, 12).tolist())
                         - set(np.round(times_o, 12).tolist()))
        raise ConfigError(f"series {name} misaligned; missing {missing[:5]}")
    for kind in ("C", "V"):
        a, b = (np.shape(getattr(s[0], kind)) for s in (reference, other))
        if a != b:
            raise ConfigError(
                f"series {name} misaligned: {kind} shapes {a} and {b}")


def compute_errors(reference: list, mh_refvel: list, mh_mhvel: list,
                   n: int, block_sel=np.s_[:], edge_sel=np.s_[:]
                   ) -> ErrorReport:
    """Full report over aligned coarse state series.

    ``reference`` carries the averaged fine solution; the other two are the
    homogenized runs driven by reference and homogenized velocities.
    ``block_sel`` (blocks) and ``edge_sel`` (rows of V) restrict the norms
    to the target region.
    """
    for other, tag in ((mh_refvel, "mh(V_ref)"), (mh_mhvel, "mh(V_mh)")):
        check_times(reference, other, tag)

    eV_series = [velocity_errors(r.V[edge_sel], m.V[edge_sel], n)
                 for r, m in zip(reference, mh_mhvel)]
    eC_series = {
        "refvel": [concentration_errors(m.C, r.C, block_sel)
                   for r, m in zip(reference, mh_refvel)],
        "mhvel": [concentration_errors(m.C, r.C, block_sel)
                  for r, m in zip(reference, mh_mhvel)],
        "between": [concentration_errors(m.C, b.C, block_sel)
                    for b, m in zip(mh_refvel, mh_mhvel)],
    }
    final_refvel = eC_series["refvel"][-1]
    final_mhvel = eC_series["mhvel"][-1]
    ordering = bool(np.all(final_refvel <= final_mhvel + 1e-12))
    return ErrorReport(n=n, times=[s.t for s in reference], eV=eV_series[-1],
                       eC_ref_vel=final_refvel, eC_mh_vel=final_mhvel,
                       eC_between=eC_series["between"][-1],
                       eV_series=eV_series, eC_series=eC_series,
                       ordering_ok=ordering)
