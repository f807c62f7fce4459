"""The benchmark's workloads: desk presets, shortened, with their bands.

Each workload is one desk preset run end to end.  The benchmark runs it
shortened so that one run can take several fresh-process samples; the
shortening keeps the layers that dominate the full-length run (see
README.md).  ``--full`` runs the preset at its own length.

This module imports nothing from dynmc, numpy or scipy, so the parent
process of the benchmark stays light.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PRESET_PARTICLE_SEED = 0  # particle_seed of every desk preset


def nanmax(values) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return max(finite) if finite else math.nan


def _gravity_band(r: dict) -> list[str]:
    """Acceptance criterion 6 (tests/test_acceptance.py)."""
    out = []
    eC = r["eC_ref_vel"] + r["eC_mh_vel"] + r["eC_between"]
    if not nanmax(r["eV_rel"]) <= 15.0:
        out.append(f"criterion 6: e_V max {nanmax(r['eV_rel']):.3f}% > 15")
    if not nanmax(eC) <= 6.0:
        out.append(f"criterion 6: e_C max {nanmax(eC):.3f}% > 6")
    return out


def _viscous_band(r: dict) -> list[str]:
    """Acceptance criterion 8 (tests/test_acceptance.py)."""
    out = []
    eV = r["eV_rel"]
    eC = r["eC_ref_vel"] + r["eC_mh_vel"]
    if not (eV[0] <= 2.0 and eV[1] <= 6.0):
        out.append(f"criterion 8: e_V {eV} not <= [2, 6]")
    if not nanmax(eC) <= 8.0:
        out.append(f"criterion 8: e_C max {nanmax(eC):.3f}% > 8")
    if not nanmax(r["eC_between"]) <= 1.5:
        out.append(f"criterion 8: e_C between max "
                   f"{nanmax(r['eC_between']):.3f}% > 1.5")
    return out


def _interface_band(r: dict) -> list[str]:
    """Acceptance criterion 9 (tests/test_acceptance.py)."""
    out = []
    eC = r["eC_ref_vel"] + r["eC_mh_vel"]
    if not nanmax(r["eV_rel"]) <= 10.0:
        out.append(f"criterion 9: e_V max {nanmax(r['eV_rel']):.3f}% > 10")
    if not nanmax(eC) <= 5.0:
        out.append(f"criterion 9: e_C max {nanmax(eC):.3f}% > 5")
    if abs(r["tau_ratio"] - 10.0) > 1e-11:
        out.append(f"criterion 9: tau_coarse/tau {r['tau_ratio']} != 10")
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    short: dict  # config overrides of the benchmark's shortened run
    seeded: bool  # --seed becomes particle_seed; else no random input
    band: object  # report dict -> list of violated band conditions

    def overrides(self, seed: int, full: bool) -> dict:
        out = {} if full else dict(self.short)
        if self.seeded:
            out["particle_seed"] = seed
        return out

    def band_applies(self, seed: int) -> bool:
        """Bands were set on the presets' own particle seed; other seeds
        only have to give finite errors."""
        return not self.seeded or seed == PRESET_PARTICLE_SEED


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="gravity-dual", preset="gravity-dual",
            short={"steps": 30, "coarse_steps": 30},
            seeded=True, band=_gravity_band),
        Workload(
            name="viscous", preset="viscous",
            short={"pre_steps": 40, "steps": 70, "coarse_steps": 30},
            seeded=True, band=_viscous_band),
        Workload(
            name="interface", preset="interface",
            short={"steps": 400, "coarse_steps": 40},
            seeded=False, band=_interface_band),
    )
}
