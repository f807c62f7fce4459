"""Experiment configuration, named presets, and INI round-trip."""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
from dataclasses import dataclass

import numpy as np

from . import ic as icmod
from .continua import ContinuumSpec, classify_values
from .exceptions import ConfigError
from .fine import FlowBC
from .grids import CoarseGrid, DomainLayout, _parse_rule, build_layout

_APPROACH_BC = {"mixed-gravity": "noflow", "mixed-viscous": "inflow-outlet",
                "galerkin": "dirichlet-x"}


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "custom"
    approach: str = "mixed-gravity"  # mixed-gravity | mixed-viscous | galerkin

    # geometry (target domain)
    L1: float = 9.0
    L2: float = 3.0
    nx: int = 120
    ny: int = 36
    Nx: int = 5  # coarse blocks along x, each one full height
    extension: str = "none"  # none | two-sided | right
    ext_margin: float = 0.0
    flow_refine: int = 2
    layers: int = 6
    extension_rule: str = "periodic-left,reflect-right"

    # continua
    thresholds: tuple = (0.5,)

    # mobility
    lam_kind: str = "constant"  # constant | contrast | random-field | file
    lam_value: float = 1.0
    lam_hi: float = 1000.0
    lam_lo: float = 1.0
    lam_seed: int = 7
    lam_min: float = 0.3
    lam_max: float = 3.0
    lam_corr_cells: float = 5.0
    lam_file: str = ""

    # boundary conditions / gravity
    gravity: bool = True
    bc_kind: str = "noflow"  # noflow | inflow-outlet | dirichlet-x
    g_in: float = -1.0
    p_in: float = 1.0
    p_out: float = 0.0

    # initial condition
    ic_kind: str = "finger-pattern"  # finger-pattern | wave-interface | file
    plateaus: tuple = icmod.DUAL_PLATEAUS
    ic_seed: int = 1
    band_lo: int = 3
    band_hi: int = 7
    wiggle: float = 0.45
    ic_centers: tuple = ()
    wave_x0: float = 3.0
    wave_amplitude: float = 0.6
    wave_periods: float = 3.0
    wave_high: float = 1.0
    wave_low: float = 0.333
    ic_file: str = ""

    # time stepping
    tau: float = 3.33e-2
    steps: int = 120
    pre_steps: int = 0
    tau_coarse: float = 3.33e-2
    coarse_steps: int = 120
    substeps: int = 1
    scheme: str = "particles"
    particles_per_cell: int = 32
    particle_seed: int = 0

    def __post_init__(self):
        if not self.tau > 0:
            raise ConfigError(f"tau={self.tau} must be positive")
        if self.substeps < 1:
            raise ConfigError(f"substeps={self.substeps} must be >= 1")
        if self.layers < 0:
            raise ConfigError(f"layers={self.layers} must be >= 0")
        _parse_rule(self.extension_rule)
        for name in ("pre_steps", "coarse_steps"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"{name}={getattr(self, name)} must be >= 0")
        if not self.plateaus:
            raise ConfigError("plateaus must name at least one value")
        if self.ic_kind == "stripe-fingers" and not self.ic_centers:
            raise ConfigError("stripe-fingers needs its finger tip in "
                              "ic_centers")
        if not 1 <= self.band_lo <= self.band_hi:
            raise ConfigError(
                f"band heights need 1 <= band_lo <= band_hi, got "
                f"{self.band_lo}, {self.band_hi}")
        if self.pre_steps + self.coarse_steps * self.substeps > self.steps:
            raise ConfigError(
                "coarse horizon exceeds the fine horizon: "
                f"{self.pre_steps} + {self.coarse_steps} x {self.substeps} "
                f"> {self.steps}")
        if abs(self.tau_coarse - self.substeps * self.tau) > 1e-12 * self.tau:
            raise ConfigError(
                f"tau_coarse={self.tau_coarse} != substeps x tau "
                f"= {self.substeps * self.tau}")
        if self.approach == "mixed-viscous" and len(self.thresholds) != 1:
            raise ConfigError("mixed-viscous interface bases need exactly 2 "
                              f"continua, got {len(self.thresholds) + 1}")
        if self.approach not in _APPROACH_BC:
            raise ConfigError(f"unknown approach {self.approach!r}")
        if self.bc_kind != _APPROACH_BC[self.approach]:
            raise ConfigError(
                f"approach {self.approach!r} needs bc_kind="
                f"{_APPROACH_BC[self.approach]!r}, got {self.bc_kind!r}")
        if self.Nx < 1 or self.nx % self.Nx:
            raise ConfigError(
                f"Nx={self.Nx} coarse blocks do not divide fine nx={self.nx}")
        refined = self.Nx * self.flow_refine
        if self.approach == "galerkin" and (refined < 1 or self.nx % refined):
            raise ConfigError(
                f"Galerkin flow grid of Nx x flow_refine = {refined} blocks "
                f"does not divide fine nx={self.nx}")

    # --- derived objects ----------------------------------------------

    def continuum_spec(self) -> ContinuumSpec:
        return ContinuumSpec(thresholds=tuple(self.thresholds))

    def layout(self) -> DomainLayout:
        return build_layout(self.L1, self.L2, self.nx, self.ny,
                            extension=self.extension,
                            ext_margin=self.ext_margin)

    def extended_coarse(self, layout: DomainLayout) -> CoarseGrid:
        """Coarse grid covering the full (possibly extended) fine domain."""
        ext = layout.extended_fine
        width = self.L1 / self.Nx
        total = ext.L1 / width
        if abs(total - round(total)) > 1e-9:
            raise ConfigError(
                f"extension margin {self.ext_margin} is not a whole number "
                f"of coarse blocks (width {width})")
        return CoarseGrid(ext, int(round(total)))

    def target_block_offset(self, layout: DomainLayout) -> int:
        width = self.L1 / self.Nx
        off = -layout.extended_fine.x0 / width
        if abs(off - round(off)) > 1e-9:
            raise ConfigError("target domain not aligned with coarse blocks")
        return int(round(off))

    def mobility(self, grid):
        """Callable c -> lam field on ``grid``."""
        spec = self.continuum_spec()
        if self.lam_kind == "constant":
            lam = np.full((grid.nx, grid.ny), self.lam_value)
            return lambda c: lam
        if self.lam_kind == "contrast":
            return icmod.two_valued_mobility(
                self.lam_hi, self.lam_lo,
                lambda c: classify_values(c, spec))
        if self.lam_kind == "random-field":
            lam = icmod.smooth_log_uniform_field(
                grid, self.lam_seed, self.lam_min, self.lam_max,
                corr_cells=self.lam_corr_cells)
            return lambda c: lam
        if self.lam_kind == "file":
            from .io import read_cell_csv
            lam = read_cell_csv(self.lam_file, grid.nx, grid.ny)
            return lambda c: lam
        raise ConfigError(f"unknown mobility kind {self.lam_kind!r}")

    def initial_condition(self, grid) -> np.ndarray:
        if self.ic_kind == "finger-pattern":
            return icmod.finger_pattern(
                grid, plateaus=tuple(self.plateaus), seed=self.ic_seed,
                band_cells=(self.band_lo, self.band_hi), wiggle=self.wiggle,
                centers=list(self.ic_centers) or None)
        if self.ic_kind == "stripe-fingers":
            return icmod.stripe_fingers(
                grid, high=self.plateaus[0], low=self.plateaus[-1],
                seed=self.ic_seed,
                band_cells=(self.band_lo, self.band_hi),
                tip=self.ic_centers[0], wiggle=self.wiggle)
        if self.ic_kind == "wave-interface":
            return icmod.wave_interface(grid, self.wave_x0,
                                        self.wave_amplitude,
                                        self.wave_periods,
                                        high=self.wave_high,
                                        low=self.wave_low)
        if self.ic_kind == "file":
            from .io import read_cell_csv
            return read_cell_csv(self.ic_file, grid.nx, grid.ny)
        raise ConfigError(f"unknown IC kind {self.ic_kind!r}")

    def flow_bc(self, grid) -> FlowBC:
        if self.bc_kind == "noflow":
            return FlowBC()
        if self.bc_kind == "inflow-outlet":
            return FlowBC(left=("flux", self.g_in),
                          right=("pressure", self.p_out))
        if self.bc_kind == "dirichlet-x":
            return FlowBC(left=("pressure", self.p_in),
                          right=("pressure", self.p_out))
        raise ConfigError(f"unknown BC kind {self.bc_kind!r}")

    def config_hash(self) -> str:
        text = repr(sorted(dataclasses.asdict(self).items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- INI round-trip ----------------------------------------------------

_SECTIONS = {
    "experiment": ("name", "approach"),
    "geometry": ("L1", "L2", "nx", "ny", "Nx", "extension",
                 "ext_margin", "flow_refine", "layers", "extension_rule"),
    "continua": ("thresholds",),
    "mobility": ("lam_kind", "lam_value", "lam_hi", "lam_lo", "lam_seed",
                 "lam_min", "lam_max", "lam_corr_cells", "lam_file"),
    "bc": ("gravity", "bc_kind", "g_in", "p_in", "p_out"),
    "ic": ("ic_kind", "plateaus", "ic_seed", "band_lo", "band_hi", "wiggle",
           "ic_centers", "wave_x0", "wave_amplitude", "wave_periods",
           "wave_high", "wave_low", "ic_file"),
    "time": ("tau", "steps", "pre_steps", "tau_coarse", "coarse_steps",
             "substeps", "scheme", "particles_per_cell", "particle_seed"),
}

_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _parse_value(name: str, raw: str):
    f = _FIELDS[name]
    tp = f.type if not isinstance(f.type, str) else f.type
    raw = raw.strip()
    if tp in ("bool", bool):
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    if tp in ("int", int):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{name}: expected an integer, got {raw!r}"
                              ) from exc
    if tp in ("float", float):
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{name}: expected a number, got {raw!r}"
                              ) from exc
    if tp in ("tuple", tuple):
        if not raw:
            return ()
        parts = [p for p in raw.split(",") if p.strip()]
        out = []
        for p in parts:
            try:
                v = float(p)
                out.append(int(v) if v == int(v) and "." not in p else v)
            except ValueError as exc:
                raise ConfigError(f"{name}: bad tuple entry {p!r}") from exc
        return tuple(out)
    return raw


def to_ini(cfg: ExperimentConfig) -> str:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys are case-sensitive (nx vs Nx)
    data = dataclasses.asdict(cfg)
    for section, names in _SECTIONS.items():
        cp[section] = {}
        for name in names:
            v = data[name]
            if isinstance(v, tuple):
                v = ",".join(repr(x) for x in v)
            cp[section][name] = str(v)
    import io as _io
    buf = _io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def from_ini(text: str, base: ExperimentConfig | None = None
             ) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys are case-sensitive (nx vs Nx)
    cp.read_string(text)
    updates = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for name, raw in cp[section].items():
            if name not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {name!r} in [{section}]")
            updates[name] = _parse_value(name, raw)
    base = base or ExperimentConfig()
    return dataclasses.replace(base, **updates)


def apply_overrides(cfg: ExperimentConfig, pairs) -> ExperimentConfig:
    """Apply ``key=value`` override strings (keys as in the INI file)."""
    updates = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not key=value")
        name, raw = pair.split("=", 1)
        name = name.strip()
        if name not in _FIELDS:
            raise ConfigError(f"unknown config key {name!r}")
        updates[name] = _parse_value(name, raw)
    return dataclasses.replace(cfg, **updates)


# --- named presets -----------------------------------------------------


def _gravity(name, *, triple=False, hetero=False, paper=False):
    return ExperimentConfig(
        name=name, approach="mixed-gravity",
        nx=280 if paper else 120, ny=90 if paper else 36,
        Nx=10 if paper else 5,
        extension="two-sided", ext_margin=1.8,
        thresholds=(0.8, 0.4) if triple else (0.5,),
        lam_kind="random-field" if hetero else "constant",
        gravity=True, bc_kind="noflow",
        ic_kind="finger-pattern",
        plateaus=icmod.TRIPLE_PLATEAUS if triple else icmod.DUAL_PLATEAUS,
        ic_seed=17 if triple else 1,
        band_lo=5, band_hi=9,
        wiggle=0.38 if triple else 0.45,
        tau=4e-2 if triple else 3.33e-2,
        steps=150 if triple else 120,
        tau_coarse=4e-2 if triple else 3.33e-2,
        coarse_steps=150 if triple else 120,
        scheme="particles")


def _viscous(name, *, paper=False):
    return ExperimentConfig(
        name=name, approach="mixed-viscous",
        nx=280 if paper else 120, ny=90 if paper else 36,
        Nx=10 if paper else 5,
        extension="right", ext_margin=1.8,
        thresholds=(0.5,),
        lam_kind="contrast", lam_hi=1000.0, lam_lo=1.0,
        gravity=False, bc_kind="inflow-outlet", g_in=-1.0, p_out=0.0,
        ic_kind="stripe-fingers", plateaus=icmod.DUAL_PLATEAUS,
        ic_centers=(0.8,), wiggle=0.05, band_lo=7, band_hi=11, ic_seed=4,
        tau=1.88e-3, steps=270, pre_steps=120,
        tau_coarse=1.88e-3, coarse_steps=150,
        scheme="particles")


def _interface(name, *, paper=False):
    return ExperimentConfig(
        name=name, approach="galerkin",
        nx=280 if paper else 120, ny=90 if paper else 40,
        Nx=10, flow_refine=2, layers=6,
        extension="none",
        thresholds=(0.5,),
        lam_kind="contrast", lam_hi=1000.0, lam_lo=1.0,
        gravity=False, bc_kind="dirichlet-x", p_in=1.0, p_out=0.0,
        ic_kind="wave-interface", wave_x0=3.0, wave_amplitude=0.6,
        wave_periods=3.0,
        tau=1.5e-4, steps=1000,
        tau_coarse=1.5e-3, coarse_steps=100, substeps=10,
        scheme="upwind")


def _smoke():
    return ExperimentConfig(
        name="smoke", approach="mixed-gravity",
        nx=8, ny=4, Nx=2, extension="none",
        thresholds=(0.5,), lam_kind="constant",
        gravity=True, bc_kind="noflow",
        ic_kind="finger-pattern",
        tau=2e-2, steps=5, tau_coarse=2e-2, coarse_steps=5,
        band_lo=1, band_hi=2, scheme="upwind")


def presets() -> dict:
    out = {
        "smoke": _smoke(),
        "gravity-dual": _gravity("gravity-dual"),
        "gravity-triple": _gravity("gravity-triple", triple=True),
        "gravity-dual-hetero": _gravity("gravity-dual-hetero", hetero=True),
        "gravity-triple-hetero": _gravity("gravity-triple-hetero",
                                          triple=True, hetero=True),
        "viscous": _viscous("viscous"),
        "interface": _interface("interface"),
        "gravity-dual-paper": _gravity("gravity-dual-paper", paper=True),
        "gravity-triple-paper": _gravity("gravity-triple-paper", triple=True,
                                         paper=True),
        "viscous-paper": _viscous("viscous-paper", paper=True),
        "interface-paper": _interface("interface-paper", paper=True),
    }
    return out


def get_preset(name: str) -> ExperimentConfig:
    table = presets()
    if name not in table:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(table)}")
    return table[name]
