"""Experiment configuration, named presets, and INI round-trip."""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import ic as icmod
from .continua import ContinuumSpec, classify_values
from .exceptions import ConfigError
from .fine import FlowBC
from .grids import EXTENSION_KINDS, CoarseGrid, DomainLayout, build_layout
from .macro import FLOW_REFINE, G_IN, P_IN, P_OUT, galerkin_flow

# Every model problem of the paper shares these values, so none is a key.
L1, L2 = 9.0, 3.0  # the target domain
EXT_MARGIN = 1.8  # an extension's width per side ('right' takes both)
# the wave interface x = x0 + A sin(2 pi k y / L2)
WAVE_X0, WAVE_AMPLITUDE, WAVE_PERIODS = 3.0, 0.6, 3.0
LAM_SEED, LAM_CORR_CELLS = 7, 5.0  # the random field's texture

# the names each kind field accepts
_KINDS = (("approach", ("mixed-gravity", "mixed-viscous", "galerkin")),
          ("extension", EXTENSION_KINDS),
          ("lam_kind", ("constant", "contrast", "random-field", "file")),
          ("ic_kind", ("finger-pattern", "stripe-fingers", "wave-interface",
                       "file")),
          ("scheme", ("upwind", "particles")))


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "custom"
    approach: str = "mixed-gravity"  # mixed-gravity | mixed-viscous | galerkin

    # geometry (target domain L1 x L2)
    nx: int = 120
    ny: int = 36
    Nx: int = 5  # coarse blocks along x, each one full height
    extension: str = "none"  # none | two-sided | right

    # continua
    thresholds: tuple = (0.5,)

    # mobility
    lam_kind: str = "constant"  # constant (1) | contrast | random-field | file
    lam_hi: float = 1000.0  # contrast: lam of continuum 0; random-field: top
    lam_lo: float = 1.0  # contrast: lam of the others; random-field: bottom
    lam_file: str = ""

    # initial condition
    ic_kind: str = "finger-pattern"  # finger-pattern | wave-interface | file
    plateaus: tuple = icmod.DUAL_PLATEAUS
    ic_seed: int = 1
    band_lo: int = 3
    band_hi: int = 7
    wiggle: float = 0.45
    ic_centers: tuple = ()
    ic_file: str = ""

    # time stepping
    tau: float = 3.33e-2
    steps: int = 120
    pre_steps: int = 0
    tau_coarse: float = 3.33e-2
    coarse_steps: int = 120
    scheme: str = "particles"
    particle_seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            values = value if f.type == "tuple" else (value,)
            if f.type in ("int", "float", "tuple") and not all(
                    isinstance(v, int) or math.isfinite(v) for v in values):
                raise ConfigError(f"{f.name}={value} must be finite")
        for name, known in _KINDS:
            if getattr(self, name) not in known:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}; "
                                  f"known: {', '.join(known)}")
        for name in ("tau", "lam_lo", "lam_hi"):
            if not getattr(self, name) > 0:
                raise ConfigError(
                    f"{name}={getattr(self, name)} must be positive")
        whole = math.isfinite(self.tau_coarse / self.tau) and self.substeps >= 1
        if not whole or (abs(self.tau_coarse - self.substeps * self.tau)
                         > 1e-12 * self.tau):
            raise ConfigError(
                f"tau_coarse={self.tau_coarse} must be a whole multiple "
                f"(>= 1) of tau={self.tau}")
        for name in ("pre_steps", "coarse_steps", "wiggle", "ic_seed",
                     "particle_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"{name}={getattr(self, name)} must be >= 0")
        for kind, path in (("lam_kind", "lam_file"), ("ic_kind", "ic_file")):
            if getattr(self, kind) == "file" and not getattr(self, path):
                raise ConfigError(f"{kind}=file needs {path}")
        icmod.check_plateaus(self.plateaus)
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
        if self.approach == "mixed-viscous" and len(self.thresholds) != 1:
            raise ConfigError("mixed-viscous interface bases need exactly 2 "
                              f"continua, got {len(self.thresholds) + 1}")
        if self.Nx < 1 or self.nx % self.Nx:
            raise ConfigError(
                f"Nx={self.Nx} coarse blocks do not divide fine nx={self.nx}")
        if self.approach == "galerkin":
            galerkin_flow(self.extended_coarse(self.layout()))

    # --- derived objects ----------------------------------------------

    @property
    def substeps(self) -> int:
        """Fine steps per coarse step, the whole number tau_coarse / tau."""
        return round(self.tau_coarse / self.tau)

    @property
    def flow_refine(self) -> int:
        """Galerkin flow blocks per coarse block, ``macro.FLOW_REFINE``."""
        return FLOW_REFINE

    @property
    def gravity(self) -> bool:
        """Buoyancy drives the flow in the closed box of mixed-gravity only."""
        return self.approach == "mixed-gravity"

    def continuum_spec(self) -> ContinuumSpec:
        return ContinuumSpec(thresholds=tuple(self.thresholds))

    def layout(self) -> DomainLayout:
        return build_layout(L1, L2, self.nx, self.ny,
                            extension=self.extension,
                            ext_margin=EXT_MARGIN)

    def extended_coarse(self, layout: DomainLayout) -> CoarseGrid:
        """Coarse grid covering the full (possibly extended) fine domain."""
        ext = layout.extended_fine
        width = L1 / self.Nx
        total = ext.L1 / width
        if abs(total - round(total)) > 1e-9:
            raise ConfigError(
                f"extension margin {EXT_MARGIN} is not a whole number "
                f"of coarse blocks (width {width})")
        return CoarseGrid(ext, int(round(total)))

    def target_block_offset(self, layout: DomainLayout) -> int:
        mx = self.nx // self.Nx
        if layout.offset_x % mx:
            raise ConfigError("target domain not aligned with coarse blocks")
        return layout.offset_x // mx

    def mobility(self, grid):
        """Callable c -> lam field on ``grid``."""
        spec = self.continuum_spec()
        if self.lam_kind == "constant":
            lam = np.ones((grid.nx, grid.ny))
            return lambda c: lam
        if self.lam_kind == "contrast":
            return icmod.two_valued_mobility(
                self.lam_hi, self.lam_lo,
                lambda c: classify_values(c, spec))
        if self.lam_kind == "random-field":
            lam = icmod.smooth_log_uniform_field(
                grid, LAM_SEED, self.lam_lo, self.lam_hi,
                corr_cells=LAM_CORR_CELLS)
            return lambda c: lam
        from .io import read_cell_csv  # lam_kind == "file"
        lam = read_cell_csv(self.lam_file, grid.nx, grid.ny)
        return lambda c: lam

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
            return icmod.wave_interface(grid, WAVE_X0, WAVE_AMPLITUDE,
                                        WAVE_PERIODS, high=self.plateaus[0],
                                        low=self.plateaus[-1])
        from .io import read_cell_csv  # ic_kind == "file"
        return read_cell_csv(self.ic_file, grid.nx, grid.ny)

    def flow_bc(self, grid) -> FlowBC:
        """The approach's flow problem: a closed box (mixed-gravity), an
        inflow flux with an outlet pressure (mixed-viscous) or a pressure
        drop along x (galerkin)."""
        if self.approach == "mixed-viscous":
            return FlowBC(left=("flux", G_IN), right=("pressure", P_OUT))
        if self.approach == "galerkin":
            return FlowBC(left=("pressure", P_IN), right=("pressure", P_OUT))
        return FlowBC()

    def config_hash(self) -> str:
        text = repr(sorted(dataclasses.asdict(self).items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- INI round-trip ----------------------------------------------------

_SECTIONS = {
    "experiment": ("name", "approach"),
    "geometry": ("nx", "ny", "Nx", "extension"),
    "continua": ("thresholds",),
    "mobility": ("lam_kind", "lam_hi", "lam_lo", "lam_file"),
    "ic": ("ic_kind", "plateaus", "ic_seed", "band_lo", "band_hi", "wiggle",
           "ic_centers", "ic_file"),
    "time": ("tau", "steps", "pre_steps", "tau_coarse", "coarse_steps",
             "scheme", "particle_seed"),
}

_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _parse_value(name: str, raw: str):
    tp = _FIELDS[name].type
    raw = raw.strip()
    if tp == "int":
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{name}: expected an integer, got {raw!r}"
                              ) from exc
    if tp == "float":
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{name}: expected a number, got {raw!r}"
                              ) from exc
    if tp == "tuple":
        if not raw:
            return ()
        parts = [p for p in raw.split(",") if p.strip()]
        out = []
        for p in parts:
            try:
                v = float(p)
                out.append(int(v) if v.is_integer() and "." not in p else v)
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


def from_ini(text: str, base: ExperimentConfig | None = None,
             source: str = "<string>") -> ExperimentConfig:
    """The config of INI ``text`` over ``base``; every :class:`ConfigError`
    it raises (a malformed text, an unknown section or key, a bad value or
    config) names ``source``, the file it was read from."""
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys are case-sensitive (nx vs Nx)
    try:
        cp.read_string(text, source=source)
        updates = {}
        for section in cp.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            for name, raw in cp[section].items():
                if name not in _SECTIONS[section]:
                    raise ConfigError(f"unknown key {name!r} in [{section}]")
                updates[name] = _parse_value(name, raw)
        return dataclasses.replace(base or ExperimentConfig(), **updates)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: malformed INI: "
                          + " ".join(str(exc).split())) from None
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


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
        extension="two-sided",
        thresholds=(0.8, 0.4) if triple else (0.5,),
        lam_kind="random-field" if hetero else "constant",
        **({"lam_lo": 0.3, "lam_hi": 3.0} if hetero else {}),
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
        extension="right",
        thresholds=(0.5,),
        lam_kind="contrast", lam_hi=1000.0, lam_lo=1.0,
        ic_kind="stripe-fingers", plateaus=icmod.DUAL_PLATEAUS,
        ic_centers=(0.8,), wiggle=0.05, band_lo=7, band_hi=11, ic_seed=4,
        tau=1.88e-3, steps=270, pre_steps=120,
        tau_coarse=1.88e-3, coarse_steps=150,
        scheme="particles")


def _interface(name, *, paper=False):
    return ExperimentConfig(
        name=name, approach="galerkin",
        nx=280 if paper else 120, ny=90 if paper else 40,
        Nx=10, extension="none",
        thresholds=(0.5,),
        lam_kind="contrast", lam_hi=1000.0, lam_lo=1.0,
        ic_kind="wave-interface",
        tau=1.5e-4, steps=1000,
        tau_coarse=1.5e-3, coarse_steps=100,
        scheme="upwind")


def _smoke():
    return ExperimentConfig(
        name="smoke", approach="mixed-gravity",
        nx=8, ny=4, Nx=2, extension="none",
        thresholds=(0.5,), lam_kind="constant",
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
