"""Experiment configuration: strict schema, canonical serialization, hashing.

Configs are JSON objects with one sub-object per concern. Unknown keys are
rejected everywhere -- a silently ignored typo in a physical constant would
invalidate an experiment. The ``kernel``, ``sim`` and ``kde`` sections are
the library's own parameter dataclasses, so a loaded config is passed to
the planner and the closed loop as it is. The canonical serialization
(sorted keys, repr floats) backs a content hash that output files embed so
any artifact can be traced to the exact configuration that produced it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral
from pathlib import Path

import numpy as np

from .feasibility import GoalRegion
from .grids import GridSpec
from .kde import KdeParams
from .kernel import KernelParams
from .microsim import SimParams
from .torus import PI


class ConfigError(ValueError):
    pass


def _check_keys(section: str, data: dict, allowed: set[str]):
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) in '{section}': {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


def _check_literal(where: str, value, flag: bool = False):
    """Reject JSON true/false outside a flag field, and NaN or Infinity,
    which Python's json parses but no field takes; list items too."""
    for item in value if isinstance(value, list) else (value,):
        if isinstance(item, bool) and not flag:
            raise ConfigError(f"{where} = {value!r}: expected a number, not true/false")
        if isinstance(item, float) and not math.isfinite(item):
            raise ConfigError(f"{where} = {value!r}: not a finite number")


def _section(cls, section: str, data: dict):
    types = {f.name: f.type for f in fields(cls)}
    _check_keys(section, data, set(types))
    for key, value in data.items():
        _check_literal(f"invalid '{section}' section: {section}.{key}", value,
                       flag=types[key] in ("bool", bool))
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        # name the one field without which the section builds, else a field
        # that fails on its own; a clash between fields (a horizon shorter
        # than the step) is reported for the section
        def builds(values: dict) -> bool:
            try:
                cls(**values)
            except (TypeError, ValueError):
                return False
            return True

        culprits = [key for key in data
                    if builds({k: v for k, v in data.items() if k != key})]
        if len(culprits) == 1:
            (key,) = culprits
            raise ConfigError(f"invalid '{section}' section: "
                              f"{section}.{key} = {data[key]!r}: {exc}") from exc
        for key, value in data.items():
            try:
                cls(**{key: value})
            except (TypeError, ValueError) as field_exc:
                raise ConfigError(f"invalid '{section}' section: "
                                  f"{section}.{key} = {value!r}: {field_exc}") from exc
        raise ConfigError(f"invalid '{section}' section: {exc}") from exc


@dataclass(frozen=True)
class DomainConfig:
    arena_half_width: float | None = None  # null: report positions on the torus

    def __post_init__(self):
        if self.arena_half_width is not None and not self.arena_half_width > 0:
            raise ValueError("arena half width must be positive")


@dataclass(frozen=True)
class GoalConfig:
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = PI / 2

    def __post_init__(self):
        # JSON gives a list; a tuple keeps the frozen config comparable
        object.__setattr__(self, "center", tuple(self.center))
        self.region()

    def region(self) -> GoalRegion:
        return GoalRegion(center=np.asarray(self.center), radius=self.radius)


@dataclass(frozen=True)
class TargetDensityConfig:
    concentration: float | None = None  # null: 3 / goal radius
    cross_term: bool = False

    def __post_init__(self):
        if self.concentration is not None and not self.concentration > 0:
            raise ValueError("concentration must be positive")


@dataclass(frozen=True)
class PopulationConfig:
    n_targets: int = 720
    n_herders: int | None = None  # null: computed from the feasibility pipeline

    def __post_init__(self):
        if not isinstance(self.n_targets, Integral):
            raise ValueError("target count must be an integer")
        if self.n_targets < 1:
            raise ValueError("need at least one target")
        if self.n_herders is not None and not isinstance(self.n_herders, Integral):
            raise ValueError("herder count must be an integer")
        if self.n_herders is not None and self.n_herders < 0:
            raise ValueError("herder count cannot be negative")


@dataclass(frozen=True)
class GridConfig:
    control: int = 64
    deconvolution: int = 25

    def __post_init__(self):
        self.control_grid()
        self.deconvolution_grid()

    def control_grid(self) -> GridSpec:
        return GridSpec(self.control)

    def deconvolution_grid(self) -> GridSpec:
        return GridSpec(self.deconvolution)


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    metrics_every: int = 100  # steps between containment records
    snapshot_every: int = 0  # steps between trajectory snapshots; 0: ends only
    fields: bool = False  # also dump the reference/control grid fields

    def __post_init__(self):
        if not isinstance(self.metrics_every, Integral):
            raise ValueError("metrics cadence must be an integer")
        if not isinstance(self.snapshot_every, Integral):
            raise ValueError("snapshot cadence must be an integer")
        if self.metrics_every < 1:
            raise ValueError("metrics cadence must be >= 1 step")
        if self.snapshot_every < 0:
            raise ValueError("snapshot cadence cannot be negative")


@dataclass(frozen=True)
class ExperimentConfig:
    domain: DomainConfig = field(default_factory=DomainConfig)
    kernel: KernelParams = field(default_factory=KernelParams)
    goal: GoalConfig = field(default_factory=GoalConfig)
    target_density: TargetDensityConfig = field(default_factory=TargetDensityConfig)
    population: PopulationConfig = field(default_factory=PopulationConfig)
    sim: SimParams = field(default_factory=SimParams)
    grids: GridConfig = field(default_factory=GridConfig)
    kde: KdeParams = field(default_factory=KdeParams)
    gain: float = 10.0
    output: OutputConfig = field(default_factory=OutputConfig)

    def __post_init__(self):
        if not self.gain > 0:
            raise ValueError("gain must be positive")

    # -- dict / file round trip -------------------------------------------------

    _SECTIONS = {
        "domain": DomainConfig,
        "kernel": KernelParams,
        "goal": GoalConfig,
        "target_density": TargetDensityConfig,
        "population": PopulationConfig,
        "sim": SimParams,
        "grids": GridConfig,
        "kde": KdeParams,
        "output": OutputConfig,
    }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        _check_keys("config", data, set(cls._SECTIONS) | {"gain"})
        kwargs = {}
        for name, section_cls in cls._SECTIONS.items():
            raw = data.get(name, {})
            if not isinstance(raw, dict):
                raise ConfigError(f"'{name}' must be an object")
            kwargs[name] = _section(section_cls, name, raw)
        gain = data.get("gain", 10.0)
        _check_literal("invalid 'gain': gain", gain)
        if not isinstance(gain, (int, float)):
            raise ConfigError("'gain' must be a number")
        return cls(gain=float(gain), **kwargs)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["goal"] = dict(data["goal"], center=list(self.goal.center))
        return data

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def hash(self) -> str:
        # imported here: hashlib loads OpenSSL, about 3.6 MB resident that
        # processes which never hash a config (planning, sweeps) do not need
        import hashlib

        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_dict(data)

    def save(self, path: str | Path):
        Path(path).write_text(self.canonical_json() + "\n")

    # -- derived quantities -----------------------------------------------------

    def concentration(self) -> float:
        if self.target_density.concentration is not None:
            return self.target_density.concentration
        return 3.0 / self.goal.radius
