"""Experiment configuration: strict schema, canonical serialization, hashing.

Configs are JSON objects with one sub-object per concern. Unknown keys are
rejected everywhere -- a silently ignored typo in a physical constant
would invalidate an experiment. A value's JSON type must fit its field's
annotation (``_JSON_TYPES``), and a check of one field raises
``FieldError``, reported as ``section.field``. The ``kernel``, ``goal``,
``sim`` and ``kde`` sections are the library's own parameter dataclasses,
so a loaded config is passed to the planner and the closed loop as it is. The
canonical serialization (sorted keys, repr floats) backs a content hash
that output files embed so any artifact can be traced to the exact
configuration that produced it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .feasibility import GoalRegion, max_concentration
from .grids import GridSpec
from .kde import KdeParams
from .kernel import KernelParams
from .microsim import SimParams
from .torus import FieldError


class ConfigError(ValueError):
    pass


def _is_number(value) -> bool:
    # False for true/false, NaN, the infinities and integers beyond float range
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# The JSON type of each term of a field annotation: which values it accepts,
# how a message names it, and the value the field takes.
_JSON_TYPES = {
    "float": (_is_number, "a finite number", float),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer", int),
    "bool": (lambda v: isinstance(v, bool), "true or false", bool),
    "str": (lambda v: isinstance(v, str), "a string", str),
    "None": (lambda v: v is None, "null", lambda v: v),
    "tuple[float, float]": (
        lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)),
        "a list of two finite numbers", lambda v: tuple(map(float, v))),
}


def _typed(where: str, annotation: str, value):
    """``value`` as the field takes it, if its JSON type fits the field's
    annotation (its text: one or more terms joined by " | ")."""
    rules = [_JSON_TYPES[term] for term in annotation.split(" | ")]
    for accepts, _, convert in rules:
        if accepts(value):
            return convert(value)
    raise ConfigError(f"{where} = {value!r}: expected "
                      + " or ".join(name for _, name, _ in rules))


def _build(cls, data: dict, section: str | None = None):
    """``cls`` from a parsed JSON object: the config root (no ``section``) or
    one of its sections, the fields that have a ``default_factory``."""
    if not isinstance(data, dict):
        raise ConfigError(f"'{section or 'config'}' must be a JSON object")
    schema = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section or 'config'}': "
                          f"{sorted(unknown)}; allowed: {sorted(schema)}")

    def where(key: str) -> str:
        path = f"{section}.{key}" if section else key
        return (f"invalid '{path.split('.')[0]}' section: {path}" if "." in path
                else f"invalid '{key}': {key}")

    values = {}
    for key, value in data.items():
        factory = schema[key].default_factory
        values[key] = (_typed(where(key), schema[key].type, value) if factory is MISSING
                       else _build(factory, value, key))
    try:
        return cls(**values)
    except FieldError as exc:
        value = data  # the field may be one of a section's, "section.key"
        for key in exc.field.split("."):
            value = value[key]
        raise ConfigError(f"{where(exc.field)} = {value!r}: {exc}") from exc
    except ValueError as exc:  # a clash between fields
        raise ConfigError(f"invalid '{section}' section: {exc}") from exc


@dataclass(frozen=True)
class DomainConfig:
    arena_half_width: float | None = None  # null: report positions on the torus

    def __post_init__(self):
        if self.arena_half_width is not None and not self.arena_half_width > 0:
            raise FieldError("arena_half_width", "arena half width must be positive")


def _too_concentrated(what: str, top: float, cross_term: bool) -> str:
    return (f"{what} must be at most {top:.2f}{' with cross_term' if cross_term else ''}"
            ": beyond it the target density's smallest value is not a normal float64")


@dataclass(frozen=True)
class TargetDensityConfig:
    concentration: float | None = None  # null: 3 / goal radius
    cross_term: bool = False

    def __post_init__(self):
        if self.concentration is not None and not self.concentration > 0:
            raise FieldError("concentration", "concentration must be positive")
        top = max_concentration(self.cross_term)
        if self.concentration is not None and self.concentration > top:
            raise FieldError("concentration", _too_concentrated("concentration", top,
                                                                self.cross_term))


@dataclass(frozen=True)
class PopulationConfig:
    n_targets: int = 720
    n_herders: int | None = None  # null: computed from the feasibility pipeline

    def __post_init__(self):
        if self.n_targets < 1:
            raise FieldError("n_targets", "need at least one target")
        if self.n_herders is not None and self.n_herders < 0:
            raise FieldError("n_herders", "herder count cannot be negative")


@dataclass(frozen=True)
class GridConfig:
    control: int = 64
    deconvolution: int = 25

    def __post_init__(self):
        for name in ("control", "deconvolution"):
            try:
                GridSpec(getattr(self, name))
            except ValueError as exc:
                raise FieldError(name, str(exc)) from exc

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
        if self.metrics_every < 1:
            raise FieldError("metrics_every", "metrics cadence must be >= 1 step")
        if self.snapshot_every < 0:
            raise FieldError("snapshot_every", "snapshot cadence cannot be negative")


@dataclass(frozen=True)
class ExperimentConfig:
    domain: DomainConfig = field(default_factory=DomainConfig)
    kernel: KernelParams = field(default_factory=KernelParams)
    goal: GoalRegion = field(default_factory=GoalRegion)
    target_density: TargetDensityConfig = field(default_factory=TargetDensityConfig)
    population: PopulationConfig = field(default_factory=PopulationConfig)
    sim: SimParams = field(default_factory=SimParams)
    grids: GridConfig = field(default_factory=GridConfig)
    kde: KdeParams = field(default_factory=KdeParams)
    gain: float = 10.0
    output: OutputConfig = field(default_factory=OutputConfig)

    def __post_init__(self):
        if not 0 < self.gain < math.inf:  # also false for NaN
            raise FieldError("gain", "gain must be positive and finite")
        top = max_concentration(self.target_density.cross_term)
        if self.target_density.concentration is None and 3.0 / self.goal.radius > top:
            what = f"the target concentration 3 / radius = {3.0 / self.goal.radius:.4g}"
            raise FieldError("goal.radius",
                             _too_concentrated(what, top, self.target_density.cross_term)
                             + f"; the radius must be at least {3.0 / top:.5f}")

    # -- dict / file round trip -------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return _build(cls, data)

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

