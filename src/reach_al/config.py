"""Flat ``key = value`` experiment configuration.

Every tunable of the pipeline lives behind a dotted key; unknown keys are
fatal so that a typo cannot silently fall back to a default.  Lists are
comma or space separated.  Angles are radians, lengths meters.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .active import STRATEGIES, ALConfig
from .dataset import SceneConfig
from .errors import ConfigError, parse_config_text, read_text
from .features import DENSITY_BAND
from .forest import TrainConfig
from .kinematics import ManipulatorParams
from .perception import CameraIntrinsics, Extrinsics

ENV_OUT_DIR = "REACH_AL_OUT"


@dataclass(frozen=True)
class DataConfig:
    """Benchmark sizes: ``n_samples`` rows split into the test set, the
    initial labeled set and the rest, and ``pool_size`` candidate rows.
    ``make_splits`` pools the candidates with that rest, so a cell's
    unlabeled pool holds ``pool_size`` rows plus that rest."""

    n_samples: int = 1000
    pool_size: int = 5000
    test_frac: float = 0.2

    def __post_init__(self):
        if self.n_samples < 1 or self.pool_size < 0:
            raise ValueError("data.n_samples must be positive and data.pool_size nonnegative")
        if not 0.0 < self.test_frac < 1.0:
            raise ValueError("data.test_frac must lie strictly between 0 and 1")
        if round(self.test_frac * self.n_samples) < 1:
            raise ValueError(
                f"data.test_frac = {self.test_frac} leaves no test row of data.n_samples = {self.n_samples}"
            )


@dataclass(frozen=True)
class FeatureConfig:
    density_band: float = DENSITY_BAND

    def __post_init__(self):
        if self.density_band < 0:
            raise ValueError("features.density_band must be nonnegative")


@dataclass(frozen=True)
class GridConfig:
    """Experiment sweep: the cross product of these lists is run per seed."""

    strategies: tuple = STRATEGIES
    init_sizes: tuple = (10, 30, 50)
    budgets: tuple = (50, 100)
    seeds: tuple = tuple(range(20))

    def __post_init__(self):
        for name in ("strategies", "init_sizes", "budgets", "seeds"):
            values = getattr(self, name)
            if len(values) == 0:
                raise ValueError(f"grid.{name} must be nonempty")
            if len(set(values)) != len(values):
                raise ValueError(f"grid.{name} repeats a value: {', '.join(map(str, values))}")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ValueError(f"unknown strategy {s!r}")
        if min(self.init_sizes) < 1 or min(self.budgets) < 0:
            raise ValueError("grid.init_sizes must be at least 1 and grid.budgets nonnegative")
        if min(self.seeds) < 0:
            raise ValueError("grid.seeds must be nonnegative")


@dataclass
class AppConfig:
    arm: ManipulatorParams = field(default_factory=ManipulatorParams)
    cam: CameraIntrinsics = field(default_factory=CameraIntrinsics)
    # The default benchmark mounts the camera so detections span every
    # reachability facet of the default arm.
    ext: Extrinsics = field(default_factory=lambda: Extrinsics(np.eye(3), [0.9, 0.0, 0.1]))
    scene: SceneConfig = field(default_factory=SceneConfig)
    forest: TrainConfig = field(default_factory=TrainConfig)
    al: ALConfig = field(default_factory=ALConfig)
    data: DataConfig = field(default_factory=DataConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    grid: GridConfig = field(default_factory=GridConfig)


def default_config() -> AppConfig:
    return AppConfig()


def _parse_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {text!r}")
    return x


def _parse_floats(text: str, n: int) -> list[float]:
    parts = text.replace(",", " ").split()
    if len(parts) != n:
        raise ValueError(f"expected {n} numbers, got {len(parts)}")
    return [_parse_float(p) for p in parts]


def _parser(current):
    """The text parser for a field that now holds ``current``."""
    if isinstance(current, tuple):
        item = _parser(current[0])
        return lambda text: tuple(item(p) for p in text.replace(",", " ").split())
    return {int: int, float: _parse_float, str: str}[type(current)]


def apply_overrides(cfg: AppConfig, kv: dict[str, str]) -> AppConfig:
    """Apply parsed key/value overrides; unknown keys are fatal.

    Every field of a section (each ``AppConfig`` field but ``ext``) is a
    ``section.field`` key, parsed by the type of the value it holds.  Two
    kinds of key are special: a ``<name>_range`` pair is set by its
    ``<name>_min`` / ``<name>_max`` halves, and ``cam.R`` / ``cam.t`` set
    the camera-to-arm ``Extrinsics``.
    """
    changes: dict[str, dict] = {f.name: {} for f in fields(cfg) if f.name != "ext"}
    ext = {"R": cfg.ext.R, "t": cfg.ext.t}
    try:
        for key, value in kv.items():
            attr, _, name = key.partition(".")
            section = getattr(cfg, attr) if attr in changes else None
            names = {f.name for f in fields(section)} if attr in changes else ()
            stem, _, end = name.rpartition("_")
            if key in ("cam.R", "cam.t"):
                ext[name] = _parse_floats(value, ext[name].size)
            elif end in ("min", "max") and f"{stem}_range" in names:
                name = f"{stem}_range"
                bounds = list(changes[attr].get(name, getattr(section, name)))
                half = int(end == "max")
                bounds[half] = _parser(bounds[half])(value)
                changes[attr][name] = tuple(bounds)
            elif name in names and not name.endswith("_range"):
                changes[attr][name] = _parser(getattr(section, name))(value)
            else:
                raise ConfigError(f"unknown configuration key {key!r}")
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc

    try:
        sections = {a: replace(getattr(cfg, a), **c) for a, c in changes.items()}
        return replace(cfg, ext=Extrinsics(ext["R"], ext["t"]), **sections)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> AppConfig:
    text = read_text(path, "config file", ConfigError)
    try:
        return apply_overrides(default_config(), parse_config_text(text))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def resolve_out_dir(cli_out=None) -> str:
    """Output directory precedence: --out flag, then $REACH_AL_OUT, then ./out;
    an empty flag or variable counts as unset."""
    if cli_out:
        return str(cli_out)
    return os.environ.get(ENV_OUT_DIR) or "out"
