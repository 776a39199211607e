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
from .errors import ConfigError
from .features import DENSITY_BAND
from .forest import TrainConfig
from .kinematics import ManipulatorParams
from .perception import CameraIntrinsics, Extrinsics

ENV_OUT_DIR = "REACH_AL_OUT"


@dataclass(frozen=True)
class DataConfig:
    """Sizes of the benchmark sample set and the unlabeled candidate pool."""

    n_samples: int = 1000
    pool_size: int = 5000
    test_frac: float = 0.2

    def __post_init__(self):
        if self.n_samples < 1 or self.pool_size < 0:
            raise ValueError("dataset sizes must be positive")
        if not 0.0 < self.test_frac < 1.0:
            raise ValueError("test_frac must lie strictly between 0 and 1")


@dataclass(frozen=True)
class FeatureConfig:
    density_band: float = DENSITY_BAND


@dataclass(frozen=True)
class GridConfig:
    """Experiment sweep: the cross product of these lists is run per seed."""

    strategies: tuple = STRATEGIES
    init_sizes: tuple = (10, 30, 50)
    budgets: tuple = (50, 100)
    seeds: tuple = tuple(range(20))

    def __post_init__(self):
        for name in ("strategies", "init_sizes", "budgets", "seeds"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"grid.{name} must be nonempty")
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
    ext: Extrinsics = None  # set in __post_init__
    scene: SceneConfig = field(default_factory=SceneConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    al: ALConfig = field(default_factory=ALConfig)
    data: DataConfig = field(default_factory=DataConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    grid: GridConfig = field(default_factory=GridConfig)

    def __post_init__(self):
        if self.ext is None:
            # The default benchmark mounts the camera so detections span
            # every reachability facet of the default arm.
            self.ext = benchmark_extrinsics()


# Key prefix -> ``AppConfig`` attribute; every field of that dataclass is a key.
_SECTIONS = {
    "arm": "arm",
    "cam": "cam",
    "scene": "scene",
    "forest": "train",
    "al": "al",
    "data": "data",
    "features": "features",
    "grid": "grid",
}


def benchmark_extrinsics() -> Extrinsics:
    return Extrinsics(np.eye(3), [0.9, 0.0, 0.1])


def default_config() -> AppConfig:
    return AppConfig()


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


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
    if isinstance(current, bool):  # before int: bool is a subclass of int
        return _parse_bool
    if isinstance(current, tuple):
        item = _parser(current[0])
        return lambda text: tuple(item(p) for p in text.replace(",", " ").split())
    return {int: int, float: _parse_float, str: str}[type(current)]


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; ``#`` starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def apply_overrides(cfg: AppConfig, kv: dict[str, str]) -> AppConfig:
    """Apply parsed key/value overrides; unknown keys are fatal.

    Every field of a section dataclass is a ``section.field`` key, parsed
    by the type of the value it holds.  Three keys are special: a
    ``<name>_range`` pair is set by its ``<name>_min`` / ``<name>_max``
    halves, ``forest.max_depth = 0`` means no depth limit, and ``cam.R`` /
    ``cam.t`` set the camera-to-arm ``Extrinsics``.
    """
    changes: dict[str, dict] = {attr: {} for attr in _SECTIONS.values()}
    ext = {"R": cfg.ext.R, "t": cfg.ext.t}
    try:
        for key, value in kv.items():
            prefix, _, name = key.partition(".")
            attr = _SECTIONS.get(prefix)
            section = getattr(cfg, attr) if attr else None
            names = {f.name for f in fields(section)} if attr else ()
            stem, _, end = name.rpartition("_")
            if key in ("cam.R", "cam.t"):
                ext[name] = _parse_floats(value, ext[name].size)
            elif end in ("min", "max") and f"{stem}_range" in names:
                name = f"{stem}_range"
                bounds = list(changes[attr].get(name, getattr(section, name)))
                half = int(end == "max")
                bounds[half] = _parser(bounds[half])(value)
                changes[attr][name] = tuple(bounds)
            elif key == "forest.max_depth":
                changes[attr][name] = int(value) or None
            elif name in names and not name.endswith("_range"):
                changes[attr][name] = _parser(getattr(section, name))(value)
            else:
                raise ConfigError(f"unknown configuration key {key!r}")
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc

    try:
        sections = {a: replace(getattr(cfg, a), **changes[a]) for a in _SECTIONS.values()}
        return replace(cfg, ext=Extrinsics(ext["R"], ext["t"]), **sections)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> AppConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return apply_overrides(default_config(), parse_config_text(text))


def resolve_out_dir(cli_out=None) -> str:
    """Output directory precedence: --out flag, then $REACH_AL_OUT, then ./out."""
    if cli_out:
        return str(cli_out)
    return os.environ.get(ENV_OUT_DIR, "out")
