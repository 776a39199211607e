"""Flat ``key = value`` experiment configuration.

Every tunable of the pipeline lives behind a dotted key; unknown keys are
fatal so that a typo cannot silently fall back to a default.  Lists are
comma separated.  Angles are radians, lengths meters.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .active import STRATEGIES, ALConfig
from .dataset import SceneConfig
from .errors import ConfigError
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
    density_band: float = 0.05


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
            # every reachability facet of the default arm; the field rig's
            # measured offset remains available via perception defaults.
            self.ext = benchmark_extrinsics()


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


def _parse_floats(text: str, n: int) -> list[float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != n:
        raise ValueError(f"expected {n} numbers, got {len(parts)}")
    return [float(p) for p in parts]


def _float_list(text: str) -> tuple:
    return tuple(float(p) for p in text.replace(",", " ").split() if p)


def _int_list(text: str) -> tuple:
    return tuple(int(p) for p in text.replace(",", " ").split() if p)


def _str_list(text: str) -> tuple:
    return tuple(p for p in text.replace(",", " ").split() if p)


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
    """Apply parsed key/value overrides; unknown keys are fatal."""
    arm = dict(
        L1=cfg.arm.L1,
        Le=cfg.arm.Le,
        h0=cfg.arm.h0,
        d1_range=cfg.arm.d1_range,
        d2_range=cfg.arm.d2_range,
        theta1_range=cfg.arm.theta1_range,
        theta2_range=cfg.arm.theta2_range,
        collision_margin=cfg.arm.collision_margin,
    )
    cam = dict(
        fx=cfg.cam.fx,
        fy=cfg.cam.fy,
        cx=cfg.cam.cx,
        cy=cfg.cam.cy,
        rgb_width=cfg.cam.rgb_width,
        rgb_height=cfg.cam.rgb_height,
        depth_width=cfg.cam.depth_width,
        depth_height=cfg.cam.depth_height,
    )
    R = cfg.ext.R
    t = cfg.ext.t
    scene: dict = {}
    train: dict = {}
    al: dict = {}
    data: dict = {}
    feats: dict = {}
    grid: dict = {}

    def rng_pair(value, lo_key, hi_key, current):
        lo, hi = current
        if lo_key:
            lo = float(value)
        else:
            hi = float(value)
        return (lo, hi)

    try:
        for key, value in kv.items():
            if key == "arm.L1":
                arm["L1"] = float(value)
            elif key == "arm.Le":
                arm["Le"] = float(value)
            elif key == "arm.h0":
                arm["h0"] = float(value)
            elif key == "arm.d1_min":
                arm["d1_range"] = rng_pair(value, True, False, arm["d1_range"])
            elif key == "arm.d1_max":
                arm["d1_range"] = rng_pair(value, False, True, arm["d1_range"])
            elif key == "arm.d2_min":
                arm["d2_range"] = rng_pair(value, True, False, arm["d2_range"])
            elif key == "arm.d2_max":
                arm["d2_range"] = rng_pair(value, False, True, arm["d2_range"])
            elif key == "arm.theta1_min":
                arm["theta1_range"] = rng_pair(value, True, False, arm["theta1_range"])
            elif key == "arm.theta1_max":
                arm["theta1_range"] = rng_pair(value, False, True, arm["theta1_range"])
            elif key == "arm.theta2_min":
                arm["theta2_range"] = rng_pair(value, True, False, arm["theta2_range"])
            elif key == "arm.theta2_max":
                arm["theta2_range"] = rng_pair(value, False, True, arm["theta2_range"])
            elif key == "arm.collision_margin":
                arm["collision_margin"] = float(value)
            elif key in ("cam.fx", "cam.fy", "cam.cx", "cam.cy"):
                cam[key.split(".")[1]] = float(value)
            elif key in (
                "cam.rgb_width",
                "cam.rgb_height",
                "cam.depth_width",
                "cam.depth_height",
            ):
                cam[key.split(".")[1]] = int(value)
            elif key == "cam.R":
                R = np.array(_parse_floats(value, 9)).reshape(3, 3)
            elif key == "cam.t":
                t = np.array(_parse_floats(value, 3))
            elif key == "scene.n_images":
                scene["n_images"] = int(value)
            elif key == "scene.apples_per_image":
                scene["apples_per_image"] = float(value)
            elif key == "scene.wall_distance":
                scene["wall_distance"] = float(value)
            elif key == "scene.wall_depth_jitter":
                scene["wall_depth_jitter"] = float(value)
            elif key == "scene.lateral_spread":
                scene["lateral_spread"] = float(value)
            elif key == "scene.depth_noise_std":
                scene["depth_noise_std"] = float(value)
            elif key == "scene.dropout_prob":
                scene["dropout_prob"] = float(value)
            elif key == "scene.cluster_prob":
                scene["cluster_prob"] = float(value)
            elif key == "scene.seed":
                scene["seed"] = int(value)
            elif key == "forest.n_trees":
                train["n_trees"] = int(value)
            elif key == "forest.max_depth":
                train["max_depth"] = None if int(value) == 0 else int(value)
            elif key == "forest.min_samples_leaf":
                train["min_samples_leaf"] = int(value)
            elif key == "forest.features_per_split":
                train["features_per_split"] = int(value)
            elif key == "forest.bootstrap":
                train["bootstrap"] = _parse_bool(value)
            elif key == "forest.seed":
                train["seed"] = int(value)
            elif key == "al.strategy":
                al["strategy"] = value
            elif key == "al.init_size":
                al["init_size"] = int(value)
            elif key == "al.batch_size":
                al["batch_size"] = int(value)
            elif key == "al.n_queries":
                al["n_queries"] = int(value)
            elif key == "al.committee_size":
                al["committee_size"] = int(value)
            elif key == "al.committee_trees":
                al["committee_trees"] = int(value)
            elif key == "al.score_cap":
                al["score_cap"] = int(value)
            elif key == "al.seed":
                al["seed"] = int(value)
            elif key == "data.n_samples":
                data["n_samples"] = int(value)
            elif key == "data.pool_size":
                data["pool_size"] = int(value)
            elif key == "data.test_frac":
                data["test_frac"] = float(value)
            elif key == "features.density_band":
                feats["density_band"] = float(value)
            elif key == "grid.strategies":
                grid["strategies"] = _str_list(value)
            elif key == "grid.init_sizes":
                grid["init_sizes"] = _int_list(value)
            elif key == "grid.budgets":
                grid["budgets"] = _int_list(value)
            elif key == "grid.seeds":
                grid["seeds"] = _int_list(value)
            else:
                raise ConfigError(f"unknown configuration key {key!r}")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc

    try:
        return AppConfig(
            arm=ManipulatorParams(**arm),
            cam=CameraIntrinsics(**cam),
            ext=Extrinsics(R, t),
            scene=replace(cfg.scene, **scene),
            train=replace(cfg.train, **train),
            al=replace(cfg.al, **al),
            data=replace(cfg.data, **data),
            features=replace(cfg.features, **feats),
            grid=replace(cfg.grid, **grid),
        )
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
