import math
import pathlib
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reach_al.cli import main
from reach_al.config import (
    AppConfig,
    apply_overrides,
    default_config,
    load_config,
    parse_config_text,
    resolve_out_dir,
)
from reach_al.errors import ConfigError

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# Every accepted configuration key.
KEYS = [
    "arm.L1", "arm.Le", "arm.h0", "arm.d1_min", "arm.d1_max", "arm.d2_min", "arm.d2_max",
    "arm.theta1_min", "arm.theta1_max", "arm.theta2_min", "arm.theta2_max",
    "arm.collision_margin",
    "cam.fx", "cam.fy", "cam.cx", "cam.cy", "cam.rgb_width", "cam.rgb_height",
    "cam.depth_width", "cam.depth_height", "cam.R", "cam.t",
    "scene.n_images", "scene.apples_per_image", "scene.wall_distance",
    "scene.wall_depth_jitter", "scene.lateral_spread", "scene.depth_noise_std",
    "scene.dropout_prob", "scene.cluster_prob", "scene.seed",
    "forest.n_trees", "forest.seed",
    "al.batch_size", "al.committee_trees",
    "data.n_samples", "data.pool_size", "data.test_frac",
    "features.density_band",
    "grid.strategies", "grid.init_sizes", "grid.budgets", "grid.seeds",
]
SCENE_KEYS = [k for k in KEYS if k.startswith(("scene.", "cam.")) and k not in ("cam.R", "cam.t")]

# Every config section, named as its key prefix.
SECTIONS = ("arm", "cam", "scene", "forest", "al", "data", "features", "grid")


def default_value(key: str):
    cfg = default_config()
    prefix, name = key.split(".")
    if prefix == "cam" and name in ("R", "t"):
        return tuple(getattr(cfg.ext, name).ravel().tolist())
    section = getattr(cfg, prefix)
    if name.endswith(("_min", "_max")):
        return getattr(section, name[:-4] + "_range")[name.endswith("_max")]
    return getattr(section, name)


def default_text(key: str) -> str:
    """The default value of ``key`` written as config text."""
    value = default_value(key)
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def holds_floats(key: str) -> bool:
    value = default_value(key)
    return isinstance(value[0] if isinstance(value, tuple) else value, float)


def floats_in(cfg: AppConfig) -> list[float]:
    out = [*cfg.ext.R.ravel().tolist(), *cfg.ext.t.tolist()]
    for attr in SECTIONS:
        section = getattr(cfg, attr)
        for f in fields(section):
            value = getattr(section, f.name)
            items = value if isinstance(value, tuple) else (value,)
            out.extend(x for x in items if isinstance(x, float))
    return out


NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["nan", "-inf", "inf", "1e400", "-1e400", "NaN", "0", "1"]),
)
VALUE_TEXT = st.one_of(
    st.text(max_size=20),
    NUMBER_TEXT,
    st.lists(NUMBER_TEXT, max_size=10).map(", ".join),
    st.sampled_from(["true", "off", "random", "qbc", "entropy, margin"]),
)

# Finite numbers, with magnitudes at the edges of float64.
EXTREME_TEXT = st.one_of(
    NUMBER_TEXT,
    st.sampled_from(["1e300", "-1e300", "1e-300", "5e-324", "1e6", "0.5", "2"]),
)


class TestParser:
    def test_key_value_lines(self):
        kv = parse_config_text("a.b = 1\n# comment\n\nc.d = hello  # trailing\n")
        assert kv == {"a.b": "1", "c.d": "hello"}

    def test_missing_equals_fatal(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words\n")

    def test_duplicate_key_fatal(self):
        with pytest.raises(ConfigError):
            parse_config_text("a.b = 1\na.b = 2\n")


class TestOverrides:
    def test_unknown_key_fatal(self):
        # A typo, and the removed keys that no stage ever read.
        for key, value in (
            ("arm.L2", "0.5"),
            ("features.density_window", "11"),
            ("oracle.steps_per_joint", "40"),
            ("oracle.tol", "-5"),
        ):
            with pytest.raises(ConfigError, match=f"unknown configuration key '{key}'"):
                apply_overrides(default_config(), {key: value})

    def test_arm_and_camera_overrides(self):
        cfg = apply_overrides(
            default_config(),
            {
                "arm.L1": "0.8",
                "arm.theta1_min": "-1.0",
                "arm.theta1_max": "1.0",
                "cam.fx": "400",
                "cam.t": "0.1, 0.2, 0.3",
                "cam.R": "1 0 0 0 1 0 0 0 1",
            },
        )
        assert cfg.arm.L1 == 0.8
        assert cfg.arm.theta1_range == (-1.0, 1.0)
        assert cfg.cam.fx == 400.0
        np.testing.assert_allclose(cfg.ext.t, [0.1, 0.2, 0.3])

    def test_grid_lists(self):
        cfg = apply_overrides(
            default_config(),
            {
                "grid.strategies": "random, entropy",
                "grid.init_sizes": "10 30",
                "grid.budgets": "50",
                "grid.seeds": "0,1,2",
            },
        )
        assert cfg.grid.strategies == ("random", "entropy")
        assert cfg.grid.init_sizes == (10, 30)
        assert cfg.grid.budgets == (50,)
        assert cfg.grid.seeds == (0, 1, 2)

    def test_bad_value_fatal(self):
        with pytest.raises(ConfigError):
            apply_overrides(default_config(), {"arm.L1": "wide"})
        with pytest.raises(ConfigError):
            apply_overrides(default_config(), {"cam.t": "1 2"})

    def test_invalid_combination_fatal(self):
        with pytest.raises(ConfigError):
            apply_overrides(default_config(), {"arm.L1": "-2"})
        for kv, message in (
            ({"al.committee_trees": "0"}, "al.committee_trees must be at least 1"),
            ({"al.committee_trees": "-3"}, "al.committee_trees must be at least 1"),
            ({"features.density_band": "-1"}, "features.density_band must be nonnegative"),
            ({"data.n_samples": "2"}, "data.test_frac = 0.2 leaves no test row of data.n_samples = 2"),
            ({"data.n_samples": "4", "data.test_frac": "0.1"}, "data.test_frac = 0.1 leaves no test row"),
        ):
            with pytest.raises(ConfigError, match=message):
                apply_overrides(default_config(), kv)
        # The smallest legal values: a band of 0 counts exact depth matches.
        apply_overrides(default_config(), {"al.committee_trees": "1", "features.density_band": "0"})
        apply_overrides(default_config(), {"data.n_samples": "3"})

    def test_negative_seed_fatal(self):
        bad = {"scene.seed": "-1", "forest.seed": "-1", "grid.seeds": "0, -1"}
        for key, value in bad.items():
            with pytest.raises(ConfigError, match="seeds? must be nonnegative"):
                apply_overrides(default_config(), {key: value})


class TestKeys:
    def test_accepted_keys_are_exactly_these(self):
        cfg = default_config()
        candidates = set(KEYS) | {"cam.ext", "ext.R", "ext.t", "train.n_trees", "arm.L1_min"}
        for prefix in SECTIONS:
            candidates |= {f"{prefix}.{f.name}" for f in fields(getattr(cfg, prefix))}
        accepted = set()
        for key in candidates:
            try:
                apply_overrides(cfg, {key: "1"})
            except ConfigError as exc:
                if "unknown configuration key" in str(exc):
                    continue
            accepted.add(key)
        assert sorted(accepted) == sorted(KEYS)
        assert len(KEYS) == 43

    @pytest.mark.parametrize("key", KEYS)
    def test_default_value_round_trips(self, key):
        assert apply_overrides(default_config(), {key: default_text(key)}) == default_config()

    @pytest.mark.parametrize("key", [k for k in KEYS if holds_floats(k)])
    def test_non_finite_number_fatal(self, key):
        for bad in ("nan", "inf", "-inf", "1e400"):
            value = ",".join([bad, *default_text(key).split(",")[1:]])
            with pytest.raises(ConfigError, match=f"bad value for '{key}': not a finite number"):
                apply_overrides(default_config(), {key: value})


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(text=st.text(max_size=200))
    def test_arbitrary_text(self, text):
        try:
            cfg = apply_overrides(default_config(), parse_config_text(text))
        except ConfigError:
            return
        assert all(math.isfinite(x) for x in floats_in(cfg))

    @settings(max_examples=400, deadline=None)
    @given(kv=st.dictionaries(st.sampled_from(KEYS), VALUE_TEXT, max_size=4))
    def test_arbitrary_values_for_every_key(self, kv):
        try:
            cfg = apply_overrides(default_config(), kv)
        except ConfigError:
            return
        assert all(math.isfinite(x) for x in floats_in(cfg))

    @settings(max_examples=100, deadline=None)
    @given(kv=st.dictionaries(st.sampled_from(SCENE_KEYS), EXTREME_TEXT, max_size=3))
    @example(kv={"scene.apples_per_image": "1e300"})
    @example(kv={"cam.fx": "1e-300", "cam.cx": "1e-300"})
    @example(kv={"scene.seed": "-1"})
    def test_accepted_scene_and_camera_run_two_images(self, tmp_path_factory, kv):
        """``gen-scene`` on two images exits 0 having written detections, or
        exits 2, and so does ``label`` on what it wrote; nothing escapes."""
        out = tmp_path_factory.mktemp("scene")
        path = out / "exp.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in dict(kv, **{"scene.n_images": "2"}).items()))
        code = main(["gen-scene", "--config", str(path), "--out", str(out)])
        assert code in (0, 2)
        if code == 0:
            detections = out / "detections.csv"
            assert len(detections.read_text().splitlines()) > 1
            assert main(["label", "--config", str(path), "--detections", str(detections), "--out", str(out)]) in (0, 2)


class TestReadme:
    def test_config_block_is_valid_and_shows_defaults(self):
        text = README.read_text()
        block = re.search(r"Configuration is flat.*?```\n(.*?)```", text, re.S).group(1)
        kv = parse_config_text(block)
        assert len(kv) >= 10
        assert set(kv) <= set(KEYS)
        assert apply_overrides(default_config(), kv) == default_config()


class TestLoadConfig:
    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "arm.L1 = 0.75\n"
            "scene.seed = 9\n"
            "grid.strategies = margin\n"
            "al.batch_size = 25\n"
            "data.pool_size = 400\n"
        )
        cfg = load_config(path)
        assert cfg.arm.L1 == 0.75
        assert cfg.scene.seed == 9
        assert cfg.grid.strategies == ("margin",)
        assert cfg.al.batch_size == 25
        assert cfg.data.pool_size == 400

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")


class TestOutDir:
    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv("REACH_AL_OUT", "/env/dir")
        assert resolve_out_dir("/flag/dir") == "/flag/dir"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REACH_AL_OUT", "/env/dir")
        assert resolve_out_dir(None) == "/env/dir"

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REACH_AL_OUT", raising=False)
        assert resolve_out_dir(None) == "out"

    def test_empty_flag_and_variable_count_as_unset(self, monkeypatch):
        monkeypatch.setenv("REACH_AL_OUT", "/env/dir")
        assert resolve_out_dir("") == "/env/dir"
        monkeypatch.setenv("REACH_AL_OUT", "")
        assert resolve_out_dir(None) == "out"
        assert resolve_out_dir("") == "out"


class TestDefaults:
    def test_default_config_is_valid(self):
        cfg = default_config()
        assert cfg.arm.L1 == 0.7
        assert cfg.forest.n_trees == 100
        assert cfg.grid.init_sizes == (10, 30, 50)
        assert cfg.grid.budgets == (50, 100)
        assert len(cfg.grid.seeds) == 20
        assert math.isclose(cfg.data.test_frac, 0.2)
        assert cfg.data.n_samples == 1000
        assert cfg.data.pool_size == 5000
