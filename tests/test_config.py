import math

import numpy as np
import pytest

from reach_al.config import (
    AppConfig,
    apply_overrides,
    default_config,
    load_config,
    parse_config_text,
    resolve_out_dir,
)
from reach_al.errors import ConfigError


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

    def test_forest_unlimited_depth(self):
        cfg = apply_overrides(default_config(), {"forest.max_depth": "0"})
        assert cfg.train.max_depth is None
        cfg = apply_overrides(default_config(), {"forest.max_depth": "7"})
        assert cfg.train.max_depth == 7


class TestLoadConfig:
    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "arm.L1 = 0.75\n"
            "scene.seed = 9\n"
            "al.strategy = margin\n"
            "al.batch_size = 25\n"
            "data.pool_size = 400\n"
        )
        cfg = load_config(path)
        assert cfg.arm.L1 == 0.75
        assert cfg.scene.seed == 9
        assert cfg.al.strategy == "margin"
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


class TestDefaults:
    def test_default_config_is_valid(self):
        cfg = default_config()
        assert cfg.arm.L1 == 0.7
        assert cfg.train.n_trees == 100
        assert cfg.grid.init_sizes == (10, 30, 50)
        assert cfg.grid.budgets == (50, 100)
        assert len(cfg.grid.seeds) == 20
        assert math.isclose(cfg.data.test_frac, 0.2)
        assert cfg.data.n_samples == 1000
        assert cfg.data.pool_size == 5000
