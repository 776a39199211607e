import argparse
import errno
import inspect
import mmap
import os
import pathlib
import re
import shlex
import shutil
import typing

import numpy as np
import pytest

from reach_al import cli, report
from reach_al.cli import MAX_ENVELOPE_STEPS, build_parser, main
from reach_al.config import load_config
from reach_al.dataset import (
    DETECTION_COLUMNS,
    LABELED_COLUMNS,
    generate_scene,
    label_with_oracle,
    read_labeled_cache,
    write_labeled_cache,
)
from reach_al.kinematics import read_envelope
from reach_al.report import read_results

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
CFG_TEXT = """
scene.n_images = 120
data.n_samples = 300
data.pool_size = 300
forest.n_trees = 15
al.batch_size = 10
grid.strategies = random, entropy
grid.init_sizes = 10
grid.budgets = 20
grid.seeds = 0, 1
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CFG_TEXT)
    return str(path)


def run_cli(*args):
    return main(list(args))


def copy_cache(data, dest) -> str:
    """A copy of the labeled cache ``data`` and its sidecar at ``dest``: the same rows in another file."""
    shutil.copyfile(data, dest)
    shutil.copyfile(f"{data}.meta", f"{dest}.meta")
    return str(dest)


class TestGenLabelPipeline:
    def test_gen_scene_then_label(self, tmp_path, cfg_file, capsys):
        out = str(tmp_path / "o")
        assert run_cli("gen-scene", "--config", cfg_file, "--out", out) == 0
        det = os.path.join(out, "detections.csv")
        assert os.path.exists(det)
        assert run_cli("label", "--config", cfg_file, "--detections", det, "--out", out) == 0
        assert os.path.exists(os.path.join(out, "labeled.csv"))
        meta = open(os.path.join(out, "labeled.csv.meta")).read()
        assert "density_source = patch5x5" in meta
        msgs = capsys.readouterr().out
        assert "wrote" in msgs and "labeled" in msgs

    def test_scene_seed_changes_scene(self, tmp_path):
        scenes = []
        for seed in (1, 2):
            config = tmp_path / f"seed{seed}.cfg"
            config.write_text(CFG_TEXT + f"scene.seed = {seed}\n")
            out = str(tmp_path / f"out{seed}")
            assert run_cli("gen-scene", "--config", str(config), "--out", out) == 0
            scenes.append(open(os.path.join(out, "detections.csv"), "rb").read())
        assert scenes[0] != scenes[1]


class TestRunAndSweep:
    def test_run_single_cell(self, tmp_path, cfg_file, capsys):
        out = str(tmp_path / "o")
        code = run_cli("run", "--config", cfg_file, "--strategy", "entropy", "--out", out)
        assert code == 0
        assert os.path.exists(os.path.join(out, "results.csv"))
        assert "entropy" in capsys.readouterr().out

    def test_run_is_the_sweep_of_its_cell(self, tmp_path):
        # run narrows each grid list to its flag's value, or else to its
        # first value; --seed is the cell's seed and leaves scene.seed alone.
        sizes = CFG_TEXT.split("grid.")[0] + "al.committee_trees = 5\n"
        grid = "grid.strategies = qbc, random\ngrid.init_sizes = 20, 10\n"
        grid += "grid.budgets = 10, 20\ngrid.seeds = 1, 0\n"
        config = tmp_path / "grid.cfg"
        config.write_text(sizes + grid)
        names = ("strategies", "init_sizes", "budgets", "seeds")
        for i, (flags, cell) in enumerate(
            (
                ((), ("qbc", 20, 10, 1)),
                (("--strategy", "random", "--seed", "0"), ("random", 20, 10, 0)),
                (
                    ("--strategy", "entropy", "--init-size", "10", "--budget", "20", "--seed", "2"),
                    ("entropy", 10, 20, 2),
                ),
            )
        ):
            run_out, sweep_out = str(tmp_path / f"run{i}"), str(tmp_path / f"sweep{i}")
            assert run_cli("run", "--config", str(config), "--out", run_out, *flags) == 0
            one = tmp_path / f"cell{i}.cfg"
            one.write_text(sizes + "".join(f"grid.{n} = {v}\n" for n, v in zip(names, cell)))
            assert run_cli("sweep", "--config", str(one), "--out", sweep_out) == 0
            rows = read_results(os.path.join(run_out, "results.csv"))
            assert {(r.strategy, r.init_size, r.budget, r.seed) for r in rows} == {cell}
            for name in ("results.csv", "summary.csv"):
                ran = open(os.path.join(run_out, name), "rb").read()
                assert ran == open(os.path.join(sweep_out, name), "rb").read(), (flags, name)

    def test_run_seed_picks_the_cell_not_the_scene(self, tmp_path):
        # With grid.seeds = 1, 0 a bare run already runs seed 1, so naming
        # that seed must not move the benchmark it runs on.
        config = tmp_path / "seeds.cfg"
        config.write_text(CFG_TEXT.replace("grid.seeds = 0, 1", "grid.seeds = 1, 0"))
        outs = [str(tmp_path / "bare"), str(tmp_path / "seed1")]
        assert run_cli("run", "--config", str(config), "--out", outs[0]) == 0
        assert run_cli("run", "--config", str(config), "--out", outs[1], "--seed", "1") == 0
        for name in ("results.csv", "summary.csv"):
            bare, seeded = (open(os.path.join(out, name), "rb").read() for out in outs)
            assert bare == seeded, name

    def test_run_data_takes_pool_size_candidates(self, tmp_path, cfg_file):
        out = str(tmp_path / "o")
        assert run_cli("gen-scene", "--config", cfg_file, "--out", out) == 0
        det = os.path.join(out, "detections.csv")
        assert run_cli("label", "--config", cfg_file, "--detections", det, "--out", out) == 0
        data = os.path.join(out, "labeled.csv")
        small = tmp_path / "small.cfg"
        text = CFG_TEXT.replace("data.n_samples = 300", "data.n_samples = 50")
        small.write_text(text.replace("data.pool_size = 300", "data.pool_size = 20"))
        # 10 of the 50 samples are test rows and the other 40 the initial
        # set, so the pool is the candidates alone, and a budget of 50 runs
        # its 20 rows dry, whichever cache they come from.
        for pool in ((), ("--pool", copy_cache(data, tmp_path / "pool.csv"))):
            run_out = str(tmp_path / f"run{len(pool)}")
            argv = ["run", "--config", str(small), "--data", data, *pool, "--budget", "50"]
            assert run_cli(*argv, "--init-size", "40", "--out", run_out) == 0
            rows = read_results(os.path.join(run_out, "results.csv"))
            assert max(r.n_labeled for r in rows) == 40 + 20

    def test_sweep_byte_identical_rerun(self, tmp_path, cfg_file):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert run_cli("sweep", "--config", cfg_file, "--out", out_a) == 0
        assert run_cli("sweep", "--config", cfg_file, "--out", out_b) == 0
        ra = open(os.path.join(out_a, "results.csv"), "rb").read()
        rb = open(os.path.join(out_b, "results.csv"), "rb").read()
        assert ra == rb
        sa = open(os.path.join(out_a, "summary.csv"), "rb").read()
        sb = open(os.path.join(out_b, "summary.csv"), "rb").read()
        assert sa == sb

    def test_report_prints_table(self, tmp_path, cfg_file, capsys):
        out = str(tmp_path / "o")
        run_cli("sweep", "--config", cfg_file, "--out", out)
        capsys.readouterr()
        code = run_cli("report", "--results", os.path.join(out, "results.csv"))
        assert code == 0
        table = capsys.readouterr().out
        assert "entropy" in table and "random" in table

    def test_env_var_out_dir(self, tmp_path, cfg_file, monkeypatch):
        env_dir = str(tmp_path / "envout")
        monkeypatch.setenv("REACH_AL_OUT", env_dir)
        assert run_cli("gen-scene", "--config", cfg_file) == 0
        assert os.path.exists(os.path.join(env_dir, "detections.csv"))


class TestFailedCells:
    def test_every_failed_cell_gets_an_error_row(self, tmp_path):
        # init_size 500 exceeds the 240 samples left after the test split,
        # so both strategies fail at that size.
        cfg = tmp_path / "failing.cfg"
        cfg.write_text(
            CFG_TEXT.replace("grid.init_sizes = 10", "grid.init_sizes = 10, 500").replace(
                "grid.seeds = 0, 1", "grid.seeds = 0"
            )
        )
        for flags, code in (((), 0), (("--strict",), 1), (("--jobs", "2"), 0)):
            out = str(tmp_path / "-".join(("out",) + flags))
            assert run_cli("sweep", "--config", str(cfg), "--out", out, *flags) == code
            failed = sorted(
                (r.strategy, r.init_size)
                for r in read_results(os.path.join(out, "results.csv"))
                if r.round == -1
            )
            assert failed == [("entropy", 500), ("random", 500)]


    def test_failed_data_cell_gets_an_error_row(self, tmp_path, cfg_file):
        out = str(tmp_path / "o")
        assert run_cli("gen-scene", "--config", cfg_file, "--out", out) == 0
        det = os.path.join(out, "detections.csv")
        assert run_cli("label", "--config", cfg_file, "--detections", det, "--out", out) == 0
        data = os.path.join(out, "labeled.csv")
        # 500 exceeds the 240 samples left after the test split.
        for flags, code in (((), 0), (("--strict",), 1)):
            run_out = str(tmp_path / "-".join(("run",) + flags))
            argv = ["run", "--config", cfg_file, "--data", data, "--init-size", "500", "--out", run_out]
            assert run_cli(*argv, *flags) == code
            rows = read_results(os.path.join(run_out, "results.csv"))
            assert [(r.strategy, r.init_size, r.round) for r in rows] == [("random", 500, -1)]

    def test_run_refuses_to_mix_density_sources(self, tmp_path, cfg_file, capsys):
        out = str(tmp_path / "o")
        assert run_cli("gen-scene", "--config", cfg_file, "--out", out) == 0
        det = os.path.join(out, "detections.csv")
        assert run_cli("label", "--config", cfg_file, "--detections", det, "--out", out) == 0
        data = os.path.join(out, "labeled.csv")
        # A synthetic scene labeled in process keeps its 11x11 windows.
        cfg = load_config(cfg_file)
        windows = str(tmp_path / "windows.csv")
        scene = generate_scene(cfg.scene, cfg.cam)
        write_labeled_cache(windows, label_with_oracle(scene, cfg.cam, cfg.ext, cfg.arm))
        argv = ["run", "--config", cfg_file, "--out", str(tmp_path / "r")]
        for data_path, pool_path in ((data, windows), (windows, data)):
            capsys.readouterr()
            assert run_cli(*argv, "--data", data_path, "--pool", pool_path) == 2
            assert "not comparable" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r" / "results.csv")
        assert run_cli(*argv, "--data", data, "--pool", copy_cache(data, tmp_path / "pool.csv")) == 0

    def test_run_refuses_the_data_cache_as_pool(self, tmp_path, cfg_file, capsys):
        # Candidates from the --data cache itself would repeat its samples,
        # test rows included, under this path or any other.
        out = str(tmp_path / "o")
        assert run_cli("gen-scene", "--config", cfg_file, "--out", out) == 0
        det = os.path.join(out, "detections.csv")
        assert run_cli("label", "--config", cfg_file, "--detections", det, "--out", out) == 0
        data = os.path.join(out, "labeled.csv")
        os.link(data, tmp_path / "linked.csv")
        argv = ["run", "--config", cfg_file, "--data", data, "--out", str(tmp_path / "r")]
        for pool in (data, str(tmp_path / "linked.csv")):
            capsys.readouterr()
            assert run_cli(*argv, "--pool", pool) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and "--pool" in err, err
        assert not os.path.exists(tmp_path / "r" / "results.csv")

    def test_short_benchmark_fatal(self, tmp_path, cfg_file, capsys):
        # A scene or cache with fewer rows than data.n_samples samples and
        # data.pool_size candidates exits 2 before any cell runs.
        out = str(tmp_path / "o")
        assert run_cli("gen-scene", "--config", cfg_file, "--out", out) == 0
        det = os.path.join(out, "detections.csv")
        assert run_cli("label", "--config", cfg_file, "--detections", det, "--out", out) == 0
        data = os.path.join(out, "labeled.csv")
        n_rows = len(read_labeled_cache(data).samples)
        assert n_rows >= 600
        run_data = ("run", "--data", data)
        run_pool = run_data + ("--pool", copy_cache(data, tmp_path / "pool.csv"))
        # The candidates are the rest of the --data cache, or the --pool cache.
        for key, value, commands in (
            ("scene.n_images", 20, (("run",), ("sweep",))),
            ("data.n_samples", n_rows + 1, (run_data,)),
            ("data.pool_size", n_rows - 299, (run_data,)),
            ("data.pool_size", n_rows + 1, (run_pool,)),
        ):
            short = tmp_path / "short.cfg"
            short.write_text(re.sub(f"{key} = \\d+", f"{key} = {value}", CFG_TEXT))
            for command in commands:
                capsys.readouterr()
                run_out = tmp_path / "r"
                assert run_cli(*command, "--config", str(short), "--out", str(run_out)) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1, command
                assert key in err, (command, err)
                assert not os.path.exists(run_out / "results.csv")


class TestEnvelopeAndPlots:
    def test_envelope_then_plot(self, tmp_path, cfg_file):
        out = str(tmp_path / "o")
        assert run_cli("envelope", "--config", cfg_file, "--steps", "8", "--out", out) == 0
        env_path = os.path.join(out, "envelope.xyz")
        pts = np.loadtxt(env_path)
        assert pts.shape[1] == 3 and len(pts) > 100
        assert run_cli("plot", "--envelope", env_path, "--out", out) == 0
        for view in ("top", "side", "front"):
            assert os.path.exists(os.path.join(out, f"envelope_{view}.svg"))

    def test_plot_envelope_with_labeled_overlay(self, tmp_path, cfg_file):
        out = str(tmp_path / "o")
        assert run_cli("envelope", "--config", cfg_file, "--steps", "6", "--out", out) == 0
        assert run_cli("gen-scene", "--config", cfg_file, "--out", out) == 0
        det = os.path.join(out, "detections.csv")
        assert run_cli("label", "--config", cfg_file, "--detections", det, "--out", out) == 0
        plain, overlaid = str(tmp_path / "plain"), str(tmp_path / "overlaid")
        env_path = os.path.join(out, "envelope.xyz")
        assert run_cli("plot", "--envelope", env_path, "--out", plain) == 0
        labeled = os.path.join(out, "labeled.csv")
        argv = ("plot", "--envelope", env_path, "--labeled", labeled)
        assert run_cli(*argv, "--out", overlaid) == 0
        # Reference: the overlay drawn from each sample's arm point.
        samples = read_labeled_cache(labeled).samples
        fruit = np.array([s.arm_point.as_array() for s in samples])
        labels = np.array([s.label for s in samples])
        expected = str(tmp_path / "expected")
        report.emit_envelope_plots(read_envelope(env_path), expected, fruit, labels)
        for view in ("top", "side", "front"):
            a = open(os.path.join(plain, f"envelope_{view}.svg")).read()
            b = open(os.path.join(overlaid, f"envelope_{view}.svg")).read()
            assert b.count("<circle") > a.count("<circle")
            # A plain flag: pytest's diff of two large SVGs would take minutes.
            same = b == open(os.path.join(expected, f"envelope_{view}.svg")).read()
            assert same, view

    def test_plot_curves(self, tmp_path, cfg_file):
        out = str(tmp_path / "o")
        run_cli("sweep", "--config", cfg_file, "--out", out)
        assert run_cli("plot", "--results", os.path.join(out, "results.csv"), "--out", out) == 0
        assert os.path.exists(os.path.join(out, "curves_init10_budget20.svg"))

    def test_plot_takes_one_input(self, tmp_path, capsys):
        # The input names the plot, so neither input, both, or an overlay
        # without the envelope it goes on is refused before any file is read.
        one_input = "error: plot takes one input"
        for inputs, message in (
            ((), one_input),
            (("--results", "r.csv", "--envelope", "e.xyz"), one_input),
            (("--labeled", "l.csv"), one_input),
            (("--results", "r.csv", "--labeled", "l.csv"), "error: --labeled overlays"),
        ):
            capsys.readouterr()
            assert run_cli("plot", *inputs, "--out", str(tmp_path / "o")) == 2, inputs
            err = capsys.readouterr().err
            assert err.startswith(message) and err.count("\n") == 1, inputs
        assert not os.path.exists(tmp_path / "o")


class TestFatalErrors:
    def test_unknown_config_key_fatal(self, tmp_path, capsys):
        # A typo, the al.* keys that each held a cell of the grid, and the
        # forest and committee settings that are now constants.
        for line, commands in (
            ("arm.length = 3", ("gen-scene",)),
            ("al.strategy = qbc", ("run", "sweep")),
            ("al.init_size = 20", ("run", "sweep")),
            ("al.n_queries = 10", ("run", "sweep")),
            ("al.seed = 1", ("run", "sweep")),
            ("forest.max_depth = 4", ("run", "sweep")),
            ("forest.min_samples_leaf = 2", ("run", "sweep")),
            ("forest.bootstrap = false", ("run", "sweep")),
            ("forest.features_per_split = 9", ("run", "sweep")),
            ("al.committee_size = 3", ("run", "sweep")),
        ):
            bad = tmp_path / "bad.cfg"
            bad.write_text(CFG_TEXT + line + "\n")
            for command in commands:
                capsys.readouterr()
                assert run_cli(command, "--config", str(bad), "--out", str(tmp_path)) == 2
                assert f"unknown configuration key '{line.split()[0]}'" in capsys.readouterr().err

    def test_repeated_grid_value_fatal(self, tmp_path, capsys):
        # A repeated value would write each of its cells' rows twice while
        # the summary counts them once.
        for old, new in (
            ("grid.strategies = random, entropy", "grid.strategies = random, random"),
            ("grid.init_sizes = 10", "grid.init_sizes = 10, 10"),
            ("grid.budgets = 20", "grid.budgets = 20 20"),
            ("grid.seeds = 0, 1", "grid.seeds = 0, 0"),
        ):
            bad = tmp_path / "bad.cfg"
            bad.write_text(CFG_TEXT.replace(old, new))
            for command in ("run", "sweep"):
                capsys.readouterr()
                assert run_cli(command, "--config", str(bad), "--out", str(tmp_path)) == 2
                assert f"{old.split()[0]} repeats a value" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_non_finite_config_number_fatal(self, tmp_path, cfg_file, capsys):
        out = str(tmp_path / "o")
        assert run_cli("gen-scene", "--config", cfg_file, "--out", out) == 0
        det = os.path.join(out, "detections.csv")
        for line, commands in (
            ("scene.apples_per_image = nan", [["gen-scene"]]),
            ("cam.fx = nan", [["gen-scene"], ["label", "--detections", det]]),
        ):
            bad = tmp_path / "bad.cfg"
            bad.write_text(line + "\n")
            for command in commands:
                capsys.readouterr()
                assert run_cli(*command, "--config", str(bad), "--out", out) == 2
                assert "not a finite number" in capsys.readouterr().err

    def test_extreme_finite_config_or_empty_scene_fatal(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        for text, message in (
            (b"scene.apples_per_image = 1e300", "apples_per_image"),
            (b"cam.fx = 1e-300\ncam.cx = 1e-300", "focal lengths"),
            (b"scene.apples_per_image = 0", "no detection"),
            (b"scene.seed = \xff", f"cannot read config file {bad}"),
        ):
            bad.write_bytes(b"scene.n_images = 2\n" + text + b"\n")
            capsys.readouterr()
            assert run_cli("gen-scene", "--config", str(bad), "--out", str(tmp_path)) == 2
            assert message in capsys.readouterr().err

    def test_scene_without_detections_writes_no_file(self, tmp_path):
        # gen-scene writes its blocks as they are drawn; it checks the first
        # before the file is opened.  A scene of no images writes the header.
        config, out = tmp_path / "scene.cfg", tmp_path / "out"
        config.write_text("scene.n_images = 2\nscene.apples_per_image = 0\n")
        assert run_cli("gen-scene", "--config", str(config), "--out", str(out)) == 2
        assert not (out / "detections.csv").exists()
        config.write_text("scene.n_images = 0\n")
        assert run_cli("gen-scene", "--config", str(config), "--out", str(out)) == 0
        assert (out / "detections.csv").read_text().splitlines() == [",".join(DETECTION_COLUMNS)]

    @pytest.mark.parametrize(
        "line, key",
        [
            ("forest.n_trees = 0", "forest.n_trees"),
            ("forest.seed = -1", "forest.seed"),
            ("arm.L1 = -2", "arm.L1"),
            ("arm.Le = -1", "arm.Le"),
            ("arm.collision_margin = -1", "arm.collision_margin"),
            ("arm.theta2_min = 2", "arm.theta2_min"),
            ("arm.theta2_max = 1.6", "arm.theta2_max"),
            ("data.test_frac = 1", "data.test_frac"),
            ("scene.dropout_prob = 2", "scene.dropout_prob"),
            ("scene.wall_distance = 0", "scene.wall_distance"),
            ("scene.depth_noise_std = -1", "scene.depth_noise_std"),
            ("scene.n_images = -1", "scene.n_images"),
            ("scene.seed = -1", "scene.seed"),
            ("cam.fx = 0", "cam.fx"),
            ("cam.cx = -5", "cam.cx"),
            ("cam.depth_width = 0", "cam.depth_width"),
        ],
    )
    def test_section_errors_name_their_key(self, tmp_path, capsys, line, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n")
        capsys.readouterr()
        assert run_cli("gen-scene", "--config", str(bad), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0], err

    def test_scene_too_large_to_map_fatal(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", no_memory)
        big = tmp_path / "big.cfg"
        big.write_text("scene.n_images = 1000000\nscene.apples_per_image = 1000\n")
        assert run_cli("gen-scene", "--config", str(big), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "scene.n_images" in err and "scene.apples_per_image" in err
        assert f"need {(1_250_000_000 + 64) * 121 * 8} bytes" in err  # 1.25 x the mean rows, + 64

    def test_scene_too_large_to_map_fatal_for_run_and_sweep(self, tmp_path, cfg_file, capsys, monkeypatch):
        # Every command that draws the scene reserves generate_scene's window
        # map first, so run and sweep refuse it with gen-scene's error line.
        def no_memory(*args, **kwargs):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", no_memory)
        lines = set()
        for command in ("gen-scene", "run", "sweep"):
            out = tmp_path / command
            capsys.readouterr()
            assert run_cli(command, "--config", cfg_file, "--out", str(out)) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: "), err
            assert "scene.n_images" in err[0] and "scene.apples_per_image" in err[0]
            assert not (out / "results.csv").exists() and not (out / "detections.csv").exists()
            lines.add(err[0])
        assert len(lines) == 1, lines

    @pytest.mark.parametrize(
        "text, message",
        [
            ("scene.n_images = 2\nfoo\n", "line 2: expected 'key = value', got 'foo'"),
            ("scene.sed = 1\n", "unknown configuration key 'scene.sed'"),
            ("scene.seed = x\n", "bad value for 'scene.seed': "),
        ],
        ids=["syntax", "unknown-key", "bad-value"],
    )
    def test_config_errors_name_the_file(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        capsys.readouterr()
        assert run_cli("gen-scene", "--config", str(bad), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: {message}"), err

    def test_cells_too_large_to_map_fatal(self, tmp_path, cfg_file, capsys, monkeypatch):
        # Either reader's cells go in a map too; one that cannot be made
        # names the file.
        out = str(tmp_path / "o")
        assert run_cli("gen-scene", "--config", cfg_file, "--out", out) == 0
        det = os.path.join(out, "detections.csv")
        assert run_cli("label", "--config", cfg_file, "--detections", det, "--out", out) == 0
        data = os.path.join(out, "labeled.csv")

        def no_memory(*args, **kwargs):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", no_memory)
        run_out = str(tmp_path / "r")
        for argv, path in (
            (("label", "--config", cfg_file, "--detections", det, "--out", run_out), det),
            (("run", "--config", cfg_file, "--data", data, "--out", run_out), data),
        ):
            capsys.readouterr()
            assert run_cli(*argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and path in err, err

    def test_bad_run_sizes_and_strategy_fatal(self, tmp_path, cfg_file, capsys):
        out = str(tmp_path / "o")
        for flags, message in (
            (("--init-size", "-5", "--budget", "5"), "grid.init_sizes must be at least 1"),
            (("--init-size", "0"), "grid.init_sizes must be at least 1"),
            (("--budget", "-1"), "grid.budgets nonnegative"),
            (("--pool", "pool.csv"), "--pool needs --data"),
        ):
            capsys.readouterr()
            assert run_cli("run", "--config", cfg_file, "--out", out, *flags) == 2
            assert message in capsys.readouterr().err
        for line, message in (
            ("grid.init_sizes = -5", "grid.init_sizes must be at least 1"),
            ("grid.budgets = 50, -1", "grid.budgets nonnegative"),
            ("grid.strategies = qbc\nal.committee_trees = 0", "al.committee_trees must be at least 1"),
            ("al.committee_trees = -3", "al.committee_trees must be at least 1"),
            ("features.density_band = -1", "features.density_band must be nonnegative"),
            ("data.n_samples = 2", "data.test_frac = 0.2 leaves no test row of data.n_samples = 2"),
        ):
            bad = tmp_path / "bad.cfg"
            bad.write_text(line + "\n")
            for command in ("run", "sweep"):
                capsys.readouterr()
                assert run_cli(command, "--config", str(bad), "--out", out) == 2
                assert message in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--config", cfg_file, "--out", out, "--strategy", "bogus")
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "results.csv"))

    @pytest.mark.parametrize(
        "command",
        [
            ["gen-scene"],
            ["label", "--detections", "detections.csv"],
            ["run"],
            ["sweep"],
            ["envelope", "--steps", "2"],
            ["plot", "--results", "results.csv"],
        ],
        ids=lambda command: command[0],
    )
    def test_unwritable_out_fatal(self, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        for out in (blocker, blocker / "x"):
            capsys.readouterr()
            assert run_cli(*command, "--out", str(out)) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot create output directory {out}: ")
            assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, output",
        [
            ("gen-scene --config {cfg}", "detections.csv"),
            ("label --config {cfg} --detections {inputs}/detections.csv", "labeled.csv"),
            ("label --config {cfg} --detections {inputs}/detections.csv", "labeled.csv.meta"),
            ("run --config {cfg}", "results.csv"),
            ("sweep --config {cfg}", "results.csv"),
            ("envelope --steps 2", "envelope.xyz"),
            ("plot --envelope {inputs}/envelope.xyz", "envelope_top.svg"),
        ],
        ids=lambda param: param.split()[0],
    )
    def test_output_file_that_cannot_be_opened_fatal(self, tmp_path, cfg_file, capsys, command, output):
        inputs = tmp_path / "inputs"
        assert run_cli("gen-scene", "--config", cfg_file, "--out", str(inputs)) == 0
        assert run_cli("envelope", "--steps", "2", "--out", str(inputs)) == 0
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)
        capsys.readouterr()
        argv = [arg.format(cfg=cfg_file, inputs=inputs) for arg in command.split()]
        assert run_cli(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out / output) in err

    def test_label_missing_detections_fatal(self, tmp_path, capsys):
        code = run_cli(
            "label", "--detections", str(tmp_path / "missing.csv"), "--out", str(tmp_path)
        )
        assert code == 2
        header = ",".join(DETECTION_COLUMNS).encode() + b"\n"
        for name, row in (("bytes", b"img,\xff\xfe"), ("field", b"img," + b"1" * 200_000)):
            bad = tmp_path / f"{name}.csv"
            bad.write_bytes(header + row + b"\n")
            capsys.readouterr()
            assert run_cli("label", "--detections", str(bad), "--out", str(tmp_path)) == 2
            assert f"{name}.csv, line 2" in capsys.readouterr().err

    def test_label_without_labeled_record_fatal(self, tmp_path, capsys):
        # One row whose patch has no valid depth (dropped when labeling) and
        # one out-of-frame pixel (skipped on ingestion).
        det = tmp_path / "none.csv"
        rows = [["img", "100", "100", "30", "30", "0.8"] + ["0"] * 25,
                ["img", "5000", "100", "30", "30", "0.8"] + ["1.0"] * 25]
        det.write_text("\n".join(",".join(r) for r in [list(DETECTION_COLUMNS)] + rows) + "\n")
        out = tmp_path / "o"
        assert run_cli("label", "--detections", str(det), "--out", str(out)) == 2
        assert "no record of" in capsys.readouterr().err
        assert not os.path.exists(out / "labeled.csv")
        assert not os.path.exists(out / "labeled.csv.meta")

    def test_malformed_results_fatal(self, tmp_path, capsys):
        good = "random,0,10,20,0,10,0.5,0.5,0.5,0.5,0.5,0.5"
        header = ",".join(report.RESULT_COLUMNS)
        letter = tmp_path / "letter.csv"
        letter.write_text(f"{header}\n{good}\nrandom,x,10,20,1,20,0.5,0.5,0.5,0.5,0.5,0.5\n")
        short = tmp_path / "short.csv"
        short.write_text(f"{header}\n{good}\nrandom,0,10\n")
        for argv, message in (
            (("report", "--results", str(tmp_path / "missing.csv")), "missing.csv"),
            (("report", "--results", str(letter)), "letter.csv, line 3"),
            (
                ("plot", "--results", str(short), "--out", str(tmp_path)),
                "short.csv, line 3",
            ),
        ):
            capsys.readouterr()
            assert run_cli(*argv) == 2
            assert message in capsys.readouterr().err

    def test_malformed_envelope_fatal(self, tmp_path, capsys):
        four = tmp_path / "four.xyz"
        four.write_text("0 0 0\n1 1 1 1\n")
        ragged = tmp_path / "ragged.xyz"
        ragged.write_text("0 0 0\n0 0 0\n1 1\n")
        for path, message in (
            (tmp_path / "missing.xyz", "missing.xyz"),
            (four, "four.xyz, line 2"),
            (ragged, "ragged.xyz, line 3"),
        ):
            capsys.readouterr()
            argv = ("plot", "--envelope", str(path), "--out", str(tmp_path))
            assert run_cli(*argv) == 2
            assert message in capsys.readouterr().err

    def test_malformed_labeled_cache_fatal(self, tmp_path, capsys):
        for name, row in (("cells", "x," * 40 + "x"), ("short", "img,1.0,2.0")):
            bad = tmp_path / f"{name}.csv"
            bad.write_text(",".join(LABELED_COLUMNS) + "\n" + row + "\n")
            assert run_cli("run", "--data", str(bad), "--out", str(tmp_path)) == 2
            assert f"{name}.csv, line 2" in capsys.readouterr().err


class TestGridFlags:
    def test_strict_and_jobs_only_where_they_take_effect(self, capsys):
        # Each subcommand takes only the flags it reads.  Only parsed, never
        # run: each command parses alone, and fails on the flag added to it.
        parser = build_parser()
        label = ("label", "--detections", "d.csv")
        plot = ("plot", "--results", "r.csv")
        report_ = ("report", "--results", "r.csv")
        cases = [
            (command, flag)
            for flag in (("--strict",), ("--jobs", "2"))
            for command in (("gen-scene",), ("envelope",), report_)
        ]
        cases += [
            (label, ("--seed", "7")),
            (("envelope",), ("--seed", "7")),
            (plot, ("--config", "c.cfg")),
            (plot, ("--seed", "7")),
            (report_, ("--config", "c.cfg")),
            (report_, ("--seed", "7")),
            (report_, ("--out", "o")),
            (("run",), ("--jobs", "2")),
            # --seed is only run's cell seed, and output file names are fixed.
            (("gen-scene",), ("--seed", "1")),
            (("sweep",), ("--seed", "1")),
            (("gen-scene",), ("--detections", "d.csv")),
            (("gen-scene",), ("--detections", "nodir/d.csv")),
            (label, ("--labeled", "x.csv")),
            (("envelope",), ("--envelope", "e.xyz")),
            (plot, ("--kind", "curves")),
        ]
        for command, flag in cases:
            parser.parse_args(list(command))
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([*command, *flag])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {' '.join(flag)}" in err, (command, flag)

    def test_jobs_below_one_rejected(self, tmp_path, cfg_file, capsys):
        for jobs in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                run_cli("sweep", "--config", cfg_file, "--out", str(tmp_path), "--jobs", jobs)
            assert exc.value.code == 2
            assert "--jobs" in capsys.readouterr().err

    def test_envelope_steps_outside_range_rejected(self, capsys):
        # Only parsed, never run: a parser that let a large value through
        # must not build its steps**4 joint grid here.
        parser = build_parser()
        for steps in ("0", "1", str(MAX_ENVELOPE_STEPS + 1), "1000", "-2", "2.5", "x"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(["envelope", "--steps", steps])
            assert exc.value.code == 2
            assert "--steps" in capsys.readouterr().err
        for steps in (2, MAX_ENVELOPE_STEPS):
            assert parser.parse_args(["envelope", "--steps", str(steps)]).steps == steps

    def test_negative_seed_flag_rejected(self, tmp_path, cfg_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--config", cfg_file, "--out", str(tmp_path), "--seed", "-1")
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_worker_count_clamped_to_cpus_and_cells(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert report._worker_count(9, 30) == 4
        assert report._worker_count(9, 3) == 3
        assert report._worker_count(2, 30) == 2
        assert report._worker_count(1, 30) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert report._worker_count(8, 30) == 1


def test_annotations_resolve():
    # With postponed annotations, a name used only in one is never looked
    # up at import, so a missing import shows only here.
    functions = [f for f in vars(cli).values() if inspect.isfunction(f) and f.__module__ == cli.__name__]
    assert cli._load in functions
    for f in functions:
        typing.get_type_hints(f)


class TestReadme:
    def test_flag_table_matches_parser(self):
        (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        parsed = {
            name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
            for name, p in sub.choices.items()
        }
        text = README.read_text()
        table = re.search(r"\| subcommand \| flags \|\n\|---\|---\|\n((?:\|.*\n)+)", text)
        documented = {
            re.match(r"\| `([\w-]+)` \|", row).group(1): re.findall(r"`(--[\w-]+)`", row)
            for row in table.group(1).splitlines()
        }
        assert documented == parsed

    def test_command_block_parses(self, capsys):
        block = re.search(r"## Command line.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [argv for argv in lines if argv[:1] == ["reach-al"]]
        assert len(commands) >= 7
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                err = capsys.readouterr().err
                pytest.fail(f"README command does not parse: {' '.join(argv)}\n{err}")
