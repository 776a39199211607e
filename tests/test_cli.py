import os

import numpy as np
import pytest

from reach_al import report
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

    def test_seed_flag_changes_scene(self, tmp_path, cfg_file):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        run_cli("gen-scene", "--config", cfg_file, "--out", out_a, "--seed", "1")
        run_cli("gen-scene", "--config", cfg_file, "--out", out_b, "--seed", "2")
        a = open(os.path.join(out_a, "detections.csv"), "rb").read()
        b = open(os.path.join(out_b, "detections.csv"), "rb").read()
        assert a != b


class TestRunAndSweep:
    def test_run_single_cell(self, tmp_path, cfg_file, capsys):
        out = str(tmp_path / "o")
        code = run_cli("run", "--config", cfg_file, "--strategy", "entropy", "--out", out)
        assert code == 0
        assert os.path.exists(os.path.join(out, "results.csv"))
        assert "entropy" in capsys.readouterr().out

    def test_run_is_the_sweep_of_its_cell(self, tmp_path):
        # run narrows each grid list to its flag's value, or else to its
        # first value; --seed also sets scene.seed, as it does for sweep.
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
            seed = flags[flags.index("--seed") :] if "--seed" in flags else ()
            assert run_cli("sweep", "--config", str(one), "--out", sweep_out, *seed) == 0
            rows = read_results(os.path.join(run_out, "results.csv"))
            assert {(r.strategy, r.init_size, r.budget, r.seed) for r in rows} == {cell}
            for name in ("results.csv", "summary.csv"):
                ran = open(os.path.join(run_out, name), "rb").read()
                assert ran == open(os.path.join(sweep_out, name), "rb").read(), (flags, name)

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
        assert run_cli(*argv, "--data", data, "--pool", data) == 0


class TestEnvelopeAndPlots:
    def test_envelope_then_plot(self, tmp_path, cfg_file):
        out = str(tmp_path / "o")
        assert run_cli("envelope", "--config", cfg_file, "--steps", "8", "--out", out) == 0
        env_path = os.path.join(out, "envelope.xyz")
        pts = np.loadtxt(env_path)
        assert pts.shape[1] == 3 and len(pts) > 100
        assert run_cli("plot", "--kind", "envelope", "--envelope", env_path, "--out", out) == 0
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
        assert run_cli("plot", "--kind", "envelope", "--envelope", env_path, "--out", plain) == 0
        labeled = os.path.join(out, "labeled.csv")
        argv = ("plot", "--kind", "envelope", "--envelope", env_path, "--labeled", labeled)
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
        code = run_cli(
            "plot", "--kind", "curves", "--results", os.path.join(out, "results.csv"),
            "--out", out,
        )
        assert code == 0
        assert os.path.exists(os.path.join(out, "curves_init10_budget20.svg"))

    def test_plot_curves_requires_results(self, tmp_path, capsys):
        assert run_cli("plot", "--kind", "curves", "--out", str(tmp_path)) == 2
        assert "error" in capsys.readouterr().err


class TestFatalErrors:
    def test_unknown_config_key_fatal(self, tmp_path, capsys):
        # A typo, and the al.* keys that each held a cell of the grid.
        for line, commands in (
            ("arm.length = 3", ("gen-scene",)),
            ("al.strategy = qbc", ("run", "sweep")),
            ("al.init_size = 20", ("run", "sweep")),
            ("al.n_queries = 10", ("run", "sweep")),
            ("al.seed = 1", ("run", "sweep")),
        ):
            bad = tmp_path / "bad.cfg"
            bad.write_text(CFG_TEXT + line + "\n")
            for command in commands:
                capsys.readouterr()
                assert run_cli(command, "--config", str(bad), "--out", str(tmp_path)) == 2
                assert f"unknown configuration key '{line.split()[0]}'" in capsys.readouterr().err

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
        for text, message in (
            ("scene.apples_per_image = 1e300", "apples_per_image"),
            ("cam.fx = 1e-300\ncam.cx = 1e-300", "focal lengths"),
            ("scene.apples_per_image = 0", "no detection"),
        ):
            bad = tmp_path / "bad.cfg"
            bad.write_text(f"scene.n_images = 2\n{text}\n")
            capsys.readouterr()
            assert run_cli("gen-scene", "--config", str(bad), "--out", str(tmp_path)) == 2
            assert message in capsys.readouterr().err

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
                ("plot", "--kind", "curves", "--results", str(short), "--out", str(tmp_path)),
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
            argv = ("plot", "--kind", "envelope", "--envelope", str(path), "--out", str(tmp_path))
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
        plot = ("plot", "--kind", "curves")
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
            run_cli("gen-scene", "--config", cfg_file, "--out", str(tmp_path), "--seed", "-1")
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
