import os

import numpy as np
import pytest

from reach_al import report
from reach_al.cli import main
from reach_al.dataset import DETECTION_COLUMNS, LABELED_COLUMNS
from reach_al.report import read_results

CFG_TEXT = """
scene.n_images = 120
data.n_samples = 300
data.pool_size = 300
forest.n_trees = 15
al.batch_size = 10
al.init_size = 10
al.n_queries = 20
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
        for flags, code in (((), 0), (("--strict",), 1)):
            out = str(tmp_path / ("strict" if flags else "lenient"))
            assert run_cli("sweep", "--config", str(cfg), "--out", out, *flags) == code
            failed = sorted(
                (r.strategy, r.init_size)
                for r in read_results(os.path.join(out, "results.csv"))
                if r.round == -1
            )
            assert failed == [("entropy", 500), ("random", 500)]


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
        bad = tmp_path / "bad.cfg"
        bad.write_text("arm.length = 3\n")
        assert run_cli("gen-scene", "--config", str(bad), "--out", str(tmp_path)) == 2
        assert "unknown configuration key" in capsys.readouterr().err

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

    def test_malformed_labeled_cache_fatal(self, tmp_path, capsys):
        for name, row in (("cells", "x," * 40 + "x"), ("short", "img,1.0,2.0")):
            bad = tmp_path / f"{name}.csv"
            bad.write_text(",".join(LABELED_COLUMNS) + "\n" + row + "\n")
            assert run_cli("run", "--data", str(bad), "--out", str(tmp_path)) == 2
            assert f"{name}.csv, line 2" in capsys.readouterr().err


class TestGridFlags:
    def test_strict_and_jobs_only_where_they_take_effect(self, tmp_path):
        for flag in (("--strict",), ("--jobs", "2")):
            for command in (("gen-scene",), ("envelope",), ("report", "--results", "r.csv")):
                with pytest.raises(SystemExit) as exc:
                    run_cli(*command, "--out", str(tmp_path), *flag)
                assert exc.value.code == 2

    def test_jobs_below_one_rejected(self, tmp_path, cfg_file, capsys):
        for jobs in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                run_cli("sweep", "--config", cfg_file, "--out", str(tmp_path), "--jobs", jobs)
            assert exc.value.code == 2
            assert "--jobs" in capsys.readouterr().err

    def test_worker_count_clamped_to_cpus_and_cells(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert report._worker_count(9, 30) == 4
        assert report._worker_count(9, 3) == 3
        assert report._worker_count(2, 30) == 2
        assert report._worker_count(1, 30) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert report._worker_count(8, 30) == 1
