import csv
import logging
import os
import subprocess
import sys
import textwrap
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reach_al import dataset, report
from reach_al.active import STRATEGIES
from reach_al.config import apply_overrides, default_config
from reach_al.dataset import (
    DETECTION_COLUMNS,
    LABELED_COLUMNS,
    LabeledSample,
    SceneConfig,
    generate_scene,
    ingest_detections,
    label_with_oracle,
    read_labeled_cache,
    write_labeled_cache,
)
from reach_al.errors import ConfigError, IngestionError, ReachALError
from reach_al.report import (
    RESULT_COLUMNS,
    ResultRow,
    build_benchmark,
    emit_curve_plots,
    emit_envelope_plots,
    format_summary_table,
    read_results,
    run_grid,
    summarize,
    write_results,
)
from test_dataset import INTR, VALID_CACHE_ROW, VALID_DETECTION_ROW

TINY_OVERRIDES = {
    "scene.n_images": "120",
    "data.n_samples": "300",
    "data.pool_size": "400",
    "forest.n_trees": "15",
    "al.batch_size": "10",
    "grid.strategies": "random, entropy",
    "grid.init_sizes": "10",
    "grid.budgets": "20",
    "grid.seeds": "0, 1",
}


@pytest.fixture(scope="module")
def tiny_cfg():
    return apply_overrides(default_config(), TINY_OVERRIDES)


def with_grid(cfg, **lists):
    """``cfg`` with these ``grid.*`` lists."""
    return replace(cfg, grid=replace(cfg.grid, **lists))


@pytest.fixture(scope="module")
def tiny_benchmark(tiny_cfg):
    return build_benchmark(tiny_cfg)


@pytest.fixture(scope="module")
def tiny_results(tiny_cfg, tiny_benchmark, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("sweep")
    results_path, summary_path, errors = run_grid(*tiny_benchmark, tiny_cfg, out_dir)
    assert errors == []
    return results_path, summary_path


class TestRunGrid:
    def test_row_count(self, tiny_results):
        rows = read_results(tiny_results[0])
        # 2 strategies x 2 seeds, each with round 0 plus 2 batches of 10.
        assert len(rows) == 2 * 2 * 3

    def test_deterministic_files(self, tiny_cfg, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        pa, sa, _ = run_grid(*build_benchmark(tiny_cfg), tiny_cfg, a)
        pb, sb, _ = run_grid(*build_benchmark(tiny_cfg), tiny_cfg, b)
        assert open(pa, "rb").read() == open(pb, "rb").read()
        assert open(sa, "rb").read() == open(sb, "rb").read()

    def test_parallel_matches_serial(self, tiny_cfg, tiny_benchmark, tiny_results, tmp_path):
        out = tmp_path / "par"
        path, _, errors = run_grid(*tiny_benchmark, tiny_cfg, out, jobs=2)
        assert errors == []
        assert open(path, "rb").read() == open(tiny_results[0], "rb").read()

    def test_results_reparse_identically(self, tiny_results):
        rows = read_results(tiny_results[0])
        assert all(isinstance(r, ResultRow) for r in rows)
        assert all(r.accuracy is not None for r in rows if r.round >= 0)

    def test_run_cell_metrics_are_python_floats(self, tiny_cfg, tiny_benchmark):
        # repr(np.float64(x)) is "np.float64(x)" under numpy 2, which would
        # corrupt results.csv; np.float64 subclasses float, so check the type.
        for strategy in ("random", "entropy", "qbc"):
            rows = report.run_cell(*tiny_benchmark, tiny_cfg, strategy, 10, 20, 0)
            cells = [v for r in rows for v in astuple(r)[RESULT_COLUMNS.index("accuracy") :]]
            assert len(cells) == 3 * 6
            assert all(v is None or type(v) is float for v in cells)

    def test_no_record_objects_from_labeling_to_the_cell(self, tiny_cfg, tmp_path, monkeypatch):
        """Labeled records stay columns: labeling, both cache directions, the
        scene and ``--data`` benchmarks and a cell build no ``LabeledSample``."""
        made, post_init = [], LabeledSample.__post_init__

        def counted(sample):
            made.append(sample)
            post_init(sample)

        monkeypatch.setattr(LabeledSample, "__post_init__", counted)
        detections = generate_scene(tiny_cfg.scene, tiny_cfg.cam)
        result = label_with_oracle(detections, tiny_cfg.cam, tiny_cfg.ext, tiny_cfg.arm)
        path = tmp_path / "labeled.csv"
        write_labeled_cache(path, result)
        write_labeled_cache(tmp_path / "again.csv", read_labeled_cache(path))
        for data in (None, path):
            samples, candidates = build_benchmark(tiny_cfg, data)
            report.run_cell(samples, candidates, tiny_cfg, "entropy", 10, 20, 0)
        assert made == []
        assert list(samples[:3]) == made and len(made) == 3  # the count sees iteration

    def test_write_read_round_trip(self, tiny_results, tmp_path):
        rows = read_results(tiny_results[0])
        path = tmp_path / "copy.csv"
        write_results(path, rows)
        assert open(path, "rb").read() == open(tiny_results[0], "rb").read()


SRC = Path(__file__).resolve().parents[1] / "src"
# The streamed build of a 3,200-image scene (about 25.5k rows), after one
# tiny build has warmed numpy: what it adds to the peak RSS, and the bytes
# of the scene's depth windows, measured after the peak was read.  The peak
# is VmHWM, that of the process's own memory; ru_maxrss keeps the peak of
# the process that started it, here the test run's, across exec.
BUILD_PEAK = textwrap.dedent(
    """
    from reach_al.config import apply_overrides, default_config
    from reach_al.dataset import generate_scene
    from reach_al.report import build_benchmark

    def peak():
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) * 1024

    sizes = {"data.n_samples": "10", "data.pool_size": "10"}
    build_benchmark(apply_overrides(default_config(), dict(sizes, **{"scene.n_images": "20"})))
    cfg = apply_overrides(default_config(), {"scene.n_images": "3200"})
    before = peak()
    build_benchmark(cfg)
    added = peak() - before
    print(added, len(generate_scene(cfg.scene, cfg.cam)) * 8 * 11 * 11)
    """
)


class TestBuildBenchmark:
    @settings(max_examples=30, deadline=None)
    @given(
        scene=st.builds(
            SceneConfig,
            n_images=st.integers(0, 40),
            apples_per_image=st.floats(0.0, 30.0),
            dropout_prob=st.sampled_from([0.0, 0.06, 1.0]),
            cluster_prob=st.sampled_from([0.0, 0.35, 1.0]),
            depth_noise_std=st.floats(0.0, 4.0),
            wall_distance=st.one_of(st.floats(0.05, 0.1), st.floats(0.3, 1.2), st.floats(19.0, 20.0)),
            wall_depth_jitter=st.sampled_from([0.0, 0.35]),
            lateral_spread=st.sampled_from([0.55, 3.0]),
            seed=st.integers(0, 2**32),
        )
    )
    # 512 and 1,024 detections, the second with a block boundary between images.
    @example(SceneConfig(n_images=40, apples_per_image=13.0, seed=0))
    @example(SceneConfig(n_images=40, apples_per_image=25.6, seed=6))
    # 773 detections, with the block boundary inside image 26.
    @example(SceneConfig(n_images=40, apples_per_image=20.0, seed=0))
    # 513 detections: the boundary falls inside the last image, and labeling
    # drops the second block's one row.
    @example(SceneConfig(n_images=40, apples_per_image=12.825, dropout_prob=0.95, seed=1101))
    # 1,237 detections, and labeling drops every row of all three blocks.
    @example(SceneConfig(n_images=40, apples_per_image=30.0, dropout_prob=1.0, seed=0))
    def test_streamed_rows_equal_labeling_the_whole_scene(self, scene):
        cfg = replace(default_config(), scene=scene)
        whole = generate_scene(scene, cfg.cam)
        expected = label_with_oracle(whole, cfg.cam, cfg.ext, cfg.arm, cfg.features.density_band).samples
        n = len(expected)
        n_samples = max(3, n // 2)
        remedy = "raise scene.n_images or scene.apples_per_image"
        if n < n_samples:
            cfg.data = replace(cfg.data, n_samples=n_samples, pool_size=0)
            message = f"the scene gives {n} samples, fewer than data.n_samples = {n_samples}; "
            with pytest.raises(ConfigError, match=f"^{message}lower data.n_samples or {remedy}$"):
                build_benchmark(cfg)
            return
        cfg.data = replace(cfg.data, n_samples=n_samples, pool_size=n - n_samples)
        samples, candidates = build_benchmark(cfg)
        assert np.concatenate([samples.X, candidates.X]).tobytes() == expected.X.tobytes()
        assert np.concatenate([samples.y, candidates.y]).tobytes() == expected.y.tobytes()
        pool_size = n - n_samples + 1
        cfg.data = replace(cfg.data, pool_size=pool_size)
        message = f"the scene gives {n - n_samples} candidates, fewer than data.pool_size = {pool_size}; "
        with pytest.raises(ConfigError, match=f"^{message}lower data.pool_size or {remedy}$"):
            build_benchmark(cfg)

    def test_returned_rows_are_copies_not_cache_maps(self, tiny_cfg, tmp_path, monkeypatch):
        maps = []

        class Recorded(dataset._Cells):
            def _new(self, size):
                maps.append(super()._new(size))
                return maps[-1]

        monkeypatch.setattr(dataset, "_Cells", Recorded)
        data, pool = tmp_path / "data.csv", tmp_path / "pool.csv"
        for path, seed in ((data, 1), (pool, 2)):
            det = generate_scene(replace(tiny_cfg.scene, seed=seed), tiny_cfg.cam)
            write_labeled_cache(path, label_with_oracle(det, tiny_cfg.cam, tiny_cfg.ext, tiny_cfg.arm))
        for caches in ((), (data,), (data, pool)):
            maps.clear()
            samples, candidates = build_benchmark(tiny_cfg, *caches)
            assert (len(samples), len(candidates)) == (tiny_cfg.data.n_samples, tiny_cfg.data.pool_size)
            assert maps or not caches
            for arr in (samples.X, samples.y, candidates.X, candidates.y):
                assert arr.flags.c_contiguous and arr.flags.owndata
                assert not any(np.may_share_memory(arr, np.frombuffer(m, dtype=np.uint8)) for m in maps)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from Linux's /proc")
    def test_streamed_build_adds_less_than_the_scene_windows(self):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", BUILD_PEAK], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        added, window_bytes = map(int, proc.stdout.split())
        assert window_bytes > 24_000_000
        assert added < window_bytes


UNCERTAINTY = ("least_confidence", "margin", "entropy")


@pytest.fixture()
def runs(monkeypatch):
    """The (strategy, init_size, budget, seed) of each ``run_cell`` call in this process."""
    runs = []
    real = report.run_cell

    def counted(*args):
        runs.append(args[3:])
        return real(*args)

    monkeypatch.setattr(report, "run_cell", counted)
    return runs


class TestScorerFanOut:
    """Names that share a scorer share one run per (init, seed)."""

    def test_five_names_run_three_scorers(self, tiny_cfg, tiny_benchmark, runs, tmp_path):
        cfg = with_grid(tiny_cfg, strategies=STRATEGIES)
        path, _, errors = run_grid(*tiny_benchmark, cfg, tmp_path)
        assert errors == []
        assert sorted(r[0] for r in runs) == sorted(["random", "least_confidence", "qbc"] * 2)
        by_name = {}
        for r in read_results(path):
            by_name.setdefault(r.strategy, []).append(replace(r, strategy=""))
        assert sorted(by_name) == sorted(STRATEGIES)
        assert len(by_name["margin"]) == 2 * 3
        assert by_name["least_confidence"] == by_name["margin"] == by_name["entropy"]

    def test_one_name_keeps_its_name(self, tiny_cfg, tiny_benchmark, runs, tmp_path):
        cfg = with_grid(tiny_cfg, strategies=("margin",), seeds=(0,))
        path, _, _ = run_grid(*tiny_benchmark, cfg, tmp_path)
        assert [r[0] for r in runs] == ["margin"]
        assert {r.strategy for r in read_results(path)} == {"margin"}

    def test_one_shared_run_starts_no_pool(self, tiny_cfg, tiny_benchmark, runs, tmp_path):
        # Three cells but one distinct run: a pool worker's call would not
        # be counted in this process.
        cfg = with_grid(tiny_cfg, strategies=UNCERTAINTY, seeds=(0,))
        run_grid(*tiny_benchmark, cfg, tmp_path, jobs=2)
        assert [r[0] for r in runs] == ["least_confidence"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_shared_run_fails_every_name(self, tiny_cfg, tiny_benchmark, tmp_path, jobs):
        # init_size 500 exceeds the samples left after the test split.
        cfg = with_grid(tiny_cfg, strategies=UNCERTAINTY, init_sizes=(500,))
        path, _, errors = run_grid(*tiny_benchmark, cfg, tmp_path, jobs=jobs)
        cells = [(s, 500, 20, seed) for s in UNCERTAINTY for seed in (0, 1)]
        assert [cell for cell, _ in errors] == cells
        messages = dict(errors)
        assert all(messages[cell] == messages[("entropy",) + cell[1:]] for cell in cells)
        failed = [(r.strategy, r.seed) for r in read_results(path) if r.round == -1]
        assert failed == [(s, seed) for s, _, _, seed in sorted(cells)]

    def test_progress_logged_about_ten_times(self, tiny_cfg, monkeypatch, caplog, tmp_path):
        monkeypatch.setattr(report, "run_cell", lambda *args: [])
        cfg = with_grid(tiny_cfg, strategies=("random",) + UNCERTAINTY, seeds=tuple(range(11)))
        caplog.set_level(logging.INFO, logger=report.__name__)
        run_grid([], [], cfg, tmp_path)
        done = [r.getMessage() for r in caplog.records if r.getMessage().startswith("runs done")]
        # 22 distinct runs: every third one, and the last.
        assert [m.split(",")[0] for m in done] == [f"runs done {i}/22" for i in (3, 6, 9, 12, 15, 18, 21, 22)]


class TestBudgetPrefixes:
    """A budget that is a multiple of the batch takes the leading rounds of
    the run at the largest budget; the rows equal a run of its own."""

    @staticmethod
    def at_batch(cfg, batch, budgets, **changes):
        return replace(with_grid(cfg, budgets=budgets, **changes), al=replace(cfg.al, batch_size=batch))

    @staticmethod
    def assert_rows_as_if_run_alone(samples, candidates, cfg, path, tmp_path):
        grid = cfg.grid
        expected = [
            r
            for s in grid.strategies
            for init in grid.init_sizes
            for budget in grid.budgets
            for seed in grid.seeds
            for r in report.run_cell(samples, candidates, cfg, s, init, budget, seed)
        ]
        write_results(tmp_path / "alone.csv", expected)
        assert open(path, "rb").read() == open(tmp_path / "alone.csv", "rb").read()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_multiples_of_the_batch_halve_the_runs(self, tiny_cfg, tiny_benchmark, runs, tmp_path, jobs):
        cfg = self.at_batch(tiny_cfg, 4, (4, 8))
        path, _, errors = run_grid(*tiny_benchmark, cfg, tmp_path / "grid", jobs=jobs)
        assert errors == []
        if jobs == 1:  # a pool worker's calls are not counted in this process
            assert sorted(runs) == [(s, 10, 8, seed) for s in ("entropy", "random") for seed in (0, 1)]
        runs.clear()
        self.assert_rows_as_if_run_alone(*tiny_benchmark, cfg, path, tmp_path)

    def test_other_budgets_keep_their_own_run(self, tiny_cfg, tiny_benchmark, runs, tmp_path):
        cfg = self.at_batch(tiny_cfg, 4, (6, 8, 10), strategies=("entropy",), seeds=(0,))
        path, _, errors = run_grid(*tiny_benchmark, cfg, tmp_path / "grid")
        assert errors == []
        assert runs == [("entropy", 10, 6, 0), ("entropy", 10, 10, 0)]
        self.assert_rows_as_if_run_alone(*tiny_benchmark, cfg, path, tmp_path)

    def test_small_pool_and_budget_zero_match_separate_runs(self, tiny_cfg, tiny_benchmark, runs, tmp_path):
        # 40 samples hold out 8 for test and 10 to start from: a pool of 22.
        samples = tiny_benchmark[0][:40]
        cfg = self.at_batch(tiny_cfg, 4, (0, 8, 24, 28))
        path, _, errors = run_grid(samples, [], cfg, tmp_path / "grid")
        assert errors == []
        assert {budget for _, _, budget, _ in runs} == {28}
        rows = read_results(path)
        assert max(r.n_labeled for r in rows if r.budget == 24) == 10 + 22
        assert {r.round for r in rows if r.budget == 0} == {0}
        self.assert_rows_as_if_run_alone(samples, [], cfg, path, tmp_path)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_shared_run_fails_every_budget_and_name(self, tiny_cfg, tiny_benchmark, tmp_path, jobs):
        # init_size 500 exceeds the samples left after the test split.
        cfg = with_grid(tiny_cfg, strategies=UNCERTAINTY, init_sizes=(500,), budgets=(10, 20))
        path, _, errors = run_grid(*tiny_benchmark, cfg, tmp_path, jobs=jobs)
        cells = [(s, 500, b, seed) for s in UNCERTAINTY for b in (10, 20) for seed in (0, 1)]
        assert [cell for cell, _ in errors] == cells
        failed = [(r.strategy, r.init_size, r.budget, r.seed) for r in read_results(path) if r.round == -1]
        assert failed == sorted(cells)
        assert all(r.round == -1 for r in read_results(path))

    def test_start_logs_runs_and_cells(self, tiny_cfg, monkeypatch, caplog, tmp_path):
        monkeypatch.setattr(report, "run_cell", lambda *args: [])
        cfg = self.at_batch(tiny_cfg, 5, (7, 10, 20), strategies=STRATEGIES)
        caplog.set_level(logging.INFO, logger=report.__name__)
        run_grid([], [], cfg, tmp_path)
        # Per scorer and seed: one run at 20 for 10 and 20, one at 7.
        assert caplog.records[0].getMessage() == "12 AL runs for 30 cells"


VALID_RESULT_ROW = ["random", "0", "10", "20", "1", "20", "0.5", "0.25", "nan", "0.75", "0.5", "0.125"]
RESULT_CELLS = st.one_of(
    st.sampled_from(["", "x", "nan", "inf", "-1", "1e3", "1.5", "0", "random", '"']),
    st.text(max_size=8),
)


def write_result_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        writer.writerows(rows)


READERS = {
    "detections": (lambda path: ingest_detections(path, INTR), DETECTION_COLUMNS, VALID_DETECTION_ROW),
    "cache": (read_labeled_cache, LABELED_COLUMNS, VALID_CACHE_ROW),
    "results": (read_results, RESULT_COLUMNS, VALID_RESULT_ROW),
}
BROKEN_FILES = {
    "missing": (None, r"cannot open .*{}\.csv: "),
    "empty": (b"", r"{}\.csv is empty"),
    "header": (b"a,b,c\n", r"unexpected .* header in .*{}\.csv"),
    "bytes": (b"x,\xff\xfe\n", r"{}\.csv, line 3: "),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("case", sorted(BROKEN_FILES))
def test_readers_share_one_contract(tmp_path, reader, case):
    """A missing, empty, misheaded or undecodable file fails each reader
    alike, naming the file (and the line of the undecodable byte)."""
    read, columns, row = READERS[reader]
    data, message = BROKEN_FILES[case]
    path = tmp_path / f"{case}.csv"
    if case == "bytes":
        header, valid = (",".join(cells).encode() + b"\n" for cells in (columns, row))
        data = header + valid + data + valid
    if data is not None:
        path.write_bytes(data)
    with pytest.raises(IngestionError, match=message.format(case)):
        read(path)


class TestReadResults:
    def test_errors_name_file_and_line(self, tmp_path):
        for name, row in (
            ("letter", ["random", "x"] + VALID_RESULT_ROW[2:]),
            ("short", VALID_RESULT_ROW[:-1]),
            ("long", VALID_RESULT_ROW + ["1"]),
            ("float", VALID_RESULT_ROW[:6] + ["high"] + VALID_RESULT_ROW[7:]),
            ("range", VALID_RESULT_ROW[:6] + ["inf"] + VALID_RESULT_ROW[7:]),
        ):
            path = tmp_path / f"{name}.csv"
            write_result_rows(path, [VALID_RESULT_ROW, row])
            with pytest.raises(IngestionError, match=rf"{name}\.csv, line 3:"):
                read_results(path)

    @given(
        edits=st.lists(st.tuples(st.integers(0, 20), RESULT_CELLS), max_size=4),
        keep=st.integers(0, len(RESULT_COLUMNS) + 2),
        raw=st.one_of(st.text(max_size=60), st.binary(max_size=60)),
    )
    def test_fuzzed_rows_raise_only_package_errors(self, tmp_path_factory, edits, keep, raw):
        row = (VALID_RESULT_ROW + ["1.0"] * 2)[:keep]
        for i, cell in edits:
            if row:
                row[i % len(row)] = cell
        path = tmp_path_factory.mktemp("fuzz") / "results.csv"
        write_result_rows(path, [VALID_RESULT_ROW, row])
        with open(path, "ab") as fh:
            fh.write(raw if isinstance(raw, bytes) else raw.encode("utf-8"))
        try:
            rows = read_results(path)
        except ReachALError:
            return
        assert all(isinstance(r, ResultRow) for r in rows)
        summarize(rows)


class TestSummary:
    def test_summary_matches_recomputation(self, tiny_results):
        rows = read_results(tiny_results[0])
        summary = summarize(rows)
        for cell in summary:
            finals = {}
            for r in rows:
                if r.strategy != cell["strategy"] or r.init_size != cell["init_size"]:
                    continue
                if r.budget != cell["budget"] or r.round < 0:
                    continue
                cur = finals.get(r.seed)
                if cur is None or r.round > cur.round:
                    finals[r.seed] = r
            accs = [r.accuracy for r in finals.values()]
            assert cell["n_seeds"] == len(accs)
            assert abs(cell["accuracy_mean"] - np.mean(accs)) <= 1e-9
            assert abs(cell["accuracy_std"] - np.std(accs, ddof=1)) <= 1e-9

    def test_seed_std_is_the_summary_rule(self, tiny_results):
        assert report._seed_std([0.8]) == 0.0
        assert report._seed_std([0.8, 0.9, 0.7]) == float(np.std([0.8, 0.9, 0.7], ddof=1))
        one_seed = [r for r in read_results(tiny_results[0]) if r.seed == 0]
        for cell in summarize(one_seed):
            assert cell["n_seeds"] == 1 and cell["accuracy_std"] == cell["auc_std"] == 0.0

    def test_table_formatting(self, tiny_results):
        rows = read_results(tiny_results[0])
        table = format_summary_table(summarize(rows))
        assert "entropy" in table and "random" in table
        assert "budget" in table.splitlines()[0]

    def test_table_columns_stay_apart(self):
        summary = [
            dict(strategy=name, init_size=init, budget=budget, accuracy_mean=0.9445, accuracy_std=0.0123)
            for name in STRATEGIES
            for init, budget in ((10, 50), (10, 100), (20, 100))
        ]
        summary[0]["accuracy_mean"] = None
        lines = format_summary_table(summary).splitlines()
        assert len(lines) == 4 and lines[0].split() == ["budget", "init", *sorted(STRATEGIES)]
        assert [len(line.split()) for line in lines] == [2 + len(STRATEGIES)] * 4


class TestPlots:
    def test_curve_plots_one_per_combo(self, tiny_results, tmp_path):
        written = emit_curve_plots(tiny_results[0], tmp_path / "plots")
        assert len(written) == 1
        svg = open(written[0]).read()
        assert svg.startswith("<svg") and "polyline" in svg
        assert 'stroke-dasharray' in svg  # random drawn dashed

    def test_one_seed_band_is_finite(self, tiny_results, tmp_path):
        path = tmp_path / "one_seed.csv"
        write_results(path, [r for r in read_results(tiny_results[0]) if r.seed == 0])
        (written,) = emit_curve_plots(path, tmp_path / "plots")
        svg = open(written).read()
        assert "<polygon" in svg and "nan" not in svg

    def test_envelope_plots_three_views(self, tmp_path):
        rng = np.random.default_rng(0)
        env = rng.uniform(0, 1, size=(500, 3))
        fruit = rng.uniform(0, 1, size=(40, 3))
        labels = rng.integers(0, 2, size=40)
        written = emit_envelope_plots(env, tmp_path, fruit, labels)
        names = {p.split("/")[-1] for p in written}
        assert names == {"envelope_top.svg", "envelope_side.svg", "envelope_front.svg"}

    def test_empty_results_no_plots(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results(path, [])
        assert emit_curve_plots(path, tmp_path / "plots") == []
