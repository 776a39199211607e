import csv
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reach_al.dataset import (
    DETECTION_COLUMNS,
    LABELED_COLUMNS,
    DetectionRecord,
    SceneConfig,
    generate_scene,
    ingest_detections,
    label_with_oracle,
    make_splits,
    read_labeled_cache,
    write_detections,
    write_labeled_cache,
)
from reach_al.errors import ConfigError, IngestionError, ReachALError
from reach_al.kinematics import ManipulatorParams
from reach_al.perception import CameraIntrinsics, DepthPatch, Extrinsics

INTR = CameraIntrinsics()
SMALL_SCENE = SceneConfig(n_images=40, seed=7)


@pytest.fixture(scope="module")
def small_records():
    return generate_scene(SMALL_SCENE)


VALID_CACHE_ROW = (
    ["img0", "100.0", "120.0", "30.0", "28.0", "0.9"]
    + ["1.2"] * 25
    + ["0.5", "0.1", "0.2", "1"]
    + ["0.55", "0.2", "0.36", "0.0", "0.01", "0.4"]
)
CACHE_CELLS = st.one_of(
    st.text(max_size=8),
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
)


VALID_DETECTION_ROW = ["img0", "100.0", "120.0", "30.0", "28.0", "0.9"] + ["1.2"] * 25


def write_cache_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABELED_COLUMNS)
        writer.writerows(rows)


class TestGenerateScene:
    def test_record_count_matches_poisson_mass(self):
        records = generate_scene(SceneConfig(n_images=100, apples_per_image=8.0, seed=1))
        # Sum of 100 Poisson(8) draws: far tails beyond [400, 1600] are
        # negligible (the total has mean 800, sd about 28).
        assert 400 <= len(records) <= 1600

    def test_full_dropout_invalidates_every_patch(self):
        records = generate_scene(SceneConfig(n_images=10, dropout_prob=1.0, seed=2))
        assert records
        for rec in records:
            assert not rec.patch.valid_mask.any()

    def test_deterministic_output(self, tmp_path):
        a = generate_scene(SceneConfig(n_images=15, seed=3))
        b = generate_scene(SceneConfig(n_images=15, seed=3))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_detections(pa, a)
        write_detections(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_pixels_inside_rgb_frame(self, small_records):
        for rec in small_records:
            assert 0 <= rec.u < INTR.rgb_width
            assert 0 <= rec.v < INTR.rgb_height

    def test_windows_materialized(self, small_records):
        for rec in small_records:
            assert rec.neighborhood is not None
            assert rec.neighborhood.shape == (11, 11)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SceneConfig(dropout_prob=1.5)
        with pytest.raises(ValueError):
            SceneConfig(wall_distance=-1.0)


class TestDetectionFiles:
    def test_round_trip(self, tmp_path, small_records):
        path = tmp_path / "detections.csv"
        write_detections(path, small_records)
        loaded = ingest_detections(path, INTR)
        assert loaded == small_records

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(
            "image_id,u,v,bbox_w,bbox_h,confidence,"
            + ",".join(f"d{i:02d}" for i in range(25))
            + "\n"
        )
        assert ingest_detections(path, INTR) == []

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(IngestionError):
            ingest_detections(tmp_path / "nope.csv", INTR)

    def test_malformed_header_fatal(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(IngestionError):
            ingest_detections(path, INTR)

    def test_bad_rows_skipped(self, tmp_path, small_records, caplog):
        path = tmp_path / "detections.csv"
        write_detections(path, small_records[:3])
        with open(path, "a") as fh:
            fh.write("x," + ",".join(["oops"] * 30) + "\n")
            fh.write("y,5000,10,5,5,0.9," + ",".join(["1.0"] * 25) + "\n")
            fh.write("z,100,100,nan,nan,0.9," + ",".join(["1.0"] * 25) + "\n")
            fh.write("w,100,100,inf,5,0.9," + ",".join(["1.0"] * 25) + "\n")
        with caplog.at_level(logging.WARNING):
            loaded = ingest_detections(path, INTR)
        assert loaded == small_records[:3]
        assert "skipped 4 malformed or boundary rows" in caplog.text

    def test_undecodable_or_oversized_file_names_file_and_line(self, tmp_path):
        header = ",".join(DETECTION_COLUMNS).encode() + b"\n"
        row = ",".join(VALID_DETECTION_ROW).encode() + b"\n"
        for name, data, line in (
            ("bytes", header + row + b"img1,\xff\xfe,1\n" + row, 3),
            ("field", header + row + b"img1," + b"9" * 200_000 + b"\n", 3),
            ("header", b"\xff" + header, 1),
        ):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(data)
            with pytest.raises(IngestionError, match=rf"{name}\.csv, line {line}:"):
                ingest_detections(path, INTR)

    @given(
        edits=st.lists(st.tuples(st.integers(0, 40), CACHE_CELLS), max_size=6),
        keep=st.integers(0, len(DETECTION_COLUMNS) + 3),
        raw=st.one_of(st.text(max_size=60), st.binary(max_size=60)),
    )
    def test_fuzzed_rows_raise_only_package_errors(self, tmp_path_factory, edits, keep, raw):
        row = (VALID_DETECTION_ROW + ["1.0"] * 3)[:keep]
        for i, cell in edits:
            if row:
                row[i % len(row)] = cell
        path = tmp_path_factory.mktemp("fuzz") / "detections.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(DETECTION_COLUMNS)
            writer.writerows([VALID_DETECTION_ROW, row])
        with open(path, "ab") as fh:
            fh.write(raw if isinstance(raw, bytes) else raw.encode("utf-8"))
        try:
            records = ingest_detections(path, INTR)
        except ReachALError:
            return
        assert 1 <= len(records) <= 3
        for rec in records:
            assert 0 <= rec.u < INTR.rgb_width and 0 <= rec.v < INTR.rgb_height
            assert np.isfinite([rec.bbox_w, rec.bbox_h]).all()

    def test_non_finite_pixel_or_box_rejected(self):
        rec = DetectionRecord("img", 100.0, 100.0, 30.0, 30.0, 0.8, DepthPatch(np.ones(25)))
        for name in ("u", "v", "bbox_w", "bbox_h"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match="finite"):
                    replace(rec, **{name: value})

    def test_zero_patch_row_retained(self, tmp_path):
        rec = DetectionRecord(
            image_id="img",
            u=100.0,
            v=100.0,
            bbox_w=30.0,
            bbox_h=30.0,
            confidence=0.8,
            patch=DepthPatch(np.zeros(25)),
        )
        path = tmp_path / "zero.csv"
        write_detections(path, [rec])
        loaded = ingest_detections(path, INTR)
        assert loaded == [rec]
        result = label_with_oracle(loaded, INTR)
        assert result.samples == [] and result.n_dropped == 1


class TestLabelWithOracle:
    def test_known_reachable_point(self):
        # Principal-point pixel at depth 0.2 with t = (0.95, 0, 0.3) lands
        # on the forward-kinematics image of the zero configuration.
        u = INTR.cx * INTR.rgb_width / INTR.depth_width
        v = INTR.cy * INTR.rgb_height / INTR.depth_height
        rec = DetectionRecord(
            image_id="img",
            u=u,
            v=v,
            bbox_w=40.0,
            bbox_h=40.0,
            confidence=0.9,
            patch=DepthPatch(np.full(25, 0.2)),
        )
        ext = Extrinsics(np.eye(3), [0.95, 0.0, 0.3])
        result = label_with_oracle([rec], INTR, ext, ManipulatorParams())
        assert len(result.samples) == 1
        s = result.samples[0]
        np.testing.assert_allclose(s.arm_point.as_array(), [0.95, 0.0, 0.5], atol=1e-12)
        assert s.label == 1

    def test_drop_accounting(self, small_records):
        result = label_with_oracle(small_records, INTR)
        assert result.n_dropped + len(result.samples) == len(small_records)

    def test_labels_are_function_of_arm_point(self, small_records):
        result = label_with_oracle(small_records[:200], INTR)
        rev = label_with_oracle(list(reversed(small_records[:200])), INTR)
        assert [s.label for s in rev.samples] == [
            s.label for s in reversed(result.samples)
        ]

    def test_density_fallback_flagged_for_ingested_data(self, tmp_path, small_records):
        path = tmp_path / "d.csv"
        write_detections(path, small_records[:20])
        loaded = ingest_detections(path, INTR)
        assert label_with_oracle(loaded, INTR).patch_density_fallback
        assert not label_with_oracle(small_records[:20], INTR).patch_density_fallback


class TestMakeSplits:
    def _samples(self, n=1000, seed=80):
        rng = np.random.default_rng(seed)
        recs = generate_scene(SceneConfig(n_images=200, seed=seed))
        result = label_with_oracle(recs, INTR)
        assert len(result.samples) >= n
        return result.samples[:n]

    def test_split_sizes(self):
        samples = self._samples()
        split = make_splits(samples, [], test_frac=0.2, init_size=10, seed=0)
        assert len(split.test) == 200
        assert len(split.labeled) == 10
        assert len(split.unlabeled) == 790

    def test_candidates_join_pool(self):
        samples = self._samples()
        split = make_splits(samples[:500], samples[500:], 0.2, 30, seed=1)
        assert len(split.test) == 100
        assert len(split.labeled) == 30
        assert len(split.unlabeled) == 370 + 500

    def test_deterministic(self):
        samples = self._samples()
        a = make_splits(samples, [], 0.2, 50, seed=3)
        b = make_splits(samples, [], 0.2, 50, seed=3)
        assert a.labeled == b.labeled
        assert a.unlabeled == b.unlabeled
        assert a.test == b.test

    def test_partition_is_disjoint_and_complete(self):
        samples = self._samples(400)
        split = make_splits(samples, [], 0.25, 20, seed=4)
        ids = lambda group: {id(s) for s in group}
        all_ids = ids(split.labeled) | ids(split.unlabeled) | ids(split.test)
        assert len(all_ids) == 400
        assert all_ids == ids(samples)

    def test_stratified_seed(self):
        samples = self._samples()
        for seed in range(20):
            split = make_splits(samples, [], 0.2, 10, seed=seed)
            labels = {s.label for s in split.labeled}
            assert labels == {0, 1}

    def test_init_size_too_large(self):
        samples = self._samples(100)
        with pytest.raises(ConfigError):
            make_splits(samples, [], 0.2, 81, seed=0)

    def test_reveal_reads_hidden_label(self):
        samples = self._samples(100)
        split = make_splits(samples, [], 0.2, 10, seed=0)
        assert split.reveal(3) == split.unlabeled[3].label


class TestLabeledCache:
    def test_round_trip(self, tmp_path, small_records):
        result = label_with_oracle(small_records, INTR)
        path = tmp_path / "labeled.csv"
        write_labeled_cache(path, result)
        loaded = read_labeled_cache(path)
        assert loaded.records == result.records
        assert loaded.samples == result.samples

    def test_malformed_rows_name_file_and_line(self, tmp_path):
        for name, row in (
            ("cells", ["x"] * len(LABELED_COLUMNS)),
            ("short", VALID_CACHE_ROW[:12]),
            ("label", VALID_CACHE_ROW[:34] + ["2"] + VALID_CACHE_ROW[35:]),
            ("bbox", VALID_CACHE_ROW[:3] + ["nan", "nan"] + VALID_CACHE_ROW[5:]),
        ):
            path = tmp_path / f"{name}.csv"
            write_cache_rows(path, [VALID_CACHE_ROW, row])
            with pytest.raises(IngestionError, match=rf"{name}\.csv, line 3"):
                read_labeled_cache(path)

    def test_valid_row_loads(self, tmp_path):
        path = tmp_path / "one.csv"
        write_cache_rows(path, [VALID_CACHE_ROW])
        assert [s.label for s in read_labeled_cache(path).samples] == [1]

    @given(
        edits=st.lists(st.tuples(st.integers(0, 60), CACHE_CELLS), max_size=6),
        keep=st.integers(0, len(LABELED_COLUMNS) + 3),
        raw=st.text(max_size=60),
    )
    def test_fuzzed_rows_raise_only_package_errors(self, tmp_path_factory, edits, keep, raw):
        row = (VALID_CACHE_ROW + ["1.0"] * 3)[:keep]
        for i, cell in edits:
            if row:
                row[i % len(row)] = cell
        path = tmp_path_factory.mktemp("fuzz") / "cache.csv"
        write_cache_rows(path, [row])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(raw)
        try:
            read_labeled_cache(path)
        except ReachALError:
            pass

    def test_class_balance_of_default_scene(self):
        from reach_al.config import default_config

        cfg = default_config()
        records = generate_scene(SceneConfig(n_images=150, seed=9))
        result = label_with_oracle(records, cfg.cam, cfg.ext, cfg.arm)
        rate = np.mean([s.label for s in result.samples])
        assert 0.2 <= rate <= 0.8
