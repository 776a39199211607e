import csv
import io
import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reach_al import dataset
from reach_al.dataset import (
    DETECTION_COLUMNS,
    LABELED_COLUMNS,
    Detections,
    LabeledRows,
    LabeledSample,
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
from reach_al.features import features_matrix, labels_array
from reach_al.kinematics import ManipulatorParams
from reach_al.perception import CameraIntrinsics, Extrinsics
from scene_reference import generate_scene as reference_scene
from test_perception import default_extrinsics

INTR = CameraIntrinsics()
# The field rig's camera mount and the default arm, passed to every labeling.
EXT, ARM = default_extrinsics(), ManipulatorParams()
SMALL_SCENE = SceneConfig(n_images=40, seed=7)
NUMERIC_COLUMNS = ("u", "v", "bbox_w", "bbox_h", "confidence", "patches")
# Image ids that csv.writer quotes, or that sit next to quoting.
QUOTED_IDS = ["a,b", 'q"t', "x\ny", " lead", "é"]


def one_detection(u=100.0, v=100.0, bbox_w=30.0, bbox_h=30.0, confidence=0.8, patch=np.ones(25)):
    return Detections(
        np.array(["img"], dtype=object),
        np.array([u]),
        np.array([v]),
        np.array([bbox_w]),
        np.array([bbox_h]),
        np.array([confidence]),
        patches=np.reshape(patch, (1, 25)).astype(float),
    )


def same_rows(a, b):
    """Equal image ids and numeric columns; windows are not compared."""
    return a.image_id.tolist() == b.image_id.tolist() and all(
        np.array_equal(getattr(a, n), getattr(b, n), equal_nan=True) for n in NUMERIC_COLUMNS
    )


@pytest.fixture(scope="module")
def small_records():
    return generate_scene(SMALL_SCENE, INTR)


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


def with_cells(row, **cells):
    """``row`` with the cells of the named ``LABELED_COLUMNS`` replaced."""
    row = list(row)
    for name, cell in cells.items():
        row[LABELED_COLUMNS.index(name)] = cell
    return row


def write_cache_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABELED_COLUMNS)
        writer.writerows(rows)


class TestGenerateScene:
    def test_record_count_matches_poisson_mass(self):
        records = generate_scene(SceneConfig(n_images=100, apples_per_image=8.0, seed=1), INTR)
        # Sum of 100 Poisson(8) draws: far tails beyond [400, 1600] are
        # negligible (the total has mean 800, sd about 28).
        assert 400 <= len(records) <= 1600

    def test_full_dropout_invalidates_every_patch(self):
        det = generate_scene(SceneConfig(n_images=10, dropout_prob=1.0, seed=2), INTR)
        assert len(det) > 0
        assert not (np.isfinite(det.patches) & (det.patches != 0.0)).any()

    def test_deterministic_output(self, tmp_path):
        a = generate_scene(SceneConfig(n_images=15, seed=3), INTR)
        b = generate_scene(SceneConfig(n_images=15, seed=3), INTR)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_detections(pa, a)
        write_detections(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_doubling_the_window_map_changes_nothing(self, monkeypatch, tmp_path):
        # The first map has room for one window, so it doubles again and again.
        cfg = SceneConfig(n_images=30, seed=4)
        expected = generate_scene(cfg, INTR)
        real = dataset._Cells
        monkeypatch.setattr(dataset, "_Cells", lambda size, *args: real(8 * dataset._WINDOW**2, *args))
        grown = generate_scene(cfg, INTR)
        assert len(grown) == len(expected) > 64
        assert grown.windows.tobytes() == expected.windows.tobytes()
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_detections(pa, expected)
        write_detections(pb, grown)
        assert pa.read_bytes() == pb.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n_images=st.integers(0, 40),
        apples=st.floats(0.0, 30.0),
        dropout=st.sampled_from([0.0, 0.06, 1.0]),
        cluster=st.sampled_from([0.0, 0.35, 1.0]),
        noise=st.floats(0.0, 4.0),
        # Near the camera and with a wide spread most draws project out of
        # frame, so rejection sampling returns None; near 20 m the clip fires,
        # and without jitter or noise a wall at 20 m puts cells on its bound.
        wall=st.one_of(st.floats(0.05, 0.1), st.floats(0.3, 1.2), st.floats(19.0, 20.0)),
        jitter=st.sampled_from([0.0, 0.35]),
        spread=st.sampled_from([0.55, 3.0]),
        seed=st.integers(0, 2**32),
        one_row_map=st.booleans(),
    )
    @example(40, 30.0, 0.06, 1.0, 3.0, 0.05, 0.35, 3.0, 0, True)
    @example(40, 30.0, 0.0, 0.35, 0.0, 20.0, 0.0, 0.55, 1, False)
    def test_equals_the_per_window_reference_byte_for_byte(
        self, n_images, apples, dropout, cluster, noise, wall, jitter, spread, seed, one_row_map
    ):
        cfg = SceneConfig(
            n_images=n_images,
            apples_per_image=apples,
            dropout_prob=dropout,
            cluster_prob=cluster,
            depth_noise_std=noise,
            wall_distance=wall,
            wall_depth_jitter=jitter,
            lateral_spread=spread,
            seed=seed,
        )
        expected = reference_scene(cfg, INTR)
        with pytest.MonkeyPatch.context() as mp:
            if one_row_map:
                real = dataset._Cells
                mp.setattr(dataset, "_Cells", lambda size, *args: real(8 * dataset._WINDOW**2, *args))
            got = generate_scene(cfg, INTR)
        assert got.image_id.tolist() == expected.image_id.tolist()
        for name in NUMERIC_COLUMNS + ("windows",):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name

    def test_traced_peak_within_256kb_of_the_reference(self):
        cfg = SceneConfig(n_images=800)
        peaks = []
        for generate in (reference_scene, generate_scene, reference_scene, generate_scene):
            tracemalloc.start()
            try:
                generate(cfg, INTR)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # The first pass of each warms numpy's caches; the windows live in
        # the memory map, which tracemalloc does not see.
        assert peaks[3] <= peaks[2] + 256 * 1024

    def test_pixels_inside_rgb_frame(self, small_records):
        assert ((0 <= small_records.u) & (small_records.u < INTR.rgb_width)).all()
        assert ((0 <= small_records.v) & (small_records.v < INTR.rgb_height)).all()

    def test_windows_materialized(self, small_records):
        n = len(small_records)
        assert small_records.windows.shape == (n, 121)
        # The patch is the center of the window.
        centers = small_records.windows.reshape(n, 11, 11)[:, 3:8, 3:8].reshape(n, 25)
        assert np.array_equal(centers, small_records.patches)

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
        assert same_rows(loaded, small_records) and loaded.windows is None

    def test_round_trip_of_ids_that_need_quoting(self, tmp_path, small_records):
        det = small_records.take(np.arange(len(QUOTED_IDS)))
        det = replace(det, image_id=np.array(QUOTED_IDS, dtype=object))
        path = tmp_path / "detections.csv"
        write_detections(path, det)
        loaded = ingest_detections(path, INTR)
        assert loaded.image_id.tolist() == QUOTED_IDS and same_rows(loaded, det)

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(
            "image_id,u,v,bbox_w,bbox_h,confidence,"
            + ",".join(f"d{i:02d}" for i in range(25))
            + "\n"
        )
        assert len(ingest_detections(path, INTR)) == 0

    def test_bad_rows_skipped(self, tmp_path, small_records, caplog):
        path = tmp_path / "detections.csv"
        write_detections(path, small_records.take(np.arange(3)))
        with open(path, "a") as fh:
            fh.write("x," + ",".join(["oops"] * 30) + "\n")
            fh.write("y,5000,10,5,5,0.9," + ",".join(["1.0"] * 25) + "\n")
            fh.write("z,100,100,nan,nan,0.9," + ",".join(["1.0"] * 25) + "\n")
            fh.write("w,100,100,inf,5,0.9," + ",".join(["1.0"] * 25) + "\n")
        with caplog.at_level(logging.WARNING):
            loaded = ingest_detections(path, INTR)
        assert same_rows(loaded, small_records.take(np.arange(3)))
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

    def test_growing_the_cell_maps_changes_nothing(self, monkeypatch, tmp_path):
        # With no size to go by, each map starts at one page and doubles as
        # each 8,192-cell stage is copied in; 1,000+ rows make 30,000+ cells.
        records = generate_scene(SceneConfig(n_images=150, seed=3), INTR)
        result = label_with_oracle(records, INTR, EXT, ARM)
        assert len(result.records) > 1000
        det_path, cache_path = tmp_path / "detections.csv", tmp_path / "labeled.csv"
        write_detections(det_path, records)
        write_labeled_cache(cache_path, result)
        expected = ingest_detections(det_path, INTR), read_labeled_cache(cache_path)
        monkeypatch.setattr(dataset, "_file_size", lambda path: 0)
        grown = ingest_detections(det_path, INTR), read_labeled_cache(cache_path)
        for a, b in zip(expected, grown):
            records = (a, b) if isinstance(a, Detections) else (a.records, b.records)
            assert same_rows(*records)
        assert grown[1].samples.X.tobytes() == expected[1].samples.X.tobytes()
        assert grown[1].samples.y.tobytes() == expected[1].samples.y.tobytes()

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
            det = ingest_detections(path, INTR)
        except ReachALError:
            return
        assert 1 <= len(det) <= 3
        assert ((0 <= det.u) & (det.u < INTR.rgb_width) & (0 <= det.v) & (det.v < INTR.rgb_height)).all()
        assert np.isfinite(det.bbox_w).all() and np.isfinite(det.bbox_h).all()

    def test_non_finite_pixel_or_box_rejected(self, tmp_path):
        for i, name in enumerate(("u", "v", "bbox_w", "bbox_h")):
            for value in ("nan", "inf", "-inf"):
                row = list(VALID_DETECTION_ROW)
                row[1 + i] = value
                path = tmp_path / "detections.csv"
                with open(path, "w", newline="") as fh:
                    csv.writer(fh).writerows([DETECTION_COLUMNS, VALID_DETECTION_ROW, row])
                assert len(ingest_detections(path, INTR)) == 1, (name, value)
                path = tmp_path / "cache.csv"
                write_cache_rows(path, [VALID_CACHE_ROW, row + VALID_CACHE_ROW[len(row) :]])
                with pytest.raises(IngestionError, match="cache.csv, line 3"):
                    read_labeled_cache(path)

    def test_zero_patch_row_retained(self, tmp_path):
        det = one_detection(patch=np.zeros(25))
        path = tmp_path / "zero.csv"
        write_detections(path, det)
        loaded = ingest_detections(path, INTR)
        assert same_rows(loaded, det)
        result = label_with_oracle(loaded, INTR, EXT, ARM)
        assert len(result.samples) == 0 and result.n_dropped == 1


class TestLabelWithOracle:
    def test_known_reachable_point(self):
        # Principal-point pixel at depth 0.2 with t = (0.95, 0, 0.3) lands
        # on the forward-kinematics image of the zero configuration.
        u = INTR.cx * INTR.rgb_width / INTR.depth_width
        v = INTR.cy * INTR.rgb_height / INTR.depth_height
        det = one_detection(u, v, 40.0, 40.0, 0.9, np.full(25, 0.2))
        ext = Extrinsics(np.eye(3), [0.95, 0.0, 0.3])
        result = label_with_oracle(det, INTR, ext, ManipulatorParams())
        assert len(result.samples) == 1
        s = result.samples[0]
        np.testing.assert_allclose(s.arm_point.as_array(), [0.95, 0.0, 0.5], atol=1e-12)
        assert s.label == 1

    def test_drop_accounting(self, small_records):
        result = label_with_oracle(small_records, INTR, EXT, ARM)
        assert result.n_dropped + len(result.samples) == len(small_records)

    def test_labels_are_function_of_arm_point(self, small_records):
        result = label_with_oracle(small_records.take(np.arange(200)), INTR, EXT, ARM)
        rev = label_with_oracle(small_records.take(np.arange(199, -1, -1)), INTR, EXT, ARM)
        assert [s.label for s in rev.samples] == [
            s.label for s in reversed(result.samples)
        ]

    def test_density_fallback_flagged_for_ingested_data(self, tmp_path, small_records):
        path = tmp_path / "d.csv"
        first = small_records.take(np.arange(20))
        write_detections(path, first)
        loaded = ingest_detections(path, INTR)
        assert label_with_oracle(loaded, INTR, EXT, ARM).density_source == "patch5x5"
        assert label_with_oracle(first, INTR, EXT, ARM).density_source == "window11x11"


def reference_make_splits(samples, candidates, test_frac, init_size, seed):
    """The list-based split that ``make_splits`` replaced, kept as its
    reference: (labeled, unlabeled, test) lists of the given objects."""
    n = len(samples)
    n_test = int(round(test_frac * n))
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    shuffled = [samples[i] for i in order]
    test = shuffled[:n_test]
    rest = shuffled[n_test:]
    init_labels = {s.label for s in rest[:init_size]}
    if init_size >= 2 and len(init_labels) == 1:
        missing = 1 - next(iter(init_labels))
        for j in range(init_size, len(rest)):
            if rest[j].label == missing:
                rest[init_size - 1], rest[j] = rest[j], rest[init_size - 1]
                break
    labeled = rest[:init_size]
    unlabeled = rest[init_size:] + list(candidates)
    pool_order = rng.permutation(len(unlabeled))
    unlabeled = [unlabeled[i] for i in pool_order]
    return labeled, unlabeled, test


class Row:
    def __init__(self, index, label):
        self.index, self.label = index, label


@st.composite
def split_inputs(draw):
    """Labels of samples then candidates, the sample count, init_size, test_frac."""
    n = draw(st.integers(1, 60), label="n_samples")
    kind = draw(st.sampled_from(["bits", "one class", "minority"]), label="kind")
    if kind == "bits":
        y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="labels")
    else:
        # One class throughout, or a few rows of the other class, so the
        # initial set is often single-class and the stratifying swap runs.
        major = draw(st.integers(0, 1), label="major")
        y = [major] * n
        if kind == "minority":
            for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3), label="minority"):
                y[i] = 1 - major
    y += draw(st.lists(st.integers(0, 1), max_size=20), label="candidates")
    test_frac = draw(st.sampled_from([0.1, 0.2, 0.5, 0.9]), label="test_frac")
    n_rest = n - int(round(test_frac * n))
    if n_rest < 1:
        test_frac = 0.1
        n_rest = n - int(round(test_frac * n))
    init_size = draw(st.integers(1, max(1, n_rest)), label="init_size")
    return np.array(y, dtype=np.int64), n, test_frac, init_size


class TestMakeSplits:
    def _labels(self, n=1000, seed=80):
        recs = generate_scene(SceneConfig(n_images=200, seed=seed), INTR)
        result = label_with_oracle(recs, INTR, EXT, ARM)
        assert len(result.samples) >= n
        return labels_array(result.samples[:n])

    def test_split_sizes(self):
        split = make_splits(self._labels(), 1000, test_frac=0.2, init_size=10, seed=0)
        assert len(split.test) == 200
        assert len(split.labeled) == 10
        assert len(split.unlabeled) == 790
        assert all(a.dtype == np.int64 for a in (split.labeled, split.unlabeled, split.test))

    def test_candidates_join_pool(self):
        split = make_splits(self._labels(), 500, 0.2, 30, seed=1)
        assert len(split.test) == 100
        assert len(split.labeled) == 30
        assert len(split.unlabeled) == 370 + 500
        assert set(range(500, 1000)) <= set(split.unlabeled.tolist())
        assert (split.labeled < 500).all() and (split.test < 500).all()

    def test_deterministic(self):
        y = self._labels()
        a = make_splits(y, 1000, 0.2, 50, seed=3)
        b = make_splits(y, 1000, 0.2, 50, seed=3)
        for part in ("labeled", "unlabeled", "test"):
            np.testing.assert_array_equal(getattr(a, part), getattr(b, part))

    def test_partition_is_disjoint_and_complete(self):
        split = make_splits(self._labels(400), 400, 0.25, 20, seed=4)
        rows = np.concatenate([split.labeled, split.unlabeled, split.test])
        np.testing.assert_array_equal(np.sort(rows), np.arange(400))

    def test_stratified_seed(self):
        y = self._labels()
        for seed in range(20):
            split = make_splits(y, 1000, 0.2, 10, seed=seed)
            assert set(y[split.labeled].tolist()) == {0, 1}

    def test_init_size_too_large(self):
        with pytest.raises(ConfigError):
            make_splits(self._labels(100), 100, 0.2, 81, seed=0)

    @given(inputs=split_inputs(), seed=st.integers(0, 2**32 - 1))
    # Seed 0 draws a single-class initial set here, so the swap runs.
    @example(inputs=(np.array([0] * 9 + [1, 0, 1]), 10, 0.2, 4), seed=0)
    def test_selects_the_reference_rows_in_order(self, inputs, seed):
        y, n, test_frac, init_size = inputs
        rows = [Row(i, int(label)) for i, label in enumerate(y)]
        labeled, unlabeled, test = reference_make_splits(rows[:n], rows[n:], test_frac, init_size, seed)
        split = make_splits(y, n, test_frac, init_size, seed)
        assert split.labeled.tolist() == [r.index for r in labeled]
        assert split.unlabeled.tolist() == [r.index for r in unlabeled]
        assert split.test.tolist() == [r.index for r in test]


# Values a feature row can hold beyond ordinary doubles, bit patterns included.
SPECIAL_FEATURES = [-0.0, 5e-324, -1e300, float("inf"), float("nan")]
SLICE_BOUNDS = st.none() | st.integers(-1100, 1100)


@st.composite
def labeled_arrays(draw):
    """An (n, 9) feature matrix and its 0/1 labels, around the chunk sizes."""
    n = draw(st.sampled_from([0, 1, 511, 512, 513, 1024, 1025]) | st.integers(0, 1100), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    X = rng.standard_normal((n, 9)) * 10.0 ** rng.integers(-5, 5, size=(n, 9))
    k = min(X.size, 20)
    X.flat[rng.choice(X.size, size=k, replace=False)] = rng.choice(SPECIAL_FEATURES, k)
    return X, rng.integers(0, 2, size=n)


class TestLabeledRows:
    @settings(max_examples=40, deadline=None)
    @given(arrays=labeled_arrays(), bounds=st.tuples(SLICE_BOUNDS, SLICE_BOUNDS, SLICE_BOUNDS))
    @example(arrays=(np.arange(513 * 9, dtype=float).reshape(513, 9), np.arange(513) % 2), bounds=(None, None, -1))
    @example(arrays=(np.ones((1025, 9)), np.ones(1025, dtype=np.int64)), bounds=(500, -500, None))
    def test_view_equals_the_sample_list(self, arrays, bounds):
        """Indexing, slicing and iteration, across chunk boundaries, give the
        per-row samples that labeling used to build."""
        X, y = arrays
        view = LabeledRows(X, y)
        expected = [LabeledSample(tuple(f), label) for f, label in zip(X.tolist(), y.tolist())]

        def bits(s):  # NaN features compare unequal, so rows compare as bytes
            assert type(s) is LabeledSample and type(s.label) is int
            return np.array(s.features).tobytes(), s.label

        rows = [bits(s) for s in expected]
        assert len(view) == len(rows)
        assert [bits(s) for s in view] == rows
        assert [bits(view[i]) for i in range(-len(view), len(view))] == rows + rows
        assert [bits(view[np.int64(i)]) for i in range(len(view))] == rows
        for i in (len(view), -len(view) - 1):
            with pytest.raises(IndexError):
                view[i]
        assert features_matrix(list(view)).tobytes() == X.tobytes()
        assert labels_array(list(view)).tobytes() == y.astype(np.int64).tobytes()
        if bounds[2] != 0:
            part = view[slice(*bounds)]
            assert isinstance(part, LabeledRows)
            assert [bits(s) for s in part] == rows[slice(*bounds)]

    def test_labels_are_zero_or_one(self):
        for labels in ([2], [-1], [0.5]):
            with pytest.raises(ValueError, match="label must be 0 or 1"):
                LabeledRows(np.zeros((1, 9)), np.array(labels))
        with pytest.raises(ValueError, match=r"X must be \(2, 9\)"):
            LabeledRows(np.zeros((2, 8)), np.zeros(2, dtype=np.int64))


class TestLabeledCache:
    def test_round_trip(self, tmp_path, small_records):
        result = label_with_oracle(small_records, INTR, EXT, ARM)
        path = tmp_path / "labeled.csv"
        write_labeled_cache(path, result)
        loaded = read_labeled_cache(path)
        assert same_rows(loaded.records, result.records)
        assert loaded.samples.X.tobytes() == result.samples.X.tobytes()
        assert loaded.samples.y.tolist() == result.samples.y.tolist()
        write_labeled_cache(tmp_path / "again.csv", loaded)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_round_trip_of_ids_that_need_quoting(self, tmp_path, small_records):
        kept = label_with_oracle(small_records, INTR, EXT, ARM).records
        det = kept.take(np.arange(len(QUOTED_IDS)))
        det = replace(det, image_id=np.array(QUOTED_IDS, dtype=object))
        result = label_with_oracle(det, INTR, EXT, ARM)
        assert result.records.image_id.tolist() == QUOTED_IDS
        path = tmp_path / "labeled.csv"
        write_labeled_cache(path, result)
        loaded = read_labeled_cache(path)
        assert loaded.records.image_id.tolist() == QUOTED_IDS
        assert same_rows(loaded.records, result.records)
        assert loaded.samples.X.tobytes() == result.samples.X.tobytes()

    def test_malformed_rows_name_file_and_line(self, tmp_path):
        for name, row in (
            ("cells", ["x"] * len(LABELED_COLUMNS)),
            ("short", VALID_CACHE_ROW[:12]),
            ("label", VALID_CACHE_ROW[:34] + ["2"] + VALID_CACHE_ROW[35:]),
            ("bbox", VALID_CACHE_ROW[:3] + ["nan", "nan"] + VALID_CACHE_ROW[5:]),
            ("features", with_cells(VALID_CACHE_ROW, range="nan", d_local="inf")),
            ("z", with_cells(VALID_CACHE_ROW, z="-inf")),
        ):
            path = tmp_path / f"{name}.csv"
            write_cache_rows(path, [VALID_CACHE_ROW, row])
            with pytest.raises(IngestionError, match=rf"{name}\.csv, line 3"):
                read_labeled_cache(path)
        # A rule broken in a row before a malformed one is reported first.
        path = tmp_path / "first.csv"
        broken = with_cells(VALID_CACHE_ROW, confidence="2")
        write_cache_rows(path, [VALID_CACHE_ROW, broken, ["x"] * len(LABELED_COLUMNS)])
        with pytest.raises(IngestionError, match=r"first\.csv, line 3: confidence"):
            read_labeled_cache(path)

    def test_valid_row_loads(self, tmp_path):
        path = tmp_path / "one.csv"
        write_cache_rows(path, [VALID_CACHE_ROW])
        assert [s.label for s in read_labeled_cache(path).samples] == [1]

    def test_sidecar_counts_and_density_source_read_back(self, tmp_path, small_records):
        # Synthetic records keep their 11x11 windows; the drop count is made up.
        result = label_with_oracle(small_records, INTR, EXT, ARM)
        result = replace(result, n_dropped=3, n_input=len(result.samples) + 3)
        path = tmp_path / "labeled.csv"
        write_labeled_cache(path, result)
        loaded = read_labeled_cache(path)
        assert (loaded.n_input, loaded.n_dropped) == (result.n_input, 3)
        assert loaded.density_source == "window11x11"
        # Without a sidecar the cache counts as ingested, with nothing dropped.
        (tmp_path / "labeled.csv.meta").unlink()
        loaded = read_labeled_cache(path)
        assert (loaded.n_input, loaded.n_dropped) == (len(result.samples), 0)
        assert loaded.density_source == "patch5x5"

    def test_malformed_sidecar_raises(self, tmp_path):
        path = tmp_path / "one.csv"
        write_cache_rows(path, [VALID_CACHE_ROW])
        meta = tmp_path / "one.csv.meta"
        good = "n_input = 2\nn_dropped = 1\nn_labeled = 1\ndensity_source = patch5x5\n"
        meta.write_text(good)
        assert read_labeled_cache(path).n_dropped == 1
        for text in (
            good.replace("n_dropped = 1\n", ""),
            good + "n_dropped = 1\n",
            good + "n_seen = 2\n",
            good.replace("n_dropped = 1", "n_dropped 1"),
            good.replace("n_input = 2", "n_input = two"),
            good.replace("n_input = 2\nn_dropped = 1", "n_input = 0\nn_dropped = -1"),
            good.replace("patch5x5", "patch7x7"),
            # Counts of another cache, or counts that do not add up.
            good.replace("n_input = 2", "n_input = 3").replace("n_labeled = 1", "n_labeled = 2"),
            good.replace("n_input = 2", "n_input = 5"),
        ):
            meta.write_text(text)
            with pytest.raises(IngestionError, match="sidecar"):
                read_labeled_cache(path)
        meta.write_bytes(b"n_input = \xff\n")
        with pytest.raises(IngestionError, match="sidecar"):
            read_labeled_cache(path)

    @given(text=st.text(max_size=120))
    def test_fuzzed_sidecar_raises_only_package_errors(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("meta") / "one.csv"
        write_cache_rows(path, [VALID_CACHE_ROW])
        with open(f"{path}.meta", "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            read_labeled_cache(path)
        except ReachALError:
            pass

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
        records = generate_scene(SceneConfig(n_images=150, seed=9), INTR)
        result = label_with_oracle(records, cfg.cam, cfg.ext, cfg.arm)
        rate = np.mean([s.label for s in result.samples])
        assert 0.2 <= rate <= 0.8


# Runs of detection rows for the readers: each run's image id (QUOTED_IDS
# included) and length, and each row's pixel, box, confidence and depth,
# written as the float's repr or with two decimals.
DETECTION_RUNS = st.lists(
    st.tuples(st.sampled_from(["img0", "img1", "synth-00000", *QUOTED_IDS]), st.integers(1, 4)),
    min_size=1,
    max_size=8,
)
ROW_NUMBERS = st.tuples(
    st.floats(0.0, 1900.0), st.floats(1.0, 200.0), st.floats(0.0, 1.0), st.floats(0.1, 19.0), st.booleans()
)


def csv_line(cells) -> str:
    """The line ``csv.writer`` writes for ``cells``, without its terminator."""
    out = io.StringIO()
    csv.writer(out).writerow(cells)
    return out.getvalue()[: -len("\r\n")]


class TestOneCopyOfEachCell:
    """A generated scene holds each depth cell once, in its windows; the
    readers hold a repeated image id once and each line hash as an int64."""

    def test_generated_detections_own_no_array_wider_than_a_column(self, small_records):
        blocks = list(dataset._scene_blocks(SMALL_SCENE, INTR))
        taken = [small_records.take(idx) for idx in (slice(3, 40), np.arange(0, 60, 7), small_records.u > 900)]
        for det in (small_records, *blocks, *taken):
            for name, col in vars(det).items():
                if name != "windows" and isinstance(col, np.ndarray):
                    assert col.nbytes <= 8 * len(det), name
        # Each read of the patches copies them from the windows' centers.
        for det in (small_records, *taken):
            n = len(det)
            centers = det.windows.reshape(n, 11, 11)[:, 3:8, 3:8].reshape(n, 25)
            assert det.patches.shape == (n, 25) and np.array_equal(det.patches, centers)
            assert not np.may_share_memory(det.patches, det.windows)

    @settings(max_examples=40, deadline=None)
    @given(runs=DETECTION_RUNS, data=st.data())
    def test_readers_share_repeated_ids_and_hash_each_line(self, tmp_path_factory, runs, data):
        ids = [image_id for image_id, length in runs for _ in range(length)]
        rows = []
        for image_id in ids:
            pixel, box, confidence, depth, decimals = data.draw(ROW_NUMBERS)
            cells = [pixel, pixel / 2, box, box, confidence] + [depth] * 25
            rows.append([image_id, *(f"{x:.2f}" if decimals else repr(x) for x in cells)])
        path = tmp_path_factory.mktemp("runs") / "detections.csv"
        cache = path.with_name("labeled.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([DETECTION_COLUMNS, *rows])
        write_cache_rows(cache, [row + VALID_CACHE_ROW[len(row) :] for row in rows])
        det = ingest_detections(path, INTR)
        records = read_labeled_cache(cache).records
        for read in (det, records):
            assert read.image_id.tolist() == ids
            for i in range(1, len(ids)):
                if ids[i] == ids[i - 1]:
                    assert read.image_id[i] is read.image_id[i - 1]
        assert det.source_hash.dtype == np.int64
        for row, hashed in zip(rows, det.source_hash.tolist()):
            line = ",".join(row)
            assert hashed == (hash(line) if csv_line(row) == line else -1)


# The scene configs of test_equals_the_per_window_reference_byte_for_byte.
SCENE_CONFIGS = st.builds(
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
ROW = 8 * dataset._WINDOW**2


class TestOneScenePath:
    """Every block is drawn into the one reused buffer; ``generate_scene``
    appends the blocks' windows to its map."""

    @settings(max_examples=40, deadline=None)
    @given(cfg=SCENE_CONFIGS, one_row_map=st.booleans())
    @example(SceneConfig(n_images=40, apples_per_image=30.0, cluster_prob=1.0, seed=5), True)
    def test_generate_scene_joins_the_streamed_blocks(self, cfg, one_row_map):
        # Each block copied as it is yielded: the next one reuses its buffer.
        blocks = [
            {name: np.copy(getattr(b, name)) for name in ("image_id",) + NUMERIC_COLUMNS + ("windows",)}
            for b in dataset._scene_blocks(cfg, INTR)
        ]
        with pytest.MonkeyPatch.context() as mp:
            if one_row_map:  # the map starts with room for one window
                real = dataset._Cells
                mp.setattr(dataset, "_Cells", lambda size, *args: real(ROW, *args))
            got = generate_scene(cfg, INTR)
        assert all(len(b["image_id"]) == dataset._CHUNK for b in blocks[:-1])
        assert got.image_id.tolist() == [i for b in blocks for i in b["image_id"].tolist()]
        for name in NUMERIC_COLUMNS + ("windows",):
            joined = np.concatenate([b[name] for b in blocks])
            assert getattr(got, name).tobytes() == joined.tobytes(), name

    def test_every_block_but_the_last_has_512_rows(self):
        cfg = SceneConfig(n_images=300, seed=11)
        sizes = [len(b) for b in dataset._scene_blocks(cfg, INTR)]
        assert len(sizes) >= 4 and sum(sizes) == len(generate_scene(cfg, INTR))
        assert set(sizes[:-1]) == {dataset._CHUNK} and 1 <= sizes[-1] <= dataset._CHUNK
        assert [len(b) for b in dataset._scene_blocks(SceneConfig(n_images=0), INTR)] == [0]

    @settings(max_examples=60, deadline=None)
    @given(
        first=st.integers(1, 3 * ROW),
        width=st.sampled_from([1, 30, 39, 121]),
        counts=st.lists(st.integers(0, 700), max_size=6),
        staged=st.booleans(),
    )
    # The map is full in the middle of the second block, and of the third staged write.
    @example(ROW, 121, [1, 3], False)
    @example(ROW, 121, [700, 700], True)
    def test_cells_keep_every_byte_across_a_grow_mid_append(self, first, width, counts, staged):
        rng = np.random.default_rng(first)
        parts = [rng.standard_normal((n, width)) for n in counts]
        cells = dataset._Cells(first, "cells")
        first_map = cells.map
        for part in parts:
            if staged:  # a reader's rows, staged as Python floats
                for row in part.tolist():
                    cells.extend(row)
            else:  # generate_scene's blocks, appended whole
                cells.append(part)
        expected = np.concatenate([np.empty(0), *(p.ravel() for p in parts)])
        assert cells.array().tobytes() == expected.tobytes()
        # The map grew when the cells outran it, and only then.
        assert (cells.map is not first_map) == (expected.nbytes > first)
