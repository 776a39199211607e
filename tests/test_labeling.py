"""Columnar detections against the per-record reference.

``DetectionRecord`` is the one-object-per-detection type that
``dataset.Detections`` replaced, with the checks it ran on every record.
``reference_label_with_oracle`` is the per-record loop that
``dataset.label_with_oracle`` replaced, with the scalar stages it ran:
``math`` pixel mapping, ``np.median`` and ``np.var`` over each patch's
valid cells, the rigid transform summed term by term in Python floats,
per-record features and the scalar IK search of ``ik_reference``.  The
array pass must reproduce it bit for bit, in every chunk, and the
detection readers must accept exactly the rows the record checks accept.
"""

import csv
import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ik_reference import reference_ik

from reach_al.config import default_config
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
    read_labeled_cache,
    write_detections,
    write_labeled_cache,
)
from reach_al.errors import IngestionError
from reach_al.features import DENSITY_BAND, feature_rows, features_matrix, labels_array
from reach_al.kinematics import ArmPoint
from reach_al.perception import MAX_VALID_DEPTH, Extrinsics, locate_detections

CFG = default_config()
W, H = CFG.cam.rgb_width, CFG.cam.rgb_height
# A camera pitched 0.3 rad about y and offset: its rotation entries are
# inexact, so each arm-frame coordinate sums three rounded products.
C, S = math.cos(0.3), math.sin(0.3)
ROTATED = Extrinsics([[C, 0.0, S], [0.0, 1.0, 0.0], [-S, 0.0, C]], [0.7, 0.4, 0.5])


class OutOfFrame(Exception):
    """The detection's pixel lies outside the RGB frame."""


class NoDepth(Exception):
    """The detection's depth patch has no valid cell."""


@dataclass(frozen=True)
class CameraPoint:
    """Point in the camera frame (meters, Z along the optical axis)."""

    Xc: float
    Yc: float
    Zc: float


@dataclass(frozen=True, eq=False)
class DetectionRecord:
    """One detection, with the checks every record used to pass."""

    image_id: str
    u: float
    v: float
    bbox_w: float
    bbox_h: float
    confidence: float
    patch: np.ndarray
    neighborhood: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")
        if not all(map(math.isfinite, (self.u, self.v, self.bbox_w, self.bbox_h))):
            raise ValueError("pixel and bounding box must be finite")
        if self.bbox_w <= 0 or self.bbox_h <= 0:
            raise ValueError("bounding box must have positive size")
        vals = np.array(self.patch, dtype=float).reshape(5, 5)
        valid = np.isfinite(vals) & (vals != 0.0)
        if np.any(vals[valid] <= 0) or np.any(vals[valid] >= MAX_VALID_DEPTH):
            raise ValueError("valid depth cells must lie in (0, 20) meters")
        object.__setattr__(self, "patch", vals)


def records_of(det):
    windows = [None] * len(det) if det.windows is None else det.windows
    return [
        DetectionRecord(*row, None if window is None else window.reshape(11, 11))
        for *row, window in zip(
            det.image_id.tolist(),
            det.u.tolist(),
            det.v.tolist(),
            det.bbox_w.tolist(),
            det.bbox_h.tolist(),
            det.confidence.tolist(),
            det.patches,
            windows,
        )
    ]


def valid_values(patch):
    vals = np.asarray(patch, dtype=float).ravel()
    return vals[np.isfinite(vals) & (vals != 0.0)]


def concat(*parts):
    return Detections(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(Detections)))


def assert_same_detections(a, b, windows=True):
    assert a.image_id.tolist() == b.image_id.tolist()
    for name in ("u", "v", "bbox_w", "bbox_h", "confidence", "patches"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    if windows:
        assert (a.windows is None) == (b.windows is None)
        if a.windows is not None:
            assert a.windows.tobytes() == b.windows.tobytes()


def ref_depth_pixel(u, v, intr):
    if not (0 <= u < intr.rgb_width and 0 <= v < intr.rgb_height):
        raise OutOfFrame(f"pixel ({u}, {v}) outside RGB image")
    ud = math.floor(u * intr.depth_width / intr.rgb_width + 0.5)
    vd = math.floor(v * intr.depth_height / intr.rgb_height + 0.5)
    return min(max(ud, 0), intr.depth_width - 1), min(max(vd, 0), intr.depth_height - 1)


def ref_robust_depth(patch):
    vals = valid_values(patch)
    if vals.size == 0:
        raise NoDepth("depth patch has no valid cells")
    return float(np.median(vals))


def ref_back_project(u, v, Z, intr):
    return CameraPoint(Xc=(u - intr.cx) * Z / intr.fx, Yc=(v - intr.cy) * Z / intr.fy, Zc=Z)


def ref_camera_to_arm(p, ext):
    R, t = ext.R.tolist(), ext.t.tolist()
    x, y, z = (R[i][0] * p.Xc + R[i][1] * p.Yc + R[i][2] * p.Zc + t[i] for i in range(3))
    return ArmPoint(x=x, y=y, z=z)


def ref_features(p, patch, depth, bbox_w, bbox_h, image_dims, neighborhood, density_band):
    """One detection's features in ``FEATURE_NAMES`` order."""
    vals = valid_values(patch)
    depth_var = float(np.var(vals)) if vals.size > 0 else 0.0
    window = np.asarray(neighborhood if neighborhood is not None else patch)
    wvalid = np.isfinite(window) & (window != 0.0)
    in_band = wvalid & (np.abs(window - depth) <= density_band)
    local_density = float(np.count_nonzero(in_band)) / window.size
    img_w, img_h = image_dims
    bbox_area = min(1.0, (bbox_w * bbox_h) / (float(img_w) * float(img_h)))
    az = math.atan2(p.y, p.x)
    if az <= -math.pi:
        az += 2.0 * math.pi
    return (
        p.x,
        p.y,
        p.z,
        math.sqrt(p.x * p.x + p.y * p.y + p.z * p.z),
        az,
        math.atan2(p.z, math.hypot(p.x, p.y)),
        depth_var,
        bbox_area,
        local_density,
    )


def reference_label_with_oracle(det, intr, ext, params, density_band=DENSITY_BAND):
    """Samples, indices of the kept rows and the density source."""
    samples, kept = [], []
    fallback = False
    for i, rec in enumerate(records_of(det)):
        try:
            ud, vd = ref_depth_pixel(rec.u, rec.v, intr)
            depth = ref_robust_depth(rec.patch)
            arm = ref_camera_to_arm(ref_back_project(ud, vd, depth, intr), ext)
        except (OutOfFrame, NoDepth):
            continue
        fallback = fallback or rec.neighborhood is None
        fv = ref_features(
            arm,
            rec.patch,
            depth,
            rec.bbox_w,
            rec.bbox_h,
            (intr.rgb_width, intr.rgb_height),
            rec.neighborhood,
            density_band,
        )
        samples.append(LabeledSample(fv, int(reference_ik(arm, params)[0])))
        kept.append(i)
    return samples, kept, "patch5x5" if fallback else "window11x11"


def scene_with_drops():
    """A default scene plus records that must be dropped: all-invalid
    patches from a high-dropout scene and pixels outside the RGB frame.
    Several chunks long."""
    records = generate_scene(SceneConfig(n_images=260, seed=11), CFG.cam)
    sparse = generate_scene(SceneConfig(n_images=60, dropout_prob=0.9, seed=12), CFG.cam)
    edges = records.take(np.arange(4))
    edges = replace(
        edges,
        u=np.array([float(W), edges.u[1], W - 1e-9, 0.0]),
        v=np.array([edges.v[0], -0.5, H - 1e-9, 0.0]),
    )
    n = len(records)
    return concat(records.take(np.arange(1000)), sparse, edges, records.take(np.arange(1000, n)))


@pytest.fixture(scope="module")
def synthetic():
    return scene_with_drops()


@pytest.fixture(scope="module")
def ingested(synthetic, tmp_path_factory):
    path = tmp_path_factory.mktemp("ingest") / "detections.csv"
    write_detections(path, synthetic)
    return ingest_detections(path, CFG.cam)


def assert_same_labeling(result, det, ref, tmp_path):
    samples, kept, source = ref
    assert result.n_input == len(det)
    assert result.n_dropped == len(det) - len(kept)
    assert result.density_source == source
    assert_same_detections(result.records, det.take(kept))
    assert features_matrix(result.samples).tobytes() == features_matrix(samples).tobytes()
    assert [s.label for s in result.samples] == [s.label for s in samples]
    assert [s.arm_point for s in result.samples] == [s.arm_point for s in samples]
    assert list(result.samples) == samples
    write_labeled_cache(tmp_path / "array.csv", result)
    reference = LabeledRows(features_matrix(samples), labels_array(samples))
    write_labeled_cache(tmp_path / "reference.csv", replace(result, samples=reference))
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestMatchesReference:
    def test_synthetic_windows(self, synthetic, tmp_path):
        result = label_with_oracle(synthetic, CFG.cam, CFG.ext, CFG.arm)
        ref = reference_label_with_oracle(synthetic, CFG.cam, CFG.ext, CFG.arm)
        assert len(synthetic) > 2048 and len(synthetic) - len(ref[1]) > 10
        assert ref[2] == "window11x11"
        assert_same_labeling(result, synthetic, ref, tmp_path)

    def test_ingested_patches(self, ingested, tmp_path):
        result = label_with_oracle(ingested, CFG.cam, CFG.ext, CFG.arm, density_band=0.08)
        ref = reference_label_with_oracle(ingested, CFG.cam, CFG.ext, CFG.arm, density_band=0.08)
        assert len(ingested) - len(ref[1]) > 10 and ref[2] == "patch5x5"
        assert_same_labeling(result, ingested, ref, tmp_path)

    def test_empty_and_all_dropped(self):
        empty = generate_scene(SceneConfig(n_images=0), CFG.cam)
        assert len(empty) == 0 and len(label_with_oracle(empty, CFG.cam, CFG.ext, CFG.arm).samples) == 0
        blank = Detections(
            np.array(["img"] * 3, dtype=object),
            *np.full((5, 3), [[100.0], [100.0], [30.0], [30.0], [0.8]]),
            patches=np.zeros((3, 25)),
        )
        result = label_with_oracle(blank, CFG.cam, CFG.ext, CFG.arm)
        assert (len(result.samples), len(result.records), result.n_dropped) == (0, 0, 3)
        assert result.density_source == "window11x11"

    def test_rotated_extrinsics_labels_follow_written_points(self, synthetic, tmp_path):
        result = label_with_oracle(synthetic, CFG.cam, ROTATED, CFG.arm)
        ref = reference_label_with_oracle(synthetic, CFG.cam, ROTATED, CFG.arm)
        assert_same_labeling(result, synthetic, ref, tmp_path)
        path = tmp_path / "labeled.csv"
        write_labeled_cache(path, result)
        written = read_labeled_cache(path).samples
        labels = [int(reference_ik(s.arm_point, CFG.arm)[0]) for s in written]
        assert [s.label for s in written] == labels
        assert 0 < sum(labels) < len(labels)

    @pytest.mark.parametrize("n", [513, 1025])
    def test_one_row_last_chunk(self, synthetic, n, tmp_path):
        """A last chunk of one row rounds as a 512-row chunk does."""
        det = synthetic.take(np.arange(n))
        ref = reference_label_with_oracle(det, CFG.cam, ROTATED, CFG.arm)
        assert ref[1][-1] == n - 1
        assert_same_labeling(label_with_oracle(det, CFG.cam, ROTATED, CFG.arm), det, ref, tmp_path)


DEPTH_CELLS = st.one_of(
    st.floats(0.05, 19.99),
    st.sampled_from([0.0, math.nan, math.inf, 1.0, 1.0 + 2**-52]),
)


@settings(deadline=None)
@given(
    rows=st.lists(st.lists(DEPTH_CELLS, min_size=25, max_size=25), min_size=1, max_size=30),
    depth_noise=st.floats(-0.2, 0.2),
)
def test_patch_statistics_match_numpy_per_row(rows, depth_noise):
    """Robust depth and depth variance of a batch equal ``np.median`` and
    ``np.var`` of each row's valid cells, whatever the other rows hold."""
    values = np.array(rows, dtype=float)
    n = len(rows)
    keep, depth, x, y, z = locate_detections(
        np.full(n, 960.0), np.full(n, 540.0), values, CFG.cam, CFG.ext
    )
    expected = [i for i in range(n) if valid_values(values[i]).size]
    assert keep.tolist() == expected
    assert depth.tolist() == [float(np.median(valid_values(values[i]))) for i in expected]

    band_depth = np.full(n, 1.0 + depth_noise)
    features = feature_rows(
        np.ones(n), np.zeros(n), np.zeros(n), values, band_depth,
        np.full(n, 30.0), np.full(n, 30.0), (1920, 1080), values,
    )
    for i in range(n):
        fv = ref_features(ArmPoint(1.0, 0.0, 0.0), values[i], band_depth[i], 30.0, 30.0, (1920, 1080), None, DENSITY_BAND)
        assert features[i].tobytes() == np.array(fv).tobytes()


# Values that break one rule, with the valid values at each rule's edge.
EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]
EDGES = {
    "confidence": EDGE_FLOATS + [1.0, 1.0 + 2**-52, 0.5],
    "bbox_w": EDGE_FLOATS + [-1.0],
    "bbox_h": EDGE_FLOATS + [-1.0],
    "u": EDGE_FLOATS + [float(W), W - 1e-9, -0.5],
    "v": EDGE_FLOATS + [float(H), H - 1e-9, -0.5],
    "cell": EDGE_FLOATS + [MAX_VALID_DEPTH, MAX_VALID_DEPTH - 1e-12, -1.0],
}
BREAKS = {field: st.sampled_from(values) | st.floats() for field, values in EDGES.items()}


@st.composite
def detection_rows(draw):
    """A valid row, or one with a single field or depth cell replaced."""
    row = {
        "u": draw(st.floats(0.0, W - 1.0)),
        "v": draw(st.floats(0.0, H - 1.0)),
        "bbox_w": draw(st.floats(1.0, 200.0)),
        "bbox_h": draw(st.floats(1.0, 200.0)),
        "confidence": draw(st.floats(0.0, 1.0)),
        "cells": draw(st.lists(DEPTH_CELLS, min_size=25, max_size=25)),
    }
    rule = draw(st.sampled_from([None, *BREAKS]))
    if rule == "cell":
        row["cells"][draw(st.integers(0, 24))] = draw(BREAKS["cell"])
    elif rule is not None:
        row[rule] = draw(BREAKS[rule])
    return row


def edge_rows():
    """One row per edge value of each rule, valid or not."""
    valid = {"u": 100.0, "v": 100.0, "bbox_w": 30.0, "bbox_h": 30.0, "confidence": 0.8, "cells": [1.0] * 25}
    rows = [dict(valid, **{field: value}) for field in ("confidence", "bbox_w", "bbox_h", "u", "v") for value in EDGES[field]]
    return rows + [dict(valid, cells=[value] + [1.0] * 24) for value in EDGES["cell"]]


def record_accepts(row):
    try:
        DetectionRecord("img", row["u"], row["v"], row["bbox_w"], row["bbox_h"], row["confidence"], row["cells"])
    except ValueError:
        return False
    return True


def detection_cells(row):
    nums = [row["u"], row["v"], row["bbox_w"], row["bbox_h"], row["confidence"], *row["cells"]]
    return ["img", *map(repr, nums)]


@settings(deadline=None)
@given(rows=st.lists(detection_rows(), min_size=1, max_size=12))
@example(rows=edge_rows())
def test_bad_row_mask_matches_record_checks(tmp_path_factory, rows):
    """Ingestion keeps exactly the rows the record checks and the RGB frame
    accept; the labeled-cache reader names the line of the first row the
    record checks reject."""
    path = tmp_path_factory.mktemp("mask") / "detections.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DETECTION_COLUMNS)
        writer.writerows(detection_cells(r) for r in rows)
    accepted = [r for r in rows if record_accepts(r) and 0 <= r["u"] < W and 0 <= r["v"] < H]
    det = ingest_detections(path, CFG.cam)
    assert det.u.tolist() == [r["u"] for r in accepted]
    assert det.confidence.tolist() == [r["confidence"] for r in accepted]
    # The file keeps no NaN payload, so NaN cells compare as equal.
    expected = np.array([r["cells"] for r in accepted], dtype=float).reshape(-1, 25)
    assert np.array_equal(det.patches, expected, equal_nan=True)

    sample = ["0.5", "0.1", "0.2", "1", "0.55", "0.2", "0.36", "0.0", "0.01", "0.4"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABELED_COLUMNS)
        writer.writerows(detection_cells(r) + sample for r in rows)
    rejected = [i for i, r in enumerate(rows) if not record_accepts(r)]
    if rejected:
        with pytest.raises(IngestionError, match=rf"detections\.csv, line {rejected[0] + 2}:"):
            read_labeled_cache(path)
    else:
        assert len(read_labeled_cache(path).records) == len(rows)
