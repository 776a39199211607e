"""The chunked array labeling pass against the per-record reference chain.

``reference_label_with_oracle`` is the per-record loop that
``dataset.label_with_oracle`` replaced, with the scalar stages it ran:
``math`` pixel mapping, ``np.median`` and ``np.var`` over each patch's
valid cells, a matrix-vector rigid transform, per-record features and the
scalar ``kinematics.is_reachable``.  With the default (identity) rotation
the array pass must reproduce it bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reach_al.config import default_config
from reach_al.dataset import (
    DetectionRecord,
    LabeledSample,
    LabelingResult,
    SceneConfig,
    generate_scene,
    ingest_detections,
    label_with_oracle,
    read_labeled_cache,
    write_detections,
    write_labeled_cache,
)
from reach_al.errors import BoundaryError, NoDepthError
from reach_al.features import (
    DENSITY_BAND,
    FeatureVector,
    extract_features,
    feature_rows,
    features_matrix,
)
from reach_al.kinematics import ArmPoint, is_reachable
from reach_al.perception import (
    CameraPoint,
    DepthPatch,
    Extrinsics,
    back_project,
    camera_to_arm,
    locate_detections,
    map_rgb_to_depth_pixel,
    robust_depth,
)

CFG = default_config()


def ref_depth_pixel(u, v, intr):
    if not (0 <= u < intr.rgb_width and 0 <= v < intr.rgb_height):
        raise BoundaryError(f"pixel ({u}, {v}) outside RGB image")
    ud = math.floor(u * intr.depth_width / intr.rgb_width + 0.5)
    vd = math.floor(v * intr.depth_height / intr.rgb_height + 0.5)
    return min(max(ud, 0), intr.depth_width - 1), min(max(vd, 0), intr.depth_height - 1)


def ref_robust_depth(patch):
    vals = patch.valid_values
    if vals.size == 0:
        raise NoDepthError("depth patch has no valid cells")
    return float(np.median(vals))


def ref_back_project(u, v, Z, intr):
    return CameraPoint(Xc=(u - intr.cx) * Z / intr.fx, Yc=(v - intr.cy) * Z / intr.fy, Zc=Z)


def ref_camera_to_arm(p, ext):
    v = ext.R @ p.as_array() + ext.t
    return ArmPoint(x=float(v[0]), y=float(v[1]), z=float(v[2]))


def ref_features(p, patch, depth, bbox_w, bbox_h, image_dims, neighborhood, density_band):
    vals = patch.valid_values
    depth_var = float(np.var(vals)) if vals.size > 0 else 0.0
    window = np.asarray(neighborhood if neighborhood is not None else patch.values)
    wvalid = np.isfinite(window) & (window != 0.0)
    in_band = wvalid & (np.abs(window - depth) <= density_band)
    local_density = float(np.count_nonzero(in_band)) / window.size
    img_w, img_h = image_dims
    bbox_area = min(1.0, (bbox_w * bbox_h) / (float(img_w) * float(img_h)))
    az = math.atan2(p.y, p.x)
    if az <= -math.pi:
        az += 2.0 * math.pi
    return FeatureVector(
        x=p.x,
        y=p.y,
        z=p.z,
        range=math.sqrt(p.x * p.x + p.y * p.y + p.z * p.z),
        azimuth=az,
        elevation=math.atan2(p.z, math.hypot(p.x, p.y)),
        depth_var=depth_var,
        bbox_area=bbox_area,
        local_density=local_density,
    )


def reference_label_with_oracle(records, intr, ext, params, density_band=DENSITY_BAND):
    samples, kept = [], []
    fallback = False
    for rec in records:
        try:
            ud, vd = ref_depth_pixel(rec.u, rec.v, intr)
            depth = ref_robust_depth(rec.patch)
            arm = ref_camera_to_arm(ref_back_project(ud, vd, depth, intr), ext)
        except (BoundaryError, NoDepthError):
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
        samples.append(LabeledSample(fv, int(is_reachable(arm, params)[0]), arm))
        kept.append(rec)
    return LabelingResult(samples, kept, len(records) - len(kept), len(records), fallback)


def scene_with_drops():
    """A default scene plus records that must be dropped: all-invalid
    patches from a high-dropout scene and pixels outside the RGB frame.
    Several chunks long."""
    records = generate_scene(SceneConfig(n_images=260, seed=11), CFG.cam)
    sparse = generate_scene(SceneConfig(n_images=60, dropout_prob=0.9, seed=12), CFG.cam)
    edges = [
        replace(records[0], u=float(CFG.cam.rgb_width)),
        replace(records[1], v=-0.5),
        replace(records[2], u=CFG.cam.rgb_width - 1e-9, v=CFG.cam.rgb_height - 1e-9),
        replace(records[3], u=0.0, v=0.0),
    ]
    return records[:1000] + sparse + edges + records[1000:]


@pytest.fixture(scope="module")
def synthetic():
    return scene_with_drops()


@pytest.fixture(scope="module")
def ingested(synthetic, tmp_path_factory):
    path = tmp_path_factory.mktemp("ingest") / "detections.csv"
    write_detections(path, synthetic)
    return ingest_detections(path, CFG.cam)


def assert_same_labeling(result, ref, tmp_path):
    assert result.n_input == ref.n_input
    assert result.n_dropped == ref.n_dropped
    assert result.patch_density_fallback == ref.patch_density_fallback
    assert len(result.records) == len(ref.records)
    assert all(a is b for a, b in zip(result.records, ref.records))
    assert features_matrix(result.samples).tobytes() == features_matrix(ref.samples).tobytes()
    assert [s.label for s in result.samples] == [s.label for s in ref.samples]
    assert [s.arm_point for s in result.samples] == [s.arm_point for s in ref.samples]
    assert result.samples == ref.samples
    write_labeled_cache(tmp_path / "array.csv", result)
    write_labeled_cache(tmp_path / "reference.csv", ref)
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestMatchesReference:
    def test_synthetic_windows(self, synthetic, tmp_path):
        result = label_with_oracle(synthetic, CFG.cam, CFG.ext, CFG.arm)
        ref = reference_label_with_oracle(synthetic, CFG.cam, CFG.ext, CFG.arm)
        assert len(synthetic) > 2048 and ref.n_dropped > 10
        assert not ref.patch_density_fallback
        assert_same_labeling(result, ref, tmp_path)

    def test_ingested_patches(self, ingested, tmp_path):
        result = label_with_oracle(ingested, CFG.cam, CFG.ext, CFG.arm, density_band=0.08)
        ref = reference_label_with_oracle(ingested, CFG.cam, CFG.ext, CFG.arm, density_band=0.08)
        assert ref.n_dropped > 10 and ref.patch_density_fallback
        assert_same_labeling(result, ref, tmp_path)

    def test_both_density_sources_in_one_chunk(self, synthetic, ingested, tmp_path):
        mixed = [r for pair in zip(synthetic[:600], ingested[:600]) for r in pair]
        result = label_with_oracle(mixed, CFG.cam, CFG.ext, CFG.arm)
        ref = reference_label_with_oracle(mixed, CFG.cam, CFG.ext, CFG.arm)
        assert_same_labeling(result, ref, tmp_path)

    def test_empty_and_all_dropped(self):
        assert label_with_oracle([], CFG.cam).samples == []
        rec = DetectionRecord("img", 100.0, 100.0, 30.0, 30.0, 0.8, DepthPatch(np.zeros(25)))
        result = label_with_oracle([rec] * 3, CFG.cam)
        assert (result.samples, result.records, result.n_dropped) == ([], [], 3)

    def test_rotated_extrinsics_labels_follow_written_points(self, synthetic, tmp_path):
        c, s = math.cos(0.3), math.sin(0.3)
        ext = Extrinsics([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]], [0.7, 0.4, 0.5])
        result = label_with_oracle(synthetic, CFG.cam, ext, CFG.arm)
        ref = reference_label_with_oracle(synthetic, CFG.cam, ext, CFG.arm)
        assert len(result.samples) == len(ref.samples)
        np.testing.assert_allclose(
            features_matrix(result.samples), features_matrix(ref.samples), rtol=0, atol=1e-12
        )
        # The per-record functions run the same array code on one row.
        intr = CFG.cam
        for rec, sample in zip(result.records, result.samples):
            depth = robust_depth(rec.patch)
            cam = back_project(*map_rgb_to_depth_pixel(rec.u, rec.v, intr), depth, intr)
            arm = camera_to_arm(cam, ext)
            dims = (intr.rgb_width, intr.rgb_height)
            fv = extract_features(arm, rec.patch, depth, rec.bbox_w, rec.bbox_h, dims, rec.neighborhood)
            assert (sample.arm_point, sample.features) == (arm, fv)
        path = tmp_path / "labeled.csv"
        write_labeled_cache(path, result)
        written = read_labeled_cache(path).samples
        labels = [int(is_reachable(s.arm_point, CFG.arm)[0]) for s in written]
        assert [s.label for s in written] == labels
        assert 0 < sum(labels) < len(labels)


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
    patches = [DepthPatch(r) for r in rows]
    values = np.array([p.values.ravel() for p in patches])
    n = len(rows)
    keep, depth, x, y, z = locate_detections(
        np.full(n, 960.0), np.full(n, 540.0), values, CFG.cam, CFG.ext
    )
    expected = [i for i, p in enumerate(patches) if p.valid_values.size]
    assert keep.tolist() == expected
    assert depth.tolist() == [float(np.median(patches[i].valid_values)) for i in expected]

    band_depth = np.full(n, 1.0 + depth_noise)
    features = feature_rows(
        np.ones(n), np.zeros(n), np.zeros(n), values, band_depth,
        np.full(n, 30.0), np.full(n, 30.0), (1920, 1080), [None] * n,
    )
    for i, p in enumerate(patches):
        fv = ref_features(ArmPoint(1.0, 0.0, 0.0), p, band_depth[i], 30.0, 30.0, (1920, 1080), None, DENSITY_BAND)
        assert features[i].tobytes() == fv.as_array().tobytes()
