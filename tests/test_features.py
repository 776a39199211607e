import math

import numpy as np

from reach_al.features import FEATURE_NAMES, feature_rows
from reach_al.kinematics import ArmPoint
from reach_al.perception import _robust_depths

IMAGE_DIMS = (1920, 1080)


def uniform_patch(value=1.5):
    return np.full(25, value)


def features_of(p, patch, bbox_w, bbox_h, image_dims, neighborhood=None):
    """Features of one detection by ``FEATURE_NAMES`` name, as a one-row
    ``feature_rows`` call with the patch depth computed as the labeling
    pass does.  The patch is the density window unless ``neighborhood``
    is given."""
    patches = np.asarray(patch, dtype=float).reshape(1, 25)
    window = patches if neighborhood is None else np.asarray(neighborhood, dtype=float).reshape(1, -1)
    row = feature_rows(
        np.array([p.x]),
        np.array([p.y]),
        np.array([p.z]),
        patches,
        _robust_depths(patches),
        np.array([bbox_w], dtype=float),
        np.array([bbox_h], dtype=float),
        image_dims,
        window,
    )
    return dict(zip(FEATURE_NAMES, row[0].tolist()))


class TestExamples:
    def test_on_axis_point(self):
        fv = features_of(ArmPoint(1, 0, 0), uniform_patch(), 40, 40, IMAGE_DIMS)
        assert fv["range"] == 1.0
        assert fv["az"] == 0.0
        assert fv["el"] == 0.0

    def test_uniform_scene(self):
        window = np.full((11, 11), 1.5)
        fv = features_of(
            ArmPoint(1, 0, 0), uniform_patch(1.5), 40, 40, IMAGE_DIMS, neighborhood=window
        )
        assert fv["sigma_z"] == 0.0
        assert fv["d_local"] == 1.0

    def test_hand_computed_vector(self):
        vals = np.array([1.0] * 13 + [2.0] * 12)
        fv = features_of(
            ArmPoint(0.3, 0.4, 0.0), vals, 40, 40, IMAGE_DIMS
        )
        np.testing.assert_allclose(fv["range"], 0.5, atol=1e-12)
        np.testing.assert_allclose(fv["az"], math.atan2(0.4, 0.3), atol=1e-12)
        np.testing.assert_allclose(fv["az"], 0.9273, atol=1e-4)
        assert fv["el"] == 0.0
        np.testing.assert_allclose(fv["sigma_z"], 0.2496, atol=1e-12)
        np.testing.assert_allclose(fv["a_bbox"], 1600 / 2073600, atol=1e-12)

    def test_row_is_nine_python_floats(self):
        rows = feature_rows(
            np.array([0.3, 1.0]),
            np.array([0.4, 0.0]),
            np.array([0.1, 0.0]),
            np.ones((2, 25)),
            np.ones(2),
            np.full(2, 40.0),
            np.full(2, 40.0),
            IMAGE_DIMS,
            np.ones((2, 25)),
        )
        assert rows.shape == (2, len(FEATURE_NAMES)) == (2, 9) and rows.dtype == np.float64
        assert rows[0, :3].tolist() == [0.3, 0.4, 0.1]


class TestProperties:
    def test_yaw_equivariance(self):
        rng = np.random.default_rng(20)
        for _ in range(500):
            x, y, z = rng.uniform(-2, 2, size=3)
            delta = rng.uniform(-math.pi / 2, math.pi / 2)
            c, s = math.cos(delta), math.sin(delta)
            p0 = ArmPoint(x, y, z)
            p1 = ArmPoint(c * x - s * y, s * x + c * y, z)
            f0 = features_of(p0, uniform_patch(), 30, 30, IMAGE_DIMS)
            f1 = features_of(p1, uniform_patch(), 30, 30, IMAGE_DIMS)
            daz = (f1["az"] - f0["az"] - delta) % (2 * math.pi)
            assert min(daz, 2 * math.pi - daz) <= 1e-9
            np.testing.assert_allclose(f1["range"], f0["range"], atol=1e-9)
            np.testing.assert_allclose(f1["el"], f0["el"], atol=1e-9)
            assert f1["sigma_z"] == f0["sigma_z"]
            assert f1["a_bbox"] == f0["a_bbox"]
            assert f1["d_local"] == f0["d_local"]

    def test_scaling(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            x, y, z = rng.uniform(-2, 2, size=3)
            k = rng.uniform(0.1, 5.0)
            f0 = features_of(ArmPoint(x, y, z), uniform_patch(), 30, 30, IMAGE_DIMS)
            f1 = features_of(
                ArmPoint(k * x, k * y, k * z), uniform_patch(), 30, 30, IMAGE_DIMS
            )
            np.testing.assert_allclose(
                [f1["x"], f1["y"], f1["z"], f1["range"]],
                [k * f0["x"], k * f0["y"], k * f0["z"], k * f0["range"]],
                atol=1e-9,
            )
            np.testing.assert_allclose(f1["az"], f0["az"], atol=1e-9)
            np.testing.assert_allclose(f1["el"], f0["el"], atol=1e-9)

    def test_depth_var_shift_invariant(self):
        rng = np.random.default_rng(22)
        vals = rng.uniform(1.0, 3.0, size=25)
        f0 = features_of(ArmPoint(1, 0, 0), vals, 30, 30, IMAGE_DIMS)
        f1 = features_of(ArmPoint(1, 0, 0), vals + 4.0, 30, 30, IMAGE_DIMS)
        np.testing.assert_allclose(f1["sigma_z"], f0["sigma_z"], atol=1e-9)

    def test_all_outputs_finite(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            vals = rng.uniform(0.3, 10.0, size=25)
            vals[rng.random(25) < 0.4] = 0.0
            if not (vals != 0).any():
                vals[0] = 1.0
            fv = features_of(
                ArmPoint(*rng.uniform(-3, 3, size=3)),
                vals,
                rng.uniform(1, 500),
                rng.uniform(1, 500),
                IMAGE_DIMS,
            )
            assert np.isfinite(list(fv.values())).all()

    def test_density_window_fallback_uses_patch(self):
        vals = np.full(25, 1.0)
        vals[:5] = 2.0  # out of band
        fv = features_of(ArmPoint(1, 0, 0), vals, 30, 30, IMAGE_DIMS)
        assert fv["d_local"] == 20 / 25
