import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from reach_al.perception import (
    CameraIntrinsics,
    Extrinsics,
    _back_project,
    _camera_to_arm,
    _depth_pixels,
    _robust_depths,
    bad_depth_rows,
    locate_detections,
)

INTR = CameraIntrinsics()
IDENTITY = Extrinsics(np.eye(3), np.zeros(3))
# Round trips run a handful of float64 operations; allow 64 ulps of the
# largest magnitude involved.
ROUND_TRIP_TOL = 64 * np.finfo(float).eps


def default_extrinsics() -> Extrinsics:
    """Identity rotation with the field rig's measured camera offset; the
    default config mounts the camera elsewhere (``AppConfig.ext``)."""
    return Extrinsics(np.eye(3), [0.76, 0.44, 0.485])


def depth_pixel(u, v):
    ud, vd, inside = _depth_pixels(np.array([u], dtype=float), np.array([v], dtype=float), INTR)
    assert inside[0]
    return int(ud[0]), int(vd[0])


def robust_depth(cells):
    return float(_robust_depths(np.asarray(cells, dtype=float).reshape(1, 25))[0])


def back_project(u, v, z):
    """Camera-frame (n, 3) points of depth-image pixels ``u``, ``v`` at depth ``z``."""
    u, v, z = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (u, v, z)))
    return np.column_stack([*_back_project(u, v, z, INTR), z])


def camera_to_arm(points, ext):
    """Arm-frame (n, 3) points of camera-frame (n, 3) points."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    return np.column_stack(_camera_to_arm(*points.T, ext))


def project_to_pixel(p, intr: CameraIntrinsics):
    """Inverse of back-projection for ``Zc > 0``; returns fractional pixels."""
    Xc, Yc, Zc = p.T
    return (Xc * intr.fx / Zc + intr.cx, Yc * intr.fy / Zc + intr.cy)


@st.composite
def extrinsics(draw):
    """A rotation from a random unit quaternion, and an offset."""
    q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    assume(np.linalg.norm(q) > 0.1)
    w, x, y, z = q / np.linalg.norm(q)
    R = [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]
    return Extrinsics(R, draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)))


class TestPixelMapping:
    def test_origin_fixed_point(self):
        assert depth_pixel(0, 0) == (0, 0)

    def test_far_corner_clamps(self):
        assert depth_pixel(1919, 1079) == (511, 423)

    def test_midpoint(self):
        assert depth_pixel(960, 540) == (256, 212)

    def test_boundary_rejection(self):
        """A pixel outside the RGB frame is missing from ``keep``."""
        u = np.array([-1.0, 10.0, 10.0, 1919.0])
        v = np.array([10.0, 1080.0, 10.0, 1079.0])
        keep, *_ = locate_detections(u, v, np.ones((4, 25)), INTR, IDENTITY)
        assert keep.tolist() == [2, 3]

    def test_monotone_in_each_axis(self):
        rng = np.random.default_rng(3)
        us = np.sort(rng.uniform(0, 1919, size=500))
        vs = np.sort(rng.uniform(0, 1079, size=500))
        ud, vd, inside = _depth_pixels(us, vs, INTR)
        assert inside.all()
        assert (np.diff(ud) >= 0).all() and (np.diff(vd) >= 0).all()


class TestRobustDepth:
    def test_constant_patch(self):
        assert robust_depth(np.full(25, 1.5)) == 1.5

    def test_single_valid_cell(self):
        vals = np.zeros(25)
        vals[13] = 2.0
        assert robust_depth(vals) == 2.0

    def test_thirteenth_order_statistic(self):
        vals = np.array([1.0] * 12 + [1.2] * 12 + [9.0])
        assert robust_depth(vals) == 1.2

    def test_all_invalid_dropped(self):
        """A patch with no valid cell has no depth and is missing from ``keep``."""
        patches = np.ones((3, 25))
        patches[1] = 0.0
        patches[1, :5] = np.nan
        assert robust_depth(patches[1]) == math.inf
        keep, depth, *_ = locate_detections(np.full(3, 960.0), np.full(3, 540.0), patches, INTR, IDENTITY)
        assert keep.tolist() == [0, 2] and depth.tolist() == [1.0, 1.0]

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(0.5, 3.0, size=25)
        d0 = robust_depth(vals)
        permuted = np.array([rng.permutation(vals) for _ in range(20)])
        assert _robust_depths(permuted).tolist() == [d0] * 20

    def test_outlier_resistant_with_majority_at_median(self):
        vals = np.full(25, 1.4)
        rng = np.random.default_rng(5)
        idx = rng.choice(25, size=12, replace=False)
        vals[idx] = rng.uniform(5.0, 15.0, size=12)
        assert robust_depth(vals) == 1.4

    def test_invalid_value_range_rejected(self):
        cells = np.ones((5, 25))
        cells[0, 3] = -1.0
        cells[1, 3] = 25.0
        cells[2, 3] = 20.0
        cells[3, 3] = np.nan  # invalid reading, not an error
        cells[4, 3] = 0.0
        assert bad_depth_rows(cells).tolist() == [True, True, True, False, False]


class TestBackProjection:
    def test_principal_point_ray(self):
        p = back_project(INTR.cx, INTR.cy, 1.0)
        np.testing.assert_allclose(p[0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_known_offset(self):
        p = back_project(292.5, INTR.cy, 2.0)
        np.testing.assert_allclose(p[0, 0], 36.5 * 2.0 / 365.0, atol=1e-12)
        np.testing.assert_allclose(p[0, 0], 0.2, atol=1e-12)

    def test_depth_homogeneity(self):
        a, b = back_project(300.0, 100.0, [1.3, 2.6])
        np.testing.assert_allclose(b[:2], 2 * a[:2], atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        u = rng.uniform(0, INTR.depth_width, size=10000)
        v = rng.uniform(0, INTR.depth_height, size=10000)
        z = rng.uniform(0.2, 8.0, size=10000)
        u2, v2 = project_to_pixel(back_project(u, v, z), INTR)
        assert np.abs(u2 - u).max() <= 1e-9 and np.abs(v2 - v).max() <= 1e-9

    @given(
        u=st.floats(0.0, INTR.depth_width - 1.0),
        v=st.floats(0.0, INTR.depth_height - 1.0),
        z=st.floats(0.01, 19.99),
    )
    def test_round_trip_within_float_tolerance(self, u, v, z):
        (u2,), (v2,) = project_to_pixel(back_project(u, v, z), INTR)
        scale = max(INTR.depth_width, INTR.depth_height)
        assert abs(u2 - u) <= ROUND_TRIP_TOL * scale and abs(v2 - v) <= ROUND_TRIP_TOL * scale


class TestCameraToArm:
    def test_field_calibration_offset(self):
        p = camera_to_arm([0.0, 0.0, 0.0], default_extrinsics())
        np.testing.assert_allclose(p[0], [0.76, 0.44, 0.485], atol=1e-12)

    def test_identity(self):
        p = camera_to_arm([0.3, -0.2, 1.7], IDENTITY)
        np.testing.assert_allclose(p[0], [0.3, -0.2, 1.7], atol=1e-12)

    def test_quarter_turn_about_z(self):
        R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        ext = Extrinsics(R, [0.76, 0.44, 0.485])
        p = camera_to_arm([0.1, 0.2, 1.5], ext)
        np.testing.assert_allclose(p[0], [0.56, 0.54, 1.985], atol=1e-12)

    def test_isometry(self):
        rng = np.random.default_rng(7)
        theta = 0.7
        R = np.array(
            [
                [math.cos(theta), -math.sin(theta), 0.0],
                [math.sin(theta), math.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        ext = Extrinsics(R, [0.5, -0.1, 0.9])
        a = rng.uniform(-3, 3, size=(10000, 3))
        b = rng.uniform(-3, 3, size=(10000, 3))
        d0 = np.linalg.norm(a - b, axis=1)
        d1 = np.linalg.norm(camera_to_arm(a, ext) - camera_to_arm(b, ext), axis=1)
        assert np.abs(d0 - d1).max() <= 1e-9

    @given(ext=extrinsics(), p=st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3))
    def test_camera_arm_camera_round_trip(self, ext, p):
        arm = camera_to_arm(p, ext)[0]
        back = ext.R.T @ (arm - ext.t)
        scale = 1.0 + np.abs(p).max() + np.abs(ext.t).max()
        assert np.abs(back - p).max() <= ROUND_TRIP_TOL * scale

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            Extrinsics(2.0 * np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            Extrinsics(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
