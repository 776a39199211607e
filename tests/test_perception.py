import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from reach_al.errors import BoundaryError, NoDepthError
from reach_al.perception import (
    CameraIntrinsics,
    CameraPoint,
    DepthPatch,
    Extrinsics,
    back_project,
    camera_to_arm,
    map_rgb_to_depth_pixel,
    robust_depth,
)

INTR = CameraIntrinsics()
# Round trips run a handful of float64 operations; allow 64 ulps of the
# largest magnitude involved.
ROUND_TRIP_TOL = 64 * np.finfo(float).eps


def default_extrinsics() -> Extrinsics:
    """Identity rotation with the field rig's measured camera offset; the
    default config mounts the camera elsewhere (``config.benchmark_extrinsics``)."""
    return Extrinsics(np.eye(3), [0.76, 0.44, 0.485])


def project_to_pixel(p: CameraPoint, intr: CameraIntrinsics) -> tuple[float, float]:
    """Inverse of back_project for ``Zc > 0``; returns fractional pixels."""
    return (p.Xc * intr.fx / p.Zc + intr.cx, p.Yc * intr.fy / p.Zc + intr.cy)


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
        assert map_rgb_to_depth_pixel(0, 0, INTR) == (0, 0)

    def test_far_corner_clamps(self):
        assert map_rgb_to_depth_pixel(1919, 1079, INTR) == (511, 423)

    def test_midpoint(self):
        assert map_rgb_to_depth_pixel(960, 540, INTR) == (256, 212)

    def test_boundary_rejection(self):
        with pytest.raises(BoundaryError):
            map_rgb_to_depth_pixel(-1, 10, INTR)
        with pytest.raises(BoundaryError):
            map_rgb_to_depth_pixel(10, 1080, INTR)

    def test_monotone_in_each_axis(self):
        rng = np.random.default_rng(3)
        us = np.sort(rng.uniform(0, 1919, size=500))
        uds = [map_rgb_to_depth_pixel(u, 0, INTR)[0] for u in us]
        assert all(a <= b for a, b in zip(uds, uds[1:]))
        vs = np.sort(rng.uniform(0, 1079, size=500))
        vds = [map_rgb_to_depth_pixel(0, v, INTR)[1] for v in vs]
        assert all(a <= b for a, b in zip(vds, vds[1:]))


class TestRobustDepth:
    def test_constant_patch(self):
        assert robust_depth(DepthPatch(np.full(25, 1.5))) == 1.5

    def test_single_valid_cell(self):
        vals = np.zeros(25)
        vals[13] = 2.0
        assert robust_depth(DepthPatch(vals)) == 2.0

    def test_thirteenth_order_statistic(self):
        vals = np.array([1.0] * 12 + [1.2] * 12 + [9.0])
        assert robust_depth(DepthPatch(vals)) == 1.2

    def test_all_invalid_raises(self):
        with pytest.raises(NoDepthError):
            robust_depth(DepthPatch(np.zeros(25)))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(0.5, 3.0, size=25)
        d0 = robust_depth(DepthPatch(vals))
        for _ in range(20):
            assert robust_depth(DepthPatch(rng.permutation(vals))) == d0

    def test_outlier_resistant_with_majority_at_median(self):
        vals = np.full(25, 1.4)
        rng = np.random.default_rng(5)
        idx = rng.choice(25, size=12, replace=False)
        vals[idx] = rng.uniform(5.0, 15.0, size=12)
        assert robust_depth(DepthPatch(vals)) == 1.4

    def test_invalid_value_range_rejected(self):
        with pytest.raises(ValueError):
            DepthPatch(np.full(25, -1.0))
        with pytest.raises(ValueError):
            DepthPatch(np.full(25, 25.0))


class TestBackProjection:
    def test_principal_point_ray(self):
        p = back_project(INTR.cx, INTR.cy, 1.0, INTR)
        np.testing.assert_allclose(p.as_array(), [0.0, 0.0, 1.0], atol=1e-12)

    def test_known_offset(self):
        p = back_project(292.5, INTR.cy, 2.0, INTR)
        np.testing.assert_allclose(p.Xc, 36.5 * 2.0 / 365.0, atol=1e-12)
        np.testing.assert_allclose(p.Xc, 0.2, atol=1e-12)

    def test_depth_homogeneity(self):
        a = back_project(300.0, 100.0, 1.3, INTR)
        b = back_project(300.0, 100.0, 2.6, INTR)
        np.testing.assert_allclose([b.Xc, b.Yc], [2 * a.Xc, 2 * a.Yc], atol=1e-12)

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(NoDepthError):
            back_project(100, 100, 0.0, INTR)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(10000):
            u = rng.uniform(0, INTR.depth_width)
            v = rng.uniform(0, INTR.depth_height)
            z = rng.uniform(0.2, 8.0)
            p = back_project(u, v, z, INTR)
            u2, v2 = project_to_pixel(p, INTR)
            assert abs(u2 - u) <= 1e-9 and abs(v2 - v) <= 1e-9

    @given(
        u=st.floats(0.0, INTR.depth_width - 1.0),
        v=st.floats(0.0, INTR.depth_height - 1.0),
        z=st.floats(0.01, 19.99),
    )
    def test_round_trip_within_float_tolerance(self, u, v, z):
        u2, v2 = project_to_pixel(back_project(u, v, z, INTR), INTR)
        scale = max(INTR.depth_width, INTR.depth_height)
        assert abs(u2 - u) <= ROUND_TRIP_TOL * scale and abs(v2 - v) <= ROUND_TRIP_TOL * scale


class TestCameraToArm:
    def test_field_calibration_offset(self):
        ext = default_extrinsics()
        p = camera_to_arm(CameraPoint(0.0, 0.0, 0.0), ext)
        np.testing.assert_allclose(p.as_array(), [0.76, 0.44, 0.485], atol=1e-12)

    def test_identity(self):
        ext = Extrinsics(np.eye(3), np.zeros(3))
        p = camera_to_arm(CameraPoint(0.3, -0.2, 1.7), ext)
        np.testing.assert_allclose(p.as_array(), [0.3, -0.2, 1.7], atol=1e-12)

    def test_quarter_turn_about_z(self):
        R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        ext = Extrinsics(R, [0.76, 0.44, 0.485])
        p = camera_to_arm(CameraPoint(0.1, 0.2, 1.5), ext)
        np.testing.assert_allclose(p.as_array(), [0.56, 0.54, 1.985], atol=1e-12)

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
        for _ in range(10000):
            a = CameraPoint(*rng.uniform(-3, 3, size=3))
            b = CameraPoint(*rng.uniform(-3, 3, size=3))
            d0 = np.linalg.norm(a.as_array() - b.as_array())
            d1 = np.linalg.norm(
                camera_to_arm(a, ext).as_array() - camera_to_arm(b, ext).as_array()
            )
            assert abs(d0 - d1) <= 1e-9

    @given(ext=extrinsics(), p=st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3))
    def test_camera_arm_camera_round_trip(self, ext, p):
        arm = camera_to_arm(CameraPoint(*p), ext)
        back = ext.R.T @ (arm.as_array() - ext.t)
        scale = 1.0 + np.abs(p).max() + np.abs(ext.t).max()
        assert np.abs(back - p).max() <= ROUND_TRIP_TOL * scale

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            Extrinsics(2.0 * np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            Extrinsics(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
