"""RGB-D detection to 3-D point conversion.

A detected fruit starts as an RGB bounding-box center.  The pixel is mapped
to the depth image (the two sensors run at different resolutions), a robust
depth is taken from a 5x5 patch, the pinhole model lifts the pixel to a
camera-frame point, and a rigid transform expresses it in the arm frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Depth readings at or beyond this range are sensor artifacts.
MAX_VALID_DEPTH = 20.0
# Bound on focal lengths and image sizes, in pixels.
_MAX_PIXELS = 100_000


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters of the depth camera plus both sensor resolutions."""

    fx: float = 365.0
    fy: float = 365.0
    cx: float = 256.0
    cy: float = 212.0
    rgb_width: int = 1920
    rgb_height: int = 1080
    depth_width: int = 512
    depth_height: int = 424

    def __post_init__(self):
        for name in ("fx", "fy"):
            if not 1.0 <= getattr(self, name) <= _MAX_PIXELS:
                raise ValueError(f"cam.{name}: focal lengths must lie in [1, {_MAX_PIXELS}] pixels")
        for name in ("rgb_width", "rgb_height", "depth_width", "depth_height"):
            if not 1 <= getattr(self, name) <= _MAX_PIXELS:
                raise ValueError(f"cam.{name} must lie in [1, {_MAX_PIXELS}] pixels")
        for name, size in (("cx", "depth_width"), ("cy", "depth_height")):
            if not 0 <= getattr(self, name) < getattr(self, size):
                raise ValueError(f"cam.{name}: the principal point must lie in [0, cam.{size})")


class Extrinsics:
    """Rigid camera-to-arm transform: ``p_arm = R @ p_camera + t``."""

    def __init__(self, R, t):
        R = np.array(R, dtype=float).reshape(3, 3)
        t = np.array(t, dtype=float).reshape(3)
        if not np.allclose(R.T @ R, np.eye(3), atol=1e-9):
            raise ValueError("R must be orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("R must be a proper rotation (det +1)")
        R.setflags(write=False)
        t.setflags(write=False)
        self.R = R
        self.t = t

    def __eq__(self, other):
        return (
            isinstance(other, Extrinsics)
            and np.array_equal(self.R, other.R)
            and np.array_equal(self.t, other.t)
        )

    def __repr__(self):
        return f"Extrinsics(R={self.R.tolist()}, t={self.t.tolist()})"


def valid_depth(cells: np.ndarray) -> np.ndarray:
    """Mask of the valid readings among depth ``cells``: a cell equal to 0 or
    non-finite is an invalid reading, not an error."""
    return np.isfinite(cells) & (cells != 0.0)


def bad_depth_rows(cells: np.ndarray) -> np.ndarray:
    """Rows of an (n, k) array of depth cells that hold a valid cell
    (:func:`valid_depth`) outside (0, ``MAX_VALID_DEPTH``) meters."""
    return np.any(valid_depth(cells) & ((cells <= 0.0) | (cells >= MAX_VALID_DEPTH)), axis=1)


def _depth_pixels(u: np.ndarray, v: np.ndarray, intr: CameraIntrinsics):
    """Depth-image pixels of RGB pixels, and the mask of those inside the RGB frame."""
    inside = (0 <= u) & (u < intr.rgb_width) & (0 <= v) & (v < intr.rgb_height)
    ud = np.clip(np.floor(u * intr.depth_width / intr.rgb_width + 0.5), 0, intr.depth_width - 1)
    vd = np.clip(np.floor(v * intr.depth_height / intr.rgb_height + 0.5), 0, intr.depth_height - 1)
    return ud, vd, inside


def _robust_depths(patches: np.ndarray) -> np.ndarray:
    """Median of the valid cells of each (n, 25) row; +inf for a row with none.

    Invalid cells sort last as +inf, so the median of ``k`` valid cells is
    the mean of sorted cells ``(k - 1) // 2`` and ``k // 2``: the same two
    numbers, added and halved, that ``np.median`` uses.
    """
    valid = valid_depth(patches)
    k = np.count_nonzero(valid, axis=1)
    cells = np.sort(np.where(valid, patches, np.inf), axis=1)
    rows = np.arange(len(patches))
    return (cells[rows, (k - 1) // 2] + cells[rows, k // 2]) / 2


def _back_project(ud: np.ndarray, vd: np.ndarray, Z: np.ndarray, intr: CameraIntrinsics):
    return (ud - intr.cx) * Z / intr.fx, (vd - intr.cy) * Z / intr.fy


def _camera_to_arm(X: np.ndarray, Y: np.ndarray, Z: np.ndarray, ext: Extrinsics):
    # Written out: a matrix product leaves the summation order and any fused
    # multiply-adds to the BLAS kernel, which can change with the number of
    # points, and one point must round as it does in a batch.
    R, t = ext.R, ext.t
    return tuple(R[i, 0] * X + R[i, 1] * Y + R[i, 2] * Z + t[i] for i in range(3))


def locate_detections(
    u: np.ndarray, v: np.ndarray, patches: np.ndarray, intr: CameraIntrinsics, ext: Extrinsics
):
    """Arm-frame points of many detections at once.

    ``u`` and ``v`` are RGB pixels and ``patches`` holds the 25 cells of
    each detection's 5x5 depth patch, under the rule of
    :func:`bad_depth_rows`.  Returns ``(keep, depth, x, y, z)``: the
    indices of the detections that survive (pixel inside the RGB frame, at
    least one valid depth cell) and, for those, the robust depth and the
    arm-frame coordinates.  Row for row, and whatever the number of rows,
    this equals the per-record reference in ``tests/test_labeling.py`` bit
    for bit.
    """
    ud, vd, inside = _depth_pixels(u, v, intr)
    depth = _robust_depths(patches)
    keep = np.flatnonzero(inside & np.isfinite(depth))
    Z = depth[keep]
    X, Y = _back_project(ud[keep], vd[keep], Z, intr)
    return (keep, Z) + _camera_to_arm(X, Y, Z, ext)
