"""RGB-D detection to 3-D point conversion.

A detected fruit starts as an RGB bounding-box center.  The pixel is mapped
to the depth image (the two sensors run at different resolutions), a robust
depth is taken from a 5x5 patch, the pinhole model lifts the pixel to a
camera-frame point, and a rigid transform expresses it in the arm frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, NoDepthError
from .kinematics import ArmPoint

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
        if not (1.0 <= self.fx <= _MAX_PIXELS and 1.0 <= self.fy <= _MAX_PIXELS):
            raise ValueError(f"focal lengths must lie in [1, {_MAX_PIXELS}] pixels")
        if not (0 <= self.cx < self.depth_width and 0 <= self.cy < self.depth_height):
            raise ValueError("principal point must lie inside the depth image")
        for name in ("rgb_width", "rgb_height", "depth_width", "depth_height"):
            if not 1 <= getattr(self, name) <= _MAX_PIXELS:
                raise ValueError(f"{name} must lie in [1, {_MAX_PIXELS}] pixels")


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


def bad_depth_rows(cells: np.ndarray) -> np.ndarray:
    """Rows of an (n, k) array of depth cells that hold a valid cell outside
    (0, ``MAX_VALID_DEPTH``) meters.  A cell equal to 0 or non-finite is an
    invalid reading, not an error."""
    valid = np.isfinite(cells) & (cells != 0.0)
    return np.any(valid & ((cells <= 0.0) | (cells >= MAX_VALID_DEPTH)), axis=1)


class DepthPatch:
    """A 5x5 grid of depth readings in meters: one detection's cells for
    ``robust_depth`` and ``extract_features``.  Cells follow the rule of
    :func:`bad_depth_rows`."""

    SIZE = 5

    def __init__(self, values):
        vals = np.array(values, dtype=float).reshape(self.SIZE, self.SIZE)
        if bad_depth_rows(vals.reshape(1, -1))[0]:
            raise ValueError("valid depth cells must lie in (0, 20) meters")
        vals.setflags(write=False)
        self.values = vals

    @property
    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.values) & (self.values != 0.0)


@dataclass(frozen=True)
class CameraPoint:
    """Point in the camera frame (meters, Z along the optical axis)."""

    Xc: float
    Yc: float
    Zc: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.Xc, self.Yc, self.Zc)):
            raise ValueError("CameraPoint components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.Xc, self.Yc, self.Zc], dtype=float)


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
    valid = np.isfinite(patches) & (patches != 0.0)
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

    ``u`` and ``v`` are RGB pixels and ``patches`` holds one row of 25
    ``DepthPatch`` cells per detection.  Returns ``(keep, depth, x, y, z)``:
    the indices of the detections that survive (pixel inside the RGB frame,
    at least one valid depth cell) and, for those, the robust depth and the
    arm-frame coordinates.  Row for row this is the chain
    ``map_rgb_to_depth_pixel`` → ``robust_depth`` → ``back_project`` →
    ``camera_to_arm``, bit for bit.
    """
    ud, vd, inside = _depth_pixels(u, v, intr)
    depth = _robust_depths(patches)
    keep = np.flatnonzero(inside & np.isfinite(depth))
    Z = depth[keep]
    X, Y = _back_project(ud[keep], vd[keep], Z, intr)
    return (keep, Z) + _camera_to_arm(X, Y, Z, ext)


def map_rgb_to_depth_pixel(u: float, v: float, intr: CameraIntrinsics) -> tuple[int, int]:
    """Map an RGB pixel to the depth image with per-axis scale factors.

    Raises BoundaryError when the pixel lies outside the RGB frame, which
    callers treat as a discarded detection.
    """
    ud, vd, inside = _depth_pixels(np.array([u], dtype=float), np.array([v], dtype=float), intr)
    if not inside[0]:
        raise BoundaryError(f"pixel ({u}, {v}) outside RGB image")
    return int(ud[0]), int(vd[0])


def robust_depth(patch: DepthPatch) -> float:
    """Median of the valid patch cells; raises NoDepthError when none exist."""
    depth = float(_robust_depths(patch.values.reshape(1, -1))[0])
    if depth == math.inf:
        raise NoDepthError("depth patch has no valid cells")
    return depth


def back_project(u: float, v: float, Z: float, intr: CameraIntrinsics) -> CameraPoint:
    """Lift a depth-image pixel with measured depth ``Z`` to the camera frame."""
    if Z <= 0:
        raise NoDepthError(f"non-positive depth {Z}")
    X, Y = _back_project(np.array([u], dtype=float), np.array([v], dtype=float), Z, intr)
    return CameraPoint(Xc=float(X[0]), Yc=float(Y[0]), Zc=Z)


def camera_to_arm(p: CameraPoint, ext: Extrinsics) -> ArmPoint:
    """Apply the rigid camera-to-arm transform."""
    x, y, z = _camera_to_arm(np.array([p.Xc]), np.array([p.Yc]), np.array([p.Zc]), ext)
    return ArmPoint(x=float(x[0]), y=float(y[0]), z=float(z[0]))
