"""Kinematic model of the 5-DOF harvesting arm.

The arm combines two prismatic joints (aisle travel ``d1``, wall approach
``d2``) with three revolute joints (base yaw ``theta1``, shoulder pitch
``theta2``, wrist roll ``theta3``).  The end effector is held at a fixed
horizontal pitch, so the wrist offset ``Le`` extends radially in the yawed
direction and ``theta3`` never moves the tool point.  This makes position
kinematics closed form in both directions: a target height admits exactly
one shoulder pitch, and the remaining freedom is a one-parameter family of
yaw/carriage combinations.  ``solve_ik`` searches it for arrays of targets
at once: feasibility can only change at a few candidate yaws, and the
witness is the in-limit candidate with the smallest ``|theta1|``, then
``d1``, then ``d2``.  ``tests/ik_reference.py`` holds the same search for
one point at a time, and the tests compare the two bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import IngestionError, content_lines, read_text

TWO_PI = 2.0 * math.pi

# Slack when testing carriage positions against travel bounds.  Candidate
# yaw angles are roots of the boundary equations, so the carriage they
# imply sits on a bound up to floating-point noise.
_RECT_SLACK = 1e-12


@dataclass(frozen=True)
class ManipulatorParams:
    """Geometry and joint limits of the arm.

    Lengths are meters, angles radians.  ``collision_margin`` is the
    minimum horizontal distance allowed between a target and the prismatic
    carriage column.
    """

    L1: float = 0.7
    Le: float = 0.25
    h0: float = 0.5
    d1_range: tuple[float, float] = (-0.5, 0.5)
    d2_range: tuple[float, float] = (0.0, 0.6)
    theta1_range: tuple[float, float] = (-math.radians(80.0), math.radians(80.0))
    theta2_range: tuple[float, float] = (-math.pi / 4.0, math.pi / 3.0)
    collision_margin: float = 0.15

    def __post_init__(self):
        if not self.L1 > 0:
            raise ValueError("arm.L1 must be positive")
        if self.Le < 0:
            raise ValueError("arm.Le must be nonnegative")
        if self.collision_margin < 0:
            raise ValueError("arm.collision_margin must be nonnegative")
        for name in ("d1", "d2", "theta1", "theta2"):
            lo, hi = getattr(self, f"{name}_range")
            if not lo <= hi:
                raise ValueError(f"arm.{name}_min must not exceed arm.{name}_max")
        t2_lo, t2_hi = self.theta2_range
        if not (-math.pi / 2.0 < t2_lo and t2_hi < math.pi / 2.0):
            raise ValueError("arm.theta2_min and arm.theta2_max must lie strictly inside (-pi/2, pi/2)")


@dataclass(frozen=True)
class JointConfig:
    """One joint-space pose.  ``theta3`` never affects the tool position."""

    d1: float
    d2: float
    theta1: float
    theta2: float
    theta3: float = 0.0


@dataclass(frozen=True)
class ArmPoint:
    """Cartesian point in the manipulator base frame (meters)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError("ArmPoint components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def forward_kinematics(q: JointConfig, params: ManipulatorParams) -> ArmPoint:
    """Tool point of configuration ``q``.  Joint limits are not enforced."""
    return ArmPoint(*map(float, _fk_arrays(q.d1, q.d2, q.theta1, q.theta2, params)))


def _fk_arrays(d1, d2, t1, t2, params: ManipulatorParams):
    """Vectorized forward kinematics over parallel joint arrays."""
    rho = params.L1 * np.cos(t2) + params.Le
    x = d2 + rho * np.cos(t1)
    y = d1 + rho * np.sin(t1)
    z = params.h0 + params.L1 * np.sin(t2)
    return x, y, z


def _libm(fn, *arrays: np.ndarray) -> np.ndarray:
    """``fn`` from ``math`` applied elementwise.  numpy's vectorized
    transcendentals can differ from the C library in the last bit, and a
    batched label must equal the scalar reference on every point."""
    return np.array(list(map(fn, *(a.tolist() for a in arrays))), dtype=float)


def _candidate_yaw_matrix(x, y, rho, params: ManipulatorParams) -> np.ndarray:
    """Yaw angles where the carriage implied by a target can change
    feasibility: the range endpoints, the travel-bound crossings and zero,
    shifted by whole turns into the range.  One row per point, NaN where a
    point has fewer candidates than the row holds."""
    t_lo, t_hi = params.theta1_range
    bases = [np.zeros_like(x)]
    for d2_bound in params.d2_range:
        c = (x - d2_bound) / rho
        a = np.full_like(c, np.nan)
        hit = np.abs(c) <= 1.0 + 1e-9
        a[hit] = _libm(math.acos, np.clip(c[hit], -1.0, 1.0))
        bases += [a, -a]
    for d1_bound in params.d1_range:
        s = (y - d1_bound) / rho
        a = np.full_like(s, np.nan)
        hit = np.abs(s) <= 1.0 + 1e-9
        a[hit] = _libm(math.asin, np.clip(s[hit], -1.0, 1.0))
        b = math.pi - a
        b[b > math.pi] -= TWO_PI
        bases += [a, b]
    shifts = np.array([-TWO_PI, 0.0, TWO_PI])
    shifted = (np.column_stack(bases)[:, :, None] + shifts).reshape(len(x), 3 * len(bases))
    shifted[~((t_lo - 1e-12 <= shifted) & (shifted <= t_hi + 1e-12))] = np.nan
    ends = np.broadcast_to([t_lo, t_hi], (len(x), 2))
    return np.hstack([ends, np.clip(shifted, t_lo, t_hi)])


def solve_ik(x, y, z, params: ManipulatorParams) -> tuple[np.ndarray, np.ndarray]:
    """Decide, for parallel arrays of coordinates, whether any in-limit
    configuration places the tool at each point, and give one that does.

    Returns ``(mask, joints)``: ``joints`` is (n, 4), columns ``d1``,
    ``d2``, ``theta1`` and ``theta2``, with NaN rows where ``mask`` is
    False.  The height fixes the shoulder pitch via ``theta2 = asin((z -
    h0) / L1)``, which in turn fixes the horizontal reach ``rho``.
    Feasibility then reduces to whether the carriage circle of radius
    ``rho`` around the target meets the prismatic travel rectangle at an
    admissible bearing, which is tested at the candidate yaws.  The
    witness is the inside candidate with the smallest ``(|theta1|, d1, d2,
    theta1)``, the first in candidate order among equal keys, with the
    carriage clamped onto the rectangle.
    """
    x, y, z = (np.asarray(a, dtype=float) for a in (x, y, z))
    s = (z - params.h0) / params.L1
    ok = np.abs(s) <= 1.0
    theta2 = np.full_like(s, np.nan)
    theta2[ok] = _libm(math.asin, s[ok])
    t2_lo, t2_hi = params.theta2_range
    ok &= (t2_lo <= theta2) & (theta2 <= t2_hi)
    rho = np.full_like(s, np.nan)
    rho[ok] = params.L1 * _libm(math.cos, theta2[ok]) + params.Le
    ok &= rho >= params.collision_margin

    d1_lo, d1_hi = params.d1_range
    d2_lo, d2_hi = params.d2_range
    mask = np.zeros(ok.shape, dtype=bool)
    joints = np.full((len(s), 4), np.nan)
    # rho > 0 wherever ok holds, as ManipulatorParams requires L1 > 0 and |theta2| < pi/2.
    live = np.flatnonzero(ok)
    xs, ys, rs = x[live], y[live], rho[live]
    yaws = _candidate_yaw_matrix(xs, ys, rs, params)
    point, col = np.nonzero(~np.isnan(yaws))
    t1 = yaws[point, col]
    d2 = xs[point] - rs[point] * _libm(math.cos, t1)
    d1 = ys[point] - rs[point] * _libm(math.sin, t1)
    inside = (
        (d2_lo - _RECT_SLACK <= d2)
        & (d2 <= d2_hi + _RECT_SLACK)
        & (d1_lo - _RECT_SLACK <= d1)
        & (d1 <= d1_hi + _RECT_SLACK)
    )
    point, t1, d1, d2 = point[inside], t1[inside], d1[inside], d2[inside]
    # lexsort sorts by its last key first and is stable, so each point's
    # first row holds its smallest key, the earliest candidate among equals.
    order = np.lexsort((t1, d2, d1, np.abs(t1), point))
    best = order[np.unique(point[order], return_index=True)[1]]
    rows = live[point[best]]
    mask[rows] = True
    joints[rows, 0] = np.clip(d1[best], d1_lo, d1_hi)
    joints[rows, 1] = np.clip(d2[best], d2_lo, d2_hi)
    joints[rows, 2] = t1[best]
    joints[mask, 3] = theta2[mask]
    return mask, joints


def is_reachable(p: ArmPoint, params: ManipulatorParams) -> tuple[bool, Optional[JointConfig]]:
    """``solve_ik`` of one point: ``(True, witness)`` or ``(False, None)``.
    perfbench is its only caller outside the tests."""
    mask, joints = solve_ik([p.x], [p.y], [p.z], params)
    return (True, JointConfig(*joints[0].tolist())) if mask[0] else (False, None)


def _joint_grid(params: ManipulatorParams, steps_per_joint: int):
    """``d1``, ``d2``, ``theta1`` and ``theta2`` of every configuration of an
    evenly spaced grid over the joint ranges, as flat arrays in grid order."""
    axes = [
        np.linspace(lo, hi, steps_per_joint)
        for lo, hi in (params.d1_range, params.d2_range, params.theta1_range, params.theta2_range)
    ]
    return tuple(a.ravel() for a in np.meshgrid(*axes, indexing="ij"))


class BruteForceOracle:
    """Grid-search reachability check, independent of the analytic test.

    Enumerates a joint grid (``theta3`` omitted, it cannot move the tool),
    stores the forward-kinematics image, and declares a point reachable
    when some grid configuration lands within ``tol`` of it while keeping
    the target at least ``collision_margin`` away from the carriage column.
    """

    def __init__(
        self,
        params: ManipulatorParams,
        steps_per_joint: int = 40,
        tol: float = 0.02,
    ):
        # Imported here, not at module level: scipy.spatial is most of the
        # package's import time, and only this oracle needs it.
        from scipy.spatial import cKDTree

        if steps_per_joint < 2:
            raise ValueError("steps_per_joint must be at least 2")
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.params = params
        self.steps_per_joint = steps_per_joint
        self.tol = tol

        d1g, d2g, t1g, t2g = _joint_grid(params, steps_per_joint)
        x, y, z = _fk_arrays(d1g, d2g, t1g, t2g, params)
        self.points = np.column_stack([x, y, z])
        self._carriage_xy = np.column_stack([d2g, d1g])
        self._tree = cKDTree(self.points)

    def label_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        margin = self.params.collision_margin
        neighbor_lists = self._tree.query_ball_point(pts, r=self.tol)
        out = np.zeros(len(pts), dtype=np.int64)
        for i, idx in enumerate(neighbor_lists):
            if not idx:
                continue
            dx = pts[i, 0] - self._carriage_xy[idx, 0]
            dy = pts[i, 1] - self._carriage_xy[idx, 1]
            if np.any(dx * dx + dy * dy >= margin * margin):
                out[i] = 1
        return out


def sample_envelope(params: ManipulatorParams, steps_per_joint: int) -> np.ndarray:
    """Forward-kinematics image of the full joint grid, one point per 1 cm voxel.

    Returns an (n, 3) array ordered by first occurrence in grid order.
    """
    if steps_per_joint < 2:
        raise ValueError("steps_per_joint must be at least 2")
    x, y, z = _fk_arrays(*_joint_grid(params, steps_per_joint), params)
    pts = np.column_stack([x, y, z])
    keys = np.round(pts / 0.01).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    return pts[np.sort(first)]


def write_envelope(path, points: np.ndarray) -> None:
    """Write envelope samples as three-column ``x y z`` text."""
    np.savetxt(path, np.asarray(points, dtype=float), fmt="%.6f")


def read_envelope(path) -> np.ndarray:
    """Read ``x y z`` text as an (n, 3) array.

    Blank lines and ``#`` comments are skipped; every other line must hold
    exactly three finite numbers, and at least one such line must exist.
    Anything else raises ``IngestionError`` naming the file and line.
    """
    rows = []
    for line, content in content_lines(read_text(path, "envelope file")):
        try:
            row = [float(c) for c in content.split()]
        except ValueError:
            row = []
        if len(row) != 3 or not all(map(math.isfinite, row)):
            raise IngestionError(
                f"malformed envelope file {path}, line {line}: expected three finite numbers"
            )
        rows.append(row)
    if not rows:
        raise IngestionError(f"envelope file {path} holds no point")
    return np.array(rows, dtype=float)
