"""Nine-dimensional feature vector for the reachability classifier.

Combines the arm-frame position with spherical-coordinate views of it and
three perception cues: depth variance inside the 5x5 patch, normalized
bounding-box area, and a local same-depth density around the detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kinematics import ArmPoint
from .perception import DepthPatch

DENSITY_BAND = 0.05

FEATURE_NAMES = (
    "x",
    "y",
    "z",
    "range",
    "az",
    "el",
    "sigma_z",
    "a_bbox",
    "d_local",
)


@dataclass(frozen=True)
class FeatureVector:
    x: float
    y: float
    z: float
    range: float
    azimuth: float
    elevation: float
    depth_var: float
    bbox_area: float
    local_density: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.x,
                self.y,
                self.z,
                self.range,
                self.azimuth,
                self.elevation,
                self.depth_var,
                self.bbox_area,
                self.local_density,
            ],
            dtype=float,
        )


def _depth_variances(patches: np.ndarray) -> np.ndarray:
    """Variance of the valid cells of each (n, 25) row; 0 for a row with none.

    The valid cells of each row move to its front in their original order,
    and rows with ``k`` valid cells share one ``np.var`` over their first
    ``k`` columns, which sums in the same order as ``np.var`` of one row.
    """
    valid = np.isfinite(patches) & (patches != 0.0)
    k = np.count_nonzero(valid, axis=1)
    cells = np.take_along_axis(patches, np.argsort(~valid, axis=1, kind="stable"), axis=1)
    out = np.zeros(len(patches))
    for n_valid in np.unique(k[k > 0]).tolist():
        rows = np.flatnonzero(k == n_valid)
        out[rows] = np.var(cells[rows, :n_valid], axis=1)
    return out


def _local_densities(windows: list, depth: np.ndarray, density_band: float) -> np.ndarray:
    """Share of each window's cells that are valid and within the band of its depth."""
    groups: dict = {}
    for i, w in enumerate(windows):
        groups.setdefault(w.shape, []).append(i)
    out = np.empty(len(windows))
    for rows in groups.values():
        cells = np.array([windows[i] for i in rows], dtype=float).reshape(len(rows), -1)
        valid = np.isfinite(cells) & (cells != 0.0)
        cells -= depth[rows, None]
        in_band = valid & (np.abs(cells, out=cells) <= density_band)
        out[rows] = np.count_nonzero(in_band, axis=1) / cells.shape[1]
    return out


def feature_rows(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    patches: np.ndarray,
    depth: np.ndarray,
    bbox_w: np.ndarray,
    bbox_h: np.ndarray,
    image_dims: tuple[int, int],
    neighborhoods: list,
    density_band: float = DENSITY_BAND,
) -> np.ndarray:
    """Features of many detections at once, one row per detection in
    ``FEATURE_NAMES`` order.

    ``patches`` holds the 25 ``DepthPatch`` cells of each detection and
    ``neighborhoods`` its density window or ``None``; arm-frame points,
    robust depths and bounding boxes are parallel arrays.  Arithmetic runs
    in numpy, but ``atan2`` and ``hypot`` go through ``math``: numpy's
    versions can differ from the C library in the last bit.
    """
    windows = [w if w is not None else patches[i] for i, w in enumerate(neighborhoods)]
    img_w, img_h = image_dims
    xs, ys, zs = x.tolist(), y.tolist(), z.tolist()
    az = np.array(list(map(math.atan2, ys, xs)), dtype=float)
    az[az <= -math.pi] += 2.0 * math.pi
    el = list(map(math.atan2, zs, map(math.hypot, xs, ys)))
    return np.column_stack(
        [
            x,
            y,
            z,
            np.sqrt(x * x + y * y + z * z),
            az,
            np.array(el, dtype=float),
            _depth_variances(patches),
            np.minimum(1.0, (bbox_w * bbox_h) / (float(img_w) * float(img_h))),
            _local_densities(windows, depth, density_band),
        ]
    )


def extract_features(
    p: ArmPoint,
    patch: DepthPatch,
    depth: float,
    bbox_w: float,
    bbox_h: float,
    image_dims: tuple[int, int],
    neighborhood: Optional[np.ndarray] = None,
    density_band: float = DENSITY_BAND,
) -> FeatureVector:
    """Compute the classifier features for one detection.

    ``depth`` is the patch's robust depth, which the caller has already
    computed to back-project the detection.  ``neighborhood`` is an optional
    square depth window around the detection (11x11 in synthetic scenes).
    When absent the 5x5 patch itself supplies the density neighborhood.
    """
    row = feature_rows(
        np.array([p.x]),
        np.array([p.y]),
        np.array([p.z]),
        patch.values.reshape(1, -1),
        np.array([depth], dtype=float),
        np.array([bbox_w], dtype=float),
        np.array([bbox_h], dtype=float),
        image_dims,
        [None if neighborhood is None else np.asarray(neighborhood)],
        density_band,
    )
    return FeatureVector(*row[0].tolist())


def features_matrix(samples) -> np.ndarray:
    """Stack ``.features`` of labeled samples into an (n, 9) array."""
    if len(samples) == 0:
        return np.zeros((0, 9), dtype=float)
    return np.stack([s.features.as_array() for s in samples])


def labels_array(samples) -> np.ndarray:
    return np.array([s.label for s in samples], dtype=np.int64)
