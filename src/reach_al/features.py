"""Nine-dimensional feature vector for the reachability classifier.

Combines the arm-frame position with spherical-coordinate views of it and
three perception cues: depth variance inside the 5x5 patch, normalized
bounding-box area, and a local same-depth density around the detection.
A detection's features are one row in ``FEATURE_NAMES`` order.
"""

from __future__ import annotations

import math

import numpy as np

from .perception import valid_depth

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


def _depth_variances(patches: np.ndarray) -> np.ndarray:
    """Variance of the valid cells of each (n, 25) row; 0 for a row with none.

    The valid cells of each row move to its front in their original order,
    and rows with ``k`` valid cells share one ``np.var`` over their first
    ``k`` columns, which sums in the same order as ``np.var`` of one row.
    """
    valid = valid_depth(patches)
    k = np.count_nonzero(valid, axis=1)
    cells = np.take_along_axis(patches, np.argsort(~valid, axis=1, kind="stable"), axis=1)
    out = np.zeros(len(patches))
    for n_valid in np.unique(k[k > 0]).tolist():
        rows = np.flatnonzero(k == n_valid)
        out[rows] = np.var(cells[rows, :n_valid], axis=1)
    return out


def _local_densities(windows: np.ndarray, depth: np.ndarray, density_band: float) -> np.ndarray:
    """Share of each window's cells that are valid and within the band of its depth."""
    valid = valid_depth(windows)
    cells = windows - depth[:, None]
    in_band = valid & (np.abs(cells, out=cells) <= density_band)
    return np.count_nonzero(in_band, axis=1) / windows.shape[1]


def feature_rows(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    patches: np.ndarray,
    depth: np.ndarray,
    bbox_w: np.ndarray,
    bbox_h: np.ndarray,
    image_dims: tuple[int, int],
    windows: np.ndarray,
    density_band: float = DENSITY_BAND,
) -> np.ndarray:
    """Features of many detections at once, one row per detection in
    ``FEATURE_NAMES`` order.

    ``patches`` holds the 25 depth-patch cells of each detection and
    ``windows`` the (n, k) cells its density is taken over: the 11x11
    windows of a synthetic scene, or the patches themselves.  Arm-frame
    points, robust depths and bounding boxes are parallel arrays.
    Arithmetic runs in numpy, but ``atan2`` and ``hypot`` go through
    ``math``: numpy's versions can differ from the C library in the last
    bit.
    """
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


def features_matrix(samples) -> np.ndarray:
    """The ``.features`` of a list of ``dataset.LabeledSample``, as perfbench passes,
    stacked (n, 9).  Kept for perfbench; ROADMAP items 3 and 5 remove it."""
    return np.array([s.features for s in samples], dtype=float).reshape(-1, len(FEATURE_NAMES))


def labels_array(samples) -> np.ndarray:
    """The ``.label`` of a list of ``dataset.LabeledSample``, as perfbench passes, as
    int64.  Kept for perfbench; ROADMAP items 3 and 5 remove it."""
    return np.array([s.label for s in samples], dtype=np.int64)
