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
    vals = patch.valid_values
    depth_var = float(np.var(vals)) if vals.size > 0 else 0.0

    window = np.asarray(neighborhood if neighborhood is not None else patch.values)
    wvalid = np.isfinite(window) & (window != 0.0)
    in_band = wvalid & (np.abs(window - depth) <= density_band)
    local_density = float(np.count_nonzero(in_band)) / window.size

    img_w, img_h = image_dims
    bbox_area = min(1.0, (bbox_w * bbox_h) / (float(img_w) * float(img_h)))

    rng = math.sqrt(p.x * p.x + p.y * p.y + p.z * p.z)
    az = math.atan2(p.y, p.x)
    if az <= -math.pi:
        az += 2.0 * math.pi
    el = math.atan2(p.z, math.hypot(p.x, p.y))

    return FeatureVector(
        x=p.x,
        y=p.y,
        z=p.z,
        range=rng,
        azimuth=az,
        elevation=el,
        depth_var=depth_var,
        bbox_area=bbox_area,
        local_density=local_density,
    )


def features_matrix(samples) -> np.ndarray:
    """Stack ``.features`` of labeled samples into an (n, 9) array."""
    if len(samples) == 0:
        return np.zeros((0, 9), dtype=float)
    return np.stack([s.features.as_array() for s in samples])


def labels_array(samples) -> np.ndarray:
    return np.array([s.label for s in samples], dtype=np.int64)
