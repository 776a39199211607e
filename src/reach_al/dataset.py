"""Candidate pools: synthetic scene generation, file ingestion, labeling, splits.

The synthetic generator stands in for the field detector.  It scatters
apples on a jittered fruit wall in front of the camera, including plenty of
targets the arm cannot reach (too high or low for the shoulder pitch, too
far, or too close to the carriage rail), projects them to pixel detections,
and fabricates noisy depth patches.  Labeling runs every record through the
perception pipeline and asks the kinematic feasibility test for its class.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, IngestionError
from .features import DENSITY_BAND, FEATURE_NAMES, FeatureVector, feature_rows
from .kinematics import ArmPoint, ManipulatorParams, reachable_mask
from .perception import (
    MAX_VALID_DEPTH,
    CameraIntrinsics,
    DepthPatch,
    Extrinsics,
    default_extrinsics,
    locate_detections,
)

logger = logging.getLogger(__name__)

APPLE_DIAMETER = 0.08
_WINDOW = 11
# Records per array pass of label_with_oracle, which holds one chunk's
# intermediate arrays at a time.  Labeling 25.6k ingested records in a
# single pass raised peak RSS from 107 to 128 MB; 512-record chunks add
# under 2 MB there and when building the default benchmark (1,024: 2.4 MB).
_CHUNK = 512
_PATCH_OFFSET = (_WINDOW - 5) // 2

# Orchard rows are planted in depth: most detections sit on the front
# fruiting wall, the rest on the next row behind it.
BACKGROUND_FRAC = 0.28
BACKGROUND_OFFSET = 0.65

DETECTION_COLUMNS = ("image_id", "u", "v", "bbox_w", "bbox_h", "confidence") + tuple(
    f"d{i:02d}" for i in range(25)
)
LABELED_COLUMNS = DETECTION_COLUMNS + ("x", "y", "z", "label") + tuple(
    n for n in FEATURE_NAMES if n not in ("x", "y", "z")
)


@dataclass(frozen=True)
class DetectionRecord:
    """One detected fruit: RGB bbox center, size, confidence, depth patch."""

    image_id: str
    u: float
    v: float
    bbox_w: float
    bbox_h: float
    confidence: float
    patch: DepthPatch
    # Synthetic scenes carry an 11x11 depth window for the density feature;
    # ingested files do not, so it is excluded from equality.
    neighborhood: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")
        if not all(map(math.isfinite, (self.u, self.v, self.bbox_w, self.bbox_h))):
            raise ValueError("pixel and bounding box must be finite")
        if self.bbox_w <= 0 or self.bbox_h <= 0:
            raise ValueError("bounding box must have positive size")


@dataclass(frozen=True)
class LabeledSample:
    """Feature vector with its oracle label and the arm point it came from."""

    features: FeatureVector
    label: int
    arm_point: ArmPoint

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError("label must be 0 or 1")


@dataclass(frozen=True)
class SceneConfig:
    """Parameters of the synthetic orchard scene generator."""

    n_images: int = 800
    apples_per_image: float = 8.0
    wall_distance: float = 0.6
    wall_depth_jitter: float = 0.35
    lateral_spread: float = 0.55
    depth_noise_std: float = 0.004
    dropout_prob: float = 0.06
    cluster_prob: float = 0.35
    seed: int = 0

    def __post_init__(self):
        for name in ("dropout_prob", "cluster_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("wall_depth_jitter", "lateral_spread", "depth_noise_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.wall_distance <= 0:
            raise ValueError("wall_distance must be positive")
        if self.n_images < 0 or self.apples_per_image < 0:
            raise ValueError("scene counts must be nonnegative")


@dataclass
class PoolSplit:
    """Initial labeled set L, unlabeled pool U (labels hidden), and test set.

    Pool labels are precomputed by the kinematic oracle but must only be
    read through :meth:`reveal`, which emulates querying the oracle.
    """

    labeled: list
    unlabeled: list
    test: list

    def reveal(self, index: int) -> int:
        """Oracle query for one pool candidate."""
        return self.unlabeled[index].label


@dataclass
class LabelingResult:
    """Labeled samples aligned with the records that survived the pipeline."""

    samples: list
    records: list
    n_dropped: int
    n_input: int
    patch_density_fallback: bool


def _draw_apple_position(rng, cfg: SceneConfig, intr: CameraIntrinsics, base=None):
    """Camera-frame apple center that projects safely inside the depth image.

    Returns None when rejection sampling fails (extreme configurations)."""
    for _ in range(60):
        if base is None:
            wall = cfg.wall_distance
            if rng.random() < BACKGROUND_FRAC:
                wall += BACKGROUND_OFFSET
            Zc = rng.normal(wall, cfg.wall_depth_jitter)
            Xc = rng.normal(0.0, cfg.lateral_spread)
            Yc = rng.normal(0.0, cfg.lateral_spread)
        else:
            Zc = base[2] + rng.normal(0.0, 0.03)
            Xc = base[0] + rng.normal(0.0, 0.07)
            Yc = base[1] + rng.normal(0.0, 0.07)
        if Zc < 0.05:
            continue
        ud = Xc * intr.fx / Zc + intr.cx
        vd = Yc * intr.fy / Zc + intr.cy
        if 2.0 <= ud <= intr.depth_width - 3.0 and 2.0 <= vd <= intr.depth_height - 3.0:
            return Xc, Yc, Zc, ud, vd
    return None


def _fill_window(rng, cfg: SceneConfig, depth: float, occluder_depth=None):
    """Noisy 11x11 depth window around one apple, with optional occlusion band."""
    win = depth + rng.normal(0.0, cfg.depth_noise_std, size=(_WINDOW, _WINDOW))
    if occluder_depth is not None:
        frac = rng.uniform(0.1, 0.45)
        ncols = max(1, int(round(frac * _WINDOW)))
        side = rng.integers(0, 4)
        occ = occluder_depth + rng.normal(0.0, cfg.depth_noise_std, size=(_WINDOW, _WINDOW))
        if side == 0:
            win[:, :ncols] = occ[:, :ncols]
        elif side == 1:
            win[:, -ncols:] = occ[:, -ncols:]
        elif side == 2:
            win[:ncols, :] = occ[:ncols, :]
        else:
            win[-ncols:, :] = occ[-ncols:, :]
    if cfg.dropout_prob > 0:
        drop = rng.random(size=(_WINDOW, _WINDOW)) < cfg.dropout_prob
        win[drop] = 0.0
    win[(win < 0.0) | (win >= MAX_VALID_DEPTH) | ~np.isfinite(win)] = 0.0
    return win


def generate_scene(
    cfg: SceneConfig, intr: Optional[CameraIntrinsics] = None
) -> list[DetectionRecord]:
    """Deterministic synthetic detections for ``cfg.n_images`` images."""
    intr = intr or CameraIntrinsics()
    rng = np.random.default_rng(cfg.seed)
    rgb_sx = intr.rgb_width / intr.depth_width
    rgb_sy = intr.rgb_height / intr.depth_height
    fx_rgb = intr.fx * rgb_sx
    fy_rgb = intr.fy * rgb_sy

    records: list[DetectionRecord] = []
    for img in range(cfg.n_images):
        image_id = f"synth-{img:05d}"
        n_apples = int(rng.poisson(cfg.apples_per_image))
        placed = 0
        while placed < n_apples:
            drawn = _draw_apple_position(rng, cfg, intr)
            if drawn is None:
                placed += 1
                continue
            cluster = []
            if rng.random() < cfg.cluster_prob:
                size = int(rng.integers(2, 5))
                cluster.append(drawn)
                for _ in range(size - 1):
                    member = _draw_apple_position(rng, cfg, intr, base=drawn[:3])
                    if member is not None:
                        cluster.append(member)
            else:
                cluster.append(drawn)

            for k, (Xc, Yc, Zc, ud, vd) in enumerate(cluster):
                if placed >= n_apples:
                    break
                placed += 1
                # Members behind the cluster front are partially occluded.
                occluder = None
                if len(cluster) > 1 and k > 0:
                    occluder = max(0.05, Zc - rng.uniform(0.04, 0.09))
                window = _fill_window(rng, cfg, Zc, occluder)
                patch = DepthPatch(
                    window[
                        _PATCH_OFFSET : _PATCH_OFFSET + 5,
                        _PATCH_OFFSET : _PATCH_OFFSET + 5,
                    ]
                )
                jitter = rng.uniform(0.9, 1.1)
                bbox_w = APPLE_DIAMETER * fx_rgb / Zc * jitter
                bbox_h = APPLE_DIAMETER * fy_rgb / Zc * jitter
                window.setflags(write=False)
                records.append(
                    DetectionRecord(
                        image_id=image_id,
                        u=ud * rgb_sx,
                        v=vd * rgb_sy,
                        bbox_w=bbox_w,
                        bbox_h=bbox_h,
                        confidence=float(rng.uniform(0.5, 1.0)),
                        patch=patch,
                        neighborhood=window,
                    )
                )
    return records


def write_detections(path, records: Sequence[DetectionRecord]) -> None:
    """Serialize records in the detection-file format (depth cells in meters)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DETECTION_COLUMNS)
        writer.writerows(
            [r.image_id, repr(r.u), repr(r.v), repr(r.bbox_w), repr(r.bbox_h), repr(r.confidence)]
            + list(map(repr, r.patch.flat().tolist()))
            for r in records
        )


def _error_line(path, reader, exc: Exception) -> int:
    """Line of a read error in a CSV file.

    The reader's count is right for CSV and row errors.  Undecodable bytes
    are found a whole block ahead of the reader, so their line is counted
    in the raw file instead.
    """
    if isinstance(exc, UnicodeDecodeError):
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode(exc.encoding)
        except UnicodeDecodeError as first:
            return data.count(b"\n", 0, first.start) + 1
    return reader.line_num


def ingest_detections(
    path, intr: Optional[CameraIntrinsics] = None
) -> list[DetectionRecord]:
    """Read a detection file, skipping malformed or boundary rows with a warning.

    A file that cannot be decoded or split into CSV rows raises
    ``IngestionError`` naming the file and line.
    """
    intr = intr or CameraIntrinsics()
    try:
        fh = open(path, "r", newline="")
    except OSError as exc:
        raise IngestionError(f"cannot open detection file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        records = []
        skipped = 0
        try:
            header = next(reader, None)
            if header is None:
                raise IngestionError(f"detection file {path} is empty")
            if tuple(header) != DETECTION_COLUMNS:
                raise IngestionError(f"unexpected detection header in {path}")
            for row in reader:
                try:
                    if len(row) != len(DETECTION_COLUMNS):
                        raise ValueError("wrong column count")
                    u, v = float(row[1]), float(row[2])
                    if not (0 <= u < intr.rgb_width and 0 <= v < intr.rgb_height):
                        raise ValueError("boundary pixel")
                    records.append(
                        DetectionRecord(
                            image_id=row[0],
                            u=u,
                            v=v,
                            bbox_w=float(row[3]),
                            bbox_h=float(row[4]),
                            confidence=float(row[5]),
                            patch=DepthPatch([float(c) for c in row[6:31]]),
                        )
                    )
                except ValueError:
                    skipped += 1
        except (csv.Error, UnicodeDecodeError) as exc:
            raise IngestionError(
                f"malformed detection file {path}, line {_error_line(path, reader, exc)}: {exc}"
            ) from exc
    if skipped:
        logger.warning("skipped %d malformed or boundary rows in %s", skipped, path)
    return records


def label_with_oracle(
    records: Sequence[DetectionRecord],
    intr: Optional[CameraIntrinsics] = None,
    ext: Optional[Extrinsics] = None,
    params: Optional[ManipulatorParams] = None,
    density_band: float = DENSITY_BAND,
) -> LabelingResult:
    """Run the perception pipeline on every record and label via the IK oracle.

    Records are processed in chunks of ``_CHUNK`` as arrays: pixel mapping,
    robust depth, back-projection and the rigid transform
    (``perception.locate_detections``), the features
    (``features.feature_rows``) and a batched feasibility test
    (``kinematics.reachable_mask``).  Elementwise arithmetic rounds the same
    in numpy as in ``math``, and every ``asin``, ``acos``, ``cos``, ``sin``,
    ``atan2`` and ``hypot`` goes through ``math``, so each sample equals the
    one the per-record functions give, bit for bit.  Records with no valid
    depth or out-of-frame pixels are dropped, not errors; the drop count is
    reported in the result.
    """
    intr = intr or CameraIntrinsics()
    ext = ext or default_extrinsics()
    params = params or ManipulatorParams()

    samples: list[LabeledSample] = []
    kept: list[DetectionRecord] = []
    fallback = False
    for start in range(0, len(records), _CHUNK):
        chunk = records[start : start + _CHUNK]
        patches = np.array([r.patch.values for r in chunk]).reshape(len(chunk), -1)
        keep, depth, x, y, z = locate_detections(
            np.array([r.u for r in chunk], dtype=float),
            np.array([r.v for r in chunk], dtype=float),
            patches,
            intr,
            ext,
        )
        chunk = [chunk[i] for i in keep.tolist()]
        fallback = fallback or any(r.neighborhood is None for r in chunk)
        rows = feature_rows(
            x,
            y,
            z,
            patches[keep],
            depth,
            np.array([r.bbox_w for r in chunk], dtype=float),
            np.array([r.bbox_h for r in chunk], dtype=float),
            (intr.rgb_width, intr.rgb_height),
            [r.neighborhood for r in chunk],
            density_band,
        ).tolist()
        labels = reachable_mask(x, y, z, params).astype(int).tolist()
        samples += [
            LabeledSample(FeatureVector(*row), label, ArmPoint(row[0], row[1], row[2]))
            for row, label in zip(rows, labels)
        ]
        kept += chunk
    return LabelingResult(
        samples=samples,
        records=kept,
        n_dropped=len(records) - len(kept),
        n_input=len(records),
        patch_density_fallback=fallback,
    )


def make_splits(
    samples: Sequence[LabeledSample],
    candidates: Sequence[LabeledSample],
    test_frac: float,
    init_size: int,
    seed: int,
) -> PoolSplit:
    """Shuffle, hold out the test fraction, seed L (stratified), pool the rest."""
    if not 0.0 < test_frac < 1.0:
        raise ConfigError("test_frac must lie strictly between 0 and 1")
    n = len(samples)
    n_test = int(round(test_frac * n))
    n_rest = n - n_test
    if init_size > n_rest:
        raise ConfigError(
            f"init_size {init_size} exceeds the {n_rest} samples left after the test split"
        )

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    shuffled = [samples[i] for i in order]
    test = shuffled[:n_test]
    rest = shuffled[n_test:]

    # Probability-based strategies degenerate on a single-class seed, so
    # guarantee one sample of each class in L whenever the pool has both.
    init_labels = {s.label for s in rest[:init_size]}
    if init_size >= 2 and len(init_labels) == 1:
        missing = 1 - next(iter(init_labels))
        for j in range(init_size, len(rest)):
            if rest[j].label == missing:
                rest[init_size - 1], rest[j] = rest[j], rest[init_size - 1]
                break

    labeled = rest[:init_size]
    unlabeled = rest[init_size:] + list(candidates)
    # Shuffle the combined pool so score ties never resolve to a run of
    # records from one generated image or cluster.
    pool_order = rng.permutation(len(unlabeled))
    unlabeled = [unlabeled[i] for i in pool_order]
    return PoolSplit(labeled=labeled, unlabeled=unlabeled, test=test)


def write_labeled_cache(path, result: LabelingResult) -> None:
    """Write retained records with their arm point, label, and features."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABELED_COLUMNS)
        writer.writerows(
            [rec.image_id, repr(rec.u), repr(rec.v), repr(rec.bbox_w), repr(rec.bbox_h), repr(rec.confidence)]
            + list(map(repr, rec.patch.flat().tolist()))
            + [repr(s.arm_point.x), repr(s.arm_point.y), repr(s.arm_point.z), str(s.label)]
            + [
                repr(s.features.range),
                repr(s.features.azimuth),
                repr(s.features.elevation),
                repr(s.features.depth_var),
                repr(s.features.bbox_area),
                repr(s.features.local_density),
            ]
            for rec, s in zip(result.records, result.samples)
        )


def _parse_labeled_row(row) -> tuple[DetectionRecord, LabeledSample]:
    """One labeled-cache row; raises ValueError when it is malformed."""
    if len(row) != len(LABELED_COLUMNS):
        raise ValueError(f"expected {len(LABELED_COLUMNS)} columns, got {len(row)}")
    rec = DetectionRecord(
        image_id=row[0],
        u=float(row[1]),
        v=float(row[2]),
        bbox_w=float(row[3]),
        bbox_h=float(row[4]),
        confidence=float(row[5]),
        patch=DepthPatch([float(c) for c in row[6:31]]),
    )
    x, y, z = float(row[31]), float(row[32]), float(row[33])
    label = int(row[34])
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    rng_, az, el, svar, abox, dloc = (float(v) for v in row[35:41])
    fv = FeatureVector(
        x=x,
        y=y,
        z=z,
        range=rng_,
        azimuth=az,
        elevation=el,
        depth_var=svar,
        bbox_area=abox,
        local_density=dloc,
    )
    return rec, LabeledSample(features=fv, label=label, arm_point=ArmPoint(x, y, z))


def read_labeled_cache(path) -> LabelingResult:
    """Reload a labeled cache; features are taken from the file, not recomputed.

    A malformed row raises ``IngestionError`` naming the file and line.
    """
    try:
        fh = open(path, "r", newline="")
    except OSError as exc:
        raise IngestionError(f"cannot open labeled cache {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        records = []
        samples = []
        try:
            header = next(reader, None)
            if header is None:
                raise IngestionError(f"labeled cache {path} is empty")
            if tuple(header) != LABELED_COLUMNS:
                raise IngestionError(f"unexpected labeled-cache header in {path}")
            for row in reader:
                rec, sample = _parse_labeled_row(row)
                records.append(rec)
                samples.append(sample)
        except (csv.Error, ValueError) as exc:
            raise IngestionError(
                f"malformed labeled cache {path}, line {_error_line(path, reader, exc)}: {exc}"
            ) from exc
    return LabelingResult(
        samples=samples,
        records=records,
        n_dropped=0,
        n_input=len(records),
        patch_density_fallback=True,
    )
