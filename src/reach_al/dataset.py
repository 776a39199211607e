"""Candidate pools: synthetic scene generation, file ingestion, labeling, splits.

The synthetic generator stands in for the field detector.  It scatters
apples on a jittered fruit wall in front of the camera, including plenty of
targets the arm cannot reach (too high or low for the shoulder pitch, too
far, or too close to the carriage rail), projects them to pixel detections,
and fabricates noisy depth patches.  Labeling runs every detection through
the perception pipeline and asks the kinematic feasibility test for its
class.

Detections are held as columns (:class:`Detections`) from generation or
ingestion through labeling to the labeled cache, and labeled records as a
feature matrix and a label vector (:class:`LabeledRows`) from labeling to
the AL cell; no step builds an object per record.  One mask (``_bad_rows``)
holds the rules every detection must meet.
"""

from __future__ import annotations

import logging
import math
import mmap
import os
from array import array
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import ConfigError, IngestionError, read_table, write_table
from .features import DENSITY_BAND, FEATURE_NAMES, feature_rows
from .kinematics import ArmPoint, ManipulatorParams, solve_ik
from .perception import (
    MAX_VALID_DEPTH,
    CameraIntrinsics,
    Extrinsics,
    bad_depth_rows,
    locate_detections,
)

logger = logging.getLogger(__name__)

APPLE_DIAMETER = 0.08
_WINDOW = 11
# Rows per array pass of label_with_oracle, which holds one chunk's
# intermediate arrays at a time.  Labeling 25.6k ingested records in a
# single pass raised peak RSS from 107 to 128 MB; 512-record chunks add
# under 2 MB there and when building the default benchmark (1,024: 2.4 MB).
# The writers and ``LabeledRows`` iteration make Python floats in chunks of the same size.
_CHUNK = 512
_PATCH_OFFSET = (_WINDOW - 5) // 2

# Orchard rows are planted in depth: most detections sit on the front
# fruiting wall, the rest on the next row behind it.
BACKGROUND_FRAC = 0.28
BACKGROUND_OFFSET = 0.65
# Scene size bounds: far above any experiment, far below numpy's limits.
_MAX_IMAGES = 1_000_000
_MAX_APPLES = 1_000.0

DETECTION_COLUMNS = ("image_id", "u", "v", "bbox_w", "bbox_h", "confidence") + tuple(
    f"d{i:02d}" for i in range(25)
)
LABELED_COLUMNS = DETECTION_COLUMNS + FEATURE_NAMES[:3] + ("label",) + FEATURE_NAMES[3:]
_LABEL = LABELED_COLUMNS.index("label")


@dataclass(frozen=True, eq=False)
class Detections:
    """Detected fruit as parallel columns, one row per detection.

    ``image_id`` holds strings; ``u`` and ``v`` (the RGB bounding-box
    center, pixels), ``bbox_w``, ``bbox_h`` and ``confidence`` are float64.
    ``patches`` is (n, 25): each 5x5 depth patch in meters, row-major, with
    0 or a non-finite cell marking an invalid reading.  ``windows`` is
    (n, 121), the 11x11 depth window around each detection that synthetic
    scenes carry for the density feature, or ``None`` for ingested files.
    """

    image_id: np.ndarray
    u: np.ndarray
    v: np.ndarray
    bbox_w: np.ndarray
    bbox_h: np.ndarray
    confidence: np.ndarray
    patches: np.ndarray
    windows: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.u)

    def take(self, idx) -> "Detections":
        """The rows at ``idx``, an index array or a boolean mask."""
        cols = (getattr(self, f.name) for f in fields(self))
        return Detections(*(None if col is None else col[idx] for col in cols))


@dataclass(frozen=True)
class LabeledSample:
    """One labeled record: features (Python floats in ``FEATURE_NAMES`` order)
    and oracle label, made only by indexing or iterating :class:`LabeledRows`."""

    features: tuple[float, ...]
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError("label must be 0 or 1")

    @property
    def arm_point(self) -> ArmPoint:
        """The arm-frame point the features start with."""
        return ArmPoint(*self.features[:3])


def _rows(labeled: LabeledRows):
    """Each row's features (Python floats) and label (an int), ``_CHUNK`` rows at a time."""
    for start in range(0, len(labeled), _CHUNK):
        rows = slice(start, start + _CHUNK)
        yield from zip(labeled.X[rows].tolist(), labeled.y[rows].tolist())


@dataclass(frozen=True, eq=False)
class LabeledRows:
    """Labeled records as columns: (n, 9) float64 features ``X`` in ``FEATURE_NAMES``
    order and int64 0/1 labels ``y``.  Slicing gives a view of the same arrays;
    indexing or iterating makes a :class:`LabeledSample` per row handed out."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.X.shape != (len(self.y), len(FEATURE_NAMES)):
            raise ValueError(f"X must be ({len(self.y)}, {len(FEATURE_NAMES)}), got {self.X.shape}")
        if not np.isin(self.y, (0, 1)).all():
            raise ValueError("label must be 0 or 1")

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return LabeledRows(self.X[i], self.y[i])
        return LabeledSample(tuple(self.X[i].tolist()), int(self.y[i]))

    def __iter__(self):
        return (LabeledSample(tuple(f), label) for f, label in _rows(self))


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
            if not 0.0 <= getattr(self, name) <= MAX_VALID_DEPTH:
                raise ValueError(f"{name} must lie in [0, {MAX_VALID_DEPTH:g}] meters")
        if not 0.0 < self.wall_distance <= MAX_VALID_DEPTH:
            raise ValueError(f"wall_distance must lie in (0, {MAX_VALID_DEPTH:g}] meters")
        if not (0 <= self.n_images <= _MAX_IMAGES and 0.0 <= self.apples_per_image <= _MAX_APPLES):
            raise ValueError(
                f"n_images must lie in [0, {_MAX_IMAGES}] and "
                f"apples_per_image in [0, {_MAX_APPLES:g}]"
            )
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class PoolSplit:
    """Row indices (int64) of the initial labeled set L, the unlabeled pool U
    and the test set.  They index the rows of the stacked benchmark, samples
    first and candidates after; pool labels are read only when queried."""

    labeled: np.ndarray
    unlabeled: np.ndarray
    test: np.ndarray


@dataclass
class LabelingResult:
    """Labeled rows aligned with the detections that survived the pipeline."""

    samples: LabeledRows
    records: Detections
    n_dropped: int
    n_input: int
    # Where ``d_local`` came from: "patch5x5" or "window11x11".
    density_source: str


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


def _window_map(rows: int, full: Optional[mmap.mmap] = None) -> mmap.mmap:
    """A private anonymous mapping with room for ``rows`` 11x11 windows that
    starts with those of ``full``, and closes it.  A page is resident only
    once written, and goes back to the OS when the mapping is freed."""
    windows = mmap.mmap(-1, max(rows, 1) * _WINDOW**2 * 8, access=mmap.ACCESS_COPY)
    if full is not None:
        windows.write(full)
        full.close()
    return windows


def generate_scene(cfg: SceneConfig, intr: CameraIntrinsics) -> Detections:
    """Deterministic synthetic detections for ``cfg.n_images`` images."""
    rng = np.random.default_rng(cfg.seed)
    rgb_sx = intr.rgb_width / intr.depth_width
    rgb_sy = intr.rgb_height / intr.depth_height
    fx_rgb = intr.fx * rgb_sx
    fy_rgb = intr.fy * rgb_sy

    image_ids, cells = [], array("d")  # u, v, bbox_w, bbox_h, confidence per row
    # 11x11 cells per row, in a mapping of their own rather than malloc's
    # heap, whose fragmentation made peak RSS vary from run to run; then
    # viewed, not copied, as the (n, 121) column.  The room covers the mean
    # row count plus 8 standard deviations; past that the map doubles.
    windows = _window_map(math.ceil(1.25 * cfg.n_images * cfg.apples_per_image) + 64)
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
                if windows.tell() == len(windows):
                    windows = _window_map(2 * len(image_ids), windows)
                windows.write(_fill_window(rng, cfg, Zc, occluder).tobytes())
                jitter = rng.uniform(0.9, 1.1)
                bbox_w = APPLE_DIAMETER * fx_rgb / Zc * jitter
                bbox_h = APPLE_DIAMETER * fy_rgb / Zc * jitter
                image_ids.append(image_id)
                cells.extend((ud * rgb_sx, vd * rgb_sy, bbox_w, bbox_h, rng.uniform(0.5, 1.0)))
    n = len(image_ids)
    windows = np.frombuffer(windows, dtype=float, count=n * _WINDOW**2).reshape(n, _WINDOW**2)
    lo, hi = _PATCH_OFFSET, _PATCH_OFFSET + 5
    patches = windows.reshape(n, _WINDOW, _WINDOW)[:, lo:hi, lo:hi].reshape(n, 25)
    columns = np.array(cells, dtype=float).reshape(n, 5).T
    return Detections(np.array(image_ids, dtype=object), *columns, patches=patches, windows=windows)


def _detection_cells(det: Detections):
    """Each row's cells in ``DETECTION_COLUMNS`` order, as Python floats
    converted a chunk of rows at a time; ``csv.writer`` writes each as its
    ``repr``."""
    for start in range(0, len(det), _CHUNK):
        rows = slice(start, start + _CHUNK)
        cols = (det.u, det.v, det.bbox_w, det.bbox_h, det.confidence, det.patches)
        nums = np.column_stack([col[rows] for col in cols])
        for image_id, cells in zip(det.image_id[rows].tolist(), nums.tolist()):
            yield [image_id, *cells]


def write_detections(path, det: Detections) -> None:
    """Serialize detections in the detection-file format (depth cells in meters)."""
    write_table(path, DETECTION_COLUMNS, _detection_cells(det))


def _from_cells(image_ids: list, cells: array) -> Detections:
    """Detections from image ids and the numeric cells of each row
    (``DETECTION_COLUMNS[1:]``, row after row), viewed, not copied."""
    nums = np.frombuffer(cells, dtype=float).reshape(len(image_ids), len(DETECTION_COLUMNS) - 1)
    return Detections(np.array(image_ids, dtype=object), *nums[:, :5].T, patches=nums[:, 5:])


def _bad_rows(det: Detections, intr: Optional[CameraIntrinsics] = None) -> np.ndarray:
    """Rows that break a detection rule: a confidence outside [0, 1], a
    non-finite pixel, a non-finite box or one without positive size, or a
    valid depth cell outside (0, 20) m.  Given ``intr``, a pixel outside its
    RGB frame breaks one too."""
    ok = (0.0 <= det.confidence) & (det.confidence <= 1.0)
    ok &= np.isfinite(det.u) & np.isfinite(det.v)
    ok &= np.isfinite(det.bbox_w) & (det.bbox_w > 0) & np.isfinite(det.bbox_h) & (det.bbox_h > 0)
    if intr is not None:
        ok &= (0 <= det.u) & (det.u < intr.rgb_width) & (0 <= det.v) & (det.v < intr.rgb_height)
    return ~ok | bad_depth_rows(det.patches)


def ingest_detections(path, intr: CameraIntrinsics) -> Detections:
    """Read a detection file, skipping malformed or boundary rows with a warning.

    A row is skipped when it has the wrong number of cells, a cell that is
    not a number, or breaks a detection rule (:func:`_bad_rows`, with the
    RGB frame of ``intr``).  A file that cannot be decoded or split into CSV
    rows raises ``IngestionError`` naming the file and line.
    """
    image_ids, cells = [], array("d")

    def parse(row):
        row_cells = list(map(float, row[1:]))
        image_ids.append(row[0])
        cells.extend(row_cells)

    skipped = read_table(path, "detection file", DETECTION_COLUMNS, parse, skip_malformed=True)
    det = _from_cells(image_ids, cells)
    bad = _bad_rows(det, intr)
    skipped += int(np.count_nonzero(bad))
    if skipped:
        logger.warning("skipped %d malformed or boundary rows in %s", skipped, path)
    return det.take(~bad) if bad.any() else det


def label_with_oracle(
    det: Detections,
    intr: CameraIntrinsics,
    ext: Extrinsics,
    params: ManipulatorParams,
    density_band: float = DENSITY_BAND,
) -> LabelingResult:
    """Run the perception pipeline on every detection and label via the IK oracle.

    The columns of ``det`` are sliced ``_CHUNK`` rows at a time and run as
    arrays: pixel mapping, robust depth, back-projection and the rigid
    transform (``perception.locate_detections``), the features
    (``features.feature_rows``, with density from the 11x11 windows, or
    from the patches when ``det.windows`` is ``None``) and the IK oracle's
    mask (``kinematics.solve_ik``).  Elementwise arithmetic rounds the same
    in numpy as in ``math``, and every ``asin``, ``acos``, ``cos``,
    ``sin``, ``atan2`` and ``hypot`` goes through ``math``, so each sample
    equals the one the per-record reference in ``tests/test_labeling.py``
    gives, bit for bit, a one-row last chunk too.  That reference labels
    with the scalar IK search in ``tests/ik_reference.py``.  Detections
    with no valid depth or out-of-frame pixels are dropped, not errors; the
    kept rows are the result's ``records`` and the drop count is reported.
    """
    windows = det.patches if det.windows is None else det.windows
    kept = np.zeros(len(det), dtype=bool)
    features, labels = [np.empty((0, len(FEATURE_NAMES)))], [np.empty(0, dtype=np.int64)]
    for start in range(0, len(det), _CHUNK):
        rows = slice(start, start + _CHUNK)
        patches = det.patches[rows]
        keep, depth, x, y, z = locate_detections(det.u[rows], det.v[rows], patches, intr, ext)
        bbox_w, bbox_h = det.bbox_w[rows][keep], det.bbox_h[rows][keep]
        dims = (intr.rgb_width, intr.rgb_height)
        features.append(
            feature_rows(x, y, z, patches[keep], depth, bbox_w, bbox_h, dims, windows[rows][keep], density_band)
        )
        labels.append(solve_ik(x, y, z, params)[0].astype(np.int64))
        kept[start + keep] = True
    samples = LabeledRows(np.concatenate(features), np.concatenate(labels))
    # Keeping every row copies none: a second copy of the windows would
    # raise peak RSS by their whole size.
    return LabelingResult(
        samples=samples,
        records=det if kept.all() else det.take(kept),
        n_dropped=len(det) - len(samples),
        n_input=len(det),
        density_source="patch5x5" if det.windows is None and samples else "window11x11",
    )


def make_splits(
    y: np.ndarray, n_samples: int, test_frac: float, init_size: int, seed: int
) -> PoolSplit:
    """Shuffle the first ``n_samples`` rows of ``y``, hold out the test
    fraction, seed L (stratified) and pool the rest with every later row."""
    if not 0.0 < test_frac < 1.0:
        raise ConfigError("test_frac must lie strictly between 0 and 1")
    if init_size < 1:
        raise ConfigError(f"init_size must be at least 1, got {init_size}")
    n_test = int(round(test_frac * n_samples))
    n_rest = n_samples - n_test
    if init_size > n_rest:
        raise ConfigError(
            f"init_size {init_size} exceeds the {n_rest} samples left after the test split"
        )

    rng = np.random.default_rng(seed)
    order = rng.permutation(n_samples)
    test = order[:n_test]
    rest = order[n_test:]

    # Probability-based strategies degenerate on a single-class seed, so
    # guarantee one sample of each class in L whenever the pool has both.
    init_labels = y[rest[:init_size]]
    if init_size >= 2 and (init_labels == init_labels[0]).all():
        hits = np.flatnonzero(y[rest[init_size:]] != init_labels[0])
        if hits.size:
            j = init_size + hits[0]
            rest[[init_size - 1, j]] = rest[[j, init_size - 1]]

    unlabeled = np.concatenate([rest[init_size:], np.arange(n_samples, len(y))])
    # Shuffle the combined pool so score ties never resolve to a run of
    # records from one generated image or cluster.
    unlabeled = unlabeled[rng.permutation(len(unlabeled))]
    return PoolSplit(labeled=rest[:init_size], unlabeled=unlabeled, test=test)


def _labeled_cells(result: LabelingResult):
    """Each row's cells in ``LABELED_COLUMNS`` order."""
    for cells, (features, label) in zip(_detection_cells(result.records), _rows(result.samples)):
        cells += features
        cells.insert(_LABEL, label)
        yield cells


def write_labeled_cache(path, result: LabelingResult) -> None:
    """Write retained records with their features and label, and the
    ``.meta`` sidecar that :func:`read_labeled_cache` reads back."""
    write_table(path, LABELED_COLUMNS, _labeled_cells(result))
    with open(f"{os.fspath(path)}.meta", "w") as fh:
        fh.write(f"n_input = {result.n_input}\n")
        fh.write(f"n_dropped = {result.n_dropped}\n")
        fh.write(f"n_labeled = {len(result.samples)}\n")
        fh.write(f"density_source = {result.density_source}\n")


_META_KEYS = ("n_input", "n_dropped", "n_labeled", "density_source")


def _read_meta(path, n_labeled: int) -> Optional[tuple[int, str]]:
    """``(n_dropped, density_source)`` from a labeled cache's sidecar,
    or None when it has none.  A sidecar that is malformed or counts other
    rows than the cache holds raises ``IngestionError``."""
    meta_path = f"{os.fspath(path)}.meta"
    try:
        with open(meta_path, "r") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return None
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read labeled-cache sidecar {meta_path}: {exc}") from exc
    pairs = [[part.strip() for part in line.split("=")] for line in lines]
    meta = dict(pair for pair in pairs if len(pair) == 2)
    if len(meta) != len(lines) or sorted(meta) != sorted(_META_KEYS):
        raise IngestionError(
            f"malformed labeled-cache sidecar {meta_path}: expected one 'key = value' "
            f"line for each of {', '.join(_META_KEYS)}"
        )
    try:
        n_input, n_dropped, n_meta = (int(meta[k]) for k in _META_KEYS[:3])
    except ValueError as exc:
        raise IngestionError(f"malformed labeled-cache sidecar {meta_path}: {exc}") from exc
    source = meta["density_source"]
    if min(n_input, n_dropped, n_meta) < 0 or source not in ("patch5x5", "window11x11"):
        raise IngestionError(
            f"malformed labeled-cache sidecar {meta_path}: counts must be nonnegative "
            "and density_source patch5x5 or window11x11"
        )
    if n_meta != n_labeled or n_input != n_meta + n_dropped:
        raise IngestionError(
            f"labeled-cache sidecar {meta_path} does not match its cache: it counts "
            f"{n_meta} labeled and {n_dropped} dropped of {n_input} read, and the cache "
            f"holds {n_labeled} rows"
        )
    return n_dropped, source


def read_labeled_cache(path) -> LabelingResult:
    """Reload a labeled cache; features are taken from the file, not recomputed.

    A malformed row, or one that breaks a detection rule (:func:`_bad_rows`),
    raises ``IngestionError`` naming the file and the line of the first such
    row.
    """
    image_ids, cells, features, labels = [], array("d"), array("d"), array("q")
    n_cells = len(DETECTION_COLUMNS) - 1

    def parse(row):
        nums = list(map(float, row[1:_LABEL] + row[_LABEL + 1 :]))
        label = int(row[_LABEL])
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label}")
        for name, value in zip(FEATURE_NAMES, nums[n_cells:]):
            if not math.isfinite(value):
                raise ValueError(f"feature {name} is not finite: {value}")
        image_ids.append(row[0])
        cells.extend(nums[:n_cells])
        features.extend(nums[n_cells:])
        labels.append(label)

    error = None
    try:
        read_table(path, "labeled cache", LABELED_COLUMNS, parse)
    except IngestionError as exc:
        error = exc
    records = _from_cells(image_ids, cells)
    bad = np.flatnonzero(_bad_rows(records))
    if bad.size:
        # A rule broken in a row before the malformed one is reported
        # first; a second read stops at that row to name its line.
        rows = iter(range(len(records)))

        def stop_at_bad(row):
            if next(rows) == bad[0]:
                raise ValueError("confidence, pixel, bounding box or depth cell out of range")

        read_table(path, "labeled cache", LABELED_COLUMNS, stop_at_bad)
    if error is not None:
        raise error
    # Without a sidecar, d_local is taken to come from the 5x5 patch, as in
    # every cache that ``reach-al label`` writes from a detection file.
    n_dropped, source = _read_meta(path, len(records)) or (0, "patch5x5")
    X = np.frombuffer(features, dtype=float).reshape(-1, len(FEATURE_NAMES))
    return LabelingResult(
        samples=LabeledRows(X, np.frombuffer(labels, dtype=np.int64)),
        records=records,
        n_dropped=n_dropped,
        n_input=len(records) + n_dropped,
        density_source=source,
    )
