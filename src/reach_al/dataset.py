"""Candidate pools: synthetic scene generation, file ingestion, labeling, splits.

The synthetic generator stands in for the field detector.  It scatters
apples on a jittered fruit wall in front of the camera, including plenty of
targets the arm cannot reach (too high or low for the shoulder pitch, too
far, or too close to the carriage rail), projects them to pixel detections,
and fabricates noisy depth patches.  Its random draws, in their order, are
part of its output: reordering them is a re-baseline.  One loop draws the
scene in blocks of ``_CHUNK`` rows (``_scene_blocks``): each window's normals
go straight into its row of one reused buffer, and array passes over the
block make them depths (``tests/scene_reference.py`` keeps the per-window
form); it first reserves the scene's window map, so every consumer refuses a
scene too large to hold.  :func:`write_scene` writes, and :func:`label_scene`
labels, each block before the next is drawn; :func:`generate_scene` appends
each block's windows to one map, and keeps each patch only as its window's
center.  Labeling runs every detection through the perception pipeline and
asks the kinematic feasibility test for its class.

Detections are held as columns (:class:`Detections`) from generation or
ingestion through labeling to the labeled cache, and labeled records as a
feature matrix and a label vector (:class:`LabeledRows`) from labeling to
the AL cell; no step builds an object per record.  One mask (``_bad_rows``)
holds the rules every detection must meet.
"""

from __future__ import annotations

import csv
import logging
import math
import mmap
import os
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import chain, islice, repeat
from typing import Optional

import numpy as np

from .errors import ConfigError, IngestionError, plain_line, read_table, write_table
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
# The writers make Python floats in chunks of the same size.
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


class _Patches:
    """``Detections.patches``: the array given or, where none was, the 5x5
    centers of ``windows``, copied out each time it is read."""

    def __get__(self, det, owner=None):
        if det is None:
            return None  # the field's default: no array given
        patches = vars(det)["patches"]
        if patches is None:
            lo, hi = _PATCH_OFFSET, _PATCH_OFFSET + 5
            patches = det.windows.reshape(-1, _WINDOW, _WINDOW)[:, lo:hi, lo:hi].reshape(-1, 25)
        return patches

    def __set__(self, det, patches):
        vars(det)["patches"] = patches


@dataclass(frozen=True, eq=False)
class Detections:
    """Detected fruit as parallel columns, one row per detection.

    ``image_id`` holds strings; ``u`` and ``v`` (the RGB bounding-box
    center, pixels), ``bbox_w``, ``bbox_h`` and ``confidence`` are float64.
    ``patches`` reads as (n, 25): each 5x5 depth patch in meters, row-major,
    with 0 or a non-finite cell marking an invalid reading.  ``windows`` is
    (n, 121), the 11x11 depth window around each detection that synthetic
    scenes carry for the density feature, or ``None`` for ingested files.
    A generated scene holds each depth cell once, in its windows: it gives
    ``patches=None``, so read them a block of rows at a time (:func:`_chunks`).

    Detections read by :func:`ingest_detections` also record where each row
    came from: ``source``, the file's absolute path; ``source_row``, the row's
    position among the file's data rows that have ``len(DETECTION_COLUMNS)``
    cells; and ``source_hash``, the ``hash`` of those cells joined by
    commas, or -1 (which no ``hash`` equals) where that line would need
    quoting.  :func:`write_labeled_cache` copies a row's cells from the file
    while they still hash the same.  Generated detections and the records of
    a labeled cache carry no source, and these fields are ``None``.
    """

    image_id: np.ndarray
    u: np.ndarray
    v: np.ndarray
    bbox_w: np.ndarray
    bbox_h: np.ndarray
    confidence: np.ndarray
    patches: Optional[np.ndarray] = _Patches()
    windows: Optional[np.ndarray] = None
    source: Optional[str] = None
    source_row: Optional[np.ndarray] = None
    source_hash: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.u)

    def take(self, idx) -> "Detections":
        """The rows at ``idx``, an index array or a boolean mask, with the same
        source; patches held in the windows stay there."""
        given = vars(self)  # every field as given, ``patches`` None where the windows hold them
        return Detections(**{k: col[idx] if isinstance(col, np.ndarray) else col for k, col in given.items()})


def _chunks(det: Detections):
    """The rows of ``det``, ``_CHUNK`` at a time."""
    return (det.take(slice(start, start + _CHUNK)) for start in range(0, len(det), _CHUNK))


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
        return map(self.__getitem__, range(len(self)))


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
                raise ValueError(f"scene.{name} must lie in [0, 1]")
        for name in ("wall_depth_jitter", "lateral_spread", "depth_noise_std"):
            if not 0.0 <= getattr(self, name) <= MAX_VALID_DEPTH:
                raise ValueError(f"scene.{name} must lie in [0, {MAX_VALID_DEPTH:g}] meters")
        if not 0.0 < self.wall_distance <= MAX_VALID_DEPTH:
            raise ValueError(f"scene.wall_distance must lie in (0, {MAX_VALID_DEPTH:g}] meters")
        if not (0 <= self.n_images <= _MAX_IMAGES and 0.0 <= self.apples_per_image <= _MAX_APPLES):
            raise ValueError(
                f"scene.n_images must lie in [0, {_MAX_IMAGES}] and "
                f"scene.apples_per_image in [0, {_MAX_APPLES:g}]"
            )
        if self.seed < 0:
            raise ValueError("scene.seed must be nonnegative")


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


def _uniform(rng, a: float, b: float) -> float:
    """``rng.uniform(a, b)``: the same draw and float, at a third of the cost."""
    return a + (b - a) * rng.random()


def _draw_apple_position(rng, cfg: SceneConfig, intr: CameraIntrinsics, base=None):
    """Camera-frame apple center that projects safely inside the depth image.

    Returns None when rejection sampling fails (extreme configurations).
    ``loc + scale * z`` is ``rng.normal(loc, scale)``, draw for draw."""
    for _ in range(60):
        wall = cfg.wall_distance
        if base is None and rng.random() < BACKGROUND_FRAC:
            wall += BACKGROUND_OFFSET
        z, x, y = rng.standard_normal(3).tolist()
        if base is None:
            Zc, Xc, Yc = wall + cfg.wall_depth_jitter * z, cfg.lateral_spread * x, cfg.lateral_spread * y
        else:
            Zc, Xc, Yc = base[2] + 0.03 * z, base[0] + 0.07 * x, base[1] + 0.07 * y
        if Zc < 0.05:
            continue
        ud = Xc * intr.fx / Zc + intr.cx
        vd = Yc * intr.fy / Zc + intr.cy
        if 2.0 <= ud <= intr.depth_width - 3.0 and 2.0 <= vd <= intr.depth_height - 3.0:
            return Xc, Yc, Zc, ud, vd
    return None


# Each window cell's distance in cells from the left, right, top and bottom edge: an
# occluder's band on side ``s`` covers the cells whose ``_EDGE_DIST[s]`` is below its width.
_EDGE_DIST = np.array(
    [(c, _WINDOW - 1 - c, r, _WINDOW - 1 - r) for r in range(_WINDOW) for c in range(_WINDOW)],
    dtype=np.int8,
).T


class _Cells:
    """Float64 cells in an anonymous memory map of their own, which
    ``generate_scene`` appends each block's windows to and the file readers
    append to, staged 8,192 cells at a time.  On malloc's heap, columns of
    many MB made peak RSS vary by up to 8 MB from run to run.  A page is
    resident only once written; a full map doubles, the old one unmapped once
    copied.  A map that cannot be made raises ``error("<what> need <size>
    bytes (<reason>)")``."""

    def __init__(self, size: int, what: str, error=IngestionError):
        self.what, self.error = what, error
        self.map = self._new(size)
        self.stage = array("d")

    def _new(self, size: int) -> mmap.mmap:
        try:
            return mmap.mmap(-1, size, access=mmap.ACCESS_COPY)
        except OSError as exc:
            raise self.error(f"{self.what} need {size} bytes ({exc.strerror})") from exc

    def extend(self, cells) -> None:
        self.stage.extend(cells)
        if len(self.stage) >= 8192:
            self.append(self.stage)
            del self.stage[:]

    def append(self, cells) -> None:
        """Write the float64 buffer ``cells`` after the cells appended, first
        moving them to a map of twice the size both need when they do not fit."""
        end, size = self.map.tell(), memoryview(cells).nbytes
        if end + size > len(self.map):
            bigger = self._new(2 * (end + size))
            with memoryview(self.map) as old:
                bigger.write(old[:end])
            self.map = bigger
        self.map.write(cells)

    def array(self) -> np.ndarray:
        """The cells appended, viewed, not copied."""
        self.append(self.stage)
        del self.stage[:]
        return np.frombuffer(self.map, count=self.map.tell() // 8)


def _scene_blocks(cfg: SceneConfig, intr: CameraIntrinsics):
    """The scene's detections, yielded in blocks of ``_CHUNK`` rows, the last
    one shorter, once their windows are depths; only an empty scene yields an
    empty block.

    It first makes ``generate_scene``'s ``_window_map`` and holds it, unwritten, to the
    end, so every consumer raises one ``ConfigError`` on a scene too large to map.
    Each window's normals go straight into its row of one (``_CHUNK``, 121)
    buffer that every block reuses, so a block's ``windows``, and the
    ``patches`` read from them, hold only until the next block is drawn."""
    reserved = _window_map(cfg)  # held, untouched, until the stream ends
    rng = np.random.default_rng(cfg.seed)
    rgb_sx = intr.rgb_width / intr.depth_width
    rgb_sy = intr.rgb_height / intr.depth_height
    fx_rgb = intr.fx * rgb_sx
    fy_rgb = intr.fy * rgb_sy

    win = np.empty((_CHUNK, _WINDOW**2))
    # The pending block: its row count, and each row's image id and u, v,
    # bbox_w, bbox_h and confidence.
    m, image_ids, cells = 0, [], array("d")
    # Each pending row's apple depth, occluder depth, band side and width (0:
    # no band) and dropout mask; dropout and band draws go through ``noise``.
    depths, occluders, noise = np.empty(_CHUNK), np.empty(_CHUNK), np.empty(_WINDOW**2)
    sides, widths = np.zeros(_CHUNK, dtype=np.intp), np.zeros(_CHUNK, dtype=np.intp)
    drops = np.zeros((_CHUNK, _WINDOW**2), dtype=bool)

    def finished():
        """The pending block, its normals made depths; the additions touch
        disjoint cells and 0 is in range."""
        w = win[:m]
        w *= cfg.depth_noise_std
        band = _EDGE_DIST[sides[:m]] < widths[:m, None]
        np.add(w, occluders[:m, None], out=w, where=band)
        np.add(w, depths[:m, None], out=w, where=~band)
        # Zero dropped cells and cells below 0, at or past MAX_VALID_DEPTH, or not finite.
        np.copyto(w, 0.0, where=~((w >= 0.0) & (w < MAX_VALID_DEPTH)) | drops[:m])
        columns = np.array(cells).reshape(m, 5).T
        return Detections(np.array(image_ids, dtype=object), *columns, windows=w)

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
                occluder = max(0.05, Zc - _uniform(rng, 0.04, 0.09)) if k > 0 else None
                if m == _CHUNK:
                    yield finished()
                    m, image_ids, cells = 0, [], array("d")
                rng.standard_normal(out=win[m])
                depths[m], widths[m] = Zc, 0
                if occluder is not None:
                    widths[m] = max(1, int(round(_uniform(rng, 0.1, 0.45) * _WINDOW)))
                    sides[m], occluders[m] = rng.integers(0, 4), occluder
                    band = _EDGE_DIST[sides[m]] < widths[m]
                    np.copyto(win[m], rng.standard_normal(out=noise), where=band)
                if cfg.dropout_prob > 0:
                    np.less(rng.random(out=noise), cfg.dropout_prob, out=drops[m])
                m += 1
                jitter = _uniform(rng, 0.9, 1.1)
                bbox_w = APPLE_DIAMETER * fx_rgb / Zc * jitter
                bbox_h = APPLE_DIAMETER * fy_rgb / Zc * jitter
                image_ids.append(image_id)
                cells.extend((ud * rgb_sx, vd * rgb_sy, bbox_w, bbox_h, _uniform(rng, 0.5, 1.0)))
    yield finished()


def _window_map(cfg: SceneConfig) -> _Cells:
    """A ``_Cells`` map for the scene's windows, with room for the mean row
    count plus 8 standard deviations; one that cannot be made raises
    ``ConfigError``."""
    rows = math.ceil(1.25 * cfg.n_images * cfg.apples_per_image) + 64
    too_large = "scene.n_images x scene.apples_per_image is too large: its depth windows"
    return _Cells(8 * _WINDOW**2 * rows, too_large, ConfigError)


def generate_scene(cfg: SceneConfig, intr: CameraIntrinsics) -> Detections:
    """Deterministic synthetic detections for ``cfg.n_images`` images.

    The whole scene at once: each block of ``_scene_blocks`` has its windows
    appended to a ``_window_map`` before the next is drawn, and ``windows``
    is a view of the map; the stream reserves a second map of the same size,
    never written.  The scene holds each depth cell once, in the windows:
    ``patches`` are read from them (:class:`Detections`), and the other
    columns hold one id or number per row."""
    window_map, columns = _window_map(cfg), []
    for block in _scene_blocks(cfg, intr):
        window_map.append(block.windows)
        columns.append([getattr(block, c) for c in DETECTION_COLUMNS[:6]])
    image_id, *columns = map(np.concatenate, zip(*columns))
    return Detections(image_id, *columns, windows=window_map.array().reshape(-1, _WINDOW**2))


def _detection_cells(det: Detections):
    """Each cell of the rows of ``det``, at most ``_CHUNK`` of them, in
    ``DETECTION_COLUMNS`` order, a list per row, with the numbers as Python
    floats; ``write_table`` writes each as its ``repr``."""
    nums = np.column_stack((det.u, det.v, det.bbox_w, det.bbox_h, det.confidence, det.patches))
    for image_id, cells in zip(det.image_id.tolist(), nums.tolist()):
        yield [image_id, *cells]


def _write_blocks(path, blocks) -> int:
    """Write ``blocks``, detections of at most ``_CHUNK`` rows each, written
    before the next is taken, as one detection file; return the row count."""
    n = 0

    def rows():
        nonlocal n
        for det in blocks:
            n += len(det)
            yield from _detection_cells(det)

    write_table(path, DETECTION_COLUMNS, rows())
    return n


def write_detections(path, det: Detections) -> None:
    """Serialize detections in the detection-file format (depth cells in meters)."""
    _write_blocks(path, _chunks(det))


def write_scene(path, cfg: SceneConfig, intr: CameraIntrinsics) -> int:
    """``write_detections(path, generate_scene(cfg, intr))`` a block at a time; returns the
    row count.  A scene too large to map, or of ``n_images > 0`` with no detection,
    raises ``ConfigError`` before the file is opened."""
    blocks = _scene_blocks(cfg, intr)
    first = next(blocks)  # empty only when the whole scene is
    if cfg.n_images > 0 and len(first) == 0:
        raise ConfigError(
            f"a scene of {cfg.n_images} images yielded no detection; check scene.* and cam.*"
        )
    return _write_blocks(path, chain([first], blocks))


def _file_size(path) -> int:
    """The size of the file at ``path`` in bytes, or 0 when it has none."""
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _file_cells(path, what: str) -> _Cells:
    """A ``_Cells`` for the ``what`` file at ``path``: a row of k numbers takes at least 2k
    bytes of it and 8k of cells, so the map starts at 4 bytes a byte, from a page to 256 MB."""
    size = min(max(4 * _file_size(path), mmap.PAGESIZE), 1 << 28)
    return _Cells(size, f"cannot read {what} {path}: its cells")


def _from_cells(image_ids: list, nums: np.ndarray) -> Detections:
    """Detections from image ids and each row's numbers, an (n, k) array that
    starts with its numeric cells (``DETECTION_COLUMNS[1:]``), viewed, not copied."""
    patches = nums[:, 5 : len(DETECTION_COLUMNS) - 1]
    return Detections(np.array(image_ids, dtype=object), *nums[:, :5].T, patches=patches)


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
    rows raises ``IngestionError`` naming the file and line.  The records
    carry their source (:class:`Detections`).

    The numbers are views of a ``_Cells`` map and the line hashes of an
    ``array("q")`` (``hash`` never gives -1); a run of equal image ids, such
    as every detection of one image, holds one ``str``.
    """
    image_ids, cells, hashes, not_numbers = [], _file_cells(path, "detection file"), array("q"), []

    def parse(row):
        try:
            row_cells = list(map(float, row[1:]))
        except ValueError:
            not_numbers.append(len(image_ids) + len(not_numbers))
            raise
        image_ids.append(image_ids[-1] if image_ids and image_ids[-1] == row[0] else row[0])
        cells.extend(row_cells)
        line = ",".join(row)
        hashes.append(hash(line) if plain_line(line, len(row)) else -1)

    skipped = read_table(path, "detection file", DETECTION_COLUMNS, parse, skip_malformed=True)
    det = replace(
        _from_cells(image_ids, cells.array().reshape(-1, len(DETECTION_COLUMNS) - 1)),
        source=os.path.abspath(path),
        source_row=np.delete(np.arange(len(image_ids) + len(not_numbers)), not_numbers),
        source_hash=np.frombuffer(hashes, dtype=np.int64),
    )
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
    samples, kept = _label_chunks(_chunks(det), intr, ext, params, density_band)
    # Keeping every row copies none: a second copy of the windows would
    # raise peak RSS by their whole size.
    return LabelingResult(
        samples=samples,
        records=det if len(kept) == len(det) else det.take(kept),
        n_dropped=len(det) - len(samples),
        n_input=len(det),
        density_source="patch5x5" if det.windows is None and samples else "window11x11",
    )


def label_scene(cfg: SceneConfig, intr, ext, params, density_band=DENSITY_BAND) -> LabeledRows:
    """``label_with_oracle(generate_scene(cfg, intr), ...).samples`` bit for bit, each
    block labeled before the next is drawn and only its features and labels kept."""
    return _label_chunks(_scene_blocks(cfg, intr), intr, ext, params, density_band)[0]


def _label_chunks(chunks, intr, ext, params, density_band) -> tuple[LabeledRows, np.ndarray]:
    """The samples of ``chunks``, detections of at most ``_CHUNK`` rows each
    labeled before the next is taken (:func:`label_with_oracle`), and the
    index of each kept row among all the chunks' rows."""
    features, labels = [np.empty((0, len(FEATURE_NAMES)))], [np.empty(0, dtype=np.int64)]
    kept, n = [np.empty(0, dtype=np.intp)], 0
    dims = (intr.rgb_width, intr.rgb_height)
    for det in chunks:
        patches = det.patches
        windows = patches if det.windows is None else det.windows
        keep, depth, x, y, z = locate_detections(det.u, det.v, patches, intr, ext)
        bbox_w, bbox_h = det.bbox_w[keep], det.bbox_h[keep]
        features.append(
            feature_rows(x, y, z, patches[keep], depth, bbox_w, bbox_h, dims, windows[keep], density_band)
        )
        labels.append(solve_ik(x, y, z, params)[0].astype(np.int64))
        kept.append(n + keep)
        n += len(det)
    return LabeledRows(np.concatenate(features), np.concatenate(labels)), np.concatenate(kept)


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


def _open_source(records: Detections, out):
    """The detection file ``records`` were ingested from, open for reading,
    or ``nullcontext()`` when they have no source, it cannot be opened, or
    it is the file at ``out``, which writing there would truncate."""
    if records.source is None:
        return nullcontext()
    try:
        if os.path.exists(out) and os.path.samefile(records.source, out):
            return nullcontext()
        return open(records.source, "r", newline="")
    except OSError:
        return nullcontext()


def _source_lines(records: Detections, fh):
    """Each record's detection cells as its source file ``fh`` holds them,
    joined by commas, or None where the file no longer holds that row as it
    was ingested, or the line would need quoting (its ``source_hash`` is -1,
    which no ``hash`` equals).  The file is read once, to its end or its
    first row that cannot be read, so a record whose row comes before the
    previous record's gets None too."""
    width = len(DETECTION_COLUMNS)
    # Data rows numbered as ingest_detections numbers them.
    rows = enumerate(row for row in islice(csv.reader(fh), 1, None) if len(row) == width)
    at, row = -1, None
    for start in range(0, len(records), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        for want, image_id, hashed in zip(
            records.source_row[chunk].tolist(),
            records.image_id[chunk].tolist(),
            records.source_hash[chunk].tolist(),
        ):
            try:
                while at < want:
                    at, row = next(rows, (math.inf, None))
            except (csv.Error, OSError, ValueError):
                at, row = math.inf, None
            line = ",".join(row) if at == want and row[0] == image_id else None
            yield line if line is not None and hash(line) == hashed else None


def _labeled_rows(result: LabelingResult, source):
    """Each row of the labeled cache: its detection cells copied from the
    open detection file ``source`` with its features and label, as one line;
    or, where they cannot be copied (:func:`_source_lines`) or ``source`` is
    None, its cells in ``LABELED_COLUMNS`` order."""
    records = result.records
    copies = repeat(None) if source is None else _source_lines(records, source)
    for start in range(0, len(records), _CHUNK):
        rows = slice(start, start + _CHUNK)
        X, y = result.samples.X[rows].tolist(), result.samples.y[rows].tolist()
        floats = None  # made for a chunk only once one of its rows is not copied
        for i, (features, label, line) in enumerate(zip(X, y, copies)):
            features.insert(_LABEL - len(DETECTION_COLUMNS), label)
            if line is not None:
                yield f"{line},{','.join(map(str, features))}"
                continue
            if floats is None:
                floats = list(_detection_cells(records.take(rows)))
            yield floats[i] + features


def write_labeled_cache(path, result: LabelingResult) -> None:
    """Write retained records with their features and label, and the
    ``.meta`` sidecar that :func:`read_labeled_cache` reads back.

    Records ingested from a detection file get their detection cells copied
    from it as written (``1.50`` stays ``1.50``; it reads back as the same
    float), except where the file has changed since, cannot be read, is
    ``path`` itself, or the row would need quoting: those rows, and records
    with no source, are written from their floats, each cell its ``repr``.
    """
    with _open_source(result.records, path) as source:
        write_table(path, LABELED_COLUMNS, _labeled_rows(result, source))
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

    The records' columns and the samples' ``X`` are views of one ``_Cells``
    map, ``y`` of an ``array("q")``; a run of equal image ids holds one ``str``.
    """
    # Each row's 39 numbers, its detection cells then its features, in one map.
    image_ids, cells, labels = [], _file_cells(path, "labeled cache"), array("q")
    n_cells = len(DETECTION_COLUMNS) - 1

    def parse(row):
        nums = list(map(float, row[1:_LABEL] + row[_LABEL + 1 :]))
        label = int(row[_LABEL])
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label}")
        for name, value in zip(FEATURE_NAMES, nums[n_cells:]):
            if not math.isfinite(value):
                raise ValueError(f"feature {name} is not finite: {value}")
        image_ids.append(image_ids[-1] if image_ids and image_ids[-1] == row[0] else row[0])
        cells.extend(nums)
        labels.append(label)

    error = None
    try:
        read_table(path, "labeled cache", LABELED_COLUMNS, parse)
    except IngestionError as exc:
        error = exc
    nums = cells.array().reshape(-1, n_cells + len(FEATURE_NAMES))
    records = _from_cells(image_ids, nums)
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
    return LabelingResult(
        samples=LabeledRows(nums[:, n_cells:], np.frombuffer(labels, dtype=np.int64)),
        records=records,
        n_dropped=n_dropped,
        n_input=len(records) + n_dropped,
        density_source=source,
    )
