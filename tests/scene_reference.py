"""Reference for ``dataset.generate_scene``: the generator one window at a time.

``generate_scene`` draws each window's normals straight into a block buffer
that every block reuses, turns them into depths a block of rows at a time,
and appends each block's windows to the window map.  This module keeps the
per-apple form it replaced, in which ``_fill_window`` builds each noisy
11x11 window with its own numpy calls.  Both make the same random draws in
the same order, and ``tests/test_dataset.py`` requires their detections and
windows to be equal byte for byte, so the generator is checked against code
the package does not share.
"""

import math
import mmap
from array import array

import numpy as np

from reach_al.dataset import (
    _PATCH_OFFSET,
    _WINDOW,
    APPLE_DIAMETER,
    BACKGROUND_FRAC,
    BACKGROUND_OFFSET,
    Detections,
    SceneConfig,
)
from reach_al.perception import MAX_VALID_DEPTH, CameraIntrinsics


def _window_map(rows: int, full=None) -> mmap.mmap:
    """An anonymous memory map with room for ``rows`` 11x11 windows that
    starts with those of ``full``, and closes it."""
    windows = mmap.mmap(-1, rows * _WINDOW**2 * 8, access=mmap.ACCESS_COPY)
    if full is not None:
        windows.write(full)
        full.close()
    return windows


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
