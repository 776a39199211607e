"""Experiment harness: benchmark construction, sweeps, results files, plots.

A sweep runs every (strategy, init_size, budget, seed) cell of the grid on
one shared benchmark (synthetic, or labeled caches for ``run --data``),
appends one row per query round to a CSV results file, and writes a
per-cell summary (mean and standard deviation of final-round metrics
across seeds).  Everything downstream of the seeds is deterministic, and
rows are written in a canonical order, so repeated runs produce
byte-identical files regardless of worker count.
"""

from __future__ import annotations

import csv
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields, replace
from typing import Optional

import numpy as np

from .active import SCORERS, ALConfig, RoundLog, run_loop
from .config import AppConfig, DataConfig
from .dataset import SceneConfig, generate_scene, label_with_oracle, make_splits
from .errors import ConfigError, IngestionError, csv_error_line
from .features import features_matrix, labels_array
from .forest import TrainConfig
from .kinematics import ManipulatorParams
from .perception import CameraIntrinsics, Extrinsics
from .svgplot import SvgPlot

logger = logging.getLogger(__name__)

SUMMARY_COLUMNS = (
    "strategy",
    "init_size",
    "budget",
    "n_seeds",
    "accuracy_mean",
    "accuracy_std",
    "auc_mean",
    "auc_std",
    "ik_reduction_mean",
)

_STRATEGY_COLORS = {
    "random": "#7f7f7f",
    "least_confidence": "#2ca02c",
    "margin": "#d62728",
    "entropy": "#1f77b4",
    "qbc": "#9467bd",
}


@dataclass(frozen=True)
class ResultRow:
    strategy: str
    seed: int
    init_size: int
    budget: int
    round: int
    n_labeled: int
    accuracy: Optional[float]
    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]
    auc: Optional[float]
    ik_reduction: Optional[float]

    def key(self):
        return (self.strategy, self.init_size, self.budget, self.seed, self.round)


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass
class ExperimentGrid:
    """Everything a sweep needs: the cell lists plus the shared benchmark."""

    strategies: tuple
    init_sizes: tuple
    budgets: tuple
    seeds: tuple
    scene: SceneConfig
    arm: ManipulatorParams
    train: TrainConfig
    cam: CameraIntrinsics
    ext: Extrinsics
    al: ALConfig
    data: DataConfig
    density_band: float

    @classmethod
    def from_config(cls, cfg: AppConfig) -> "ExperimentGrid":
        return cls(
            strategies=tuple(cfg.grid.strategies),
            init_sizes=tuple(cfg.grid.init_sizes),
            budgets=tuple(cfg.grid.budgets),
            seeds=tuple(cfg.grid.seeds),
            scene=cfg.scene,
            arm=cfg.arm,
            train=cfg.train,
            cam=cfg.cam,
            ext=cfg.ext,
            al=cfg.al,
            data=cfg.data,
            density_band=cfg.features.density_band,
        )


def build_benchmark(grid: ExperimentGrid) -> tuple[list, list]:
    """Generate and label the shared benchmark; returns (samples, candidates)."""
    detections = generate_scene(grid.scene, grid.cam)
    result = label_with_oracle(
        detections, grid.cam, grid.ext, grid.arm, density_band=grid.density_band
    )
    needed = grid.data.n_samples + grid.data.pool_size
    if len(result.samples) < needed:
        raise ConfigError(
            f"benchmark needs {needed} labeled records but the scene produced "
            f"{len(result.samples)}; raise scene.n_images or scene.apples_per_image"
        )
    samples = result.samples[: grid.data.n_samples]
    candidates = result.samples[grid.data.n_samples : needed]
    return samples, candidates


def _fmt_value(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_optional(text: str) -> Optional[float]:
    v = float(text)
    return None if np.isnan(v) else v


_FIELD_PARSERS = tuple(
    {"str": str, "int": int, "Optional[float]": _parse_optional}[f.type] for f in fields(ResultRow)
)


def rows_from_logs(
    strategy: str, seed: int, init_size: int, budget: int, logs: list[RoundLog]
) -> list[ResultRow]:
    rows = []
    for log in logs:
        m = log.metrics
        rows.append(
            ResultRow(
                strategy=strategy,
                seed=seed,
                init_size=init_size,
                budget=budget,
                round=log.round_index,
                n_labeled=log.n_labeled,
                accuracy=m.accuracy,
                precision=m.precision,
                recall=m.recall,
                f1=m.f1,
                auc=m.auc,
                ik_reduction=log.ik_reduction,
            )
        )
    return rows


def run_cell(
    samples,
    candidates,
    grid: ExperimentGrid,
    strategy: str,
    init_size: int,
    budget: int,
    seed: int,
) -> list[ResultRow]:
    both = list(samples) + list(candidates)
    X, y = features_matrix(both), labels_array(both)
    pools = make_splits(y, len(samples), grid.data.test_frac, init_size, seed)
    logs = run_loop(X, y, pools, strategy, budget, seed, grid.al, grid.train)
    return rows_from_logs(strategy, seed, init_size, budget, logs)


_WORKER_STATE: dict = {}


def _init_worker(samples, candidates, grid):
    _WORKER_STATE["args"] = (samples, candidates, grid)


def _run_cell_caught(samples, candidates, grid, cell) -> tuple[list, Optional[str]]:
    """``(rows, None)`` for a cell that runs, ``([], message)`` for one that fails."""
    try:
        return run_cell(samples, candidates, grid, *cell), None
    except Exception as exc:  # isolated so one bad cell cannot sink a sweep
        return [], str(exc)


def _run_cell_worker(cell):
    return _run_cell_caught(*_WORKER_STATE["args"], cell)


def write_results(path, rows: list[ResultRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        writer.writerows(
            [_fmt_value(v) for v in astuple(r)] for r in sorted(rows, key=ResultRow.key)
        )


def read_results(path) -> list[ResultRow]:
    """Parse a results file; raises ``IngestionError`` naming the file, and
    the line of the first malformed row."""
    try:
        fh = open(path, "r", newline="")
    except OSError as exc:
        raise IngestionError(f"cannot open results file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        rows = []
        try:
            if tuple(next(reader, ())) != RESULT_COLUMNS:
                raise IngestionError(f"unexpected results header in {path}")
            for row in reader:
                if len(row) != len(RESULT_COLUMNS):
                    raise ValueError(f"expected {len(RESULT_COLUMNS)} columns, got {len(row)}")
                rows.append(ResultRow(*(parse(c) for parse, c in zip(_FIELD_PARSERS, row))))
        except (csv.Error, ValueError) as exc:
            line = csv_error_line(path, reader, exc)
            raise IngestionError(f"malformed results file {path}, line {line}: {exc}") from exc
    return rows


def summarize(rows: list[ResultRow]) -> list[dict]:
    """Across-seed mean and standard deviation of final-round metrics per cell."""
    finals: dict = {}
    for r in rows:
        if r.round < 0:
            continue
        cell = (r.strategy, r.init_size, r.budget, r.seed)
        if cell not in finals or r.round > finals[cell].round:
            finals[cell] = r
    groups: dict = {}
    for r in finals.values():
        groups.setdefault((r.strategy, r.init_size, r.budget), []).append(r)

    def agg(values):
        vals = [v for v in values if v is not None]
        if not vals:
            return None, None
        mean = float(np.mean(vals))
        std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        return mean, std

    out = []
    for (strategy, init_size, budget), cell_rows in sorted(groups.items()):
        acc_mean, acc_std = agg([r.accuracy for r in cell_rows])
        auc_mean, auc_std = agg([r.auc for r in cell_rows])
        ik_mean, _ = agg([r.ik_reduction for r in cell_rows])
        out.append(
            dict(
                strategy=strategy,
                init_size=init_size,
                budget=budget,
                n_seeds=len(cell_rows),
                accuracy_mean=acc_mean,
                accuracy_std=acc_std,
                auc_mean=auc_mean,
                auc_std=auc_std,
                ik_reduction_mean=ik_mean,
            )
        )
    return out


def write_summary(path, summary: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for s in summary:
            writer.writerow([_fmt_value(s[c]) for c in SUMMARY_COLUMNS])


def _worker_count(jobs: int, n_cells: int) -> int:
    """Pool size for ``jobs`` requested workers: no more than the CPUs or the cells."""
    return min(jobs, os.cpu_count() or 1, n_cells)


def _logged_progress(outcomes, total: int) -> list:
    """Collect ``outcomes`` in order, logging progress about ten times."""
    start, step, done = time.perf_counter(), -(-total // 10), []
    for outcome in outcomes:
        done.append(outcome)
        if len(done) % step == 0 or len(done) == total:
            logger.info("runs done %d/%d, %.1f s", len(done), total, time.perf_counter() - start)
    return done


def run_grid(
    samples, candidates, grid: ExperimentGrid, out_dir, jobs: int = 1
) -> tuple[str, str, list[tuple[tuple, str]]]:
    """Run every grid cell on the benchmark ``samples`` and pool
    ``candidates``; returns (results_path, summary_path, cell_errors).

    Strategy names that share a scorer (``active.SCORERS``) share one run
    per (init_size, budget, seed), whose rows are written under each name.
    Each cell error is a ``((strategy, init_size, budget, seed), message)``
    pair, and every failed cell gets one ``round = -1`` row in the results.
    """
    os.makedirs(out_dir, exist_ok=True)
    cells = [
        (strategy, init_size, budget, seed)
        for strategy in grid.strategies
        for init_size in grid.init_sizes
        for budget in grid.budgets
        for seed in grid.seeds
    ]
    keys = [(SCORERS[cell[0]],) + cell[1:] for cell in cells]  # (scorer, init, budget, seed)
    runs: dict = {}  # key -> the first cell that needs it
    for key, cell in zip(keys, cells):
        runs.setdefault(key, cell)

    workers = _worker_count(jobs, len(runs))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(samples, candidates, grid),
        ) as pool:
            done = _logged_progress(pool.map(_run_cell_worker, runs.values(), chunksize=1), len(runs))
    else:
        done = _logged_progress(
            (_run_cell_caught(samples, candidates, grid, cell) for cell in runs.values()), len(runs)
        )
    outcomes = dict(zip(runs, done))

    rows: list[ResultRow] = []
    errors: list[tuple[tuple, str]] = []
    for key, cell in zip(keys, cells):
        cell_rows, err = outcomes[key]
        rows.extend(replace(r, strategy=cell[0]) for r in cell_rows)
        if err is not None:
            errors.append((cell, err))

    for (strategy, init_size, budget, seed), err in errors:
        logger.error("cell %s/%d/%d/%d failed: %s", strategy, init_size, budget, seed, err)
        rows.append(
            ResultRow(
                strategy=strategy,
                seed=seed,
                init_size=init_size,
                budget=budget,
                round=-1,
                n_labeled=0,
                accuracy=None,
                precision=None,
                recall=None,
                f1=None,
                auc=None,
                ik_reduction=None,
            )
        )

    results_path = os.path.join(out_dir, "results.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    write_results(results_path, rows)
    write_summary(summary_path, summarize(rows))
    return results_path, summary_path, errors


def format_summary_table(summary: list[dict]) -> str:
    """Accuracy comparison table: one row per (budget, init), one column per strategy."""
    strategies = sorted({s["strategy"] for s in summary})
    cells = {(s["strategy"], s["init_size"], s["budget"]): s for s in summary}
    combos = sorted({(s["budget"], s["init_size"]) for s in summary})
    header = ["budget", "init"] + strategies
    widths = [max(8, len(h) + 2) for h in header]
    lines = ["".join(h.ljust(w) for h, w in zip(header, widths))]
    for budget, init_size in combos:
        row = [str(budget), str(init_size)]
        for strategy in strategies:
            s = cells.get((strategy, init_size, budget))
            if s is None or s["accuracy_mean"] is None:
                row.append("-")
            else:
                row.append(f"{s['accuracy_mean']:.4f}±{s['accuracy_std']:.4f}")
        lines.append("".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def emit_curve_plots(results_path, out_dir) -> list[str]:
    """One learning-curve SVG per (init_size, budget): mean accuracy across
    seeds with a one-standard-deviation band; random is dashed."""
    rows = read_results(results_path)
    rows = [r for r in rows if r.round >= 0 and r.accuracy is not None]
    if not rows:
        logger.warning("no rows in %s; nothing to plot", results_path)
        return []
    os.makedirs(out_dir, exist_ok=True)

    written = []
    combos = sorted({(r.init_size, r.budget) for r in rows})
    for init_size, budget in combos:
        sub = [r for r in rows if r.init_size == init_size and r.budget == budget]
        strategies = sorted({r.strategy for r in sub})
        plot = SvgPlot(
            x_range=(init_size, init_size + budget),
            y_range=(
                max(0.0, min(r.accuracy for r in sub) - 0.02),
                min(1.0, max(r.accuracy for r in sub) + 0.02),
            ),
            title=f"init={init_size}, budget={budget}",
            xlabel="labeled samples",
            ylabel="test accuracy",
        )
        for strategy in strategies:
            series: dict[int, list[float]] = {}
            for r in sub:
                if r.strategy == strategy:
                    series.setdefault(r.n_labeled, []).append(r.accuracy)
            xs = sorted(series)
            means = [float(np.mean(series[x])) for x in xs]
            stds = [float(np.std(series[x])) for x in xs]
            color = _STRATEGY_COLORS.get(strategy, "#17becf")
            dash = "6,4" if strategy == "random" else None
            plot.band(
                xs,
                [m - s for m, s in zip(means, stds)],
                [m + s for m, s in zip(means, stds)],
                color=color,
            )
            plot.polyline(xs, means, color=color, dash=dash)
            plot.legend_entry(strategy, color, dash)
        path = os.path.join(out_dir, f"curves_init{init_size}_budget{budget}.svg")
        plot.write(path)
        written.append(path)
    return written


_VIEWS = (
    ("top", 0, 1, "x (m)", "y (m)"),
    ("side", 0, 2, "x (m)", "z (m)"),
    ("front", 1, 2, "y (m)", "z (m)"),
)


def emit_envelope_plots(
    envelope_points: np.ndarray,
    out_dir,
    fruit_points: Optional[np.ndarray] = None,
    fruit_labels: Optional[np.ndarray] = None,
) -> list[str]:
    """Top, side, and front projections of the envelope, plus fruit overlay."""
    env = np.asarray(envelope_points, dtype=float)
    if env.size == 0:
        logger.warning("empty envelope; nothing to plot")
        return []
    os.makedirs(out_dir, exist_ok=True)
    all_pts = env if fruit_points is None else np.vstack([env, fruit_points])

    written = []
    for name, ax, ay, xlabel, ylabel in _VIEWS:
        lo_x, hi_x = all_pts[:, ax].min(), all_pts[:, ax].max()
        lo_y, hi_y = all_pts[:, ay].min(), all_pts[:, ay].max()
        pad_x = 0.05 * max(hi_x - lo_x, 0.1)
        pad_y = 0.05 * max(hi_y - lo_y, 0.1)
        plot = SvgPlot(
            x_range=(lo_x - pad_x, hi_x + pad_x),
            y_range=(lo_y - pad_y, hi_y + pad_y),
            width=560,
            height=560,
            title=f"reachable envelope: {name} view",
            xlabel=xlabel,
            ylabel=ylabel,
        )
        step = max(1, len(env) // 8000)
        plot.markers(env[::step, ax], env[::step, ay], color="#9ecae1", r=1.4, opacity=0.5)
        if fruit_points is not None and len(fruit_points):
            fp = np.asarray(fruit_points, dtype=float)
            if fruit_labels is not None:
                labels = np.asarray(fruit_labels)
                reach = fp[labels == 1]
                miss = fp[labels == 0]
                plot.markers(reach[:, ax], reach[:, ay], color="#ff7f0e", r=1.8)
                plot.markers(miss[:, ax], miss[:, ay], color="#8c2d04", r=1.8)
                plot.legend_entry("reachable fruit", "#ff7f0e")
                plot.legend_entry("unreachable fruit", "#8c2d04")
            else:
                plot.markers(fp[:, ax], fp[:, ay], color="#ff7f0e", r=1.8)
                plot.legend_entry("fruit", "#ff7f0e")
            plot.legend_entry("envelope", "#9ecae1")
        path = os.path.join(out_dir, f"envelope_{name}.svg")
        plot.write(path)
        written.append(path)
    return written
