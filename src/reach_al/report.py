"""Experiment harness: benchmark construction, sweeps, results files, plots.

A sweep runs every (strategy, init_size, budget, seed) cell of the grid on
one shared benchmark (synthetic, or labeled caches for ``run --data``),
making one AL run per (scorer, init_size, seed) at its largest budget where
the cells allow (see ``run_grid``).  It appends one row per query round
per cell to a CSV results file, and writes a
per-cell summary (mean and standard deviation of final-round metrics
across seeds).  Everything downstream of the seeds is deterministic, and
rows are written in a canonical order, so repeated runs produce
byte-identical files regardless of worker count.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields, replace
from typing import Optional

import numpy as np

from .active import SCORERS, run_loop
from .config import AppConfig
from .dataset import LabeledRows, label_scene, make_splits, read_labeled_cache
from .errors import ConfigError, read_table, write_table
from .metrics import MetricSet
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


class ExperimentGrid:
    """The sweep functions take the ``AppConfig`` itself, so ``from_config``
    returns it unchanged.  Kept for perfbench; ROADMAP item 3 removes it."""

    @staticmethod
    def from_config(cfg: AppConfig) -> AppConfig:
        return cfg


def build_benchmark(cfg: AppConfig, data=None, pool=None) -> tuple[LabeledRows, LabeledRows]:
    """The shared benchmark as two ``LabeledRows``, (samples, candidates): the first
    ``data.n_samples`` labeled records of the synthetic scene, or of the
    ``data`` cache, and the next ``data.pool_size``, or the first of the
    ``pool`` cache, whose ``d_local`` must come from the same source.
    Fewer rows than either size raises ``ConfigError``.

    The scene is generated and labeled one block of 512 depth windows at a
    time (``dataset.label_scene``), keeping only each block's features and
    labels.  Both results are contiguous copies of just their rows, so no
    cache's map, with all 39 numbers of its every row, stays resident behind
    them in the run or in its forked workers."""
    if pool and not data:
        raise ConfigError("--pool needs --data")
    if data:
        labeled = read_labeled_cache(data)
        rows = labeled.samples
        source, remedy = f"--data {data}", "label more records"
    else:
        rows = label_scene(cfg.scene, cfg.cam, cfg.ext, cfg.arm, cfg.features.density_band)
        source, remedy = "the scene", "raise scene.n_images or scene.apples_per_image"
    n_samples, pool_size = cfg.data.n_samples, cfg.data.pool_size
    samples, rest = rows[:n_samples], rows[n_samples:]
    if pool:
        candidates = read_labeled_cache(pool)
        if os.path.samefile(data, pool):
            raise ConfigError(
                f"--pool {pool} is the --data cache itself; its candidates would repeat "
                "the samples, test rows included"
            )
        if candidates.density_source != labeled.density_source:
            raise ConfigError(
                f"--data {data} has d_local from {labeled.density_source} but --pool "
                f"{pool} from {candidates.density_source}; the feature values are not comparable"
            )
        source, rest = f"{source} with --pool {pool}", candidates.samples
    for rows, what, key, size in (
        (samples, "samples", "data.n_samples", n_samples),
        (rest, "candidates", "data.pool_size", pool_size),
    ):
        if len(rows) < size:
            raise ConfigError(
                f"{source} gives {len(rows)} {what}, fewer than {key} = {size}; "
                f"lower {key} or {remedy}"
            )
    return tuple(LabeledRows(part.X.copy(), part.y.copy()) for part in (samples, rest[:pool_size]))


def _fmt_value(v):
    """None, an undefined metric, as ``nan``; ``write_table`` writes the
    rest, which are str, int or float."""
    return "nan" if v is None else v


def _parse_optional(text: str) -> Optional[float]:
    """A metric cell: ``nan`` (undefined) as None, else a number in [0, 1]."""
    v = float(text)
    if np.isnan(v):
        return None
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"metric {v} lies outside [0, 1]")
    return v


_FIELD_PARSERS = tuple(
    {"str": str, "int": int, "Optional[float]": _parse_optional}[f.type] for f in fields(ResultRow)
)


def run_cell(
    samples,
    candidates,
    cfg: AppConfig,
    strategy: str,
    init_size: int,
    budget: int,
    seed: int,
) -> list[ResultRow]:
    X, y = samples.X, samples.y
    if len(candidates):  # an empty pool may be given as []
        X, y = np.concatenate([X, candidates.X]), np.concatenate([y, candidates.y])
    pools = make_splits(y, len(samples), cfg.data.test_frac, init_size, seed)
    logs = run_loop(X, y, pools, strategy, budget, seed, cfg.al, cfg.forest)
    return [
        ResultRow(strategy, seed, init_size, budget, i, log.n_labeled, *astuple(log.metrics))
        for i, log in enumerate(logs)
    ]


_WORKER_STATE: dict = {}


def _init_worker(samples, candidates, cfg):
    _WORKER_STATE["args"] = (samples, candidates, cfg)


def _run_cell_caught(samples, candidates, cfg, cell) -> tuple[list, Optional[str]]:
    """``(rows, None)`` for a cell that runs, ``([], message)`` for one that fails."""
    try:
        return run_cell(samples, candidates, cfg, *cell), None
    except Exception as exc:  # isolated so one bad cell cannot sink a sweep
        return [], str(exc)


def _run_cell_worker(cell):
    return _run_cell_caught(*_WORKER_STATE["args"], cell)


def write_results(path, rows: list[ResultRow]) -> None:
    ordered = sorted(rows, key=ResultRow.key)
    write_table(path, RESULT_COLUMNS, ([_fmt_value(v) for v in astuple(r)] for r in ordered))


def read_results(path) -> list[ResultRow]:
    """Parse a results file; raises ``IngestionError`` naming the file, and
    the line of the first malformed row."""
    rows = []

    def parse(row):
        rows.append(ResultRow(*(parse_cell(c) for parse_cell, c in zip(_FIELD_PARSERS, row))))

    read_table(path, "results file", RESULT_COLUMNS, parse)
    return rows


def _seed_std(values) -> float:
    """Across-seed sample standard deviation (ddof 1); 0.0 for one seed."""
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


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
        return float(np.mean(vals)), _seed_std(vals)

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
    rows = ([_fmt_value(s[c]) for c in SUMMARY_COLUMNS] for s in summary)
    write_table(path, SUMMARY_COLUMNS, rows)


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
    samples, candidates, cfg: AppConfig, out_dir, jobs: int = 1
) -> tuple[str, str, list[tuple[tuple, str]]]:
    """Run every grid cell on the benchmark ``samples`` and pool
    ``candidates``; returns (results_path, summary_path, cell_errors).

    A sweep runs each (scorer, init_size, seed) once, at its largest budget,
    and writes each cell's rows from that run.  Strategy names that share a
    scorer (``active.SCORERS``) take its rows under their own names.  A
    smaller budget that is a multiple of ``al.batch_size`` takes the run's
    leading rounds, which are the rounds a run of that budget makes: every
    one queries a full batch, or the same short batch where the pool runs
    out.  Any other budget keeps a run of its own.  Each cell error is a
    ``((strategy, init_size, budget, seed), message)`` pair, and every
    failed cell gets one ``round = -1`` row in the results.
    """
    os.makedirs(out_dir, exist_ok=True)
    cells = [
        (strategy, init_size, budget, seed)
        for strategy in cfg.grid.strategies
        for init_size in cfg.grid.init_sizes
        for budget in cfg.grid.budgets
        for seed in cfg.grid.seeds
    ]
    largest = max(cfg.grid.budgets)
    keys = [  # (scorer, init, budget of the run, seed)
        (SCORERS[s], init, largest if budget % cfg.al.batch_size == 0 else budget, seed)
        for s, init, budget, seed in cells
    ]
    runs: dict = {}  # key -> the run, under the first name that needs it
    for key, cell in zip(keys, cells):
        runs.setdefault(key, cell[:1] + key[1:])
    logger.info("%d AL runs for %d cells", len(runs), len(cells))

    workers = _worker_count(jobs, len(runs))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(samples, candidates, cfg),
        ) as pool:
            done = _logged_progress(pool.map(_run_cell_worker, runs.values(), chunksize=1), len(runs))
    else:
        done = _logged_progress(
            (_run_cell_caught(samples, candidates, cfg, cell) for cell in runs.values()), len(runs)
        )
    outcomes = dict(zip(runs, done))

    rows: list[ResultRow] = []
    errors: list[tuple[tuple, str]] = []
    for key, cell in zip(keys, cells):
        cell_rows, err = outcomes[key]
        strategy, _, budget, _ = cell
        # Round 0, then at most one round per batch of the cell's budget.
        n_rounds = 1 - (-budget // cfg.al.batch_size)
        rows.extend(replace(r, strategy=strategy, budget=budget) for r in cell_rows[:n_rounds])
        if err is not None:
            errors.append((cell, err))

    for (strategy, init_size, budget, seed), err in errors:
        logger.error("cell %s/%d/%d/%d failed: %s", strategy, init_size, budget, seed, err)
        rows.append(ResultRow(strategy, seed, init_size, budget, -1, 0, *[None] * len(fields(MetricSet))))

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
    table = [["budget", "init"] + strategies]
    for budget, init_size in combos:
        row = [str(budget), str(init_size)]
        for strategy in strategies:
            s = cells.get((strategy, init_size, budget))
            if s is None or s["accuracy_mean"] is None:
                row.append("-")
            else:
                row.append(f"{s['accuracy_mean']:.4f}±{s['accuracy_std']:.4f}")
        table.append(row)
    widths = [max(map(len, column)) + 2 for column in zip(*table)]
    return "\n".join("".join(c.ljust(w) for c, w in zip(row, widths)) for row in table)


def emit_curve_plots(results_path, out_dir) -> list[str]:
    """One learning-curve SVG per (init_size, budget): mean accuracy across
    seeds with a band of one standard deviation (summary's); random is dashed."""
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
            stds = [_seed_std(series[x]) for x in xs]
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
    """Top, side, and front projections of the envelope, with the fruit
    ``fruit_points`` overlaid by their 0/1 ``fruit_labels`` when given."""
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
            fp, labels = np.asarray(fruit_points, dtype=float), np.asarray(fruit_labels)
            reach = fp[labels == 1]
            miss = fp[labels == 0]
            plot.markers(reach[:, ax], reach[:, ay], color="#ff7f0e", r=1.8)
            plot.markers(miss[:, ax], miss[:, ay], color="#8c2d04", r=1.8)
            plot.legend_entry("reachable fruit", "#ff7f0e")
            plot.legend_entry("unreachable fruit", "#8c2d04")
            plot.legend_entry("envelope", "#9ecae1")
        path = os.path.join(out_dir, f"envelope_{name}.svg")
        plot.write(path)
        written.append(path)
    return written
