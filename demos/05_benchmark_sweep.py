"""Run a reduced strategy sweep and emit the learning-curve figures.

A desk-scale version of the full experiment grid: three strategies, two
initial sizes, a handful of seeds.  Writes results.csv plus summary.csv,
prints the aggregated table, and renders one learning-curve SVG per
(init, budget) combination with the random baseline dashed.
"""

import os

from reach_al.config import apply_overrides, default_config
from reach_al.report import (
    build_benchmark,
    emit_curve_plots,
    format_summary_table,
    read_results,
    run_grid,
    summarize,
)

OUT = os.path.join(os.path.dirname(__file__), "out", "sweep")

cfg = apply_overrides(
    default_config(),
    {
        "grid.strategies": "random, entropy, qbc",
        "grid.init_sizes": "10, 30",
        "grid.budgets": "50",
        "grid.seeds": "0, 1, 2, 3",
    },
)
grid = cfg.grid

n_cells = len(grid.strategies) * len(grid.init_sizes) * len(grid.budgets) * len(grid.seeds)
print(f"running {n_cells} cells ...")
results_path, summary_path, errors = run_grid(*build_benchmark(cfg), cfg, OUT)
assert not errors, errors
print(f"results -> {results_path}")
print(f"summary -> {summary_path}")

rows = read_results(results_path)
print()
print(format_summary_table(summarize(rows)))
print()
for path in emit_curve_plots(results_path, OUT):
    print(f"wrote {path}")
