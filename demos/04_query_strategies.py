"""Race the five query strategies on one benchmark split.

Runs the pool-based loop for each strategy from the same initial labeled
set and prints the test-accuracy trajectory against labels acquired, the
table-style comparison the experiment harness aggregates over seeds.
On this binary problem least_confidence, margin and entropy share one
scorer, so their columns agree.
"""

import numpy as np

from reach_al.active import STRATEGIES, run_loop
from reach_al.config import default_config
from reach_al.dataset import make_splits
from reach_al.report import build_benchmark

cfg = default_config()

print("building the shared benchmark (1000 samples + 5000-candidate pool) ...")
samples, candidates = build_benchmark(cfg)

# One stacked (X, y), samples first; the split holds row indices into it.
X = np.concatenate([samples.X, candidates.X])
y = np.concatenate([samples.y, candidates.y])
pools = make_splits(y, len(samples), cfg.data.test_frac, init_size=30, seed=0)
print(f"L={len(pools.labeled)}  U={len(pools.unlabeled)}  test={len(pools.test)}")

curves = {}
for strategy in STRATEGIES:
    logs = run_loop(X, y, pools, strategy, n_queries=50, seed=0, cfg=cfg.al, train_cfg=cfg.forest)
    curves[strategy] = [(log.n_labeled, log.metrics.accuracy) for log in logs]

sizes = [n for n, _ in curves["random"]]
header = "labels  " + "".join(f"{s:>18s}" for s in STRATEGIES)
print(header)
for i, n in enumerate(sizes):
    row = f"{n:6d}  " + "".join(f"{curves[s][i][1]:18.4f}" for s in STRATEGIES)
    print(row)

final = {s: curves[s][-1][1] for s in STRATEGIES}
best = max(final, key=final.get)
print(f"best at {sizes[-1]} labels: {best} ({final[best]:.4f}); random {final['random']:.4f}")
