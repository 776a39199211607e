#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at a tiny size, untraced
and traced, printing exactly the metrics BENCHMARK.json declares, plus
``reach-al sweep`` at ``--jobs 1`` and ``--jobs 2`` with byte-identical
``results.csv``.  Finishes in well under a minute.

    python3 perfbench/smoke.py

Exits 0 when every check passes.  Kept out of the repository's test suite.
"""

from __future__ import annotations

import json
import os
import sys

import run

TINY = {
    "scene.n_images": "120",
    "data.n_samples": "300",
    "data.pool_size": "400",
    "forest.n_trees": "10",
    "al.committee_trees": "5",
}
SMOKE = run.Size(
    al_overrides=TINY,
    al_init=10,
    al_budget=10,
    sweep_overrides=dict(TINY, **{"grid.init_sizes": "10", "grid.budgets": "10, 20", "al.batch_size": "10"}),
    label_images=40,
)


def declared_metrics():
    """Metric name -> unit per ``--trace`` value, as BENCHMARK.json declares them."""
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((False, "end_to_end"), (True, "per_layer"))
    }


def main():
    failures = []
    declared = declared_metrics()
    for name in sorted(run.WORKLOADS):
        for trace in (False, True):
            result = run.run(name, seed=3, seconds=0.5, trace=trace, size=SMOKE)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = (
                result["correct"]
                and result["failed"] == 0
                and result["attempted"] > 0
                and printed == declared[trace]
            )
            print(f"{'ok  ' if ok else 'FAIL'} {name} trace={int(trace)} attempted={result['attempted']}")
            if not ok:
                failures.append(f"{name} trace={int(trace)}: {json.dumps(result)}")

    # Same grid at jobs 1 and jobs 2: results.csv must match byte for byte.
    wl = run.SweepBatch50(seed=3, size=SMOKE, out_dir=os.path.join(run.OUT, "smoke-jobs"))
    os.makedirs(wl.out_dir, exist_ok=True)
    prints = []
    for jobs in (1, 2):
        wl.jobs = jobs
        out = wl.run_op((wl.seed, wl.seed + 1))
        prints.append(run.sha256_file(os.path.join(out, "results.csv")))
    same = prints[0] == prints[1]
    print(f"{'ok  ' if same else 'FAIL'} sweep results.csv jobs 1 vs jobs 2: {prints[0][:12]} {prints[1][:12]}")
    if not same:
        failures.append("results.csv differs between --jobs 1 and --jobs 2")

    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
