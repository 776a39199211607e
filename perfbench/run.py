#!/usr/bin/env python3
"""reach-al benchmark: closed-loop workloads driven through the public API.

    python3 perfbench/run.py --workload al-batch5 --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  One
client process waits for each operation before starting the next.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Every run also writes a record with the machine, the output fingerprints and
every op's timing to ``perfbench/out/runs/``.  ``perfbench/README.md``
describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

STRATEGIES = ("random", "least_confidence", "margin", "entropy", "qbc")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "final_accuracy_mean": "ratio",
    "final_auc_mean": "ratio",
    "final_recall_mean": "ratio",
    "ik_reduction_mean": "ratio",
}

PER_LAYER = {
    "dataset.generate_scene.s": "s",
    "dataset.label_with_oracle.s": "s",
    "dataset.ingest_detections.s": "s",
    "dataset.write_labeled_cache.s": "s",
    "dataset.make_splits.s": "s",
    "dataset.dropped_frac": "ratio",
    "perception.robust_depth.s": "s",
    "perception.robust_depth.calls_per_record": "calls/record",
    "perception.map_rgb_to_depth_pixel.s": "s",
    "perception.back_project.s": "s",
    "perception.camera_to_arm.s": "s",
    "features.extract_features.s": "s",
    "features.features_matrix.s": "s",
    "features.features_matrix.rows_per_cell": "rows/cell",
    "kinematics.is_reachable.s": "s",
    "kinematics.is_reachable.calls": "count",
    "kinematics.reachable_frac": "ratio",
    "forest.fit_arrays.s": "s",
    "forest.fit_arrays.calls": "count",
    "forest.fit_arrays.rows": "count",
    "forest.nodes": "count",
    "forest.fit_us_per_node": "us",
    "forest.predict_proba_matrix.s": "s",
    "forest.predict_proba_matrix.calls": "count",
    "forest.predict_ns_per_row_tree": "ns",
    "active.run_loop.s": "s",
    "active.rounds": "count",
    "active.score.s": "s",
    "active.committee_fits": "count",
    "active.scored_per_queried": "ratio",
    "active.duplicate_strategy_cells": "count",
    "metrics.evaluate.s": "s",
    "report.build_benchmark.s": "s",
    "report.run_cell.s": "s",
    **{f"report.run_cell.{s}.s": "s" for s in STRATEGIES},
    "report.write_results.s": "s",
    "report.summarize.s": "s",
    "report.parallel_efficiency": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}

AL_BATCH = 5  # al.batch_size of every al-batch5 cell

IMPORT_REPEATS = 5  # once in process, then in fresh interpreters
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import reach_al; print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Size:
    """Input sizes of the three workloads; ``FULL`` is the benchmark."""

    al_overrides: dict = field(default_factory=dict)
    al_init: int = 30
    al_budget: int = 100
    sweep_overrides: dict = field(default_factory=dict)
    label_images: int = 3200


FULL = Size()


def import_package():
    """Import ``reach_al`` from this checkout's ``src/``; returns seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "reach_al", "__init__.py")):
        raise SystemExit(f"perfbench: no reach_al package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import reach_al

    elapsed = time.perf_counter() - t0
    if not os.path.abspath(reach_al.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported reach_al from {reach_al.__file__}, not {SRC}")
    import reach_al.cli  # noqa: F401  (loads every module the tracer wraps)

    return elapsed


def fresh_import_seconds():
    """Import time of the package in a new interpreter, as a user pays it."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET, SRC],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip())


def cpu_seconds():
    """User plus system CPU of this process and its waited-for children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mb(children):
    """Peak RSS of this process, plus that of its largest waited-for child
    when ``children`` (the kernel keeps only the largest, not the sum)."""
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if children else 0
    return (s + c) / 1024.0


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def code_hash():
    """Hash of the package and benchmark sources; keys the fingerprint ledger."""
    h = hashlib.sha256()
    for d in (os.path.join(SRC, "reach_al"), HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def machine():
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _finite(v):
    return v is not None and not (isinstance(v, float) and math.isnan(v))


def _mean(values):
    vals = [v for v in values if _finite(v)]
    return sum(vals) / len(vals) if vals else float("nan")


def check_cell_rows(rows, init, budget, batch):
    """Output check of one AL cell; returns a list of problems (empty if fine).

    One row per round, rounds numbered from 0 (so no ``round = -1`` error
    row), ``n_labeled`` growing by the batch (the last batch may be short),
    and every metric in [0, 1] or undefined.
    """
    expected = [init]
    while expected[-1] - init < budget:
        expected.append(expected[-1] + min(batch, init + budget - expected[-1]))
    problems = []
    if [r.round for r in rows] != list(range(len(expected))):
        problems.append(f"rounds {[r.round for r in rows]}, expected 0..{len(expected) - 1}")
    elif [r.n_labeled for r in rows] != expected:
        problems.append(f"n_labeled {[r.n_labeled for r in rows]}, expected {expected}")
    for r in rows:
        for name in ("accuracy", "precision", "recall", "f1", "auc", "ik_reduction"):
            v = getattr(r, name)
            if _finite(v) and not 0.0 <= v <= 1.0:
                problems.append(f"round {r.round}: {name} = {v} outside [0, 1]")
    return problems


def final_quality(rows):
    """Means over cells of the final round's accuracy, AUC, recall, IK reduction."""
    finals = {}
    for r in rows:
        cell = (r.strategy, r.init_size, r.budget, r.seed)
        if r.round >= 0 and (cell not in finals or r.round > finals[cell].round):
            finals[cell] = r
    f = list(finals.values())
    return {
        "final_accuracy_mean": _mean(r.accuracy for r in f),
        "final_auc_mean": _mean(r.auc for r in f),
        "final_recall_mean": _mean(r.recall for r in f),
        "ik_reduction_mean": _mean(r.ik_reduction for r in f),
    }


def duplicate_strategy_cells(rows):
    """(init, budget, seed) groups whose least_confidence, margin and entropy
    rows agree in every column but the strategy name."""
    groups = {}
    for r in rows:
        if r.strategy in ("least_confidence", "margin", "entropy"):
            groups.setdefault((r.init_size, r.budget, r.seed), {}).setdefault(r.strategy, []).append(
                (r.round, r.n_labeled, r.accuracy, r.precision, r.recall, r.f1, r.auc, r.ik_reduction)
            )
    return sum(
        1 for g in groups.values()
        if len(g) == 3 and g["least_confidence"] == g["margin"] == g["entropy"]
    )


class Workload:
    """One closed-loop workload: set-up, an endless op stream, output checks."""

    name = ""
    jobs = 1
    min_ops = 1
    setup_repeats = 3
    keep_results = True  # handed to ``finish``; off where results are large

    def __init__(self, seed, size, out_dir):
        self.seed = seed
        self.size = size
        self.out_dir = out_dir
        self.problems = []  # failed checks and fingerprint mismatches
        self.outputs_changed = False  # a mismatch that fails every op of the run
        self.fingerprints = {}
        self.result_rows = []  # AL result rows of the ops ``finish`` saw

    def setup(self):
        """One set-up of the workload's inputs (timed as ``setup_s``)."""
        raise NotImplementedError

    def setup_fingerprint(self):
        """sha256 of what the last set-up built (not timed)."""
        raise NotImplementedError

    def ops(self):
        """The endless op stream of an untraced run."""
        raise NotImplementedError

    def trace_ops(self):
        """The fixed op list of a traced run."""
        raise NotImplementedError

    def kind(self, op):
        """Ops of one kind cost alike; throughput weighs kinds equally."""
        return "all"

    def op_size(self, op):
        """Operations that one ``run_op(op)`` performs."""
        raise NotImplementedError

    def run_op(self, op):
        raise NotImplementedError

    def check(self, op, result):
        """Output check of one op; returns its failed operations."""
        raise NotImplementedError

    def finish(self, done):
        """Fingerprints and quality metrics once the ops have run."""
        raise NotImplementedError

    def fail(self, msg, outputs_changed=False):
        self.problems.append(msg)
        self.outputs_changed |= outputs_changed
        print(f"# CHECK FAILED {self.name}: {msg}", file=sys.stderr)


class ALBatch5(Workload):
    """AL rounds at batch 5 through ``report.run_cell`` on the default benchmark.

    One op is one cell; it performs ``budget / batch + 1`` rounds.  Cell ``i``
    runs strategy ``i mod 5`` on AL seed ``seed + i``; the first five cells
    always run.  A traced run instead runs all five strategies on ``seed``.
    """

    name = "al-batch5"
    min_ops = len(STRATEGIES)

    def __init__(self, seed, size, out_dir):
        super().__init__(seed, size, out_dir)
        from reach_al.config import apply_overrides, default_config
        from reach_al.report import ExperimentGrid

        kv = dict(size.al_overrides, **{"al.batch_size": str(AL_BATCH)})
        self.grid = ExperimentGrid.from_config(apply_overrides(default_config(), kv))

    def setup(self):
        from reach_al import report

        self.samples, self.candidates = report.build_benchmark(self.grid)

    def setup_fingerprint(self):
        from reach_al.features import features_matrix, labels_array

        both = list(self.samples) + list(self.candidates)
        return hashlib.sha256(features_matrix(both).tobytes() + labels_array(both).tobytes()).hexdigest()

    def ops(self):
        # Each cell on its own AL seed: five cells average over five splits.
        for i in itertools.count():
            yield STRATEGIES[i % len(STRATEGIES)], self.seed + i

    def trace_ops(self):
        return [(s, self.seed) for s in STRATEGIES]

    def kind(self, op):
        return op[0]

    def op_size(self, op):
        return -(-self.size.al_budget // AL_BATCH) + 1

    def run_op(self, op):
        from reach_al import report

        strategy, al_seed = op
        return report.run_cell(
            self.samples, self.candidates, self.grid, strategy,
            self.size.al_init, self.size.al_budget, al_seed,
        )

    def check(self, op, rows):
        problems = check_cell_rows(rows, self.size.al_init, self.size.al_budget, AL_BATCH)
        for p in problems:
            self.fail(f"cell {op}: {p}")
        return self.op_size(op) if problems else 0

    def _write(self, rows, stem):
        from reach_al import report

        results = os.path.join(self.out_dir, f"{stem}-results.csv")
        summary = os.path.join(self.out_dir, f"{stem}-summary.csv")
        report.write_results(results, rows)
        report.write_summary(summary, report.summarize(rows))
        return sha256_file(results), sha256_file(summary)

    def finish(self, done):
        first = done[: len(STRATEGIES)]  # one cell per strategy
        self.result_rows = [r for d in first if d.result for r in d.result]
        seeds = f"{first[0].op[1]}..{first[-1].op[1]}"  # untraced and traced lists differ
        self.fingerprints[f"results.csv@{seeds}"], self.fingerprints[f"summary.csv@{seeds}"] = self._write(
            self.result_rows, "first-cells"
        )
        return final_quality(self.result_rows)


class SweepBatch50(Workload):
    """``reach-al sweep`` in process on the default grid (batch 50).  One op
    is one grid cell.  Call ``k`` runs grid seed ``seed + k`` (30 cells), so
    a run spreads over at least two seeds."""

    name = "sweep-batch50"
    jobs = 2
    min_ops = 2

    def __init__(self, seed, size, out_dir):
        super().__init__(seed, size, out_dir)
        from reach_al.config import apply_overrides, default_config

        self.cfg = apply_overrides(default_config(), size.sweep_overrides)
        g = self.cfg.grid
        self.cells = len(g.strategies) * len(g.init_sizes) * len(g.budgets)
        self.seen = {}  # grid seeds -> (results.csv, summary.csv) sha256

    def setup(self):
        pass  # run_grid builds its own benchmark on every call

    def setup_fingerprint(self):
        return hashlib.sha256(repr(sorted(self.size.sweep_overrides.items())).encode()).hexdigest()

    def ops(self):
        return ((s,) for s in itertools.count(self.seed))

    def trace_ops(self):
        return [(self.seed,)]

    def op_size(self, op):
        return self.cells * len(op)

    def run_op(self, op):
        from reach_al import cli

        name = "-".join(map(str, op))
        config = os.path.join(self.out_dir, f"sweep-seeds{name}.cfg")
        lines = [f"{k} = {v}" for k, v in sorted(self.size.sweep_overrides.items())]
        with open(config, "w") as fh:
            fh.write("\n".join(lines + [f"grid.seeds = {', '.join(map(str, op))}", ""]))
        out = os.path.join(self.out_dir, f"seeds{name}-jobs{self.jobs}")
        argv = ["sweep", "--config", config, "--jobs", str(self.jobs), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"reach-al {' '.join(argv)} exited with {code}")
        return out

    def check(self, op, out):
        from reach_al.report import read_results

        cells = {}
        for r in read_results(os.path.join(out, "results.csv")):
            cells.setdefault((r.strategy, r.init_size, r.budget, r.seed), []).append(r)
        n = self.op_size(op)
        failed = max(0, n - len(cells))
        if failed:
            self.fail(f"grid seeds {op}: {len(cells)} cells written, expected {n}")
        for (strategy, init, budget, seed), rows in sorted(cells.items()):
            problems = check_cell_rows(rows, init, budget, self.cfg.al.batch_size)
            for p in problems:
                self.fail(f"cell {strategy}/{init}/{budget}/{seed}: {p}")
            failed += bool(problems)
        prints = tuple(sha256_file(os.path.join(out, f)) for f in ("results.csv", "summary.csv"))
        if self.seen.setdefault(op, prints) != prints:
            self.fail(f"grid seeds {op}: output differs from an earlier call on the same seeds")
            failed = n
        return min(failed, n)

    def finish(self, done):
        from reach_al.report import read_results

        for d in done[: self.min_ops]:  # quality and fingerprints of the first calls
            if d.op not in self.seen:
                continue  # the call raised; it is already counted as failed
            name = ",".join(map(str, d.op))
            self.fingerprints[f"results.csv@{name}"], self.fingerprints[f"summary.csv@{name}"] = self.seen[d.op]
            self.result_rows += read_results(os.path.join(d.result, "results.csv"))
        return final_quality(self.result_rows)


class LabelScene(Workload):
    """``reach-al label`` (ingest, label with the IK oracle, write the cache)
    on a seeded synthetic scene four times the default size.  One op is one
    detection record; one call labels the whole file."""

    name = "label-scene"
    setup_repeats = 2  # a set-up takes ~4 s
    keep_results = False
    FK_SAMPLE = 200
    FK_TOL = 1e-9

    def __init__(self, seed, size, out_dir):
        super().__init__(seed, size, out_dir)
        from dataclasses import replace

        from reach_al.config import default_config

        self.cfg = default_config()
        self.scene = replace(self.cfg.scene, n_images=size.label_images, seed=seed)
        self.detections = os.path.join(out_dir, "detections.csv")
        self.cache = os.path.join(out_dir, "labeled.csv")
        self.cache_sha = None
        self.quality = None

    def setup(self):
        from reach_al import dataset

        records = dataset.generate_scene(self.scene, self.cfg.cam)
        dataset.write_detections(self.detections, records)
        self.n_rows = len(records)

    def setup_fingerprint(self):
        return sha256_file(self.detections)

    def ops(self):
        return itertools.repeat("label")

    def trace_ops(self):
        return ["label"]

    def op_size(self, op):
        return self.n_rows

    def run_op(self, op):
        from reach_al import dataset

        cfg = self.cfg
        records = dataset.ingest_detections(self.detections, cfg.cam)
        result = dataset.label_with_oracle(
            records, cfg.cam, cfg.ext, cfg.arm, density_band=cfg.features.density_band
        )
        dataset.write_labeled_cache(self.cache, result)
        return result

    def check(self, op, result):
        sha = sha256_file(self.cache)
        if self.cache_sha is None:
            self.cache_sha = sha
            return self._check_full(result)
        if sha != self.cache_sha:
            self.fail("labeled cache differs from the first pass")
            return self.n_rows
        return 0  # byte-identical to the pass checked in full

    def _check_full(self, result):
        import numpy as np

        from reach_al.dataset import read_labeled_cache
        from reach_al.kinematics import forward_kinematics, is_reachable
        from reach_al.metrics import evaluate

        arm = self.cfg.arm
        written = read_labeled_cache(self.cache).samples
        counts = (result.n_input, len(result.samples) + result.n_dropped, len(written) + result.n_dropped)
        if counts != (self.n_rows,) * 3:
            self.fail(f"input, labeled + dropped, written + dropped = {counts}; file rows = {self.n_rows}")
            return self.n_rows
        labels = np.array([s.label for s in written], dtype=np.int64)
        truth = np.array([int(is_reachable(s.arm_point, arm)[0]) for s in written], dtype=np.int64)
        failed = int(np.count_nonzero(labels != truth))
        if failed:
            self.fail(f"{failed} written labels disagree with kinematics.is_reachable")
        reachable = np.nonzero(truth == 1)[0]
        rng = np.random.default_rng([self.seed, 0xF1])
        for i in rng.choice(reachable, size=min(self.FK_SAMPLE, len(reachable)), replace=False):
            p = written[i].arm_point
            fk = forward_kinematics(is_reachable(p, arm)[1], arm)
            err = max(abs(fk.x - p.x), abs(fk.y - p.y), abs(fk.z - p.z))
            if not err <= self.FK_TOL:
                self.fail(f"forward_kinematics(witness) misses record {i} by {err:.3g} m")
                failed += 1
        # The written labels scored against the oracle re-run on each point.
        m = evaluate(labels.astype(float), truth)
        self.quality = {
            "final_accuracy_mean": m.accuracy,
            "final_auc_mean": m.auc if m.auc is not None else float("nan"),
            "final_recall_mean": m.recall if m.recall is not None else float("nan"),
            "ik_reduction_mean": float(np.mean(labels == 0)),
        }
        return failed

    def finish(self, done):
        self.fingerprints["detections.csv"] = sha256_file(self.detections)
        if self.cache_sha:
            self.fingerprints["labeled.csv"] = self.cache_sha
        # Without a fully checked pass there is no quality to report.
        return self.quality or final_quality([])


WORKLOADS = {w.name: w for w in (ALBatch5, SweepBatch50, LabelScene)}


@dataclass
class Done:
    op: object
    result: object
    kind: str
    n: int
    wall: float
    cpu: float
    failed: int


def run_ops(wl, ops, seconds=math.inf, min_ops=0):
    """Closed loop: start the next op only when the last one (and its check)
    is done, until ``seconds`` of op time have passed and ``min_ops`` ran."""
    done = []
    busy = 0.0
    for i, op in enumerate(ops):
        if i >= min_ops and busy >= seconds:
            break
        gc.collect()  # every op starts from the same heap, whatever ran before
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = wl.run_op(op)
        except Exception:  # a failed op is counted, not fatal to the run
            traceback.print_exc()
            result = None
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        busy += wall
        n = wl.op_size(op)
        if result is None:
            wl.fail(f"op {op!r} raised")
            failed = n
        else:
            failed = wl.check(op, result)
        done.append(Done(op, result if wl.keep_results else None, wl.kind(op), n, wall, cpu, failed))
    return done


def per_op(done, attr):
    """Seconds per operation: the median within each op kind, then the mean
    over kinds, so that a run's mix of cheap and dear kinds cannot move it."""
    kinds = {}
    for d in done:
        kinds.setdefault(d.kind, []).append(getattr(d, attr) / d.n)
    return statistics.fmean(statistics.median(v) for v in kinds.values())


def ledger_check(wl, key):
    """Fingerprints of earlier runs with the same workload, seed and code must match."""
    path = os.path.join(OUT, "fingerprints.json")
    try:
        with open(path) as fh:
            ledger = json.load(fh)
    except (OSError, ValueError):
        ledger = {}
    old = ledger.setdefault(key, {})
    for name, sha in wl.fingerprints.items():
        if old.setdefault(name, sha) != sha:
            wl.fail(f"{name} fingerprint {sha[:12]} differs from an earlier run's {old[name][:12]}", True)
    with open(path, "w") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)


def run_untraced(wl, seconds, record):
    """End-to-end metrics: set-up several times, then the timed closed loop."""
    import_s = [record.pop("import_s")]
    import_s += [fresh_import_seconds() for _ in range(IMPORT_REPEATS - 1)]
    setup_s, prints = [], []
    for _ in range(wl.setup_repeats):
        gc.collect()
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
        prints.append(wl.setup_fingerprint())
    if len(set(prints)) != 1:
        wl.fail("repeated set-ups built different inputs", True)
    wl.fingerprints["setup"] = prints[0]
    done = run_ops(wl, wl.ops(), seconds, wl.min_ops)
    quality = wl.finish(done)
    metrics = {
        "setup_s": statistics.median(import_s) + statistics.median(setup_s),
        "ops_per_s": 1.0 / per_op(done, "wall"),
        "cpu_ms_per_op": 1000.0 * per_op(done, "cpu"),
        # The only children of a jobs-1 workload are the import probes.
        "peak_rss_mb": peak_rss_mb(children=wl.jobs > 1),
        **quality,
    }
    record.update(import_s=import_s, setup_s=setup_s)
    return done, {k: (metrics[k], unit) for k, unit in END_TO_END.items()}


def trace_hooks():
    """Counts taken at the traced boundaries, from arguments and results."""

    def labeled(c, a, out, dt):
        c["records_in"] += out.n_input
        c["records_dropped"] += out.n_dropped

    def reachable(c, a, out, dt):
        c["reachable"] += bool(out[0])

    def fit(c, a, out, dt):
        c["fit_rows"] += len(a["X"])
        c["fit_nodes"] += sum(len(t.feature) for t in out.trees)

    def predict(c, a, out, dt):
        c["predict_row_trees"] += len(out) * len(a["model"].trees)

    def matrix(c, a, out, dt):
        c["matrix_rows"] += len(out)

    def select(c, a, out, dt):
        c["scored"] += len(a["scores"])
        c["queried"] += len(out)

    def loop(c, a, out, dt):
        c["rounds"] += len(out)

    def cell(c, a, out, dt):
        c[f"run_cell.{a['strategy']}"] += dt

    return {
        "dataset.label_with_oracle": labeled,
        "kinematics.is_reachable": reachable,
        "forest.fit_arrays": fit,
        "forest.predict_proba_matrix": predict,
        "features.features_matrix": matrix,
        "active.select_batch": select,
        "active.run_loop": loop,
        "report.run_cell": cell,
    }


def layer_metrics(wl, tracer, traced, untraced, parallel, jobs):
    """Per-layer metrics from the spans and counts of one traced op list.

    ``untraced`` is the same op list run without tracing, for the overhead;
    ``parallel`` is it run at the workload's own ``jobs``, for the parallel
    efficiency (the traced list itself when ``jobs`` is 1).
    """
    table = tracer.table()
    c = tracer.counts

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    fits = [i for i, s in enumerate(tracer.spans) if s[0] == "forest.fit_arrays"]
    loop_fits = sum(tracer.has_ancestor(i, "active.run_loop") for i in fits)
    m = {
        "dataset.dropped_frac": ratio(c["records_dropped"], c["records_in"]),
        "perception.robust_depth.calls_per_record": ratio(calls("perception.robust_depth"), c["records_in"]),
        "features.features_matrix.rows_per_cell": ratio(c["matrix_rows"], calls("active.run_loop")),
        "kinematics.is_reachable.calls": calls("kinematics.is_reachable"),
        "kinematics.reachable_frac": ratio(c["reachable"], calls("kinematics.is_reachable")),
        "forest.fit_arrays.calls": calls("forest.fit_arrays"),
        "forest.fit_arrays.rows": c["fit_rows"],
        "forest.nodes": c["fit_nodes"],
        "forest.fit_us_per_node": ratio(1e6 * total("forest.fit_arrays"), c["fit_nodes"]),
        "forest.predict_proba_matrix.calls": calls("forest.predict_proba_matrix"),
        "forest.predict_ns_per_row_tree": ratio(1e9 * total("forest.predict_proba_matrix"), c["predict_row_trees"]),
        "active.rounds": c["rounds"],
        "active.score.s": sum(
            row["total_s"] for name, row in table.items()
            if name.startswith("active.score_") or name == "active.select_batch"
        ),
        "active.committee_fits": loop_fits - c["rounds"],
        "active.scored_per_queried": ratio(c["scored"], c["queried"]),
        "active.duplicate_strategy_cells": duplicate_strategy_cells(wl.result_rows),
        "report.parallel_efficiency": ratio(total("report.run_cell"), jobs * sum(d.wall for d in parallel)),
        "trace.overhead_frac": ratio(sum(d.wall for d in traced), sum(d.wall for d in untraced)) - 1.0,
        "trace.spans": len(tracer.spans),
    }
    for s in STRATEGIES:
        m[f"report.run_cell.{s}.s"] = c[f"run_cell.{s}"]
    for name in PER_LAYER:
        if name not in m:  # "<layer>.<function>.s": inclusive time of that function
            m[name] = total(name[: -len(".s")])
    return {name: (float(m[name]), unit) for name, unit in PER_LAYER.items()}, table


def run_traced(wl, record):
    """Per-layer metrics: one traced set-up, then the fixed trace op list run
    untraced (for the overhead) and traced, all in this process."""
    from tracer import Tracer

    tracer = Tracer(trace_hooks())
    tracer.run_id = "setup"
    with tracer:
        wl.setup()
    wl.fingerprints["setup"] = wl.setup_fingerprint()
    jobs, wl.jobs = wl.jobs, 1  # at jobs 1 every span is in this process
    untraced = run_ops(wl, wl.trace_ops())
    parallel = []
    if jobs > 1:
        wl.jobs = jobs
        parallel = run_ops(wl, wl.trace_ops())
        wl.jobs = 1
    traced = []
    with tracer:
        for i, op in enumerate(wl.trace_ops()):
            tracer.run_id = i
            traced += run_ops(wl, [op])
    wl.finish(traced)
    metrics, table = layer_metrics(wl, tracer, traced, untraced, parallel or traced, jobs)
    path = os.path.join(OUT, "runs", f"trace-{wl.name}-seed{wl.seed}.json")
    with open(path, "w") as fh:
        json.dump({"table": table, "spans": tracer.spans}, fh)
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"# {name:42s} calls {row['calls']:8d}  total {row['total_s']:9.3f} s  self {row['self_s']:9.3f} s")
    record["trace_file"] = os.path.relpath(path, HERE)
    return traced + untraced + parallel, metrics


def run(workload, seed, seconds, trace, size=FULL):
    """One benchmark run; returns the result object printed as the last line."""
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    record["import_s"] = import_package()
    record["machine"] = machine()
    out_dir = os.path.join(OUT, workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    wl = WORKLOADS[workload](seed, size, out_dir)

    done, metrics = run_traced(wl, record) if trace else run_untraced(wl, seconds, record)
    size_hash = hashlib.sha256(repr(size).encode()).hexdigest()[:8]
    ledger_check(wl, f"{workload}|seed={seed}|size={size_hash}|code={code_hash()}")
    attempted = sum(d.n for d in done)
    result = {
        "correct": not wl.problems,
        "attempted": attempted,
        "failed": attempted if wl.outputs_changed else min(attempted, sum(d.failed for d in done)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(
        fingerprints=wl.fingerprints,
        problems=wl.problems,
        ops=[
            {"op": repr(d.op), "n": d.n, "wall_s": d.wall, "cpu_s": d.cpu, "failed": d.failed}
            for d in done
        ],
        result=result,
    )
    with open(os.path.join(OUT, "runs", f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"# machine {json.dumps(record['machine'])}")
    print(f"# fingerprints {json.dumps(wl.fingerprints)}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
