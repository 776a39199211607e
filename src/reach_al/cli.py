"""Command-line interface.

Subcommands: gen-scene, label, run, sweep, envelope, plot, report.  Each
takes only the flags it reads, and a flag means the same on every one:
--seed is run's cell seed (scene.seed is set in the config), and
--detections, --labeled, --envelope and --results name input files.
gen-scene, label and envelope write detections.csv, labeled.csv and
envelope.xyz into --out, which defaults to $REACH_AL_OUT, then ./out.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from . import report as report_mod
from .active import STRATEGIES
from .config import AppConfig, default_config, load_config, resolve_out_dir
from .dataset import (
    generate_scene,
    ingest_detections,
    label_with_oracle,
    read_labeled_cache,
    write_detections,
    write_labeled_cache,
)
from .errors import ConfigError, IngestionError, ReachALError
from .kinematics import read_envelope, sample_envelope, write_envelope
from .report import build_benchmark, run_grid

# The finest joint grid the package builds (the BruteForceOracle default).
# The envelope grid holds steps**4 configurations: 40 steps take about 0.4 GB.
MAX_ENVELOPE_STEPS = 40


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _envelope_steps(text: str) -> int:
    value = int(text)
    if not 2 <= value <= MAX_ENVELOPE_STEPS:
        raise argparse.ArgumentTypeError(f"must lie in [2, {MAX_ENVELOPE_STEPS}], got {value}")
    return value


_FLAGS = {
    "--config": dict(help="experiment config file (key = value lines)"),
    "--out": dict(help="output directory (default: $REACH_AL_OUT or ./out)"),
    "--strict": dict(action="store_true", help="exit 1 if any cell fails"),
    "--jobs": dict(
        type=_positive_int,
        default=1,
        help="parallel workers, at most the CPU count and the number of cells",
    ),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reach-al",
        description="Learn decision-level fruit reachability with active learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="generate synthetic detections")
    _add_flags(p, "--config", "--out")

    p = sub.add_parser("label", help="label a detection file with the IK oracle")
    _add_flags(p, "--config", "--out")
    p.add_argument("--detections", required=True, help="detection file to ingest")

    p = sub.add_parser("run", help="run one cell of the experiment grid")
    _add_flags(p, "--config", "--out", "--strict")
    p.add_argument("--seed", type=_nonnegative_int, help="default: grid.seeds[0]")
    p.add_argument("--strategy", choices=STRATEGIES, help="default: grid.strategies[0]")
    p.add_argument("--init-size", type=int, help="default: grid.init_sizes[0]")
    p.add_argument("--budget", type=int, help="default: grid.budgets[0]")
    p.add_argument("--data", help="labeled cache for the sample set (default: synthetic)")
    p.add_argument("--pool", help="labeled cache for the candidate pool")

    p = sub.add_parser("sweep", help="run the full experiment grid")
    _add_flags(p, "--config", "--out", "--strict", "--jobs")

    p = sub.add_parser("envelope", help="sample the reachable envelope to a text file")
    _add_flags(p, "--config", "--out")
    p.add_argument(
        "--steps",
        type=_envelope_steps,
        default=20,
        help=f"grid steps per joint, 2 to {MAX_ENVELOPE_STEPS}",
    )

    p = sub.add_parser("plot", help="emit SVG plots from results or envelope data")
    _add_flags(p, "--out")
    p.add_argument("--results", help="results.csv to draw learning curves from")
    p.add_argument("--envelope", help="envelope .xyz file to draw views from")
    p.add_argument("--labeled", help="labeled cache overlaid on the envelope views")

    p = sub.add_parser("report", help="print a summary table from a results file")
    p.add_argument("--results", required=True, help="results.csv to summarize")

    return parser


def _out_dir(cli_out) -> str:
    """The output directory (see ``resolve_out_dir``), created if missing."""
    out_dir = resolve_out_dir(cli_out)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    return out_dir


def _load(config) -> AppConfig:
    return load_config(config) if config else default_config()


def _cmd_gen_scene(args) -> int:
    cfg = _load(args.config)
    out_dir = _out_dir(args.out)
    detections = generate_scene(cfg.scene, cfg.cam)
    if cfg.scene.n_images > 0 and len(detections) == 0:
        raise ConfigError(
            f"a scene of {cfg.scene.n_images} images yielded no detection; check scene.* and cam.*"
        )
    path = os.path.join(out_dir, "detections.csv")
    write_detections(path, detections)
    print(f"wrote {len(detections)} detections to {path}")
    return 0


def _cmd_label(args) -> int:
    cfg = _load(args.config)
    out_dir = _out_dir(args.out)
    detections = ingest_detections(args.detections, cfg.cam)
    result = label_with_oracle(
        detections, cfg.cam, cfg.ext, cfg.arm, density_band=cfg.features.density_band
    )
    if not result.samples:
        raise IngestionError(
            f"no record of {args.detections} could be labeled "
            f"({result.n_input} read, {result.n_dropped} dropped); no cache written"
        )
    path = os.path.join(out_dir, "labeled.csv")
    write_labeled_cache(path, result)
    print(
        f"labeled {len(result.samples)} records ({result.samples.y.sum()} reachable, "
        f"{result.n_dropped} dropped) -> {path}"
    )
    return 0


def _cmd_run(args) -> int:
    cfg = _load(args.config)
    # Each grid list narrows to its flag's value, or else to its first value.
    picks = dict(
        strategies=args.strategy, init_sizes=args.init_size, budgets=args.budget, seeds=args.seed
    )
    cell = {name: getattr(cfg.grid, name)[:1] if v is None else (v,) for name, v in picks.items()}
    try:
        cfg.grid = replace(cfg.grid, **cell)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = _out_dir(args.out)
    samples, candidates = build_benchmark(cfg, args.data, args.pool)
    results_path, _, errors = run_grid(samples, candidates, cfg, out_dir)
    rows = report_mod.read_results(results_path)
    final = max((r for r in rows if r.round >= 0), key=lambda r: r.round, default=None)
    if final is not None:
        print(
            f"{cfg.grid.strategies[0]}: n_labeled={final.n_labeled} accuracy={final.accuracy:.4f} "
            f"auc={final.auc if final.auc is None else round(final.auc, 4)} "
            f"ik_reduction={final.ik_reduction:.4f}"
        )
    print(f"results -> {results_path}")
    if errors and args.strict:
        return 1
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args.config)
    out_dir = _out_dir(args.out)
    samples, candidates = build_benchmark(cfg)
    results_path, summary_path, errors = run_grid(samples, candidates, cfg, out_dir, jobs=args.jobs)
    print(f"results -> {results_path}")
    print(f"summary -> {summary_path}")
    if errors:
        print(f"{len(errors)} cell(s) failed", file=sys.stderr)
        if args.strict:
            return 1
    return 0


def _cmd_envelope(args) -> int:
    cfg = _load(args.config)
    out_dir = _out_dir(args.out)
    pts = sample_envelope(cfg.arm, steps_per_joint=args.steps)
    path = os.path.join(out_dir, "envelope.xyz")
    write_envelope(path, pts)
    print(f"wrote {len(pts)} envelope points to {path}")
    return 0


def _cmd_plot(args) -> int:
    # The input names the plot: curves from results, views from an envelope.
    if bool(args.results) == bool(args.envelope):
        raise ReachALError("plot takes one input: --results for curves or --envelope for views")
    if args.labeled and not args.envelope:
        raise ReachALError("--labeled overlays the envelope views; it needs --envelope")
    if args.results:
        written = report_mod.emit_curve_plots(args.results, _out_dir(args.out))
    else:
        env = read_envelope(args.envelope)
        fruit = labels = None
        if args.labeled:
            samples = read_labeled_cache(args.labeled).samples
            fruit, labels = samples.X[:, :3], samples.y
        written = report_mod.emit_envelope_plots(env, _out_dir(args.out), fruit, labels)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_report(args) -> int:
    rows = report_mod.read_results(args.results)
    summary = report_mod.summarize(rows)
    print(report_mod.format_summary_table(summary))
    return 0


_COMMANDS = {
    "gen-scene": _cmd_gen_scene,
    "label": _cmd_label,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "envelope": _cmd_envelope,
    "plot": _cmd_plot,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReachALError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
