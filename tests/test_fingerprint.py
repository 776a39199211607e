"""Output fingerprints of a tiny grid: a refactor that moves one byte fails.

The hashes pin ``results.csv`` and ``summary.csv`` of a five-strategy,
two-seed sweep whose last query batch is short (4 + 4 + 2), at one and at
two workers, and of one ``run --data`` cell on a labeled cache, and the
detection file, labeled cache and sidecar that cell is run from; and the
detection file, labeled cache and sidecar of a default-size scene at 95%
depth dropout, where labeling drops 1,806 of 6,403 detections.  A second
sweep adds budgets 6 and 8 next to 10: 8 is a multiple of the batch, so its
rows are the leading rounds of the budget-10 run, while 6 is not and runs on
its own.  Its hashes were taken from a sweep that ran every budget
separately, so reuse must leave the files byte-identical.  A change
that alters results on purpose updates them and says so in CHANGES.md.

The plots are pinned the same way, with hashes taken before the SVG
element templates were folded into one writer:

- ``plot --results`` on the budget-prefix sweep's ``results.csv``:
  ``curves_init10_budget6.svg`` 85521835…, ``curves_init10_budget8.svg``
  4f779ef7… and ``curves_init10_budget10.svg`` 5c7ce33d…;
- ``plot --envelope … --labeled`` on ``envelope --steps 6`` with the
  ``run --data`` cell's labeled cache overlaid: ``envelope_top.svg``
  b4c9536b…, ``envelope_side.svg`` 038db08d… and ``envelope_front.svg``
  88a581ea….
"""

import hashlib
import os

import pytest

from reach_al.cli import main

CFG_TEXT = """
scene.n_images = 120
data.n_samples = 300
data.pool_size = 300
forest.n_trees = 15
al.batch_size = 4
al.committee_trees = 5
grid.strategies = random, least_confidence, margin, entropy, qbc
grid.init_sizes = 10
grid.budgets = 10
grid.seeds = 0, 1
"""

SWEEP_RESULTS = "8ccc33ea19abf00b2e0308d0f4441864c0045cb06f0aefaefa92289d12ea1d01"
SWEEP_SUMMARY = "f6544a58937220a1602eafa68f265767a31bb8b62ace843e15f83a8cdd2c63fe"
PREFIX_RESULTS = "d23709b714608a1cca7292a4cb3178eceaa804e137ec748fb0fd1d1e2fd839c6"
PREFIX_SUMMARY = "0887bbb05c993bc33d5286681ca6d843f7d377704cbb9e4bc02c95c4437e5500"
DATA_RESULTS = "dd8f1417a1c0d5418373b085bf8d1d63f5f1d852c7c6c6f8d9a9bfa706f94d12"
DATA_SUMMARY = "b8b6a405c2f56ff2c7dba04ce05513f852c5ed5b4aa3262ec9320f91ca29fa92"
DETECTIONS = "c95be5514ece0a4068dad0783f3b2d8630c198c9a6d8329fdd3c35d27fee5472"
LABELED = "01b957ff5a694d07ad2b2f16b4f6232a82706f14cc952c14865a5aee7b11719c"
LABELED_META = "8288a78cb4fe3404da34079c8e59396dbb5330f30efdef6febfc6d4114da7eab"
DROPOUT_DETECTIONS = "0a15a1b4298f780464bcc780c1bdd6c19bcc5123ff4922a5b7ef3d489f95d7de"
DROPOUT_LABELED = "0e26ff782f214d4b290ba5d0d74efe7d242368a605857e132c42c77b2e4a967d"
DROPOUT_META = "83d8d2fc52f33bffd12085f4aaf5ebfcce863962323087445f3b10c502122de2"
PREFIX_CURVES = {
    "curves_init10_budget6.svg": "85521835a6f3becd6832fbce9ab5fbdc2db55c1f86a08bb458e33ee4854805e8",
    "curves_init10_budget8.svg": "4f779ef709b18fe3c90681845098c1fd3a633ef8d524af450efa3054f61b61cc",
    "curves_init10_budget10.svg": "5c7ce33d2821ee1944de678368a20cd6d05c6547e5ee5cd3b23f7350b335c5cf",
}
LABELED_VIEWS = {
    "envelope_top.svg": "b4c9536b7098ab45bd6b1038c16449a7c0df125d4a9a7b16877713dfb64594c3",
    "envelope_side.svg": "038db08dfb794f2c028fc4fc301826ba55b01233fdbe231d0ceaccc954bca465",
    "envelope_front.svg": "88a581eab5ffc52181d4032b94100c294ec15a0b496bb43c39c44d3edf3058e3",
}


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(CFG_TEXT)
    return str(path)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_fingerprint(tmp_path, cfg_file, jobs):
    out = str(tmp_path)
    assert main(["sweep", "--config", cfg_file, "--jobs", jobs, "--out", out]) == 0
    assert sha256(os.path.join(out, "results.csv")) == SWEEP_RESULTS
    assert sha256(os.path.join(out, "summary.csv")) == SWEEP_SUMMARY


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_budget_prefix_fingerprint(tmp_path, jobs):
    cfg = tmp_path / "prefix.cfg"
    cfg.write_text(CFG_TEXT.replace("grid.budgets = 10", "grid.budgets = 6, 8, 10"))
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", str(cfg), "--jobs", jobs, "--out", out]) == 0
    assert sha256(os.path.join(out, "results.csv")) == PREFIX_RESULTS
    assert sha256(os.path.join(out, "summary.csv")) == PREFIX_SUMMARY


def test_curve_plot_fingerprint(tmp_path):
    cfg = tmp_path / "prefix.cfg"
    cfg.write_text(CFG_TEXT.replace("grid.budgets = 10", "grid.budgets = 6, 8, 10"))
    out, plots = str(tmp_path / "out"), str(tmp_path / "plots")
    assert main(["sweep", "--config", str(cfg), "--out", out]) == 0
    assert main(["plot", "--results", os.path.join(out, "results.csv"), "--out", plots]) == 0
    assert sorted(os.listdir(plots)) == sorted(PREFIX_CURVES)
    assert {name: sha256(os.path.join(plots, name)) for name in PREFIX_CURVES} == PREFIX_CURVES


def test_run_data_fingerprint(tmp_path, cfg_file):
    out = str(tmp_path)
    assert main(["gen-scene", "--config", cfg_file, "--out", out]) == 0
    det = os.path.join(out, "detections.csv")
    assert main(["label", "--config", cfg_file, "--detections", det, "--out", out]) == 0
    data = os.path.join(out, "labeled.csv")
    argv = ["run", "--config", cfg_file, "--data", data, "--strategy", "qbc",
            "--init-size", "10", "--budget", "10", "--out", out]
    assert main(argv) == 0
    assert sha256(det) == DETECTIONS
    assert sha256(data) == LABELED
    assert sha256(f"{data}.meta") == LABELED_META
    assert sha256(os.path.join(out, "results.csv")) == DATA_RESULTS
    assert sha256(os.path.join(out, "summary.csv")) == DATA_SUMMARY


def test_high_dropout_label_fingerprint(tmp_path):
    cfg = tmp_path / "dropout.cfg"
    cfg.write_text("scene.seed = 7\nscene.dropout_prob = 0.95\n")
    out = str(tmp_path)
    assert main(["gen-scene", "--config", str(cfg), "--out", out]) == 0
    det = os.path.join(out, "detections.csv")
    assert main(["label", "--config", str(cfg), "--detections", det, "--out", out]) == 0
    data = os.path.join(out, "labeled.csv")
    assert sha256(det) == DROPOUT_DETECTIONS
    assert sha256(data) == DROPOUT_LABELED
    assert sha256(f"{data}.meta") == DROPOUT_META


def test_labeled_envelope_plot_fingerprint(tmp_path, cfg_file):
    out, plots = str(tmp_path / "out"), str(tmp_path / "plots")
    assert main(["gen-scene", "--config", cfg_file, "--out", out]) == 0
    det = os.path.join(out, "detections.csv")
    assert main(["label", "--config", cfg_file, "--detections", det, "--out", out]) == 0
    assert main(["envelope", "--config", cfg_file, "--steps", "6", "--out", out]) == 0
    argv = ["plot", "--envelope", os.path.join(out, "envelope.xyz"),
            "--labeled", os.path.join(out, "labeled.csv"), "--out", plots]
    assert main(argv) == 0
    assert sorted(os.listdir(plots)) == sorted(LABELED_VIEWS)
    assert {name: sha256(os.path.join(plots, name)) for name in LABELED_VIEWS} == LABELED_VIEWS
