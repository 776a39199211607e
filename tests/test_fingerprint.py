"""Output fingerprints of a tiny grid: a refactor that moves one byte fails.

The hashes pin ``results.csv`` and ``summary.csv`` of a five-strategy,
two-seed sweep whose last query batch is short (4 + 4 + 2), at one and at
two workers, and of one ``run --data`` cell on a labeled cache, and the
detection file, labeled cache and sidecar that cell is run from.  A change
that alters results on purpose updates them and says so in CHANGES.md.
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

SWEEP_RESULTS = "975a58e7893104f6ed6d2028f439ffb30e2d13b63d4e90d88d2e9afc9d9b7b98"
SWEEP_SUMMARY = "abdd39ecccf603a29bfc59920677f9d0783578a579f3ff72a43d248bddaff72c"
DATA_RESULTS = "ef2943e14824d5aa206ba529a259f4d8cdb47a96aed180ee3261ba4d38db5a41"
DATA_SUMMARY = "e199d7d2196b98df4f96680a09622bed28f100952a4eea5e50cb5ab344816f5a"
DETECTIONS = "c95be5514ece0a4068dad0783f3b2d8630c198c9a6d8329fdd3c35d27fee5472"
LABELED = "01b957ff5a694d07ad2b2f16b4f6232a82706f14cc952c14865a5aee7b11719c"
LABELED_META = "8288a78cb4fe3404da34079c8e59396dbb5330f30efdef6febfc6d4114da7eab"


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
