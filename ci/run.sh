#!/usr/bin/env bash
# Every CI check, in order; the first that fails stops the run.
#
#   1. the tier-1 test suite, listing its ten slowest tests;
#   2. the forest, fingerprint and demo tests again on one BLAS thread
#      (forest predict goes through BLAS, and no output may depend on its
#      thread count);
#   3. the benchmark smoke test;
#   4. the pinned sha256 of the default sweep's results.csv and summary.csv,
#      at one and at two workers;
#   5. the pinned sha256 of the default detections.csv, labeled.csv and
#      labeled.csv.meta, of the copy of the detection file that
#      ingest_detections and write_detections make, and of the copy of the
#      cache that read_labeled_cache and write_labeled_cache make; of the
#      detections.csv of a scene that takes the generator's other branches
#      (no dropout, every apple in a cluster, depth noise that the clip cuts);
#      and of the detections.csv, labeled.csv and labeled.csv.meta of a scene
#      at 95% depth dropout, where labeling drops 1,806 of 6,403 detections.
#
# It first prints the line count of the package source (src/reach_al/*.py).
#
# The hashes were measured with numpy 2.4.6, scipy 1.17.1, hypothesis
# 6.155.2 and pytest 9.0.3 on Python 3.11.  Run from any directory:
#
#   bash ci/run.sh
set -euo pipefail
cd "$(dirname "$0")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
src=src${PYTHONPATH:+:$PYTHONPATH}

echo "== src/reach_al line count: $(cat src/reach_al/*.py | wc -l)"

echo "== tier-1 tests"
PYTHONPATH=$src python -m pytest -q --continue-on-collection-errors --durations=10

echo "== forest, fingerprint and demo tests on one BLAS thread"
OPENBLAS_NUM_THREADS=1 PYTHONPATH=$src python -m pytest -q \
  tests/test_forest.py tests/test_fingerprint.py tests/test_demos.py

echo "== benchmark smoke test"
python3 perfbench/smoke.py

echo "== default sweep fingerprint at one and at two workers"
for jobs in 1 2; do
  PYTHONPATH=src python -m reach_al.cli sweep --jobs $jobs --out "$out/fp$jobs"
  sha256sum -c - <<SUMS
d043f998c182d4350c40731c25518dedbb1f3c803556117201555e71782a8d1f  $out/fp$jobs/results.csv
feeaeef3fb0f56d05661c3ce4ea2a615a6b32109e57bd2fc80fd9ef32282403e  $out/fp$jobs/summary.csv
SUMS
done

echo "== default detection file and labeled cache"
PYTHONPATH=src python -m reach_al.cli gen-scene --out "$out/scene"
PYTHONPATH=src python -m reach_al.cli label --detections "$out/scene/detections.csv" --out "$out/scene"
PYTHONPATH=src python -c '
import sys
from reach_al.config import default_config
from reach_al.dataset import ingest_detections, read_labeled_cache, write_detections, write_labeled_cache
write_detections(sys.argv[2], ingest_detections(sys.argv[1], default_config().cam))
write_labeled_cache(sys.argv[4], read_labeled_cache(sys.argv[3]))
' "$out/scene/detections.csv" "$out/scene/detections-copy.csv" "$out/scene/labeled.csv" "$out/scene/copy.csv"
sha256sum -c - <<SUMS
23c5f796d1eed3fb06683be4af65697e4b39f51e5b62ee3398f33594144e6474  $out/scene/detections.csv
23c5f796d1eed3fb06683be4af65697e4b39f51e5b62ee3398f33594144e6474  $out/scene/detections-copy.csv
c5d4bd71ff8540fa3ac9a355690cf4b077804fd53af956505fd8ad08c50f7da9  $out/scene/labeled.csv
f0db555bf533cbdd5773b2e85607f9c1e69d2f989c786eb76ecac6e012029de8  $out/scene/labeled.csv.meta
c5d4bd71ff8540fa3ac9a355690cf4b077804fd53af956505fd8ad08c50f7da9  $out/scene/copy.csv
f0db555bf533cbdd5773b2e85607f9c1e69d2f989c786eb76ecac6e012029de8  $out/scene/copy.csv.meta
SUMS
printf '%s\n' "scene.seed = 7" "scene.dropout_prob = 0" "scene.cluster_prob = 1" \
  "scene.depth_noise_std = 0.3" > "$out/branches.cfg"
PYTHONPATH=src python -m reach_al.cli gen-scene --config "$out/branches.cfg" --out "$out/branches"
sha256sum -c - <<SUMS
767530ee0a7b6a8f66a30f217c5776e4c8a877ba0511b2fc4ddb5c2658b20241  $out/branches/detections.csv
SUMS
printf '%s\n' "scene.seed = 7" "scene.dropout_prob = 0.95" > "$out/dropout.cfg"
PYTHONPATH=src python -m reach_al.cli gen-scene --config "$out/dropout.cfg" --out "$out/dropout"
PYTHONPATH=src python -m reach_al.cli label --config "$out/dropout.cfg" \
  --detections "$out/dropout/detections.csv" --out "$out/dropout"
sha256sum -c - <<SUMS
0a15a1b4298f780464bcc780c1bdd6c19bcc5123ff4922a5b7ef3d489f95d7de  $out/dropout/detections.csv
0e26ff782f214d4b290ba5d0d74efe7d242368a605857e132c42c77b2e4a967d  $out/dropout/labeled.csv
83d8d2fc52f33bffd12085f4aaf5ebfcce863962323087445f3b10c502122de2  $out/dropout/labeled.csv.meta
SUMS
echo "== all CI checks passed"
