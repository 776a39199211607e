#!/usr/bin/env bash
# Every CI check, in order; the first that fails stops the run.
#
#   1. the tier-1 test suite, listing its ten slowest tests;
#   2. the forest, fingerprint and demo tests again on one BLAS thread
#      (forest predict calls no matrix product, and the step guards that
#      no output comes to depend on BLAS's thread count);
#   3. the benchmark smoke test;
#   4. the pinned sha256 of the default sweep's results.csv and summary.csv,
#      at one and at two workers;
#   5. the pinned sha256 of the default detections.csv, labeled.csv and
#      labeled.csv.meta, of the copy of the detection file that
#      ingest_detections and write_detections make, of the copy of the
#      cache that read_labeled_cache and write_labeled_cache make, of the
#      detections.csv, labeled.csv and labeled.csv.meta that gen-scene and
#      label write under the C locale (PYTHONUTF8=0 PYTHONCOERCECLOCALE=0
#      LC_ALL=C; every file is UTF-8 whatever the locale), and of
#      the cache labeled from that detection file read through a pipe (no
#      file size to start the reader's map from, and no source to copy
#      cells from, so each row is written from its floats); of the
#      detections.csv of a scene that takes the generator's other branches
#      (no dropout, every apple in a cluster, depth noise that the clip cuts);
#      and of the detections.csv, labeled.csv and labeled.csv.meta of a scene
#      at 95% depth dropout, where labeling drops 1,806 of 6,403 detections;
#   6. the pinned sha256 of the results.csv and summary.csv of a one-seed
#      sweep at two workers on that 95%-dropout scene, whose benchmark is
#      labeled in 512-row blocks that each lose rows;
#   7. the pinned sha256 of the detections.csv, labeled.csv and
#      labeled.csv.meta of a 3,200-image scene (25,318 detections), the
#      size of perfbench's label-scene input, which gen-scene writes one
#      512-row block at a time (dataset.write_scene, which first reserves,
#      and never writes, the window map generate_scene would fill);
#   8. the pinned sha256 of the detection file that generate_scene and
#      write_detections make (perfbench's label-scene set-up), at the default
#      size and at 3,200 images: the same files as gen-scene's.
#
# It first prints the line count of each module of the package source
# (src/reach_al/*.py) and their total.
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

echo "== src/reach_al line counts"
wc -l src/reach_al/*.py

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
c_locale=(env PYTHONUTF8=0 PYTHONCOERCECLOCALE=0 LC_ALL=C PYTHONPATH=src)
"${c_locale[@]}" python -m reach_al.cli gen-scene --out "$out/c-locale"
"${c_locale[@]}" python -m reach_al.cli label --detections "$out/c-locale/detections.csv" --out "$out/c-locale"
sha256sum -c - <<SUMS
23c5f796d1eed3fb06683be4af65697e4b39f51e5b62ee3398f33594144e6474  $out/c-locale/detections.csv
c5d4bd71ff8540fa3ac9a355690cf4b077804fd53af956505fd8ad08c50f7da9  $out/c-locale/labeled.csv
f0db555bf533cbdd5773b2e85607f9c1e69d2f989c786eb76ecac6e012029de8  $out/c-locale/labeled.csv.meta
SUMS
cat "$out/scene/detections.csv" | PYTHONPATH=src python -m reach_al.cli label --detections /dev/stdin --out "$out/pipe"
sha256sum -c - <<SUMS
c5d4bd71ff8540fa3ac9a355690cf4b077804fd53af956505fd8ad08c50f7da9  $out/pipe/labeled.csv
f0db555bf533cbdd5773b2e85607f9c1e69d2f989c786eb76ecac6e012029de8  $out/pipe/labeled.csv.meta
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

echo "== sweep on the 95%-dropout scene at two workers"
printf '%s\n' "grid.seeds = 0" "data.pool_size = 3000" | cat "$out/dropout.cfg" - > "$out/dropout-sweep.cfg"
PYTHONPATH=src python -m reach_al.cli sweep --config "$out/dropout-sweep.cfg" --jobs 2 --out "$out/dropout-sweep"
sha256sum -c - <<SUMS
25d98b94a838047d260012e4daa69207504caf0d229b9193608c9db02bbb2d1e  $out/dropout-sweep/results.csv
083f8104efa785acf3951d01a852c60ed5f790f4c98092f0ebf1ea99b1e150bc  $out/dropout-sweep/summary.csv
SUMS
echo "== 3,200-image detection file and labeled cache"
printf '%s\n' "scene.n_images = 3200" > "$out/large.cfg"
PYTHONPATH=src python -m reach_al.cli gen-scene --config "$out/large.cfg" --out "$out/large"
PYTHONPATH=src python -m reach_al.cli label --config "$out/large.cfg" \
  --detections "$out/large/detections.csv" --out "$out/large"
sha256sum -c - <<SUMS
a5cdf4afe092026feb726aa3c45b7d4a6b0b89ad05a6afef201f5f4a69f20596  $out/large/detections.csv
4b4b64399c3e66032b4f35b85bae93d320f2186a013a79a2811577315626917c  $out/large/labeled.csv
b94f9debaa2641c4f957c91c17b149a868271db6e7a1ff6b4aa521481bd30749  $out/large/labeled.csv.meta
SUMS
echo "== generate_scene and write_detections at the default size and at 3,200 images"
PYTHONPATH=src python -c '
import sys
from dataclasses import replace
from reach_al.config import default_config
from reach_al.dataset import generate_scene, write_detections
cfg = default_config()
for path, n_images in zip(sys.argv[1:], (cfg.scene.n_images, 3200)):
    write_detections(path, generate_scene(replace(cfg.scene, n_images=n_images), cfg.cam))
' "$out/scene/generated.csv" "$out/large/generated.csv"
sha256sum -c - <<SUMS
23c5f796d1eed3fb06683be4af65697e4b39f51e5b62ee3398f33594144e6474  $out/scene/generated.csv
a5cdf4afe092026feb726aa3c45b7d4a6b0b89ad05a6afef201f5f4a69f20596  $out/large/generated.csv
SUMS
echo "== all CI checks passed"
