"""Peak memory of writing a 3,200-image scene (about 25.3k detections), each
measured in a fresh interpreter after a 20-image warm-up: what the second
write adds to the peak RSS.  The peak is VmHWM, that of the process's own
memory; ru_maxrss keeps the peak of the process that started it, here the
test run's, across exec."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PEAK = textwrap.dedent(
    """
    import sys, tempfile
    from dataclasses import replace
    from reach_al.cli import main
    from reach_al.config import default_config
    from reach_al.dataset import generate_scene, write_detections

    def peak():
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) * 1024

    def set_up(out, n_images):
        cfg = default_config()
        det = generate_scene(replace(cfg.scene, n_images=n_images), cfg.cam)
        write_detections(f"{out}/detections.csv", det)
        return len(det)

    def gen_scene(out, n_images):
        with open(f"{out}/scene.cfg", "w") as fh:
            fh.write(f"scene.n_images = {n_images}\\n")
        assert main(["gen-scene", "--config", f"{out}/scene.cfg", "--out", out]) == 0
        with open(f"{out}/detections.csv") as fh:
            return sum(1 for _ in fh) - 1

    write = {"set_up": set_up, "gen_scene": gen_scene}[sys.argv[1]]
    with tempfile.TemporaryDirectory() as out:
        write(out, 20)
        before = peak()
        n = write(out, 3200)
        print(peak() - before, n)
    """
)


def added_peak(what: str) -> tuple[int, int]:
    """The bytes that writing the 3,200-image scene by ``what`` adds to the
    peak RSS, and its detection count."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK, what],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    added, n = map(int, proc.stdout.split()[-2:])
    assert n > 25_000
    return added, n


needs_vmhwm = pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from Linux's /proc")


@needs_vmhwm
def test_generated_scene_holds_each_depth_cell_once():
    # generate_scene + write_detections, perfbench's label-scene set-up: the
    # 968 B of windows a row, plus less than a copy of its 200 B of patches.
    # With Python 3.11 and numpy 2.4.6, a scene that also held its patches
    # added 32.5 MB (1,282 B a row); one that reads them from its windows,
    # 27.5 MB (1,088 B a row).
    added, n = added_peak("set_up")
    assert added < n * 8 * (11 * 11 + 5 * 5)


@needs_vmhwm
def test_gen_scene_streams_its_blocks():
    # gen-scene holds one block at a time, never the scene's windows.  Writing
    # the whole generate_scene added 32.4 MB; the streamed write, 1.4 MB.
    added, n = added_peak("gen_scene")
    assert added < n * 8 * 11 * 11 / 4
