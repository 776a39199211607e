"""Every demo script runs to completion (exit 0) from a fresh interpreter,
and the demos whose output holds no machine-specific text print exactly
what they printed when their sha256 below was taken."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

# sha256 of each demo's stdout.  Demos 01 and 05 print the paths they
# write to, so they are not pinned.
STDOUT_SHA256 = {
    "02_detection_to_decision.py": "308c2985247cd68c91375476d7bc85de862d4a74d54a14b7f6617e89679831fb",
    "03_forest_classifier.py": "fcfb7d4dcbdeecfea49aa1711d11476d57a0d0fd4dde94990ef2d684eb8a1c6f",
    "04_query_strategies.py": "8ffaa5bb68a699ba7f04adfca1982a707cd30ce96045294fb1c7e2df6e862fd3",
}


def test_demos_found():
    assert len(DEMOS) == 5
    assert set(STDOUT_SHA256) <= {d.name for d in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:].decode(errors="replace")
    if demo.name in STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name], proc.stdout.decode()
