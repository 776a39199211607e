"""Sample the arm's reachable envelope and render the three standard views.

Walks the joint grid of the default 5-DOF arm, deduplicates the forward
kinematics image onto a 1 cm voxel grid, writes the point cloud as plain
``x y z`` text, and draws top/side/front SVG projections with a batch of
labeled synthetic fruit overlaid.
"""

import os

from reach_al.config import default_config
from reach_al.dataset import SceneConfig, generate_scene, label_with_oracle
from reach_al.kinematics import sample_envelope, write_envelope
from reach_al.report import emit_envelope_plots

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

cfg = default_config()

print("sampling the reachable envelope on a 25-step joint grid ...")
pts = sample_envelope(cfg.arm, steps_per_joint=25)
print(f"  {len(pts)} points after 1 cm voxel dedup")
print(f"  x span [{pts[:,0].min():.2f}, {pts[:,0].max():.2f}] m")
print(f"  y span [{pts[:,1].min():.2f}, {pts[:,1].max():.2f}] m")
print(f"  z span [{pts[:,2].min():.2f}, {pts[:,2].max():.2f}] m")

xyz_path = os.path.join(OUT, "envelope.xyz")
write_envelope(xyz_path, pts)
print(f"wrote {xyz_path}")

print("labeling a small synthetic scene for the fruit overlay ...")
detections = generate_scene(SceneConfig(n_images=60, seed=1), cfg.cam)
result = label_with_oracle(detections, cfg.cam, cfg.ext, cfg.arm)
fruit = result.samples.X[:, :3]
labels = result.samples.y
print(f"  {len(fruit)} fruit points, {labels.mean():.0%} reachable")

for path in emit_envelope_plots(pts, OUT, fruit, labels):
    print(f"wrote {path}")
