"""Follow one detection through the whole perception-to-decision pipeline.

Starts from an RGB bounding-box center with a noisy depth patch, maps it to
the depth image, takes the robust patch depth, back-projects through the
pinhole model, transforms into the arm frame, extracts the nine features,
and asks both reachability oracles for a verdict.
"""

import numpy as np

from reach_al.config import default_config
from reach_al.features import FEATURE_NAMES, extract_features
from reach_al.kinematics import BruteForceOracle, forward_kinematics, is_reachable
from reach_al.perception import (
    DepthPatch,
    back_project,
    camera_to_arm,
    map_rgb_to_depth_pixel,
    robust_depth,
)

cfg = default_config()
rng = np.random.default_rng(5)

u, v = 1020.0, 505.0  # RGB bbox center, pixels
true_depth = 0.95
patch_vals = true_depth + rng.normal(0, 0.004, size=25)
patch_vals[rng.random(25) < 0.08] = 0.0  # sensor dropout
patch = DepthPatch(patch_vals)

print(f"detection at RGB pixel ({u:.0f}, {v:.0f}), bbox 110x110")
ud, vd = map_rgb_to_depth_pixel(u, v, cfg.cam)
print(f"depth-image pixel: ({ud}, {vd})")

Z = robust_depth(patch)
print(f"robust patch depth: {Z:.4f} m ({int(patch.valid_mask.sum())}/25 cells valid)")

cam_pt = back_project(ud, vd, Z, cfg.cam)
print(f"camera frame: ({cam_pt.Xc:+.3f}, {cam_pt.Yc:+.3f}, {cam_pt.Zc:+.3f}) m")

arm_pt = camera_to_arm(cam_pt, cfg.ext)
print(f"arm frame:    ({arm_pt.x:+.3f}, {arm_pt.y:+.3f}, {arm_pt.z:+.3f}) m")

fv = extract_features(arm_pt, patch, Z, 110, 110, (cfg.cam.rgb_width, cfg.cam.rgb_height))
print("features:")
for name, value in zip(FEATURE_NAMES, fv):
    print(f"  {name:8s} {value:+.4f}")

reachable, witness = is_reachable(arm_pt, cfg.arm)
print(f"analytic feasibility: {'reachable' if reachable else 'unreachable'}")
if witness is not None:
    print(
        f"  witness: d1={witness.d1:+.3f} d2={witness.d2:+.3f} "
        f"theta1={witness.theta1:+.3f} theta2={witness.theta2:+.3f}"
    )
    fk = forward_kinematics(witness, cfg.arm)
    err = np.linalg.norm(fk.as_array() - arm_pt.as_array())
    print(f"  forward kinematics of witness lands {err:.2e} m from the target")

brute = BruteForceOracle(cfg.arm, steps_per_joint=25, tol=0.03).is_reachable(arm_pt)
print(f"brute-force grid check: {'reachable' if brute else 'unreachable'}")
