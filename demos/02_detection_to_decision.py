"""Follow one detection through the whole perception-to-decision pipeline.

Starts from an RGB bounding-box center with a noisy depth patch and runs it
as a one-row array through the same stages labeling runs: the pixel maps to
the depth image, the robust patch depth is taken, the pinhole model lifts it
to the camera frame and the rigid transform moves it into the arm frame
(``locate_detections``), then the nine features (``feature_rows``) and the
IK oracle's verdict and witness (``solve_ik``).  The brute-force grid
oracle gives its verdict too.
"""

import numpy as np

from reach_al.config import default_config
from reach_al.features import FEATURE_NAMES, feature_rows
from reach_al.kinematics import ArmPoint, BruteForceOracle, JointConfig, forward_kinematics, solve_ik
from reach_al.perception import Extrinsics, locate_detections

cfg = default_config()
rng = np.random.default_rng(5)

u, v = 1020.0, 505.0  # RGB bbox center, pixels
true_depth = 0.95
patch = true_depth + rng.normal(0, 0.004, size=(1, 25))
patch[rng.random((1, 25)) < 0.08] = 0.0  # sensor dropout

print(f"detection at RGB pixel ({u:.0f}, {v:.0f}), bbox 110x110")
pixel = np.array([u]), np.array([v])
_, depth, x, y, z = locate_detections(*pixel, patch, cfg.cam, cfg.ext)
print(f"robust patch depth: {depth[0]:.4f} m ({np.count_nonzero(patch)}/25 cells valid)")

# The identity transform leaves the point in the camera frame.
_, _, xc, yc, zc = locate_detections(*pixel, patch, cfg.cam, Extrinsics(np.eye(3), np.zeros(3)))
print(f"camera frame: ({xc[0]:+.3f}, {yc[0]:+.3f}, {zc[0]:+.3f}) m")
arm_pt = ArmPoint(x=float(x[0]), y=float(y[0]), z=float(z[0]))
print(f"arm frame:    ({arm_pt.x:+.3f}, {arm_pt.y:+.3f}, {arm_pt.z:+.3f}) m")

bbox = np.array([110.0])
dims = (cfg.cam.rgb_width, cfg.cam.rgb_height)
fv = feature_rows(x, y, z, patch, depth, bbox, bbox, dims, patch)[0]
print("features:")
for name, value in zip(FEATURE_NAMES, fv):
    print(f"  {name:8s} {value:+.4f}")

reachable, joints = solve_ik(x, y, z, cfg.arm)
print(f"analytic feasibility: {'reachable' if reachable[0] else 'unreachable'}")
if reachable[0]:
    witness = JointConfig(*joints[0].tolist())
    print(
        f"  witness: d1={witness.d1:+.3f} d2={witness.d2:+.3f} "
        f"theta1={witness.theta1:+.3f} theta2={witness.theta2:+.3f}"
    )
    fk = forward_kinematics(witness, cfg.arm)
    err = np.linalg.norm(fk.as_array() - arm_pt.as_array())
    print(f"  forward kinematics of witness lands {err:.2e} m from the target")

brute = BruteForceOracle(cfg.arm, steps_per_joint=25, tol=0.03).label_many(arm_pt.as_array()[None])
print(f"brute-force grid check: {'reachable' if brute[0] else 'unreachable'}")
