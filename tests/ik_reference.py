"""Scalar reference for ``kinematics.solve_ik``: the same candidate-yaw
search, one point at a time in Python floats and ``math``.

``reference_ik`` loops over one point's candidate yaws and keeps the
inside candidate with the smallest ``(|theta1|, d1, d2, theta1)`` key as
its witness.  ``tests/test_kinematics.py`` requires ``solve_ik``'s masks
and witnesses to equal it byte for byte, and the per-record labeling
reference in ``tests/test_labeling.py`` labels through it, so both are
checked against code the package does not share.
"""

import math
from typing import Optional

from reach_al.kinematics import ArmPoint, JointConfig, ManipulatorParams

TWO_PI = 2.0 * math.pi

# Slack when testing carriage positions against travel bounds.  Candidate
# yaw angles are roots of the boundary equations, so the carriage they
# imply sits on a bound up to floating-point noise.
RECT_SLACK = 1e-12


def candidate_yaws(x: float, y: float, rho: float, params: ManipulatorParams) -> list[float]:
    """Yaw angles where the carriage implied by the target can change
    feasibility: range endpoints, travel-bound crossings, and zero."""
    t_lo, t_hi = params.theta1_range
    cands: list[float] = [t_lo, t_hi]

    def add(base: float) -> None:
        for k in (-1, 0, 1):
            t = base + k * TWO_PI
            if t_lo - 1e-12 <= t <= t_hi + 1e-12:
                cands.append(min(max(t, t_lo), t_hi))

    add(0.0)
    if rho > 0.0:
        for d2_bound in params.d2_range:
            c = (x - d2_bound) / rho
            if abs(c) <= 1.0 + 1e-9:
                a = math.acos(min(1.0, max(-1.0, c)))
                add(a)
                add(-a)
        for d1_bound in params.d1_range:
            s = (y - d1_bound) / rho
            if abs(s) <= 1.0 + 1e-9:
                a = math.asin(min(1.0, max(-1.0, s)))
                add(a)
                b = math.pi - a
                if b > math.pi:
                    b -= TWO_PI
                add(b)
    return cands


def reference_ik(p: ArmPoint, params: ManipulatorParams) -> tuple[bool, Optional[JointConfig]]:
    """Decide whether any in-limit configuration places the tool at ``p``.

    Returns ``(True, witness)`` or ``(False, None)``.  The height fixes the
    shoulder pitch via ``theta2 = asin((z - h0) / L1)``, which in turn fixes
    the horizontal reach ``rho``.  Feasibility then reduces to whether the
    carriage circle of radius ``rho`` around the target meets the prismatic
    travel rectangle at an admissible bearing.  The witness minimizes
    ``|theta1|``; ties prefer smaller ``d1``, then smaller ``d2``.
    """
    s = (p.z - params.h0) / params.L1
    if abs(s) > 1.0:
        return False, None
    theta2 = math.asin(s)
    t2_lo, t2_hi = params.theta2_range
    if not t2_lo <= theta2 <= t2_hi:
        return False, None
    rho = params.L1 * math.cos(theta2) + params.Le
    if rho < params.collision_margin:
        return False, None

    d1_lo, d1_hi = params.d1_range
    d2_lo, d2_hi = params.d2_range

    if rho == 0.0:
        # Degenerate reach: the tool sits on the carriage column itself.
        if d2_lo <= p.x <= d2_hi and d1_lo <= p.y <= d1_hi:
            t1 = min(max(0.0, params.theta1_range[0]), params.theta1_range[1])
            return True, JointConfig(d1=p.y, d2=p.x, theta1=t1, theta2=theta2)
        return False, None

    best_key = None
    best = None
    for t1 in candidate_yaws(p.x, p.y, rho, params):
        d2 = p.x - rho * math.cos(t1)
        d1 = p.y - rho * math.sin(t1)
        if (
            d2_lo - RECT_SLACK <= d2 <= d2_hi + RECT_SLACK
            and d1_lo - RECT_SLACK <= d1 <= d1_hi + RECT_SLACK
        ):
            key = (abs(t1), d1, d2, t1)
            if best_key is None or key < best_key:
                best_key = key
                best = (t1, d1, d2)
    if best is None:
        return False, None

    t1, d1, d2 = best
    witness = JointConfig(
        d1=min(max(d1, d1_lo), d1_hi),
        d2=min(max(d2, d2_lo), d2_hi),
        theta1=t1,
        theta2=min(max(theta2, t2_lo), t2_hi),
        theta3=0.0,
    )
    return True, witness
