import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reach_al.kinematics import (
    ArmPoint,
    BruteForceOracle,
    JointConfig,
    ManipulatorParams,
    forward_kinematics,
    is_reachable,
    is_reachable_bruteforce,
    reachable_mask,
    sample_envelope,
)

PARAMS = ManipulatorParams()
# The default arm; a yaw range past pi, whose candidate yaws are shifted by
# 2*pi, with no carriage margin; a zero wrist offset with a narrow rail; and
# a margin equal to the level reach, L1 + Le, met exactly at theta2 = 0.
PARAM_SETS = (
    PARAMS,
    ManipulatorParams(theta1_range=(2.0, 4.5), collision_margin=0.0),
    ManipulatorParams(Le=0.0, d1_range=(-0.2, 0.3), theta1_range=(-math.pi, math.pi)),
    ManipulatorParams(collision_margin=0.7 + 0.25),
)


def special_joint_values(lo, hi):
    """The limits, the midpoint, and zero clamped into the range."""
    return [lo, hi, 0.5 * (lo + hi), min(max(0.0, lo), hi)]


def joint_values(lo, hi):
    return st.one_of(st.sampled_from(special_joint_values(lo, hi)), st.floats(lo, hi))


@st.composite
def targets(draw, params):
    """Tool points of in-limit poses, some nudged off by a few ulps or more,
    and arbitrary points around the envelope."""
    if draw(st.booleans()):
        return ArmPoint(*(draw(st.floats(-2.0, 2.0)) for _ in range(3)))
    q = JointConfig(
        d1=draw(joint_values(*params.d1_range)),
        d2=draw(joint_values(*params.d2_range)),
        theta1=draw(joint_values(*params.theta1_range)),
        theta2=draw(joint_values(*params.theta2_range)),
    )
    p = forward_kinematics(q, params).as_array()
    p[draw(st.integers(0, 2))] += draw(st.sampled_from([0.0, 1e-15, -1e-15, 1e-10, -1e-10, 0.01]))
    return ArmPoint(*p)


@st.composite
def params_and_targets(draw):
    params = draw(st.sampled_from(PARAM_SETS))
    return params, draw(st.lists(targets(params), min_size=1, max_size=20))


def envelope_box():
    """Axis-aligned (lo, hi) corners enclosing a coarse envelope sample."""
    pts = sample_envelope(PARAMS, steps_per_joint=15)
    return pts.min(axis=0), pts.max(axis=0)


def random_configs(rng, n, params=PARAMS):
    return [
        JointConfig(
            d1=rng.uniform(*params.d1_range),
            d2=rng.uniform(*params.d2_range),
            theta1=rng.uniform(*params.theta1_range),
            theta2=rng.uniform(*params.theta2_range),
            theta3=rng.uniform(-math.pi, math.pi),
        )
        for _ in range(n)
    ]


class TestForwardKinematics:
    def test_zero_config(self):
        p = forward_kinematics(JointConfig(0, 0, 0, 0, 0), PARAMS)
        np.testing.assert_allclose(p.as_array(), [0.95, 0.0, 0.5], atol=1e-12)

    def test_quarter_turn_yaw_swaps_radial_axis(self):
        p = forward_kinematics(JointConfig(0.1, 0.2, math.pi / 2, 0.0, 3.3), PARAMS)
        np.testing.assert_allclose(p.as_array(), [0.2, 1.05, 0.5], atol=1e-12)

    def test_max_pitch(self):
        p = forward_kinematics(JointConfig(0, 0, 0, math.radians(60), 0), PARAMS)
        expected = [0.25 + 0.7 * 0.5, 0.0, 0.5 + 0.7 * math.sin(math.radians(60))]
        np.testing.assert_allclose(p.as_array(), expected, atol=1e-12)
        np.testing.assert_allclose(p.as_array(), [0.60, 0.0, 1.1062], atol=1e-4)

    def test_theta3_never_moves_the_tool(self):
        rng = np.random.default_rng(7)
        for q in random_configs(rng, 2000):
            p0 = forward_kinematics(q, PARAMS)
            p1 = forward_kinematics(
                JointConfig(q.d1, q.d2, q.theta1, q.theta2, q.theta3 + rng.uniform(-9, 9)),
                PARAMS,
            )
            assert p0 == p1

    def test_yaw_equivariance(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            t1 = rng.uniform(-1.0, 1.0)
            delta = rng.uniform(-0.39, 0.39)
            t2 = rng.uniform(*PARAMS.theta2_range)
            p0 = forward_kinematics(JointConfig(0, 0, t1, t2), PARAMS)
            p1 = forward_kinematics(JointConfig(0, 0, t1 + delta, t2), PARAMS)
            c, s = math.cos(delta), math.sin(delta)
            rotated = (c * p0.x - s * p0.y, s * p0.x + c * p0.y)
            np.testing.assert_allclose((p1.x, p1.y), rotated, atol=1e-9)
            assert p1.z == p0.z

    def test_prismatic_linearity(self):
        rng = np.random.default_rng(9)
        for q in random_configs(rng, 2000):
            a = rng.uniform(-0.3, 0.3)
            b = rng.uniform(-0.3, 0.3)
            p0 = forward_kinematics(q, PARAMS)
            p1 = forward_kinematics(
                JointConfig(q.d1 + a, q.d2 + b, q.theta1, q.theta2, q.theta3), PARAMS
            )
            np.testing.assert_allclose(
                p1.as_array(), p0.as_array() + np.array([b, a, 0.0]), atol=1e-9
            )


class TestIsReachable:
    def test_fk_image_of_zero_config(self):
        ok, witness = is_reachable(ArmPoint(0.95, 0.0, 0.5), PARAMS)
        assert ok
        assert witness == JointConfig(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_carriage_column_excluded(self):
        ok, witness = is_reachable(ArmPoint(0.0, 0.0, 0.5), PARAMS)
        assert not ok and witness is None

    def test_height_beyond_link(self):
        ok, _ = is_reachable(ArmPoint(0.6, 0.3, 2.0), PARAMS)
        assert not ok

    def test_witness_soundness(self):
        rng = np.random.default_rng(10)
        lo, hi = envelope_box()
        checked = 0
        for _ in range(12000):
            p = ArmPoint(*rng.uniform(lo, hi))
            ok, witness = is_reachable(p, PARAMS)
            if not ok:
                continue
            checked += 1
            assert witness.within_limits(PARAMS)
            fk = forward_kinematics(witness, PARAMS)
            assert (
                np.linalg.norm(fk.as_array() - p.as_array()) <= 1e-9
            ), f"witness off target for {p}"
        assert checked > 4000

    def test_monotone_in_joint_ranges(self):
        rng = np.random.default_rng(11)
        lo, hi = envelope_box()
        for _ in range(300):
            p = ArmPoint(*rng.uniform(lo, hi))
            ok, _ = is_reachable(p, PARAMS)
            if not ok:
                continue
            wider = ManipulatorParams(
                d1_range=(PARAMS.d1_range[0] - rng.uniform(0, 0.2), PARAMS.d1_range[1] + rng.uniform(0, 0.2)),
                d2_range=(PARAMS.d2_range[0] - rng.uniform(0, 0.2), PARAMS.d2_range[1] + rng.uniform(0, 0.2)),
                theta1_range=(PARAMS.theta1_range[0] - rng.uniform(0, 0.3), PARAMS.theta1_range[1] + rng.uniform(0, 0.3)),
                theta2_range=(PARAMS.theta2_range[0] - rng.uniform(0, 0.1), PARAMS.theta2_range[1] + rng.uniform(0, 0.1)),
            )
            assert is_reachable(p, wider)[0]

    def test_validation_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ManipulatorParams(L1=-1.0)
        with pytest.raises(ValueError):
            ManipulatorParams(d1_range=(0.5, -0.5))
        with pytest.raises(ValueError):
            ManipulatorParams(theta2_range=(-2.0, 0.5))


class TestReferenceProperties:
    @given(case=params_and_targets())
    def test_witness_reproduces_every_accepted_target(self, case):
        params, points = case
        for p in points:
            ok, witness = is_reachable(p, params)
            if ok:
                assert witness.within_limits(params)
                fk = forward_kinematics(witness, params)
                assert np.linalg.norm(fk.as_array() - p.as_array()) <= 1e-9

    @given(case=params_and_targets())
    def test_reachable_mask_equals_scalar_decision(self, case):
        params, points = case
        xyz = np.array([p.as_array() for p in points])
        mask = reachable_mask(xyz[:, 0], xyz[:, 1], xyz[:, 2], params)
        assert mask.tolist() == [is_reachable(p, params)[0] for p in points]

    def test_reachable_mask_on_travel_bounds_and_joint_limits(self):
        """Poses on a grid that includes every joint limit and zero, and
        their tool points moved 1e-7 m along each axis."""
        steps = np.array([[0, 0, 0]] + [list(v) for v in 1e-7 * np.vstack([np.eye(3), -np.eye(3)])])
        for params in PARAM_SETS:
            axes = [
                np.union1d(np.linspace(lo, hi, 5), special_joint_values(lo, hi))
                for lo, hi in (params.d1_range, params.d2_range, params.theta1_range, params.theta2_range)
            ]
            poses = np.array(np.meshgrid(*axes)).reshape(4, -1).T
            tips = np.array([forward_kinematics(JointConfig(*q), params).as_array() for q in poses])
            xyz = (tips[:, None, :] + steps).reshape(-1, 3)
            mask = reachable_mask(xyz[:, 0], xyz[:, 1], xyz[:, 2], params)
            assert mask.tolist() == [is_reachable(ArmPoint(*p), params)[0] for p in xyz]
            assert mask.any() and not mask.all()

    def test_reachable_mask_of_no_points(self):
        assert reachable_mask(np.zeros(0), np.zeros(0), np.zeros(0), PARAMS).shape == (0,)


class TestBruteForceOracle:
    def test_on_grid_point_reachable(self):
        q = JointConfig(
            d1=0.5 * sum(PARAMS.d1_range),
            d2=0.5 * sum(PARAMS.d2_range),
            theta1=0.5 * sum(PARAMS.theta1_range),
            theta2=0.5 * sum(PARAMS.theta2_range),
        )
        p = forward_kinematics(q, PARAMS)
        assert is_reachable_bruteforce(p, PARAMS, steps_per_joint=15, tol=0.05)

    def test_far_point_unreachable(self):
        assert not is_reachable_bruteforce(ArmPoint(10, 10, 10), PARAMS, 15, 0.05)

    def test_agreement_with_analytic_outside_boundary_band(self):
        oracle = BruteForceOracle(PARAMS, steps_per_joint=25, tol=0.035)
        lo, hi = envelope_box()
        rng = np.random.default_rng(12)
        pts = rng.uniform(lo, hi, size=(1500, 3))
        analytic = np.array([int(is_reachable(ArmPoint(*p), PARAMS)[0]) for p in pts])
        brute = oracle.label_many(pts)
        band = oracle.workspace_step()
        disagreements = np.nonzero(analytic != brute)[0]
        uncertified = 0
        for i in disagreements:
            p = pts[i]
            # near-boundary certificate: the analytic decision flips within
            # one grid step of the point
            probes = p + band * _probe_dirs()
            flips = any(
                (1 if is_reachable(ArmPoint(*pp), PARAMS)[0] else 0) != analytic[i]
                for pp in probes
            )
            if not flips:
                uncertified += 1
        assert uncertified / len(pts) <= 0.005


def _probe_dirs():
    dirs = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                v = np.array([dx, dy, dz], dtype=float)
                dirs.append(v / np.linalg.norm(v))
    return np.array(dirs)


class TestSampleEnvelope:
    def test_two_steps_gives_corner_images(self):
        pts = sample_envelope(PARAMS, steps_per_joint=2)
        corners = set()
        for d1 in PARAMS.d1_range:
            for d2 in PARAMS.d2_range:
                for t1 in PARAMS.theta1_range:
                    for t2 in PARAMS.theta2_range:
                        p = forward_kinematics(JointConfig(d1, d2, t1, t2), PARAMS)
                        corners.add(tuple(np.round(p.as_array(), 9)))
        assert len(pts) <= 16
        sampled = {tuple(np.round(p, 9)) for p in pts}
        assert sampled <= corners

    def test_z_extent_follows_pitch_limits(self):
        pts = sample_envelope(PARAMS, steps_per_joint=9)
        z_lo = PARAMS.h0 + PARAMS.L1 * math.sin(PARAMS.theta2_range[0])
        z_hi = PARAMS.h0 + PARAMS.L1 * math.sin(PARAMS.theta2_range[1])
        assert pts[:, 2].min() >= z_lo - 1e-9
        assert pts[:, 2].max() <= z_hi + 1e-9

    def test_points_pass_bruteforce_at_voxel_diagonal(self):
        pts = sample_envelope(PARAMS, steps_per_joint=8)
        oracle = BruteForceOracle(PARAMS, steps_per_joint=8, tol=0.01 * math.sqrt(3))
        assert oracle.label_many(pts).all()

    def test_voxel_dedup(self):
        pts = sample_envelope(PARAMS, steps_per_joint=10)
        keys = np.round(pts / 0.01).astype(np.int64)
        assert len(np.unique(keys, axis=0)) == len(pts)
