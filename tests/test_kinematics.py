import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from ik_reference import reference_ik

from reach_al.config import default_config
from reach_al.errors import IngestionError, ReachALError
from reach_al.kinematics import (
    ArmPoint,
    BruteForceOracle,
    JointConfig,
    ManipulatorParams,
    forward_kinematics,
    is_reachable,
    read_envelope,
    sample_envelope,
    solve_ik,
    write_envelope,
)
from reach_al.report import ExperimentGrid, build_benchmark

PARAMS = ManipulatorParams()


def within_limits(q: JointConfig, params: ManipulatorParams) -> bool:
    return (
        params.d1_range[0] <= q.d1 <= params.d1_range[1]
        and params.d2_range[0] <= q.d2 <= params.d2_range[1]
        and params.theta1_range[0] <= q.theta1 <= params.theta1_range[1]
        and params.theta2_range[0] <= q.theta2 <= params.theta2_range[1]
    )


def solve_points(points, params=PARAMS):
    """``solve_ik`` of an (n, 3) array of points."""
    xyz = np.asarray(points, dtype=float).reshape(-1, 3)
    return solve_ik(xyz[:, 0], xyz[:, 1], xyz[:, 2], params)


def assert_witnesses_reach(points, params):
    """Every point ``solve_ik`` accepts has an in-limit witness whose tool
    point lies within 1e-9 m of it; returns how many were accepted."""
    mask, joints = solve_points(points, params)
    for p, q in zip(np.asarray(points)[mask], joints[mask]):
        witness = JointConfig(*q.tolist())
        assert within_limits(witness, params)
        fk = forward_kinematics(witness, params)
        assert np.linalg.norm(fk.as_array() - p) <= 1e-9, f"witness off target for {p}"
    return int(mask.sum())


def assert_equals_reference(points, params):
    """``solve_ik``'s mask and witnesses equal ``reference_ik``'s byte for
    byte, NaN rows where the reference rejects; returns the mask."""
    mask, joints = solve_points(points, params)
    expected = np.full((len(mask), 4), np.nan)
    for i, p in enumerate(points):
        ok, witness = reference_ik(ArmPoint(*p), params)
        if ok:
            expected[i] = witness.d1, witness.d2, witness.theta1, witness.theta2
    assert mask.tolist() == (~np.isnan(expected[:, 0])).tolist()
    assert joints.tobytes() == expected.tobytes()
    return mask


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


def workspace_step(oracle):
    """Largest workspace displacement a single joint grid step can cause."""
    p = oracle.params
    n = oracle.steps_per_joint - 1
    rho_max = p.L1 + p.Le
    return max(
        (p.d1_range[1] - p.d1_range[0]) / n,
        (p.d2_range[1] - p.d2_range[0]) / n,
        rho_max * (p.theta1_range[1] - p.theta1_range[0]) / n,
        p.L1 * (p.theta2_range[1] - p.theta2_range[0]) / n,
    )


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
        mask, joints = solve_points([0.95, 0.0, 0.5])
        assert mask.tolist() == [True]
        assert joints[0].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_carriage_column_excluded(self):
        mask, joints = solve_points([0.0, 0.0, 0.5])
        assert mask.tolist() == [False] and np.isnan(joints).all()

    def test_height_beyond_link(self):
        assert solve_points([0.6, 0.3, 2.0])[0].tolist() == [False]

    def test_is_reachable_is_row_zero_of_solve_ik(self):
        outcomes = set()
        for params in PARAM_SETS:
            for t1 in params.theta1_range:
                tip = forward_kinematics(JointConfig(0.1, 0.2, t1, 0.3), params)
                for p in (tip, ArmPoint(0.0, 0.0, 0.5)):
                    mask, joints = solve_points(p.as_array(), params)
                    expected = (True, JointConfig(*joints[0].tolist())) if mask[0] else (False, None)
                    assert is_reachable(p, params) == expected
                    outcomes.add(bool(mask[0]))
        assert outcomes == {True, False}

    def test_witness_soundness(self):
        rng = np.random.default_rng(10)
        lo, hi = envelope_box()
        assert assert_witnesses_reach(rng.uniform(lo, hi, size=(12000, 3)), PARAMS) > 4000

    def test_monotone_in_joint_ranges(self):
        rng = np.random.default_rng(11)
        lo, hi = envelope_box()
        points = rng.uniform(lo, hi, size=(300, 3))
        reachable = points[solve_points(points)[0]]
        assert len(reachable) > 0
        for _ in range(300):
            wider = ManipulatorParams(
                d1_range=(PARAMS.d1_range[0] - rng.uniform(0, 0.2), PARAMS.d1_range[1] + rng.uniform(0, 0.2)),
                d2_range=(PARAMS.d2_range[0] - rng.uniform(0, 0.2), PARAMS.d2_range[1] + rng.uniform(0, 0.2)),
                theta1_range=(PARAMS.theta1_range[0] - rng.uniform(0, 0.3), PARAMS.theta1_range[1] + rng.uniform(0, 0.3)),
                theta2_range=(PARAMS.theta2_range[0] - rng.uniform(0, 0.1), PARAMS.theta2_range[1] + rng.uniform(0, 0.1)),
            )
            assert solve_points(reachable, wider)[0].all()

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
        assert_witnesses_reach(np.array([p.as_array() for p in points]), params)

    @given(case=params_and_targets())
    def test_reachable_mask_equals_scalar_decision(self, case):
        params, points = case
        assert_equals_reference(np.array([p.as_array() for p in points]), params)

    def test_reachable_mask_on_travel_bounds_and_joint_limits(self):
        """Poses on a grid that includes every joint limit and zero, and
        their tool points moved 1e-7 m along each axis: ``solve_ik``
        equals the reference on each."""
        steps = np.array([[0, 0, 0]] + [list(v) for v in 1e-7 * np.vstack([np.eye(3), -np.eye(3)])])
        for params in PARAM_SETS:
            axes = [
                np.union1d(np.linspace(lo, hi, 5), special_joint_values(lo, hi))
                for lo, hi in (params.d1_range, params.d2_range, params.theta1_range, params.theta2_range)
            ]
            poses = np.array(np.meshgrid(*axes)).reshape(4, -1).T
            tips = np.array([forward_kinematics(JointConfig(*q), params).as_array() for q in poses])
            mask = assert_equals_reference((tips[:, None, :] + steps).reshape(-1, 3), params)
            assert mask.any() and not mask.all()

    def test_default_benchmark_points_equal_reference(self):
        samples, candidates = build_benchmark(ExperimentGrid.from_config(default_config()))
        both = list(samples) + list(candidates)
        points = np.array([s.arm_point.as_array() for s in both])
        assert len(points) == 6000
        mask = assert_equals_reference(points, PARAMS)
        assert mask.tolist() == [s.label == 1 for s in both]

    def test_reachable_mask_of_no_points(self):
        mask, joints = solve_ik(np.zeros(0), np.zeros(0), np.zeros(0), PARAMS)
        assert mask.shape == (0,) and joints.shape == (0, 4)


class TestBruteForceOracle:
    def test_on_grid_point_reachable(self):
        q = JointConfig(
            d1=0.5 * sum(PARAMS.d1_range),
            d2=0.5 * sum(PARAMS.d2_range),
            theta1=0.5 * sum(PARAMS.theta1_range),
            theta2=0.5 * sum(PARAMS.theta2_range),
        )
        p = forward_kinematics(q, PARAMS)
        assert BruteForceOracle(PARAMS, steps_per_joint=15, tol=0.05).label_many(p.as_array()[None])[0]

    def test_far_point_unreachable(self):
        assert not BruteForceOracle(PARAMS, 15, 0.05).label_many(np.array([[10.0, 10.0, 10.0]]))[0]

    def test_agreement_with_analytic_outside_boundary_band(self):
        oracle = BruteForceOracle(PARAMS, steps_per_joint=25, tol=0.035)
        lo, hi = envelope_box()
        rng = np.random.default_rng(12)
        pts = rng.uniform(lo, hi, size=(1500, 3))
        analytic = solve_points(pts)[0].astype(int)
        brute = oracle.label_many(pts)
        band = workspace_step(oracle)
        disagreements = np.nonzero(analytic != brute)[0]
        # near-boundary certificate: the analytic decision flips within
        # one grid step of the point
        probes = pts[disagreements, None, :] + band * _probe_dirs()
        probed = solve_points(probes)[0].reshape(len(disagreements), -1)
        flips = (probed != analytic[disagreements, None]).any(axis=1)
        uncertified = int(np.count_nonzero(~flips))
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


ENVELOPE_CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", "#", "x", "1e999", "-0.5", "1,2"]),
    st.text(max_size=6),
)


class TestReadEnvelope:
    def test_round_trip(self, tmp_path):
        pts = sample_envelope(PARAMS, steps_per_joint=4)
        path = tmp_path / "env.xyz"
        write_envelope(path, pts)
        np.testing.assert_allclose(read_envelope(path), pts, rtol=0, atol=5e-7)

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "env.xyz"
        path.write_text("# x y z\n\n0.1 0.2 0.3  # first\n  \n1 2 3\n")
        assert read_envelope(path).tolist() == [[0.1, 0.2, 0.3], [1.0, 2.0, 3.0]]

    def test_malformed_files_name_file_and_line(self, tmp_path):
        for name, text in (
            ("ragged", "0 0 0\n1 1\n"),
            ("four", "0 0 0\n1 1 1 1\n"),
            ("nan", "0 0 0\n1 nan 1\n"),
            ("inf", "0 0 0\n1 1 -inf\n"),
            ("word", "0 0 0\n1 one 1\n"),
        ):
            path = tmp_path / f"{name}.xyz"
            path.write_text(text)
            with pytest.raises(IngestionError, match=rf"{name}\.xyz, line 2"):
                read_envelope(path)
        path = tmp_path / "bytes.xyz"
        path.write_bytes(b"0 0 0\n1 \xff 1\n")
        with pytest.raises(IngestionError, match=r"bytes\.xyz, line 2"):
            read_envelope(path)
        for name, text in (("empty", ""), ("comments", "# nothing\n\n")):
            path = tmp_path / f"{name}.xyz"
            path.write_text(text)
            with pytest.raises(IngestionError, match=rf"{name}\.xyz holds no point"):
                read_envelope(path)
        with pytest.raises(IngestionError, match="missing.xyz"):
            read_envelope(tmp_path / "missing.xyz")

    @given(
        rows=st.lists(st.lists(ENVELOPE_CELLS, max_size=5), max_size=6),
        raw=st.binary(max_size=20),
    )
    def test_fuzzed_files_raise_only_package_errors(self, tmp_path_factory, rows, raw):
        path = tmp_path_factory.mktemp("env") / "env.xyz"
        path.write_bytes("\n".join(" ".join(r) for r in rows).encode("utf-8", "surrogatepass") + raw)
        try:
            pts = read_envelope(path)
        except ReachALError:
            return
        assert pts.ndim == 2 and pts.shape[1] == 3 and len(pts) > 0
        assert np.isfinite(pts).all()
