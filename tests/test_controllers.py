"""Controller tests: FK/Jacobian oracles, DLS residuals, PD clamp behavior,
and the float controllers against the numpy expressions they replaced."""

import math
from fractions import Fraction

import numpy as np
import pytest

from deskrl import controllers as ctrl
from deskrl.errors import ConfigError, NonFiniteError, ShapeMismatchError
from deskrl.rng import make_generator

GEOM = ctrl.ArmGeom()
GAINS = ctrl.PDGains()
LENGTHS = GEOM.link_lengths


def dls_oracle(J, dx, damping):
    """The numpy damped least squares: dq = J^T (J J^T + damping^2 I)^-1 dx."""
    A = J @ J.T + damping * damping * np.eye(J.shape[0])
    return J.T @ np.linalg.solve(A, dx)


def joint_state(q, qdot):
    """The controllers' JointState of the 2-vectors q and qdot."""
    return ctrl.JointState(*np.asarray(q, dtype=np.float64).tolist(), *np.asarray(qdot, dtype=np.float64).tolist())


def pd_command_oracle(target, q, qdot, gains, geom):
    """The numpy PD law on 2-vectors: the target clipped to the joint
    limits, then kp * (target - q) - kd * qdot clipped to +-u_max."""
    target = np.clip(target, np.array(geom.q_lo), np.array(geom.q_hi))
    u = gains.kp * (target - q) - gains.kd * qdot
    return np.clip(u, -gains.u_max, gains.u_max)


def forward_kinematics(q, lengths):
    """Tip position (x, y) and orientation angle of the planar chain."""
    angles = np.cumsum(np.asarray(q, dtype=np.float64))
    lengths = np.asarray(lengths)
    pos = np.array([np.sum(lengths * np.cos(angles)), np.sum(lengths * np.sin(angles))])
    return pos, float(angles[-1])


def chain_points(q, lengths):
    """Positions of the base and every joint/tip: shape (len(q) + 1, 2)."""
    angles = np.cumsum(np.asarray(q, dtype=np.float64))
    lengths = np.asarray(lengths)
    steps = np.stack([lengths * np.cos(angles), lengths * np.sin(angles)], axis=1)
    return np.concatenate([np.zeros((1, 2)), np.cumsum(steps, axis=0)])


def jacobian(q, lengths):
    """Analytic position Jacobian, shape (2, len(q)).

    d(tip)/d(q_i) sums the derivative of every link at or beyond joint i:
    column i = (-sum_{j>=i} l_j sin(a_j), sum_{j>=i} l_j cos(a_j)) with a_j
    the cumulative angle of link j.
    """
    angles = np.cumsum(np.asarray(q, dtype=np.float64))
    lengths = np.asarray(lengths)
    sin_terms = lengths * np.sin(angles)
    cos_terms = lengths * np.cos(angles)
    # reversed cumulative sums give the "at or beyond joint i" totals
    jx = -np.cumsum(sin_terms[::-1])[::-1]
    jy = np.cumsum(cos_terms[::-1])[::-1]
    return np.stack([jx, jy])


def fk_transform_oracle(q, lengths):
    """Compose per-link rigid transforms with explicit 2x2 rotations."""
    R = np.eye(2)
    p = np.zeros(2)
    for angle, length in zip(q, lengths):
        c, s = np.cos(angle), np.sin(angle)
        R = R @ np.array([[c, -s], [s, c]])
        p = p + R @ np.array([length, 0.0])
    return p


def test_fk_straight_arm():
    pos, orient = forward_kinematics(np.array([0.0, 0.0]), LENGTHS)
    assert np.allclose(pos, [2.0, 0.0], atol=1e-12)
    assert orient == 0.0


def test_fk_quarter_turn():
    pos, orient = forward_kinematics(np.array([np.pi / 2, 0.0]), LENGTHS)
    assert np.allclose(pos, [0.0, 2.0], atol=1e-12)
    assert np.isclose(orient, np.pi / 2)


def test_fk_matches_transform_oracle():
    gen = make_generator(0, "fk")
    for _ in range(50):
        q = gen.uniform(-np.pi, np.pi, size=2)
        pos, _ = forward_kinematics(q, LENGTHS)
        assert np.allclose(pos, fk_transform_oracle(q, LENGTHS), atol=1e-12)


def test_chain_points_consistent_with_fk():
    gen = make_generator(1, "chain")
    q = gen.uniform(-2.0, 2.0, size=2)
    pts = chain_points(q, LENGTHS)
    assert pts.shape == (3, 2)
    assert np.array_equal(pts[0], np.zeros(2))
    pos, _ = forward_kinematics(q, LENGTHS)
    assert np.allclose(pts[-1], pos, atol=1e-12)


def test_link_vectors2_give_chain_points_and_fk_bit_for_bit():
    # the environments step on these floats; they must be the numpy kinematics
    gen = make_generator(4, "links")
    geoms = (GEOM, ctrl.ArmGeom(link_lengths=(0.7, 1.3)))
    special = [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (np.pi, -2.9), (-np.pi, 2.9)]
    for q in [np.array(q) for q in special] + list(gen.uniform(-np.pi, np.pi, size=(500, 2))):
        for geom in geoms:
            x0, y0, x1, y1 = ctrl.link_vectors2(*q.tolist(), geom)
            chain = np.array([[0.0, 0.0], [x0, y0], [x0 + x1, y0 + y1]])
            assert chain_points(q, geom.link_lengths).tobytes() == chain.tobytes()
            pos, _ = forward_kinematics(q, geom.link_lengths)
            assert pos.tobytes() == np.array([0.0 + x0 + x1, 0.0 + y0 + y1]).tobytes()


def test_jacobian_matches_finite_differences():
    gen = make_generator(2, "jac")
    h = 1e-6
    for _ in range(30):
        q = gen.uniform(-np.pi, np.pi, size=2)
        J = jacobian(q, LENGTHS)
        for i in range(2):
            dq = np.zeros(2)
            dq[i] = h
            f_plus, _ = forward_kinematics(q + dq, LENGTHS)
            f_minus, _ = forward_kinematics(q - dq, LENGTHS)
            assert np.allclose(J[:, i], (f_plus - f_minus) / (2 * h), atol=1e-6)


def test_dls_satisfies_damped_normal_equations():
    gen = make_generator(3, "dls")
    lam = GEOM.damping
    geom = ctrl.ArmGeom(damping=lam)
    for _ in range(30):
        q = gen.uniform(-2.5, 2.5, size=2)
        J = jacobian(q, LENGTHS)
        dx = gen.normal(size=2) * 0.05
        dq = np.array(ctrl.dls_step2(*q.tolist(), *dx.tolist(), geom))
        A = J @ J.T + lam * lam * np.eye(2)
        y = np.linalg.solve(A, dx)
        assert np.linalg.norm(A @ y - dx) <= 1e-10
        assert np.allclose(dq, J.T @ y, atol=1e-12)


def test_dls_low_damping_recovers_exact_solution():
    q = np.array([0.7, 0.9])  # comfortably non-singular
    J = jacobian(q, LENGTHS)
    dx = np.array([0.03, -0.02])
    dq = np.array(ctrl.dls_step2(*q.tolist(), *dx.tolist(), ctrl.ArmGeom(damping=1e-6)))
    assert np.allclose(J @ dq, dx, atol=1e-6)


def test_dls_bounded_at_singularity():
    # fully stretched arm: radial motion is unreachable, damping keeps dq finite
    q = np.array([0.3, 0.0])
    pos, _ = forward_kinematics(q, LENGTHS)
    radial = pos / np.linalg.norm(pos)
    dq = np.array(ctrl.dls_step2(*q.tolist(), *(0.05 * radial).tolist(), ctrl.ArmGeom(damping=GEOM.damping)))
    assert np.all(np.isfinite(dq))
    assert np.linalg.norm(dq) < 10.0


def test_pd_delta_pos_zero_action_zero_velocity():
    state = ctrl.JointState(0.4, -0.2, 0.0, 0.0)
    u = ctrl.pd_joint_delta_pos(np.zeros(2), state, GAINS, GEOM)
    assert u == (0.0, 0.0)


def test_pd_delta_pos_pure_damping():
    w = np.array([0.3, -1.1])
    state = joint_state([0.4, -0.2], w)
    u = ctrl.pd_joint_delta_pos(np.zeros(2), state, GAINS, GEOM)
    assert np.allclose(u, np.clip(-GAINS.kd * w, -GAINS.u_max, GAINS.u_max))


def test_pd_delta_pos_saturates_at_joint_limit():
    qdot = np.array([0.5, -0.5])
    state = joint_state(GEOM.q_hi, qdot)
    u = ctrl.pd_joint_delta_pos(np.ones(2), state, GAINS, GEOM)
    # target clamps back to the limit, so only the damping term remains
    assert np.allclose(u, np.clip(-GAINS.kd * qdot, -GAINS.u_max, GAINS.u_max))


def test_pd_ee_delta_zero_action_is_pure_damping():
    state = ctrl.JointState(0.8, 0.5, 0.2, -0.3)
    u = ctrl.pd_ee_delta_pose(np.zeros(2), state, GAINS, GEOM)
    assert np.allclose(u, [-GAINS.kd * 0.2, -GAINS.kd * -0.3])


def test_commands_are_pairs_of_floats():
    # the environments integrate the command as it comes, with no conversion
    state = ctrl.JointState(0.8, 0.5, 0.2, -0.3)
    for control in (ctrl.pd_joint_delta_pos, ctrl.pd_ee_delta_pose):
        u = control(np.array([0.3, -0.7]), state, GAINS, GEOM)
        assert type(u) is tuple and len(u) == 2 and all(type(x) is float for x in u)


def test_commands_respect_clamps_for_all_box_actions():
    gen = make_generator(4, "clamp")
    tight = ctrl.PDGains(kp=5000.0, kd=50.0, u_max=7.0)
    for _ in range(200):
        action = gen.uniform(-1.0, 1.0, size=2)
        state = joint_state(
            gen.uniform(-np.pi, np.pi, size=2) * np.array([1.0, 0.9]),
            gen.uniform(-3.0, 3.0, size=2),
        )
        u1 = ctrl.pd_joint_delta_pos(action, state, tight, GEOM)
        u2 = ctrl.pd_ee_delta_pose(action, state, tight, GEOM)
        assert np.max(np.abs(u1)) <= tight.u_max
        assert np.max(np.abs(u2)) <= tight.u_max


def test_dimension_and_validation_errors():
    state = ctrl.JointState(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ShapeMismatchError):
        ctrl.pd_joint_delta_pos(np.zeros(3), state, GAINS, GEOM)
    with pytest.raises(ShapeMismatchError):
        ctrl.pd_ee_delta_pose(np.zeros(3), state, GAINS, GEOM)
    with pytest.raises(NonFiniteError):
        ctrl.pd_joint_delta_pos(np.array([np.nan, 0.0]), state, GAINS, GEOM)
    with pytest.raises(NonFiniteError):
        ctrl.pd_ee_delta_pose(np.array([0.0, np.inf]), state, GAINS, GEOM)
    with pytest.raises(ShapeMismatchError):
        ctrl.ArmGeom(link_lengths=(1.0, -1.0))
    with pytest.raises(ShapeMismatchError):
        ctrl.ArmGeom(q_lo=(0.0, 0.0), q_hi=(0.0, 1.0))
    with pytest.raises(ShapeMismatchError):
        ctrl.PDGains(kp=0.0)


def _hard_poses(geom, gen, count):
    """Poses near the stretched-arm singularity (q1 = 0) and at the joint limits."""
    q0s = np.concatenate([gen.uniform(geom.q_lo[0], geom.q_hi[0], size=count), [geom.q_lo[0], geom.q_hi[0], 0.0]])
    q1s = (0.0, -0.0, 1e-8, -1e-8, geom.q_lo[1], geom.q_hi[1])
    return [(q0, q1) for q0 in q0s.tolist() for q1 in q1s]


def test_pd_joint_delta_pos_is_the_numpy_expression_bit_for_bit():
    # the pushbox2d and gather2d digests rest on these bits
    gen = make_generator(5, "pd-bits")
    geoms = (GEOM, ctrl.ArmGeom(q_lo=(-1.6, -1.6), q_hi=(1.6, 1.6)), ctrl.ArmGeom(q_lo=(-1.0, 0.0), q_hi=(0.0, 1.0)))
    gains_set = (GAINS, ctrl.PDGains(kp=5000.0, kd=50.0, u_max=7.0))
    specials = [0.0, -0.0, 1.0, -1.0]
    cases = limited = saturated = 0
    for geom in geoms:
        lo, hi = np.array(geom.q_lo), np.array(geom.q_hi)
        states = [gen.uniform(lo, hi) for _ in range(400)]
        states += [lo.copy(), hi.copy(), np.array([lo[0], hi[1]]), np.zeros(2), np.array([-0.0, -0.0])]
        for i, q in enumerate(states):
            qdot = gen.uniform(-3.0, 3.0, size=2) if i % 3 else np.array([specials[i % 4], -0.0])
            state = joint_state(q, qdot)
            action = gen.uniform(-1.0, 1.0, size=2)
            if i % 5 == 0:
                action = np.array([specials[i % 4], specials[(i // 4) % 4]])
            target = q + geom.dq_max * action
            for gains in gains_set:
                u = ctrl.pd_joint_delta_pos(action, state, gains, geom)
                want = pd_command_oracle(target, q, qdot, gains, geom)
                assert np.array(u).tobytes() == want.tobytes(), (q, qdot, action)
                cases += 1
                saturated += np.abs(want).max() == gains.u_max
            limited += np.any((target < lo) | (target > hi))
    assert cases >= 2000 and limited > 0 and saturated > 0


def test_pd_ee_delta_pose_applies_the_numpy_pd_law_to_dls_step2():
    gen = make_generator(6, "ee-bits")
    tight = ctrl.PDGains(kp=5000.0, kd=50.0, u_max=7.0)
    for q0, q1 in _hard_poses(GEOM, gen, 40):
        q, qdot = np.array([q0, q1]), gen.uniform(-3.0, 3.0, size=2)
        state = joint_state(q, qdot)
        action = gen.uniform(-1.0, 1.0, size=2)
        dq = ctrl.dls_step2(q0, q1, *(GEOM.dx_max * action).tolist(), GEOM)
        for gains in (GAINS, tight):
            u = ctrl.pd_ee_delta_pose(action, state, gains, GEOM)
            assert np.array(u).tobytes() == pd_command_oracle(q + np.array(dq), q, qdot, gains, GEOM).tobytes()


def test_dls_step2_jacobian_is_jacobian_bit_for_bit():
    # dls_step2 builds J as (-(y0 + y1), -y1) over (x0 + x1, x1) from link_vectors2
    gen = make_generator(7, "dls-jac")
    for geom in (GEOM, ctrl.ArmGeom(link_lengths=(0.7, 1.3))):
        poses = _hard_poses(geom, gen, 50) + [tuple(q) for q in gen.uniform(-np.pi, np.pi, size=(5000, 2)).tolist()]
        for q0, q1 in poses:
            x0, y0, x1, y1 = ctrl.link_vectors2(q0, q1, geom)
            J = np.array([[-(y0 + y1), -y1], [x0 + x1, x1]])
            assert J.tobytes() == jacobian(np.array([q0, q1]), geom.link_lengths).tobytes(), (q0, q1)


def _exact_dls(J, dx, dy, damping):
    """dq = J^T z with (J J^T + damping^2 I) z = (dx, dy), in rationals."""
    (a, b), (c, d) = [[Fraction(v) for v in row] for row in J.tolist()]
    lam2 = Fraction(damping) ** 2
    m00, m01, m11 = a * a + b * b + lam2, a * c + b * d, c * c + d * d + lam2
    det = m00 * m11 - m01 * m01
    z0 = (m11 * Fraction(dx) - m01 * Fraction(dy)) / det
    z1 = (m00 * Fraction(dy) - m01 * Fraction(dx)) / det
    return a * z0 + c * z1, b * z0 + d * z1


def test_dls_step2_matches_an_exact_rational_solve():
    # the numpy solve it replaced meets the same bound; the bits differ
    gen = make_generator(8, "dls-exact")
    worst = {"float": 0.0, "numpy": 0.0}
    for geom in (GEOM, ctrl.ArmGeom(link_lengths=(0.7, 1.3), damping=0.01)):
        poses = _hard_poses(geom, gen, 60) + [tuple(q) for q in gen.uniform(-np.pi, np.pi, size=(500, 2)).tolist()]
        for q0, q1 in poses:
            dx, dy = (gen.normal(size=2) * geom.dx_max).tolist()
            J = jacobian(np.array([q0, q1]), geom.link_lengths)
            want = _exact_dls(J, dx, dy, geom.damping)
            scale = max(abs(w) for w in want)
            for name, got in (
                ("float", ctrl.dls_step2(q0, q1, dx, dy, geom)),
                ("numpy", dls_oracle(J, np.array([dx, dy]), geom.damping).tolist()),
            ):
                err = max(abs(Fraction(g) - w) for g, w in zip(got, want)) / scale
                worst[name] = max(worst[name], float(err))
    assert worst["float"] <= 1e-8 and worst["numpy"] <= 1e-8, worst


def test_the_arm_has_two_links_by_construction():
    # the controllers and environments drive a 2-link arm only
    cases = [
        lambda: ctrl.ArmGeom(link_lengths=(1.0,), q_lo=(-3.0,), q_hi=(3.0,)),
        lambda: ctrl.ArmGeom(link_lengths=(0.7, 1.1, 0.4), q_lo=(-3.0,) * 3, q_hi=(3.0,) * 3),
        lambda: ctrl.ArmGeom(q_lo=(-3.0,)),
        lambda: ctrl.ArmGeom(q_hi=(3.0, 3.0, 3.0)),
    ]
    for make in cases:
        with pytest.raises(ShapeMismatchError):
            make()
    # a joint state is the two angles and the two velocities, by its fields
    assert ctrl.JointState._fields == ("q0", "q1", "v0", "v1")
    for args in ((0.0, 0.0, 0.0), (0.0,) * 6):
        with pytest.raises(TypeError):
            ctrl.JointState(*args)


def test_action_check_keeps_the_box_tolerance():
    assert ctrl.check_action2([1.0 + 1e-12, -1.0 - 1e-12]) == (1.0 + 1e-12, -1.0 - 1e-12)
    assert ctrl.check_action2(np.array([1, -1])) == (1.0, -1.0)
    for bad, error in (([1.0 + 1e-11, 0.0], ShapeMismatchError), ([0.0, math.inf], NonFiniteError)):
        with pytest.raises(error):
            ctrl.check_action2(bad)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ctrl.ArmGeom(dq_max=math.nan),
        lambda: ctrl.ArmGeom(damping=math.inf),
        lambda: ctrl.ArmGeom(link_lengths=(math.nan, 1.0)),
        lambda: ctrl.ArmGeom(q_hi=(math.inf, 2.9)),
        lambda: ctrl.PDGains(kp=math.inf),
        lambda: ctrl.PDGains(u_max=math.nan),
    ],
)
def test_non_finite_geometry_and_gains_are_config_errors(make):
    with pytest.raises(ConfigError, match="must be finite"):
        make()
