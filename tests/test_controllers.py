"""Controller tests: FK/Jacobian oracles, DLS residuals, PD clamp behavior."""

import numpy as np
import pytest

from deskrl import controllers as ctrl
from deskrl.errors import NonFiniteError, ShapeMismatchError
from deskrl.rng import make_generator

GEOM = ctrl.ArmGeom()
GAINS = ctrl.PDGains()


def fk_transform_oracle(q, geom):
    """Compose per-link rigid transforms with explicit 2x2 rotations."""
    R = np.eye(2)
    p = np.zeros(2)
    for angle, length in zip(q, geom.link_lengths):
        c, s = np.cos(angle), np.sin(angle)
        R = R @ np.array([[c, -s], [s, c]])
        p = p + R @ np.array([length, 0.0])
    return p


def test_fk_straight_arm():
    pos, orient = ctrl.forward_kinematics(np.array([0.0, 0.0]), GEOM)
    assert np.allclose(pos, [2.0, 0.0], atol=1e-12)
    assert orient == 0.0


def test_fk_quarter_turn():
    pos, orient = ctrl.forward_kinematics(np.array([np.pi / 2, 0.0]), GEOM)
    assert np.allclose(pos, [0.0, 2.0], atol=1e-12)
    assert np.isclose(orient, np.pi / 2)


def test_fk_matches_transform_oracle():
    gen = make_generator(0, "fk")
    for _ in range(50):
        q = gen.uniform(-np.pi, np.pi, size=2)
        pos, _ = ctrl.forward_kinematics(q, GEOM)
        assert np.allclose(pos, fk_transform_oracle(q, GEOM), atol=1e-12)
    # a longer chain exercises the generic path
    geom3 = ctrl.ArmGeom(link_lengths=(0.7, 1.1, 0.4), q_lo=(-3.0,) * 3, q_hi=(3.0,) * 3)
    for _ in range(20):
        q = gen.uniform(-np.pi, np.pi, size=3)
        pos, _ = ctrl.forward_kinematics(q, geom3)
        assert np.allclose(pos, fk_transform_oracle(q, geom3), atol=1e-12)


def test_chain_points_consistent_with_fk():
    gen = make_generator(1, "chain")
    q = gen.uniform(-2.0, 2.0, size=2)
    pts = ctrl.chain_points(q, GEOM)
    assert pts.shape == (3, 2)
    assert np.array_equal(pts[0], np.zeros(2))
    pos, _ = ctrl.forward_kinematics(q, GEOM)
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
            assert ctrl.chain_points(q, geom).tobytes() == chain.tobytes()
            pos, _ = ctrl.forward_kinematics(q, geom)
            assert pos.tobytes() == np.array([0.0 + x0 + x1, 0.0 + y0 + y1]).tobytes()


def test_jacobian_matches_finite_differences():
    gen = make_generator(2, "jac")
    h = 1e-6
    for _ in range(30):
        q = gen.uniform(-np.pi, np.pi, size=2)
        J = ctrl.jacobian(q, GEOM)
        for i in range(2):
            dq = np.zeros(2)
            dq[i] = h
            f_plus, _ = ctrl.forward_kinematics(q + dq, GEOM)
            f_minus, _ = ctrl.forward_kinematics(q - dq, GEOM)
            assert np.allclose(J[:, i], (f_plus - f_minus) / (2 * h), atol=1e-6)


def test_dls_satisfies_damped_normal_equations():
    gen = make_generator(3, "dls")
    lam = GEOM.damping
    for _ in range(30):
        q = gen.uniform(-2.5, 2.5, size=2)
        J = ctrl.jacobian(q, GEOM)
        dx = gen.normal(size=2) * 0.05
        dq = ctrl.dls_solve(J, dx, lam)
        A = J @ J.T + lam * lam * np.eye(2)
        y = np.linalg.solve(A, dx)
        assert np.linalg.norm(A @ y - dx) <= 1e-10
        assert np.allclose(dq, J.T @ y, atol=1e-12)


def test_dls_low_damping_recovers_exact_solution():
    q = np.array([0.7, 0.9])  # comfortably non-singular
    J = ctrl.jacobian(q, GEOM)
    dx = np.array([0.03, -0.02])
    dq = ctrl.dls_solve(J, dx, damping=1e-6)
    assert np.allclose(J @ dq, dx, atol=1e-6)


def test_dls_bounded_at_singularity():
    # fully stretched arm: radial motion is unreachable, damping keeps dq finite
    q = np.array([0.3, 0.0])
    J = ctrl.jacobian(q, GEOM)
    pos, _ = ctrl.forward_kinematics(q, GEOM)
    radial = pos / np.linalg.norm(pos)
    dq = ctrl.dls_solve(J, 0.05 * radial, damping=GEOM.damping)
    assert np.all(np.isfinite(dq))
    assert np.linalg.norm(dq) < 10.0


def test_pd_delta_pos_zero_action_zero_velocity():
    state = ctrl.JointState(np.array([0.4, -0.2]), np.zeros(2))
    u = ctrl.pd_joint_delta_pos(np.zeros(2), state, GAINS, GEOM)
    assert np.array_equal(u, np.zeros(2))


def test_pd_delta_pos_pure_damping():
    w = np.array([0.3, -1.1])
    state = ctrl.JointState(np.array([0.4, -0.2]), w)
    u = ctrl.pd_joint_delta_pos(np.zeros(2), state, GAINS, GEOM)
    assert np.allclose(u, np.clip(-GAINS.kd * w, -GAINS.u_max, GAINS.u_max))


def test_pd_delta_pos_saturates_at_joint_limit():
    q = np.array(GEOM.q_hi)
    qdot = np.array([0.5, -0.5])
    state = ctrl.JointState(q, qdot)
    u = ctrl.pd_joint_delta_pos(np.ones(2), state, GAINS, GEOM)
    # target clamps back to the limit, so only the damping term remains
    assert np.allclose(u, np.clip(-GAINS.kd * qdot, -GAINS.u_max, GAINS.u_max))


def test_pd_ee_delta_zero_action_is_pure_damping():
    state = ctrl.JointState(np.array([0.8, 0.5]), np.array([0.2, -0.3]))
    u = ctrl.pd_ee_delta_pose(np.zeros(2), state, GAINS, GEOM)
    assert np.allclose(u, -GAINS.kd * state.qdot)


def test_commands_respect_clamps_for_all_box_actions():
    gen = make_generator(4, "clamp")
    tight = ctrl.PDGains(kp=5000.0, kd=50.0, u_max=7.0)
    for _ in range(200):
        action = gen.uniform(-1.0, 1.0, size=2)
        state = ctrl.JointState(
            gen.uniform(-np.pi, np.pi, size=2) * np.array([1.0, 0.9]),
            gen.uniform(-3.0, 3.0, size=2),
        )
        u1 = ctrl.pd_joint_delta_pos(action, state, tight, GEOM)
        u2 = ctrl.pd_ee_delta_pose(action, state, tight, GEOM)
        assert np.max(np.abs(u1)) <= tight.u_max
        assert np.max(np.abs(u2)) <= tight.u_max


def test_dimension_and_validation_errors():
    state = ctrl.JointState(np.zeros(2), np.zeros(2))
    with pytest.raises(ShapeMismatchError):
        ctrl.pd_joint_delta_pos(np.zeros(3), state, GAINS, GEOM)
    with pytest.raises(ShapeMismatchError):
        ctrl.pd_ee_delta_pose(np.zeros(3), state, GAINS, GEOM)
    with pytest.raises(NonFiniteError):
        ctrl.pd_joint_delta_pos(np.array([np.nan, 0.0]), state, GAINS, GEOM)
    with pytest.raises(ShapeMismatchError):
        ctrl.forward_kinematics(np.zeros(3), GEOM)
    with pytest.raises(NonFiniteError):
        ctrl.JointState(np.array([np.inf, 0.0]), np.zeros(2))
    with pytest.raises(ShapeMismatchError):
        ctrl.JointState(np.zeros(2), np.zeros(3))
    with pytest.raises(ShapeMismatchError):
        ctrl.ArmGeom(link_lengths=(1.0, -1.0))
    with pytest.raises(ShapeMismatchError):
        ctrl.ArmGeom(q_lo=(0.0, 0.0), q_hi=(0.0, 1.0))
    with pytest.raises(ShapeMismatchError):
        ctrl.PDGains(kp=0.0)
