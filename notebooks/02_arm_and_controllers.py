"""The 2-link planar arm and its PD controllers.

Forward kinematics, the analytic Jacobian against finite differences,
and step responses of both controller flavors: joint-space deltas and
end-effector deltas through damped least squares.  The controllers are
pure functions from (action, state) to a torque command for the 2-link
arm: the state is a JointState of four floats (q0, q1, v0, v1), the
command a pair of floats, and the damped 2x2 system is solved in closed
form.  The caller owns integration, so a few lines of numpy semi-implicit
Euler are enough here; they are the rule the environments run on floats
(ToyEnv._integrate), which tests/test_envs.py holds to this reference.
"""

import numpy as np

from deskrl.controllers import (
    ArmGeom,
    JointState,
    PDGains,
    link_vectors2,
    pd_ee_delta_pose,
    pd_joint_delta_pos,
)

geom = ArmGeom()
gains = PDGains()
dt = 0.05


def tip_of(q: np.ndarray) -> np.ndarray:
    """The tip: the sum of the two link vectors."""
    x0, y0, x1, y1 = link_vectors2(*q.tolist(), geom)
    return np.array([x0 + x1, y0 + y1])


def jacobian(q: np.ndarray) -> np.ndarray:
    """d(tip)/dq: each column sums the link vectors at or beyond its joint, turned a quarter."""
    x0, y0, x1, y1 = link_vectors2(*q.tolist(), geom)
    return np.array([[-(y0 + y1), -y1], [x0 + x1, x1]])


def integrate(state: JointState, u: tuple[float, float], dt: float, substeps: int = 4) -> JointState:
    """Semi-implicit Euler under unit inertia, a few substeps for stability:
    each substep adds h * u to the velocities, then h * qdot to the angles,
    then clamps an angle past its limit and stops that joint."""
    lo, hi = np.array(geom.q_lo), np.array(geom.q_hi)
    q, qdot, u = np.array(state[:2]), np.array(state[2:]), np.array(u)
    h = dt / substeps
    for _ in range(substeps):
        qdot = qdot + h * u
        q = q + h * qdot
        qdot = np.where((q < lo) | (q > hi), 0.0, qdot)
        q = np.clip(q, lo, hi)
    return JointState(*q.tolist(), *qdot.tolist())


# -- kinematics sanity ---------------------------------------------------
q = np.array([np.pi / 4, -np.pi / 3])
tip = tip_of(q)
print(f"q = {np.round(q, 3)} -> tip {np.round(tip, 4)}, link angle {q.sum():.4f}")

J = jacobian(q)
h = 1e-6
for i in range(2):
    dq = np.zeros(2)
    dq[i] = h
    fd = (tip_of(q + dq) - tip_of(q - dq)) / (2 * h)
    print(f"Jacobian column {i}: analytic {np.round(J[:, i], 6)}, "
          f"finite difference {np.round(fd, 6)}")

# -- joint-delta controller -----------------------------------------------
# The action is a *delta*: the PD target is q + dq_max * action, recomputed
# from the current q every step.  Holding a constant action therefore walks
# the joint at a steady rate set by how well the PD loop chases a target
# that stays dq_max ahead of it.
state = JointState(0.5, -1.0, 0.0, 0.0)
q0_start = state.q0
print("\njoint-delta walk (action held at +1 on joint 0):")
for t in range(40):
    u = pd_joint_delta_pos(np.array([1.0, 0.0]), state, gains, geom)
    state = integrate(state, u, dt)
    if t % 10 == 9:
        rate = (state.q0 - q0_start) / (t + 1)
        print(f"  t={t + 1:2d}  q0 = {state.q0:+.4f}  ({rate:+.4f} rad/step, cap {geom.dq_max})")

# -- end-effector-delta controller: move the tip straight right ----------
state = JointState(np.pi / 3, -2 * np.pi / 3, 0.0, 0.0)
start = tip_of(np.array(state[:2]))
action = np.array([1.0, 0.0])  # +dx_max along x each step
print("\nend-effector-delta response (tip walks right in dx_max hops):")
for t in range(30):
    u = pd_ee_delta_pose(action, state, gains, geom)
    state = integrate(state, u, dt)
    if t % 10 == 9:
        tip = tip_of(np.array(state[:2]))
        print(f"  t={t + 1:2d}  tip = {np.round(tip, 4)}  (moved {tip[0] - start[0]:+.4f} in x)")
