"""The 2-link planar arm and its PD controllers.

Forward kinematics, the analytic Jacobian against finite differences,
and step responses of both controller flavors: joint-space deltas and
end-effector deltas through damped least squares.  The controllers are
pure functions from (action, state) to a torque command for the 2-link
arm, computed on Python floats (the damped 2x2 system is solved in closed
form); the caller owns integration, so a few lines of semi-implicit Euler
are enough here.
"""

import numpy as np

from deskrl.controllers import (
    ArmGeom,
    JointState,
    PDGains,
    forward_kinematics,
    jacobian,
    pd_ee_delta_pose,
    pd_joint_delta_pos,
)

geom = ArmGeom()
gains = PDGains()
dt = 0.05


def integrate(state: JointState, u: np.ndarray, dt: float, substeps: int = 4) -> JointState:
    """Semi-implicit Euler under unit inertia, a few substeps for stability."""
    q, qdot = state.q.copy(), state.qdot.copy()
    h = dt / substeps
    for _ in range(substeps):
        qdot = qdot + h * u
        q = np.clip(q + h * qdot, geom.q_lo, geom.q_hi)
    return JointState(q=q, qdot=qdot)


# -- kinematics sanity ---------------------------------------------------
q = np.array([np.pi / 4, -np.pi / 3])
tip, angle = forward_kinematics(q, geom)
print(f"q = {np.round(q, 3)} -> tip {np.round(tip, 4)}, link angle {angle:.4f}")

J = jacobian(q, geom)
h = 1e-6
for i in range(2):
    dq = np.zeros(2)
    dq[i] = h
    fd = (forward_kinematics(q + dq, geom)[0] - forward_kinematics(q - dq, geom)[0]) / (2 * h)
    print(f"Jacobian column {i}: analytic {np.round(J[:, i], 6)}, "
          f"finite difference {np.round(fd, 6)}")

# -- joint-delta controller -----------------------------------------------
# The action is a *delta*: the PD target is q + dq_max * action, recomputed
# from the current q every step.  Holding a constant action therefore walks
# the joint at a steady rate set by how well the PD loop chases a target
# that stays dq_max ahead of it.
state = JointState(q=np.array([0.5, -1.0]), qdot=np.zeros(2))
q0_start = state.q[0]
print("\njoint-delta walk (action held at +1 on joint 0):")
for t in range(40):
    u = pd_joint_delta_pos(np.array([1.0, 0.0]), state, gains, geom)
    state = integrate(state, u, dt)
    if t % 10 == 9:
        rate = (state.q[0] - q0_start) / (t + 1)
        print(f"  t={t + 1:2d}  q0 = {state.q[0]:+.4f}  ({rate:+.4f} rad/step, cap {geom.dq_max})")

# -- end-effector-delta controller: move the tip straight right ----------
state = JointState(q=np.array([np.pi / 3, -2 * np.pi / 3]), qdot=np.zeros(2))
start, _ = forward_kinematics(state.q, geom)
action = np.array([1.0, 0.0])  # +dx_max along x each step
print("\nend-effector-delta response (tip walks right in dx_max hops):")
for t in range(30):
    u = pd_ee_delta_pose(action, state, gains, geom)
    state = integrate(state, u, dt)
    if t % 10 == 9:
        tip, _ = forward_kinematics(state.q, geom)
        print(f"  t={t + 1:2d}  tip = {np.round(tip, 4)}  (moved {tip[0] - start[0]:+.4f} in x)")
