"""PD controllers and kinematics for a planar n-link arm.

Controllers bridge policy actions (vectors in [-1, 1]^k) to joint commands.
Two kinds:

* pd_joint_delta_pos: action scales a per-step joint-position delta; a PD
  law tracks the resulting target.
* pd_ee_delta_pose: action scales an end-effector delta; damped least
  squares maps it to a joint delta, then the same PD law tracks it.

All functions are pure and operate on explicit JointState values.  The
default 2-link arm uses position-only end-effector deltas; orientation
would only be controllable with three or more joints.

The environments step 2-link arms on Python floats; `link_vectors2` gives
them the kinematics of `chain_points` and `forward_kinematics` for two
links, value for value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError


@dataclass
class JointState:
    """Joint angles (rad) and velocities (rad/s)."""

    q: np.ndarray
    qdot: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        self.qdot = np.asarray(self.qdot, dtype=np.float64)
        if self.q.ndim != 1 or self.q.shape != self.qdot.shape:
            raise ShapeMismatchError(
                f"q and qdot must be matching 1-D arrays, got {self.q.shape} and {self.qdot.shape}"
            )
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.qdot))):
            raise NonFiniteError("joint state contains non-finite values")


@dataclass(frozen=True)
class PDGains:
    kp: float = 20.0
    kd: float = 2.0
    u_max: float = 50.0

    def __post_init__(self):
        if not (self.kp > 0.0 and self.kd >= 0.0 and self.u_max > 0.0):
            raise ShapeMismatchError("PD gains need kp > 0, kd >= 0, u_max > 0")


@dataclass(frozen=True)
class ArmGeom:
    """Link lengths, joint limits, and per-controller action scales."""

    link_lengths: tuple[float, ...] = (1.0, 1.0)
    q_lo: tuple[float, ...] = (-np.pi, -2.9)
    q_hi: tuple[float, ...] = (np.pi, 2.9)
    dq_max: float = 0.1
    dx_max: float = 0.05
    damping: float = 0.05

    def __post_init__(self):
        n = len(self.link_lengths)
        if n < 1 or any(l <= 0.0 for l in self.link_lengths):
            raise ShapeMismatchError("link lengths must be positive")
        if len(self.q_lo) != n or len(self.q_hi) != n:
            raise ShapeMismatchError("joint limits must match the joint count")
        if any(lo >= hi for lo, hi in zip(self.q_lo, self.q_hi)):
            raise ShapeMismatchError("joint limits need lo < hi")
        if min(self.dq_max, self.dx_max) <= 0.0 or self.damping <= 0.0:
            raise ShapeMismatchError("action scales and damping must be positive")

    @property
    def n_joints(self) -> int:
        return len(self.link_lengths)

    @cached_property
    def limit_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(q_lo, q_hi) as read-only float arrays, built once per geometry."""
        arrays = np.array(self.q_lo, dtype=np.float64), np.array(self.q_hi, dtype=np.float64)
        for a in arrays:
            a.setflags(write=False)
        return arrays

    def clamp_to_limits(self, q: np.ndarray) -> np.ndarray:
        lo, hi = self.limit_arrays
        return np.clip(q, lo, hi)


def _check_action(action: np.ndarray, dim: int) -> np.ndarray:
    action = np.asarray(action, dtype=np.float64)
    if action.shape != (dim,):
        raise ShapeMismatchError(f"action must have shape ({dim},), got {action.shape}")
    if not np.isfinite(action).all():
        raise NonFiniteError("action contains non-finite values")
    if (np.abs(action) > 1.0 + 1e-12).any():
        raise ShapeMismatchError("action components must lie in [-1, 1]")
    return action


def forward_kinematics(q: np.ndarray, geom: ArmGeom) -> tuple[np.ndarray, float]:
    """Tip position (x, y) and orientation angle of the planar chain."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (geom.n_joints,):
        raise ShapeMismatchError(f"q must have shape ({geom.n_joints},), got {q.shape}")
    angles = np.cumsum(q)
    lengths = np.asarray(geom.link_lengths)
    pos = np.array([np.sum(lengths * np.cos(angles)), np.sum(lengths * np.sin(angles))])
    return pos, float(angles[-1])


def link_vectors2(q0: float, q1: float, geom: ArmGeom) -> tuple[float, float, float, float]:
    """(x0, y0, x1, y1): the two link vectors of a 2-link arm, on floats.

    The elbow sits at (x0, y0).  `chain_points` puts the tip at
    (x0 + x1, y0 + y1); `forward_kinematics` sums from zero as np.sum does,
    (0.0 + x0) + x1, which differs from it only in the sign of a zero.
    """
    l0, l1 = geom.link_lengths
    a1 = q0 + q1
    return l0 * math.cos(q0), l0 * math.sin(q0), l1 * math.cos(a1), l1 * math.sin(a1)


def chain_points(q: np.ndarray, geom: ArmGeom) -> np.ndarray:
    """Positions of the base and every joint/tip: shape (n_joints + 1, 2)."""
    angles = np.cumsum(np.asarray(q, dtype=np.float64))
    lengths = np.asarray(geom.link_lengths)
    steps = np.stack([lengths * np.cos(angles), lengths * np.sin(angles)], axis=1)
    return np.concatenate([np.zeros((1, 2)), np.cumsum(steps, axis=0)])


def jacobian(q: np.ndarray, geom: ArmGeom) -> np.ndarray:
    """Analytic position Jacobian, shape (2, n_joints).

    d(tip)/d(q_i) sums the derivative of every link at or beyond joint i:
    column i = (-sum_{j>=i} l_j sin(a_j), sum_{j>=i} l_j cos(a_j)) with a_j
    the cumulative angle of link j.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (geom.n_joints,):
        raise ShapeMismatchError(f"q must have shape ({geom.n_joints},), got {q.shape}")
    angles = np.cumsum(q)
    lengths = np.asarray(geom.link_lengths)
    sin_terms = lengths * np.sin(angles)
    cos_terms = lengths * np.cos(angles)
    # reversed cumulative sums give the "at or beyond joint i" totals
    jx = -np.cumsum(sin_terms[::-1])[::-1]
    jy = np.cumsum(cos_terms[::-1])[::-1]
    return np.stack([jx, jy])


def dls_solve(J: np.ndarray, dx: np.ndarray, damping: float) -> np.ndarray:
    """Damped least squares: dq = J^T (J J^T + damping^2 I)^-1 dx."""
    J = np.asarray(J, dtype=np.float64)
    dx = np.asarray(dx, dtype=np.float64)
    if J.ndim != 2 or dx.shape != (J.shape[0],):
        raise ShapeMismatchError(f"incompatible J {J.shape} and dx {dx.shape}")
    A = J @ J.T + damping * damping * np.eye(J.shape[0])
    return J.T @ np.linalg.solve(A, dx)


def _pd_command(target_q: np.ndarray, state: JointState, gains: PDGains) -> np.ndarray:
    u = gains.kp * (target_q - state.q) - gains.kd * state.qdot
    return np.clip(u, -gains.u_max, gains.u_max)


def pd_joint_delta_pos(
    action: np.ndarray, state: JointState, gains: PDGains, geom: ArmGeom
) -> np.ndarray:
    """PD command toward q + dq_max * action, target clamped to joint limits."""
    action = _check_action(action, geom.n_joints)
    target = geom.clamp_to_limits(state.q + geom.dq_max * action)
    return _pd_command(target, state, gains)


def pd_ee_delta_pose(
    action: np.ndarray, state: JointState, gains: PDGains, geom: ArmGeom
) -> np.ndarray:
    """PD command toward the DLS solution for an end-effector delta.

    The action encodes (dx, dy) scaled by dx_max.  Damping keeps the joint
    delta finite even at singular poses (fully stretched arm).
    """
    action = _check_action(action, 2)
    dx = geom.dx_max * action
    J = jacobian(state.q, geom)
    dq = dls_solve(J, dx, geom.damping)
    target = geom.clamp_to_limits(state.q + dq)
    return _pd_command(target, state, gains)
