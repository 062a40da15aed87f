"""PD controllers and kinematics for a planar arm.

Controllers bridge policy actions in [-1, 1]^2 to joint commands:

* pd_joint_delta_pos: action scales a per-step joint-position delta; a PD
  law tracks the resulting target.
* pd_ee_delta_pose: action scales an end-effector position delta; damped
  least squares (`dls_step2`, the one DLS helper) maps it to a joint delta,
  then the same PD law tracks it.

The arm has two links by construction: ArmGeom holds two of each
length and limit, and a JointState is its four floats (q0, q1, v0, v1).
Its kinematics (`link_vectors2`) and both controllers run on Python
floats and return floats, each command a pair (u0, u1), so an
environment step makes no BLAS call and converts no array;
tests/test_controllers.py holds them to numpy oracles.  The joint-delta
target and the PD law keep the bits of the numpy expressions they
replaced: numpy's order of operations, each clip a max with the lower
bound, then a min with the upper.  `dls_step2` solves the damped 2x2
system by partial-pivot LU; its bits moved from the numpy solve's, whose
BLAS kernels fuse multiply-adds, and no longer depend on the BLAS build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError, require_finite_floats


class JointState(NamedTuple):
    """Joint angles (rad) and velocities (rad/s) of the two joints, as floats."""

    q0: float
    q1: float
    v0: float
    v1: float


@dataclass(frozen=True)
class PDGains:
    kp: float = 20.0
    kd: float = 2.0
    u_max: float = 50.0

    def __post_init__(self):
        require_finite_floats(self)
        if not (self.kp > 0.0 and self.kd >= 0.0 and self.u_max > 0.0):
            raise ShapeMismatchError("PD gains need kp > 0, kd >= 0, u_max > 0")


@dataclass(frozen=True)
class ArmGeom:
    """The two links' lengths and joint limits, and per-controller action scales."""

    link_lengths: tuple[float, float] = (1.0, 1.0)
    q_lo: tuple[float, float] = (-np.pi, -2.9)
    q_hi: tuple[float, float] = (np.pi, 2.9)
    dq_max: float = 0.1
    dx_max: float = 0.05
    damping: float = 0.05

    def __post_init__(self):
        require_finite_floats(self)
        if not len(self.link_lengths) == len(self.q_lo) == len(self.q_hi) == 2:
            raise ShapeMismatchError("the arm has two links: lengths and limits need two entries each")
        if min(self.link_lengths) <= 0.0:
            raise ShapeMismatchError("link lengths must be positive")
        if any(lo >= hi for lo, hi in zip(self.q_lo, self.q_hi)):
            raise ShapeMismatchError("joint limits need lo < hi")
        if min(self.dq_max, self.dx_max) <= 0.0 or self.damping <= 0.0:
            raise ShapeMismatchError("action scales and damping must be positive")


def check_action2(action: np.ndarray) -> tuple[float, float]:
    """The components of a 2-vector action in the [-1, 1] box, as floats."""
    action = np.asarray(action, dtype=np.float64)
    if action.shape != (2,):
        raise ShapeMismatchError(f"action must have shape (2,), got {action.shape}")
    a0, a1 = action.tolist()
    if not (math.isfinite(a0) and math.isfinite(a1)):
        raise NonFiniteError("action contains non-finite values")
    if abs(a0) > 1.0 + 1e-12 or abs(a1) > 1.0 + 1e-12:
        raise ShapeMismatchError("action components must lie in [-1, 1]")
    return a0, a1


def link_vectors2(q0: float, q1: float, geom: ArmGeom) -> tuple[float, float, float, float]:
    """(x0, y0, x1, y1): the two link vectors of the arm, on floats.

    The elbow sits at (x0, y0) and the tip at (x0 + x1, y0 + y1).  A sum
    from zero, as np.sum takes it, (0.0 + x0) + x1, differs from that only
    in the sign of a zero.
    """
    l0, l1 = geom.link_lengths
    a1 = q0 + q1
    return l0 * math.cos(q0), l0 * math.sin(q0), l1 * math.cos(a1), l1 * math.sin(a1)


def dls_step2(q0: float, q1: float, dx: float, dy: float, geom: ArmGeom) -> tuple[float, float]:
    """dq = J^T z with (J J^T + damping^2 I) z = (dx, dy), on floats, for
    the tip's analytic Jacobian J, built from `link_vectors2`.  Damping
    keeps dq finite at singular poses."""
    x0, y0, x1, y1 = link_vectors2(q0, q1, geom)
    j00, j01, j10, j11 = -(y0 + y1), -y1, x0 + x1, x1
    lam2 = geom.damping * geom.damping
    a01 = j00 * j10 + j01 * j11
    rows = ((j00 * j00 + j01 * j01) + lam2, a01, dx), (a01, (j10 * j10 + j11 * j11) + lam2, dy)
    # partial pivoting: eliminate with the row of larger first entry
    (p0, p1, pb), (r0, r1, rb) = rows[::-1] if abs(a01) > rows[0][0] else rows
    l = r0 / p0
    z1 = (rb - l * pb) / (r1 - l * p1)
    z0 = (pb - p1 * z1) / p0
    return j00 * z0 + j10 * z1, j01 * z0 + j11 * z1


def clip_float(x: float, lo: float, hi: float) -> float:
    """np.clip on one float; a tie keeps the bound, as with array bounds."""
    x = x if x > lo else lo
    return x if x < hi else hi


def _pd_command2(d0: float, d1: float, state: JointState, gains: PDGains, geom: ArmGeom) -> tuple[float, float]:
    """kp * (clip(q + d, q_lo, q_hi) - q) - kd * qdot, clipped to +-u_max."""
    q0, q1, v0, v1 = state
    (lo0, lo1), (hi0, hi1), u_max = geom.q_lo, geom.q_hi, gains.u_max
    u0 = gains.kp * (clip_float(q0 + d0, lo0, hi0) - q0) - gains.kd * v0
    u1 = gains.kp * (clip_float(q1 + d1, lo1, hi1) - q1) - gains.kd * v1
    return clip_float(u0, -u_max, u_max), clip_float(u1, -u_max, u_max)


def pd_joint_delta_pos(
    action: np.ndarray, state: JointState, gains: PDGains, geom: ArmGeom
) -> tuple[float, float]:
    """PD command toward q + dq_max * action, target clamped to joint limits."""
    a0, a1 = check_action2(action)
    return _pd_command2(geom.dq_max * a0, geom.dq_max * a1, state, gains, geom)


def pd_ee_delta_pose(
    action: np.ndarray, state: JointState, gains: PDGains, geom: ArmGeom
) -> tuple[float, float]:
    """PD command toward the DLS solution for an end-effector delta.

    The action encodes (dx, dy) scaled by dx_max.  Damping keeps the joint
    delta finite even at singular poses (fully stretched arm).
    """
    a0, a1 = check_action2(action)
    dq = dls_step2(state.q0, state.q1, geom.dx_max * a0, geom.dx_max * a1, geom)
    return _pd_command2(*dq, state, gains, geom)
