"""Toy manipulation environments with point-cloud observations.

Three planar tasks, each with a train/test variant split whose parameter
ranges are disjoint half-open intervals, so no scene parameter value can be
produced by both splits:

* reach2d: a 2-link arm drives its tip to a goal point (goal radius is the
  varied parameter); pd_ee_delta_pose controller.
* pushbox2d: the arm tip pushes a square box to a target zone
  (box side length varied); quasi-static contact, pd_joint_delta_pos.
* gather2d: a circular pusher with 2 Cartesian DOF herds 32 free particles
  into a target disk (initial particle spread varied); pd_joint_delta_pos.

Observations are (N, 5) point clouds -- columns [x, y, robot, object,
target] with a one-hot class per point -- plus a task-specific proprio
vector.  Surface sample offsets are drawn once per episode at reset, not
per step, so observation noise stays out of the learning signal.

Everything is deterministic: (config, episode seed, action sequence) fully
determines every result, bit for bit.  Integration is semi-implicit Euler
with a few substeps per control tick; commands are joint accelerations
under unit inertia.  The state of a step is carried on Python floats:
the joint state (controllers.JointState, four floats), the goal or
target, the arm tip, the box and gather2d's particles, each in numpy's
order of operations, so it gives the same bits as the elementwise array
expressions it stands for.  The controllers take and return floats too
(see controllers.py).  gather2d's 32 particles stay two lists of floats:
per-episode arrays kept every bit but made a step slower, since numpy's
per-call cost on 32 rows outweighs the loop it replaces (ROADMAP item 1).

A step returns only its reward and flags (StepResult).  Observations are
built apart from the step, for every lane of a tick at once, by an
Observer: one call fills a (K, N, C) points array and a (K, P) proprio
array from the lanes' floats.  Each task's first cloud rows move (the
arm's sample points, pushbox2d's box outline, gather2d's pusher ring and
particles): each coordinate is the episode's offset times a scale plus a
shift, the scale and shift picked from the lane's floats (_cloud_floats)
by the task's _cloud_index, in one take, one multiply and one add over
all lanes.  The rest of each cloud is the episode's template.  The
proprio rows are one conversion of the lanes' _proprio floats.  An
Observer stacks the per-episode arrays (templates and offsets) once and
restacks a lane's only when it resets.  Every element goes through the
numpy operations a lone observation's would, in the same order, so K
lanes give each lane the bits it has alone; ToyEnv.observe, and reset's
return value, are that call on one lane.
No env arithmetic goes through BLAS: norms and dot products, the experts'
included, are written out on floats with each product and sum rounded on
its own.  A BLAS dot or matrix-vector product fuses multiply-adds on some
OpenBLAS kernels and not on others, so its last bits depend on the machine;
these do not.
Episodes terminate at the first successful step or at the horizon.  A
step's reward is the task's shaping term plus SUCCESS_BONUS if it succeeds.

PPO rollouts, evaluation and demos step environments only through the
lockstep driver run_lanes.  A lane is an environment, a seed source and a
step budget.  It resets at its start, and after each episode end while it
has steps and a seed left; it leaves when its budget is spent, or when an
episode ends and no seed is left.  The driver hands its caller one Tick
at a time: the live lanes' indices, the observation rows their actions
were taken on, the actions, rewards and flags, and each lane's
next-observation rows, built after its step and before any reset.
A rollout runs at most MAX_LANES lanes.
Demo generation draws all its seeds first and runs them in consecutive
chunks of at most MAX_LANES, one lane per seed, so its memory does not
grow with the episode count.  Evaluation runs one lane per panel seed.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import controllers as ctrl
from .errors import ConfigError, EmptyDatasetError
from .pointnet import FEAT_CHANNELS, POINT_DIM, PointCloudObs
from .rng import make_generator, next_episode_seed

TASKS = ("reach2d", "pushbox2d", "gather2d")
SPLITS = ("train", "test")

N_POINTS = 64  # points per cloud, on every task
ACTION_DIM = 2

DT = 0.05  # control period (s), on every task
_SUBSTEPS = 4
SUCCESS_BONUS = 10.0  # added to the reward of the step that succeeds

_HORIZONS = {"reach2d": 100, "pushbox2d": 150, "gather2d": 200}
# each task's (train, test) ranges of its varied parameter: half-open
# [lo, hi) intervals with lo < hi, train and test disjoint (sharing an
# endpoint is fine); tests/test_envs.py holds the table to this
_RANGES = {
    "reach2d": ((0.5, 1.2), (1.2, 1.6)),
    "pushbox2d": ((0.10, 0.18), (0.18, 0.24)),
    "gather2d": ((0.1, 0.2), (0.2, 0.3)),
}


@dataclass(frozen=True)
class EnvConfig:
    """Task id, split, seed and horizon: what a run sets.  The task fixes
    the rest, the control period DT and its variant ranges in _RANGES."""

    task: str
    split: str = "train"
    seed: int = 0
    horizon: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}, expected one of {TASKS}")
        if self.split not in SPLITS:
            raise ConfigError(f"unknown split {self.split!r}, expected one of {SPLITS}")
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")

    @property
    def variant_range(self) -> tuple[float, float]:
        return _RANGES[self.task][SPLITS.index(self.split)]

    def fingerprint(self) -> str:
        """Canonical dynamics identity (seed excluded: it picks episodes,
        not physics), used to match demo files to environments."""
        train, test = _RANGES[self.task]
        return (
            f"task={self.task};horizon={self.horizon};dt={DT!r};"
            f"n_points={N_POINTS};train={train!r};test={test!r}"
        )


def make_config(task: str, split: str = "train", seed: int = 0, horizon: int | None = None) -> EnvConfig:
    """EnvConfig with the task's horizon unless one is given; EnvConfig rejects an unknown task."""
    return EnvConfig(task, split, seed, _HORIZONS.get(task, 0) if horizon is None else horizon)


class StepResult(NamedTuple):
    """What a step returns; its observation comes from an Observer."""

    reward: float
    done: bool
    success: bool


@dataclass
class DemoTrajectory:
    """One expert episode: stacked observations and the actions taken."""

    points: np.ndarray  # (T, N, C)
    proprios: np.ndarray  # (T, P)
    actions: np.ndarray  # (T, A)
    success: bool


def _norm2(x: float, y: float) -> float:
    """The length of (x, y) as sqrt(x * x + y * y) on floats, each operation
    rounded on its own.  np.linalg.norm of a vector takes the square root of
    a BLAS dot, which some kernels fuse into a multiply-add, so its last bit
    would depend on the machine."""
    return math.sqrt(x * x + y * y)


def _unit(x: float, y: float) -> tuple[float, float]:
    """(x, y) scaled to length 1; (1, 0) for a vector too short to scale."""
    n = _norm2(x, y)
    if n < 1e-12:
        return 1.0, 0.0
    return x / n, y / n


# Scripted experts compensate the deliberately underdamped PD plant
# (kp=20, kd=2) by feeding a velocity term back through the action channel.
_EXPERT_DAMPING = 1.0


def _disk_offsets(gen: np.random.Generator, count: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(gen.uniform(size=count))
    phi = gen.uniform(0.0, 2.0 * np.pi, size=count)
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)


def _ring_offsets(gen: np.random.Generator, count: int, radius: float) -> np.ndarray:
    phase = gen.uniform(0.0, 2.0 * np.pi)
    phi = phase + np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    return radius * np.stack([np.cos(phi), np.sin(phi)], axis=1)


def _link_index(n: int) -> np.ndarray:
    """A _cloud_index part, (2, n, 2), into `ToyEnv._arm_floats`' 8 values
    (the starts of links 0 and 1, then their vectors): each of n arm
    points' link start as its shift, then its link vector as its scale,
    the first n/2 points on link 0, as np.array_split halves an even n."""
    starts = np.repeat([[0, 1], [2, 3]], n // 2, axis=0)
    return np.stack((starts, starts + 4))


def _shift_index(shifts, scale: int) -> np.ndarray:
    """A _cloud_index part, (2, m, 2), for m rows that move by a shift: row
    i's coordinates take their shifts at the pair shifts[i] and their scale
    at `scale`, a 1.0 among the cloud floats.  An offset times 1.0 is the
    offset, so such a row is its offset plus its shift, bit for bit."""
    shifts = np.asarray(shifts)
    return np.stack((shifts, np.full_like(shifts, scale)))


def _segment_clearance(a, b, p) -> float:
    """Distance from point p to segment a-b, each point a pair of floats."""
    (ax, ay), (bx, by), (px, py) = a, b, p
    abx, aby = bx - ax, by - ay
    denom = abx * abx + aby * aby
    t = 0.0
    if denom >= 1e-18:
        # np.clip's rule: a value not above 0 becomes 0.0, not below 1 becomes 1.0
        t = ((px - ax) * abx + (py - ay) * aby) / denom
        t = t if t > 0.0 else 0.0
        t = t if t < 1.0 else 1.0
    return _norm2(ax + t * abx - px, ay + t * aby - py)


def _detour(start, waypoint, obstacle, d, clearance: float, offset: float) -> tuple[float, float]:
    """The expert's waypoint, or, when the straight path from start to it
    passes within `clearance` of `obstacle`, the point `offset` from the
    obstacle across the push direction d, on start's side of it.  Points
    and directions are pairs of floats."""
    if _segment_clearance(start, waypoint, obstacle) < clearance:
        (sx, sy), (ox, oy), (dx, dy) = start, obstacle, d
        side = 1.0 if dx * (sy - oy) - dy * (sx - ox) >= 0.0 else -1.0
        waypoint = ox + side * -dy * offset, oy + side * dx * offset
    return waypoint


class ToyEnv:
    """Base class: owns integration, bookkeeping, and the step contract.

    A task implements five hooks: `_reset_scene` builds the episode around
    `self.variant`, its cloud's per-episode arrays included (`_template`,
    the whole cloud with its moving rows left zero, and `_offsets`, one
    per moving row and coordinate); `_measure` returns (success, shaping)
    and keeps what the cloud, proprio and expert share (the arm tip,
    distances); `_cloud_floats` and `_proprio` return the floats an
    Observer converts; and `expert_action`.  A task's `_cloud_index`
    picks each moving row's shift and scale from its `_cloud_floats`.
    `_command` turns an action into a joint command (pd_joint_delta_pos
    unless a task overrides it); contact runs in `_after_substep`.
    """

    proprio_width = 0
    gains = ctrl.PDGains()
    geom = ctrl.ArmGeom()
    _cloud_index: np.ndarray  # (2, moving rows, 2): shift, then scale

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        self._open = False

    # -- per-task hooks -------------------------------------------------
    def _reset_scene(self, gen: np.random.Generator) -> None:
        raise NotImplementedError

    def _measure(self) -> tuple[bool, float]:
        """(success, shaping) of the state; step adds SUCCESS_BONUS on success."""
        raise NotImplementedError

    def _cloud_floats(self) -> Sequence[float]:
        """The floats the moving rows' shifts and scales come from, as many
        as _cloud_index reads."""
        raise NotImplementedError

    def _proprio(self) -> Sequence[float]:
        """The proprio_width floats of the proprio row."""
        raise NotImplementedError

    def expert_action(self) -> np.ndarray:
        raise NotImplementedError

    # -- shared machinery ------------------------------------------------
    def reset(self, episode_seed: int) -> PointCloudObs:
        gen = make_generator("env", self.cfg.task, self.cfg.split, self.cfg.seed, int(episode_seed))
        self.t = 0
        self._open = True
        lo, hi = self.cfg.variant_range
        self.variant = float(gen.uniform(lo, hi))
        self._reset_scene(gen)
        self._measure()
        return self.observe()

    def step(self, action: np.ndarray) -> StepResult:
        if not self._open:
            raise ConfigError("no open episode to step; reset() the environment")
        self._integrate(self._command(action))  # the controller rejects a bad action before any state moves
        self.t += 1
        success, shaping = self._measure()
        reward = shaping + (SUCCESS_BONUS if success else 0.0)
        done = success or self.t >= self.cfg.horizon
        self._open = not done
        return StepResult(reward, done, success)

    def observe(self) -> PointCloudObs:
        """The observation of the current state: an Observer's call on this one lane."""
        points, proprio = Observer([self])()
        return PointCloudObs(points[0], proprio[0])

    def _command(self, action: np.ndarray) -> tuple[float, float]:
        return ctrl.pd_joint_delta_pos(action, self.state, self.gains, self.geom)

    def _integrate(self, u: tuple[float, float]) -> None:
        """Semi-implicit Euler under unit inertia, joint limits enforced.

        Runs on Python floats in numpy's order of operations: each substep
        adds h * u to the velocities, then h * velocity to the angles, then
        clamps an angle past its limit and stops that joint, then hands the
        angles at the substep's start and end to `_after_substep`.
        tests/test_envs.py holds it to the numpy reference bit for bit.
        """
        h = DT / _SUBSTEPS
        u0, u1 = u
        (lo0, lo1), (hi0, hi1) = self.geom.q_lo, self.geom.q_hi
        q0, q1, v0, v1 = self.state
        for _ in range(_SUBSTEPS):
            p0, p1 = q0, q1
            v0 = v0 + h * u0
            v1 = v1 + h * u1
            q0 = q0 + h * v0
            q1 = q1 + h * v1
            if q0 < lo0:
                q0, v0 = lo0, 0.0
            elif q0 > hi0:
                q0, v0 = hi0, 0.0
            if q1 < lo1:
                q1, v1 = lo1, 0.0
            elif q1 > hi1:
                q1, v1 = hi1, 0.0
            self._after_substep(p0, p1, q0, q1)
        self.state = ctrl.JointState(q0, q1, v0, v1)

    def _after_substep(self, p0: float, p1: float, q0: float, q1: float) -> None:
        pass

    def _expert_command(self, d0: float, d1: float) -> np.ndarray:
        """An expert's joint delta (d0, d1) as an action: damped by the
        joint velocities, then scaled down to a peak of 1 if it exceeds 1."""
        dq_max, (_, _, v0, v1) = self.geom.dq_max, self.state
        r0 = d0 / dq_max - _EXPERT_DAMPING * v0
        r1 = d1 / dq_max - _EXPERT_DAMPING * v1
        peak = max(abs(r0), abs(r1))
        return np.array((r0 / peak, r1 / peak) if peak > 1.0 else (r0, r1))

    def _arm_tip(self, q0: float, q1: float) -> tuple[float, float]:
        """The tip position, the link vectors summed from 0.0 as np.sum sums; keeps the links."""
        x0, y0, x1, y1 = self._links = ctrl.link_vectors2(q0, q1, self.geom)
        return 0.0 + x0 + x1, 0.0 + y0 + y1

    def _arm_floats(self) -> tuple[float, ...]:
        """The arm's 8 cloud floats, read by `_link_index`: the starts of
        links 0 and 1 (base, elbow), then their vectors to their ends
        (elbow, tip).  An arm point is a + t d for its link's start a and
        vector d and its episode offset t in [0, 1).  The links are the
        last `_arm_tip` call's, on the current state."""
        x0, y0, x1, y1 = self._links
        return 0.0, 0.0, x0, y0, x0 - 0.0, y0 - 0.0, x0 + x1 - x0, y0 + y1 - y0

    def _arm_offsets(self, gen: np.random.Generator) -> np.ndarray:
        """The episode's n_arm offsets t, each kept for both coordinates of its point."""
        return np.repeat(gen.uniform(0.0, 1.0, size=self.n_arm), 2).reshape(-1, 2)

    def _cloud_template(self, segments) -> np.ndarray:
        """The episode's cloud layout: for each (count, class, coords) segment
        in order, rows with that one-hot class and, where coords is not None,
        those fixed coordinates.  An Observer copies it for every tick."""
        template = np.zeros((N_POINTS, POINT_DIM + FEAT_CHANNELS))
        row = 0
        for count, cls, coords in segments:
            template[row : row + count, POINT_DIM + cls] = 1.0
            if coords is not None:
                template[row : row + count, :POINT_DIM] = coords
            row += count
        return template


class Reach2D(ToyEnv):
    """Drive the arm tip to a goal point; goal radius is the varied parameter."""

    proprio_width = 8
    tolerance = 0.05
    n_arm = 44
    _cloud_index = _link_index(n_arm)

    def _reset_scene(self, gen: np.random.Generator) -> None:
        theta = gen.uniform(-2.0, 2.0)
        goal = self.variant * np.array([np.cos(theta), np.sin(theta)])
        self.goal = tuple(goal.tolist())
        q = np.array([np.pi / 3, -2 * np.pi / 3]) + gen.uniform(-0.05, 0.05, size=2)
        self.state = ctrl.JointState(*q.tolist(), 0.0, 0.0)
        self._offsets = self._arm_offsets(gen)
        goal_points = goal + _disk_offsets(gen, 20, 0.03)
        self._template = self._cloud_template(((self.n_arm, 0, None), (20, 2, goal_points)))

    def _command(self, action: np.ndarray) -> tuple[float, float]:
        return ctrl.pd_ee_delta_pose(action, self.state, self.gains, self.geom)

    def _measure(self) -> tuple[bool, float]:
        self._tip = tx, ty = self._arm_tip(self.state.q0, self.state.q1)
        gx, gy = self.goal
        dist = _norm2(tx - gx, ty - gy)
        return dist <= self.tolerance, -dist * DT

    def _cloud_floats(self) -> tuple[float, ...]:
        return self._arm_floats()

    def _proprio(self) -> tuple[float, ...]:
        (tx, ty), (gx, gy) = self._tip, self.goal
        return (*self.state, tx, ty, gx - tx, gy - ty)

    def expert_action(self) -> np.ndarray:
        (tx, ty), (gx, gy), dx_max = self._tip, self.goal, self.geom.dx_max
        a0, a1 = (gx - tx) / dx_max, (gy - ty) / dx_max
        return np.array((ctrl.clip_float(a0, -1.0, 1.0), ctrl.clip_float(a1, -1.0, 1.0)))


# first corner (in half sides) and walking direction of each box side
_SIDE_STARTS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
_SIDE_WALKS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


class PushBox2D(ToyEnv):
    """Push a square box to a target zone with the arm tip; box side varied.

    The box position and the target are pairs of floats, `box` and `target`.
    """

    proprio_width = 10
    tolerance = 0.05
    n_arm = 28
    n_outline = 24
    # the arm's 8 floats, then the box centre and 1.0: the outline rows are
    # the episode's outline, relative to the centre, plus the centre
    _cloud_index = np.concatenate((_link_index(n_arm), _shift_index([[8, 9]] * n_outline, 10)), axis=1)

    def _reset_scene(self, gen: np.random.Generator) -> None:
        self.side = self.variant
        phi = gen.uniform(0.15, 1.35)
        rb = gen.uniform(0.75, 1.0)
        box = rb * np.array([np.cos(phi), np.sin(phi)])
        psi = phi + gen.uniform(-0.6, 0.6)
        dist = gen.uniform(0.30, 0.45)
        target = box + dist * np.array([np.cos(psi), np.sin(psi)])
        # keep the target comfortably inside the reachable annulus
        norm = _norm2(*target.tolist())
        if norm > 1.5:
            target = target * (1.5 / norm)
        elif norm < 0.35:
            target = box + dist * np.array(_unit(*box.tolist()))
        self.box = tuple(box.tolist())
        self.target = tuple(target.tolist())
        q = np.array([0.9, -2.4]) + gen.uniform(-0.05, 0.05, size=2)
        self.state = ctrl.JointState(*q.tolist(), 0.0, 0.0)
        arm = self._arm_offsets(gen)  # drawn before the outline's parameters
        self._offsets = np.concatenate((arm, self._box_outline(gen.uniform(0.0, 1.0, size=self.n_outline))))
        target_points = target + _disk_offsets(gen, 12, 0.03)
        self._template = self._cloud_template(
            ((self.n_arm, 0, None), (self.n_outline, 1, None), (12, 2, target_points))
        )
        self._last_tip = self._arm_tip(self.state.q0, self.state.q1)

    def _box_outline(self, us: np.ndarray) -> np.ndarray:
        """Map per-episode parameters u in [0,1) onto the box outline, relative
        to the box centre: sides 0-3 counter-clockwise from the bottom face,
        each walked from its first corner by frac * side."""
        u = us * 4.0
        side_idx = np.floor(u).astype(int)
        frac = u - side_idx
        half = self.side / 2.0
        # corner + 0 * walk is the corner and corner + (-1) * walk is
        # corner - walk, exactly: each side's own formula, bit for bit
        return half * _SIDE_STARTS[side_idx] + _SIDE_WALKS[side_idx] * (frac * self.side)[:, None]

    def _after_substep(self, p0: float, p1: float, q0: float, q1: float) -> None:
        # Quasi-static push: when the tip ends a substep inside the box
        # footprint, the box slides along the tip's direction of travel until
        # the tip sits on the face it came through.  Friction-dominated
        # contact follows the push, so a diagonal push yields a diagonal
        # slide; resolving along the nearest axis instead would quantise box
        # motion to world x/y and make oblique targets unreachable.
        tx, ty = self._arm_tip(q0, q1)
        lx, ly = self._last_tip
        self._last_tip = (tx, ty)
        bx, by = self.box
        rx, ry = tx - bx, ty - by
        half = self.side / 2.0
        if not (abs(rx) < half and abs(ry) < half):
            return
        vx, vy = tx - lx, ty - ly
        speed = _norm2(vx, vy)
        if speed < 1e-12:
            # static overlap (reset jitter): fall back to least penetration
            pen_x = half - abs(rx)
            pen_y = half - abs(ry)
            if pen_x <= pen_y:
                sx = 1.0 if rx >= 0.0 else -1.0
                self.box = (tx - sx * half, by)
            else:
                sy = 1.0 if ry >= 0.0 else -1.0
                self.box = (bx, ty - sy * half)
            return
        ux, uy = vx / speed, vy / speed
        t = math.inf
        for r, u in ((rx, ux), (ry, uy)):
            if abs(u) > 1e-12:
                t = min(t, (r + (half if u > 0.0 else -half)) / u)
        self.box = (bx + t * ux, by + t * uy)

    def _measure(self) -> tuple[bool, float]:
        self._tip = tx, ty = self._last_tip  # the tip of the current state, from the last substep or reset
        (bx, by), (gx, gy) = self.box, self.target
        self._dist_bt = _norm2(bx - gx, by - gy)
        gap = max(0.0, _norm2(tx - bx, ty - by) - self.side / 2.0)
        return self._dist_bt <= self.tolerance, -(self._dist_bt + 0.3 * gap) * DT

    def _cloud_floats(self) -> tuple[float, ...]:
        return (*self._arm_floats(), *self.box, 1.0)

    def _proprio(self) -> tuple[float, ...]:
        (tx, ty), (bx, by), (gx, gy) = self._tip, self.box, self.target
        return (*self.state, tx, ty, bx - tx, by - ty, gx - bx, gy - by)

    def expert_action(self) -> np.ndarray:
        (tx, ty), (bx, by), (gx, gy) = self._tip, self.box, self.target
        d = dx, dy = _unit(gx - bx, gy - by)
        rx, ry = tx - bx, ty - by
        along = rx * dx + ry * dy
        lat_x, lat_y = rx - along * dx, ry - along * dy
        half = self.side / 2.0
        if 0.0 < -along < half + 0.35 and _norm2(lat_x, lat_y) < half + 0.04:
            # tip is in the capture region behind the box.  Advance against
            # the back face; slow down as the box nears the target so it
            # settles inside the tolerance instead of coasting past, and
            # bleed off any off-axis offset so the push tracks the line.
            advance = min(0.15, 0.5 * self._dist_bt + 0.02)
            mx, my = dx * advance - lat_x, dy * advance - lat_y
        else:
            back = half + 0.12
            wx, wy = _detour((tx, ty), (bx - dx * back, by - dy * back), self.box, d, half + 0.06, half + 0.25)
            mx, my = wx - tx, wy - ty
        norm = _norm2(mx, my)
        if norm > 0.30:
            mx, my = mx * (0.30 / norm), my * (0.30 / norm)
        return self._expert_command(*ctrl.dls_step2(self.state.q0, self.state.q1, mx, my, self.geom))


class Gather2D(ToyEnv):
    """Herd 32 free particles into a target disk with a circular pusher.

    The pusher's centre is the joint state's (q0, q1); the target centre is
    a pair of floats, `target`, and the particles two lists of floats.
    """

    proprio_width = 9
    n_particles = 32
    n_ring = 16
    pusher_radius = 0.35
    target_radius = 0.45
    success_fraction = 0.8
    # the "arm" is the pusher itself: two Cartesian DOF on the plane
    geom = ctrl.ArmGeom(link_lengths=(1.0, 1.0), q_lo=(-1.6, -1.6), q_hi=(1.6, 1.6))
    # the pusher centre, 1.0, then the particles' x and y: the ring rows are
    # the episode's ring plus the centre, and each particle row its offset
    # -0.0, the identity of addition, plus the particle
    _cloud_index = np.concatenate(
        (_shift_index([[0, 1]] * n_ring, 2), _shift_index(3 + np.arange(2 * n_particles).reshape(2, -1).T, 2)),
        axis=1,
    )

    def _reset_scene(self, gen: np.random.Generator) -> None:
        sigma = self.variant
        source = np.array([-0.55, gen.uniform(-0.25, 0.25)])
        target = np.array([0.55, gen.uniform(-0.25, 0.25)])
        self.target = tuple(target.tolist())
        spread = np.clip(source + sigma * gen.normal(size=(self.n_particles, 2)), -1.5, 1.5)
        self._px, self._py = spread[:, 0].tolist(), spread[:, 1].tolist()
        start = source - 0.45 * np.array(_unit(*(target - source).tolist()))
        q0, q1 = (start + gen.uniform(-0.03, 0.03, size=2)).tolist()
        self.state = ctrl.JointState(q0, q1, 0.0, 0.0)
        self._expel_radially(q0, q1)  # a wide spread can overlap the pusher at reset
        ring = _ring_offsets(gen, self.n_ring, self.pusher_radius)
        self._offsets = np.concatenate((ring, np.full((self.n_particles, 2), -0.0)))
        target_points = target + _ring_offsets(gen, self.n_ring, self.target_radius)
        self._template = self._cloud_template(
            ((self.n_ring, 0, None), (self.n_particles, 1, None), (self.n_ring, 2, target_points))
        )

    def _expel_radially(self, cx: float, cy: float) -> None:
        """Put each particle inside the pusher centred at (cx, cy) on its rim,
        straight out from the centre (along +x from the centre itself)."""
        px, py = self._px, self._py
        # tiny overshoot keeps this idempotent: placing a particle exactly
        # on the circle can round 1 ulp inside and expel it again next call
        rim = self.pusher_radius + 1e-9
        for i in range(self.n_particles):
            dx, dy = px[i] - cx, py[i] - cy
            dist = _norm2(dx, dy)
            if dist < self.pusher_radius:
                ux, uy = (dx / dist, dy / dist) if dist > 1e-12 else (1.0, 0.0)
                px[i] = cx + rim * ux
                py[i] = cy + rim * uy

    def _after_substep(self, p0: float, p1: float, q0: float, q1: float) -> None:
        # Friction-dominated contact: a particle overrun by the pusher exits
        # along the pusher's direction of motion (like soil ahead of a plow
        # blade), not radially -- radial ejection would shed everything
        # sideways and make herding with a disk impossible.
        vx, vy = q0 - p0, q1 - p1
        speed = _norm2(vx, vy)
        if speed < 1e-12:
            self._expel_radially(q0, q1)
            return
        ux, uy = vx / speed, vy / speed
        r_sq = self.pusher_radius**2
        px, py = self._px, self._py
        for i in range(self.n_particles):
            wx, wy = px[i] - q0, py[i] - q1
            dist_sq = wx * wx + wy * wy
            if dist_sq < r_sq:
                # move it forward along (ux, uy) to where it meets the rim
                proj = wx * ux + wy * uy
                t = -proj + math.sqrt(proj * proj + r_sq - dist_sq)
                px[i] += t * ux
                py[i] += t * uy

    def _particle_stats(self) -> tuple[float, tuple[float, float]]:
        """The fraction of particles in the target and the centroid of the
        others (the target's centre if none), counted and summed in index
        order from 0.0: the bits of numpy's mean over the boolean mask and
        of its axis-0 mean over the particles outside."""
        gx, gy = self.target
        n_in, sx, sy = 0, 0.0, 0.0
        for x, y in zip(self._px, self._py):
            if _norm2(x - gx, y - gy) <= self.target_radius:
                n_in += 1
            else:
                sx += x
                sy += y
        n_out = self.n_particles - n_in
        return n_in / self.n_particles, ((sx / n_out, sy / n_out) if n_out else (gx, gy))

    def _measure(self) -> tuple[bool, float]:
        self._fraction_in, self._out_centroid = self._particle_stats()
        (cx, cy, _, _), (mx, my) = self.state, self._out_centroid
        reach = max(0.0, _norm2(cx - mx, cy - my) - self.pusher_radius)
        shaping = -((1.0 - self._fraction_in) + 0.1 * min(reach, 1.0)) * DT
        return self._fraction_in >= self.success_fraction, shaping

    def _cloud_floats(self) -> tuple[float, ...]:
        return (self.state.q0, self.state.q1, 1.0, *self._px, *self._py)

    def _proprio(self) -> tuple[float, ...]:
        (cx, cy, v0, v1), (mx, my), (tx, ty) = self.state, self._out_centroid, self.target
        return (cx, cy, v0, v1, mx - cx, my - cy, tx - cx, ty - cy, self._fraction_in)

    def expert_action(self) -> np.ndarray:
        (cx, cy, _, _), (mx, my), (gx, gy) = self.state, self._out_centroid, self.target
        d = dx, dy = _unit(gx - mx, gy - my)
        ax, ay = _unit(mx - cx, my - cy)
        pr, tr = self.pusher_radius, self.target_radius
        if _norm2(cx - gx, cy - gy) < pr + 0.05:
            # deep enough in the drop zone: back straight out and re-line-up
            ux, uy = _unit(cx - gx, cy - gy)
            move = ux * 0.3, uy * 0.3
        elif ax * dx + ay * dy >= 0.8 and _norm2(cx - mx, cy - my) <= pr + 0.5:
            # lined up behind the pile: drive forward, correcting any lateral
            # offset so the plow stays centered on the stragglers
            ox, oy = cx - mx, cy - my
            along = ox * dx + oy * dy
            move = dx * 0.3 - (ox - along * dx), dy * 0.3 - (oy - along * dy)
        else:
            back = pr + 0.10
            waypoint = _detour((cx, cy), (mx - dx * back, my - dy * back), (mx, my), d, pr + 0.05, pr + 0.30)
            # never cut through the drop zone: settled particles would get
            # plowed straight out the far side
            wx, wy = _detour((cx, cy), waypoint, (gx, gy), d, tr + pr * 0.8, tr + pr + 0.10)
            move = wx - cx, wy - cy
        return self._expert_command(*move)


_ENV_CLASSES = {"reach2d": Reach2D, "pushbox2d": PushBox2D, "gather2d": Gather2D}


def make_env(cfg: EnvConfig) -> ToyEnv:
    return _ENV_CLASSES[cfg.task](cfg)


def proprio_width(task: str) -> int:
    return _ENV_CLASSES[task].proprio_width


def _float_rows(rows: list, width: int) -> np.ndarray:
    """One (len(rows), width) float64 array from rows of `width` floats
    each: one conversion of them all, which keeps every float's bits."""
    return np.fromiter(chain.from_iterable(rows), np.float64, len(rows) * width).reshape(len(rows), width)


class Observer:
    """The observations of a list of environments of one task, all built
    by one call, the environments' current states read as they stand.

    It holds the per-episode arrays stacked, (K, N, C) templates and
    (K, M, 2) offsets for M moving rows; `renew(i)` restacks lane i's
    after it resets, and `keep(rows)` drops the other lanes.
    """

    def __init__(self, envs: Sequence[ToyEnv]):
        tasks = {type(env) for env in envs}
        if len(tasks) != 1:
            names = sorted(task.__name__ for task in tasks)
            raise ConfigError(f"an observer needs environments of one task, got {names}")
        self.task = tasks.pop()
        self._width = int(self.task._cloud_index.max()) + 1  # cloud floats per lane
        self.envs = list(envs)
        self._templates = np.array([env._template for env in envs])
        self._offsets = np.array([env._offsets for env in envs])

    def renew(self, i: int) -> None:
        self._templates[i] = self.envs[i]._template
        self._offsets[i] = self.envs[i]._offsets

    def keep(self, rows: list[int]) -> None:
        self.envs = [self.envs[i] for i in rows]
        self._templates = self._templates[rows]
        self._offsets = self._offsets[rows]

    def __call__(self) -> tuple[np.ndarray, np.ndarray]:
        """Fresh (K, N, C) points and (K, P) proprio rows, in lane order:
        the moving rows are offset * scale + shift, each scale and shift
        taken from the lanes' cloud floats by the task's _cloud_index, and
        written over a copy of the templates."""
        task, envs = self.task, self.envs
        floats = _float_rows([env._cloud_floats() for env in envs], self._width)
        moved = floats.take(task._cloud_index, axis=1)  # (K, 2, M, 2): shifts, then scales
        shift, scaled = moved[:, 0], moved[:, 1]
        np.multiply(scaled, self._offsets, out=scaled)
        np.add(scaled, shift, out=scaled)
        points = self._templates.copy()
        points[:, : scaled.shape[1], :POINT_DIM] = scaled
        return points, _float_rows([env._proprio() for env in envs], task.proprio_width)


# lanes of one run_lanes call at most, for PPO rollouts (ppo.lane_sizes)
# and for each chunk of demo generation, so demo memory does not grow with
# the episode count.  The batched forward (policy.mean_actions on
# pushbox2d, an AVX-512 Xeon, one BLAS thread, perfbench's malloc
# thresholds, fastest of seven timings) costs about 46 us per cloud at 1
# cloud, 13-14 at 16, 13 at 32 and 13-14 at 40, with no cliff past 16; a
# larger K would cut a rollout's forward calls, but K fixes each rollout
# lane's stream and length, so changing it moves every PPO digest
MAX_LANES = 16


class Lane(NamedTuple):
    """An environment of a lockstep, its episode seeds and its step budget."""

    env: ToyEnv
    seeds: Iterator[int]
    budget: int


class Tick(NamedTuple):
    """One lockstep tick: row i of each array is lane lanes[i]'s."""

    lanes: np.ndarray  # (K,) the live lanes' indices, ascending
    points: np.ndarray  # (K, N, C) the observations the actions were taken on
    proprios: np.ndarray  # (K, P)
    actions: np.ndarray  # (K, A)
    rewards: np.ndarray  # (K,)
    dones: np.ndarray  # (K,) bool
    successes: np.ndarray  # (K,) bool
    next_points: np.ndarray  # (K, N, C) each lane's observation after its step, before any reset
    next_proprios: np.ndarray  # (K, P)


def run_lanes(lanes: Sequence[Lane], act) -> Iterator[Tick]:
    """Step the lanes in lockstep; yield one Tick per tick.  A lane resets
    to its next seed at its start, and after each episode end while it has
    steps and a seed left; it leaves when its budget is spent, or when an
    episode ends and no seed is left.  Each tick calls act(live lanes'
    indices, their points, their proprios) once, for one action row per
    live lane, steps each live lane once, in lane order, builds their next
    observations in one Observer call and yields; the resets follow.  No
    array of a Tick is written after it is yielded."""
    first = [lane.env.reset(next(lane.seeds)) for lane in lanes]
    points = np.array([obs.points for obs in first])
    proprios = np.array([obs.proprio for obs in first])
    observe = Observer([lane.env for lane in lanes])
    left = [lane.budget for lane in lanes]
    live = np.arange(len(lanes))
    while live.size:
        actions = np.asarray(act(live, points, proprios))
        results = [lanes[k].env.step(action) for k, action in zip(live.tolist(), actions)]
        rewards, dones, successes = map(np.array, zip(*results))
        next_points, next_proprios = observe()
        yield Tick(live, points, proprios, actions, rewards, dones, successes, next_points, next_proprios)
        kept, fresh = [], []  # rows that stay live; (row after compaction, reset observation)
        for i, (k, res) in enumerate(zip(live.tolist(), results)):
            left[k] -= 1
            seed = next(lanes[k].seeds, None) if res.done and left[k] else None
            if left[k] and (seed is not None or not res.done):
                if seed is not None:
                    fresh.append((len(kept), lanes[k].env.reset(seed)))
                kept.append(i)
        points, proprios = next_points, next_proprios
        if len(kept) < live.size:
            live = live[kept]
            observe.keep(kept)
            points, proprios = points[kept], proprios[kept]
        elif fresh:
            points, proprios = points.copy(), proprios.copy()
        for i, obs in fresh:
            points[i], proprios[i] = obs
            observe.renew(i)


def generate_demos(cfg: EnvConfig, n_episodes: int, keep_only_success: bool = True) -> list[DemoTrajectory]:
    """The scripted expert on n_episodes seeds of the demo stream, drawn up
    front and run MAX_LANES at a time, one lane each; the demos (optionally
    successes only) are kept in seed order."""
    if n_episodes < 1:
        raise ConfigError("n_episodes must be at least 1")
    gen = make_generator("demos", cfg.task, cfg.split, cfg.seed)
    seeds = [next_episode_seed(gen) for _ in range(n_episodes)]
    demos = []
    for lo in range(0, n_episodes, MAX_LANES):
        lanes = [Lane(make_env(cfg), iter((seed,)), cfg.horizon) for seed in seeds[lo : lo + MAX_LANES]]
        # each lane's (points, proprio, action) rows, views into the ticks'
        # arrays, copied into one array each when its episode ends
        episodes = [[] for _ in lanes]
        for tick in run_lanes(lanes, lambda live, *_: [lanes[k].env.expert_action() for k in live]):
            ends = zip(tick.lanes.tolist(), tick.dones.tolist(), tick.successes.tolist())
            for i, (k, done, success) in enumerate(ends):
                episodes[k].append((tick.points[i], tick.proprios[i], tick.actions[i]))
                if done:
                    episodes[k] = DemoTrajectory(*map(np.stack, zip(*episodes[k])), success)
        demos += [demo for demo in episodes if demo.success or not keep_only_success]
    if not demos:
        raise EmptyDatasetError(
            f"no successful episodes among {n_episodes} on {cfg.task}/{cfg.split}"
        )
    return demos
