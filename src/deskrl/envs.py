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
under unit inertia.  The 2-vector state of a step (joint angles and
velocities, the arm tip, the box) is carried on Python floats in numpy's
order of operations, so it gives the same bits as the array expressions it
stands for.  The controllers run on floats too (see controllers.py); the
particles and point clouds stay numpy.
Episodes terminate at the first successful step or at the horizon.  A
step's reward is the task's shaping term plus SUCCESS_BONUS if it succeeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import controllers as ctrl
from .errors import ConfigError, EmptyDatasetError, require_finite_floats
from .pointnet import PointCloudObs
from .rng import make_generator, next_episode_seed

TASKS = ("reach2d", "pushbox2d", "gather2d")
SPLITS = ("train", "test")

POINT_DIM = 2
FEAT_CHANNELS = 3  # one-hot classes: robot, object, target
N_POINTS = 64
ACTION_DIM = 2

_HORIZONS = {"reach2d": 100, "pushbox2d": 150, "gather2d": 200}
_RANGES = {
    "reach2d": ((0.5, 1.2), (1.2, 1.6)),
    "pushbox2d": ((0.10, 0.18), (0.18, 0.24)),
    "gather2d": ((0.1, 0.2), (0.2, 0.3)),
}

_SUBSTEPS = 4
SUCCESS_BONUS = 10.0  # added to the reward of the step that succeeds


@dataclass(frozen=True)
class EnvConfig:
    """Task id, split, seed, episode shape, and the variant-range table.

    Variant ranges are half-open [lo, hi) intervals; train and test must
    not overlap (sharing an endpoint is fine).
    """

    task: str
    split: str = "train"
    seed: int = 0
    horizon: int = 0
    dt: float = 0.05
    n_points: int = N_POINTS
    train_range: tuple[float, float] = (0.0, 0.0)
    test_range: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        require_finite_floats(self)
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}, expected one of {TASKS}")
        if self.split not in SPLITS:
            raise ConfigError(f"unknown split {self.split!r}, expected one of {SPLITS}")
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        if self.n_points != N_POINTS:
            raise ConfigError(f"point count is fixed at {N_POINTS} for these tasks")
        for lo, hi in (self.train_range, self.test_range):
            if not lo < hi:
                raise ConfigError("variant ranges need lo < hi")
        t_lo, t_hi = self.train_range
        e_lo, e_hi = self.test_range
        if not (t_hi <= e_lo or e_hi <= t_lo):
            raise ConfigError("train and test variant ranges must be disjoint")

    @property
    def variant_range(self) -> tuple[float, float]:
        return self.train_range if self.split == "train" else self.test_range

    def fingerprint(self) -> str:
        """Canonical dynamics identity (seed excluded: it picks episodes,
        not physics), used to match demo files to environments."""
        return (
            f"task={self.task};horizon={self.horizon};dt={self.dt!r};"
            f"n_points={self.n_points};train={self.train_range!r};test={self.test_range!r}"
        )


def make_config(task: str, split: str = "train", seed: int = 0, **overrides) -> EnvConfig:
    """EnvConfig with per-task defaults filled in."""
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}, expected one of {TASKS}")
    fields = dict(
        task=task,
        split=split,
        seed=seed,
        horizon=_HORIZONS[task],
        dt=0.05,
        n_points=N_POINTS,
        train_range=_RANGES[task][0],
        test_range=_RANGES[task][1],
    )
    fields.update(overrides)
    return EnvConfig(**fields)


@dataclass
class StepResult:
    obs: PointCloudObs
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


def _unit(v: np.ndarray, fallback=(1.0, 0.0)) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        return np.asarray(fallback, dtype=np.float64)
    return v / n


def _norm2(x: float, y: float) -> float:
    """np.linalg.norm of (x, y), which is the square root of the vector's dot
    with itself.  That BLAS dot may fuse a multiply-add, so sqrt(x * x + y * y)
    on floats can differ from it in the last bit."""
    v = np.array((x, y))
    return math.sqrt(v.dot(v))


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


def _segment_clearance(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> float:
    """Distance from point p to segment a-b."""
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom < 1e-18 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(a + t * ab - p))


def _detour(start: np.ndarray, waypoint: np.ndarray, obstacle: np.ndarray, d: np.ndarray,
            clearance: float, offset: float) -> np.ndarray:
    """The expert's waypoint, or, when the straight path from start to it
    passes within `clearance` of `obstacle`, the point `offset` from the
    obstacle across the push direction d, on start's side of it."""
    if _segment_clearance(start, waypoint, obstacle) < clearance:
        rel = start - obstacle
        side = 1.0 if float(d[0] * rel[1] - d[1] * rel[0]) >= 0.0 else -1.0
        perp = np.array([-d[1], d[0]])
        waypoint = obstacle + side * perp * offset
    return waypoint


class ToyEnv:
    """Base class: owns integration, bookkeeping, and the step contract.

    Per-episode constants (the arm's sample offsets split across links, the
    cloud template with its one-hot tags and static points) are built at
    reset.  Each step advances the state, then `_measure` derives once what
    success, reward, proprio and cloud share (the arm tip, distances).
    """

    proprio_width = 0

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        self.gains = ctrl.PDGains()
        self.geom = ctrl.ArmGeom()
        self.t = 0
        self._succeeded = False
        self._started = False

    # -- per-task hooks -------------------------------------------------
    def _reset_scene(self, gen: np.random.Generator) -> None:
        raise NotImplementedError

    def _advance(self, action: np.ndarray) -> None:
        raise NotImplementedError

    def _measure(self) -> None:
        raise NotImplementedError

    def _success(self) -> bool:
        raise NotImplementedError

    def _reward(self) -> float:
        """The task's shaping term; step adds SUCCESS_BONUS on success."""
        raise NotImplementedError

    def _cloud(self) -> np.ndarray:
        raise NotImplementedError

    def _proprio(self) -> np.ndarray:
        raise NotImplementedError

    def expert_action(self) -> np.ndarray:
        raise NotImplementedError

    # -- shared machinery ------------------------------------------------
    def reset(self, episode_seed: int) -> PointCloudObs:
        gen = make_generator("env", self.cfg.task, self.cfg.split, self.cfg.seed, int(episode_seed))
        self.t = 0
        self._succeeded = False
        self._started = True
        self._draw_variant(gen)
        self._reset_scene(gen)
        self._measure()
        return self._observe()

    def _draw_variant(self, gen: np.random.Generator) -> None:
        lo, hi = self.cfg.variant_range
        self.variant = float(gen.uniform(lo, hi))

    def _observe(self) -> PointCloudObs:
        return PointCloudObs(points=self._cloud(), proprio=self._proprio())

    def step(self, action: np.ndarray) -> StepResult:
        if not self._started:
            raise ConfigError("step() before reset()")
        if self.t >= self.cfg.horizon or self._succeeded:
            raise ConfigError("episode is over; reset() the environment")
        self._advance(action)  # the controller rejects a bad action before any state moves
        self.t += 1
        self._measure()
        success_now = bool(self._success())
        self._succeeded = self._succeeded or success_now
        reward = float(self._reward() + (SUCCESS_BONUS if success_now else 0.0))
        done = self._succeeded or self.t >= self.cfg.horizon
        return StepResult(self._observe(), reward, done, self._succeeded)

    def _integrate(self, u: np.ndarray) -> None:
        """Semi-implicit Euler under unit inertia, joint limits enforced.

        Runs on Python floats in numpy's order of operations: each substep
        adds h * u to the velocities, then h * velocity to the angles, then
        clamps an angle past its limit and stops that joint.
        """
        h = self.cfg.dt / _SUBSTEPS
        u0, u1 = u.tolist()
        (lo0, lo1), (hi0, hi1) = self.geom.q_lo, self.geom.q_hi
        q0, q1 = self.state.q.tolist()
        v0, v1 = self.state.qdot.tolist()
        for _ in range(_SUBSTEPS):
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
            self._after_substep(q0, q1)
        self.state.q = np.array((q0, q1))
        self.state.qdot = np.array((v0, v1))

    def _after_substep(self, q0: float, q1: float) -> None:
        pass

    def _expert_command(self, dq: np.ndarray) -> np.ndarray:
        """An expert's joint delta as an action: damped by the joint
        velocities, then scaled down to a peak of 1 if it exceeds 1."""
        raw = dq / self.geom.dq_max - _EXPERT_DAMPING * self.state.qdot
        peak = float(np.max(np.abs(raw)))
        return raw / peak if peak > 1.0 else raw

    def _arm_tip(self, q0: float, q1: float) -> tuple[float, float]:
        """The tip position `forward_kinematics` gives, on floats."""
        x0, y0, x1, y1 = ctrl.link_vectors2(q0, q1, self.geom)
        return 0.0 + x0 + x1, 0.0 + y0 + y1

    def _split_arm(self, ts: np.ndarray) -> None:
        """Keep per-episode offsets `ts` in [0,1) along the links, dealt to
        the links in order as np.array_split deals them."""
        per_link = np.array_split(ts, len(self.geom.link_lengths))
        self._arm_link = np.repeat(np.arange(len(per_link)), [len(tj) for tj in per_link])
        self._arm_ts = ts[:, None]

    def _arm_points(self, out: np.ndarray) -> None:
        """Write the arm's sample points into `out`: a + t (b - a) for the
        ends a, b of each point's link, in `chain_points`' coordinates."""
        x0, y0, x1, y1 = ctrl.link_vectors2(*self.state.q.tolist(), self.geom)
        chain = np.array(((0.0, 0.0), (x0, y0), (x0 + x1, y0 + y1)))
        starts = chain[:-1][self._arm_link]
        out[:] = starts + self._arm_ts * (chain[1:] - chain[:-1])[self._arm_link]

    def _cloud_template(self, segments) -> np.ndarray:
        """The episode's cloud layout: for each (count, class, coords) segment
        in order, rows with that one-hot class and, where coords is not None,
        those fixed coordinates.  Every step copies it into a fresh array."""
        template = np.zeros((self.cfg.n_points, POINT_DIM + FEAT_CHANNELS))
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

    def _reset_scene(self, gen: np.random.Generator) -> None:
        theta = gen.uniform(-2.0, 2.0)
        self.goal = self.variant * np.array([np.cos(theta), np.sin(theta)])
        q0 = np.array([np.pi / 3, -2 * np.pi / 3]) + gen.uniform(-0.05, 0.05, size=2)
        self.state = ctrl.JointState(q0, np.zeros(2))
        self._split_arm(gen.uniform(0.0, 1.0, size=self.n_arm))
        goal_points = self.goal[None, :] + _disk_offsets(gen, 20, 0.03)
        self._template = self._cloud_template(((self.n_arm, 0, None), (20, 2, goal_points)))

    def _advance(self, action: np.ndarray) -> None:
        self._integrate(ctrl.pd_ee_delta_pose(action, self.state, self.gains, self.geom))

    def _measure(self) -> None:
        self._tip = self._arm_tip(*self.state.q.tolist())
        (tx, ty), (gx, gy) = self._tip, self.goal.tolist()
        self._dist = _norm2(tx - gx, ty - gy)

    def _success(self) -> bool:
        return self._dist <= self.tolerance

    def _reward(self) -> float:
        return -self._dist * self.cfg.dt

    def _cloud(self) -> np.ndarray:
        cloud = self._template.copy()
        self._arm_points(cloud[: self.n_arm, :POINT_DIM])
        return cloud

    def _proprio(self) -> np.ndarray:
        (tx, ty), (gx, gy) = self._tip, self.goal.tolist()
        return np.array((*self.state.q.tolist(), *self.state.qdot.tolist(), tx, ty, gx - tx, gy - ty))

    def expert_action(self) -> np.ndarray:
        dx = self.goal - np.array(self._tip)
        return np.clip(dx / self.geom.dx_max, -1.0, 1.0)


# first corner (in half sides) and walking direction of each box side
_SIDE_STARTS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
_SIDE_WALKS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


class PushBox2D(ToyEnv):
    """Push a square box to a target zone with the arm tip; box side varied.

    The box position is a pair of floats, `box`.
    """

    proprio_width = 10
    tolerance = 0.05
    n_arm = 28
    n_outline = 24

    def _reset_scene(self, gen: np.random.Generator) -> None:
        self.side = self.variant
        phi = gen.uniform(0.15, 1.35)
        rb = gen.uniform(0.75, 1.0)
        box = rb * np.array([np.cos(phi), np.sin(phi)])
        psi = phi + gen.uniform(-0.6, 0.6)
        dist = gen.uniform(0.30, 0.45)
        target = box + dist * np.array([np.cos(psi), np.sin(psi)])
        # keep the target comfortably inside the reachable annulus
        norm = float(np.linalg.norm(target))
        if norm > 1.5:
            target = target * (1.5 / norm)
        elif norm < 0.35:
            target = box + dist * _unit(box)
        self.box = tuple(box.tolist())
        self.target = target
        q0 = np.array([0.9, -2.4]) + gen.uniform(-0.05, 0.05, size=2)
        self.state = ctrl.JointState(q0, np.zeros(2))
        self._split_arm(gen.uniform(0.0, 1.0, size=self.n_arm))
        self._outline = self._box_outline(gen.uniform(0.0, 1.0, size=self.n_outline))
        target_points = target[None, :] + _disk_offsets(gen, 12, 0.03)
        self._template = self._cloud_template(
            ((self.n_arm, 0, None), (self.n_outline, 1, None), (12, 2, target_points))
        )
        self._last_tip = self._arm_tip(*self.state.q.tolist())

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

    def _advance(self, action: np.ndarray) -> None:
        self._integrate(ctrl.pd_joint_delta_pos(action, self.state, self.gains, self.geom))

    def _after_substep(self, q0: float, q1: float) -> None:
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

    def _measure(self) -> None:
        self._tip = self._arm_tip(*self.state.q.tolist())
        (bx, by), (gx, gy) = self.box, self.target.tolist()
        self._dist_bt = _norm2(bx - gx, by - gy)

    def _success(self) -> bool:
        return self._dist_bt <= self.tolerance

    def _reward(self) -> float:
        (tx, ty), (bx, by) = self._tip, self.box
        gap = max(0.0, _norm2(tx - bx, ty - by) - self.side / 2.0)
        return -(self._dist_bt + 0.3 * gap) * self.cfg.dt

    def _cloud(self) -> np.ndarray:
        cloud = self._template.copy()
        self._arm_points(cloud[: self.n_arm, :POINT_DIM])
        cloud[self.n_arm : self.n_arm + self.n_outline, :POINT_DIM] = np.array(self.box) + self._outline
        return cloud

    def _proprio(self) -> np.ndarray:
        (tx, ty), (bx, by), (gx, gy) = self._tip, self.box, self.target.tolist()
        return np.array(
            (*self.state.q.tolist(), *self.state.qdot.tolist(), tx, ty, bx - tx, by - ty, gx - bx, gy - by)
        )

    def expert_action(self) -> np.ndarray:
        tip = np.array(self._tip)
        box = np.array(self.box)
        d = _unit(self.target - box)
        rel = tip - box
        behind_depth = float(-(rel @ d))
        lat_vec = rel - float(rel @ d) * d
        lateral = float(np.linalg.norm(lat_vec))
        half = self.side / 2.0
        if 0.0 < behind_depth < half + 0.35 and lateral < half + 0.04:
            # tip is in the capture region behind the box.  Advance against
            # the back face; slow down as the box nears the target so it
            # settles inside the tolerance instead of coasting past, and
            # bleed off any off-axis offset so the push tracks the line.
            d_bt = float(np.linalg.norm(self.target - box))
            advance = min(0.15, 0.5 * d_bt + 0.02)
            move = d * advance - lat_vec
        else:
            waypoint = _detour(tip, box - d * (half + 0.12), box, d, half + 0.06, half + 0.25)
            move = waypoint - tip
        norm = float(np.linalg.norm(move))
        if norm > 0.30:
            move = move * (0.30 / norm)
        dq = ctrl.dls_step2(*self.state.q.tolist(), *move.tolist(), self.geom)
        return self._expert_command(np.array(dq))


class Gather2D(ToyEnv):
    """Herd 32 free particles into a target disk with a circular pusher."""

    proprio_width = 9
    n_particles = 32
    n_ring = 16
    pusher_radius = 0.35
    target_radius = 0.45
    success_fraction = 0.8

    def __init__(self, cfg: EnvConfig):
        super().__init__(cfg)
        # the "arm" is the pusher itself: two Cartesian DOF on the plane
        self.geom = ctrl.ArmGeom(
            link_lengths=(1.0, 1.0), q_lo=(-1.6, -1.6), q_hi=(1.6, 1.6)
        )

    def _reset_scene(self, gen: np.random.Generator) -> None:
        sigma = self.variant
        self.source = np.array([-0.55, gen.uniform(-0.25, 0.25)])
        self.target = np.array([0.55, gen.uniform(-0.25, 0.25)])
        self.particles = np.clip(self.source + sigma * gen.normal(size=(self.n_particles, 2)), -1.5, 1.5)
        start = self.source - 0.45 * _unit(self.target - self.source)
        q0 = start + gen.uniform(-0.03, 0.03, size=2)
        self.state = ctrl.JointState(q0, np.zeros(2))
        self._expel_radially(self.state.q)  # a wide spread can overlap the pusher at reset
        self._pusher_ring = _ring_offsets(gen, self.n_ring, self.pusher_radius)
        target_points = self.target[None, :] + _ring_offsets(gen, self.n_ring, self.target_radius)
        self._template = self._cloud_template(
            ((self.n_ring, 0, None), (self.n_particles, 1, None), (self.n_ring, 2, target_points))
        )

    def _advance(self, action: np.ndarray) -> None:
        u = ctrl.pd_joint_delta_pos(action, self.state, self.gains, self.geom)
        self._last_c = tuple(self.state.q.tolist())
        self._integrate(u)

    def _expel_radially(self, c: np.ndarray) -> None:
        d = self.particles - c[None, :]
        dist = np.linalg.norm(d, axis=1)
        inside = dist < self.pusher_radius
        if inside.any():
            dirs = np.where(
                dist[inside, None] > 1e-12,
                d[inside] / np.maximum(dist[inside, None], 1e-12),
                np.array([[1.0, 0.0]]),
            )
            # tiny overshoot keeps this idempotent: placing a particle exactly
            # on the circle can round 1 ulp inside and expel it again next call
            self.particles[inside] = c[None, :] + (self.pusher_radius + 1e-9) * dirs

    def _after_substep(self, q0: float, q1: float) -> None:
        # Friction-dominated contact: a particle overrun by the pusher exits
        # along the pusher's direction of motion (like soil ahead of a plow
        # blade), not radially -- radial ejection would shed everything
        # sideways and make herding with a disk impossible.
        lx, ly = self._last_c
        self._last_c = (q0, q1)
        c = np.array((q0, q1))
        speed = _norm2(q0 - lx, q1 - ly)
        if speed < 1e-12:
            self._expel_radially(c)
            return
        vhat = np.array((q0 - lx, q1 - ly)) / speed
        w = self.particles - c[None, :]
        dist_sq = (w * w).sum(axis=1)
        inside = dist_sq < self.pusher_radius**2
        if inside.any():
            w_in = w[inside]
            proj = w_in @ vhat
            t = -proj + np.sqrt(proj * proj + self.pusher_radius**2 - dist_sq[inside])
            self.particles[inside] = self.particles[inside] + t[:, None] * vhat[None, :]

    def _measure(self) -> None:
        inside = np.linalg.norm(self.particles - self.target[None, :], axis=1) <= self.target_radius
        self._fraction_in = float(np.mean(inside))
        out = ~inside
        self._out_centroid = self.particles[out].mean(axis=0) if out.any() else self.target.copy()

    def _success(self) -> bool:
        return self._fraction_in >= self.success_fraction

    def _reward(self) -> float:
        (cx, cy), (mx, my) = self.state.q.tolist(), self._out_centroid.tolist()
        reach = max(0.0, _norm2(cx - mx, cy - my) - self.pusher_radius)
        return -((1.0 - self._fraction_in) + 0.1 * min(reach, 1.0)) * self.cfg.dt

    def _cloud(self) -> np.ndarray:
        cloud = self._template.copy()
        cloud[: self.n_ring, :POINT_DIM] = self.state.q + self._pusher_ring
        cloud[self.n_ring : self.n_ring + self.n_particles, :POINT_DIM] = self.particles
        return cloud

    def _proprio(self) -> np.ndarray:
        (cx, cy), (mx, my), (tx, ty) = self.state.q.tolist(), self._out_centroid.tolist(), self.target.tolist()
        return np.array(
            (cx, cy, *self.state.qdot.tolist(), mx - cx, my - cy, tx - cx, ty - cy, self._fraction_in)
        )

    def expert_action(self) -> np.ndarray:
        c = self.state.q
        M = self._out_centroid
        d = _unit(self.target - M)
        if float(np.linalg.norm(c - self.target)) < self.pusher_radius + 0.05:
            # deep enough in the drop zone: back straight out and re-line-up
            move = _unit(c - self.target) * 0.3
        elif float(_unit(M - c) @ d) >= 0.8 and np.linalg.norm(c - M) <= self.pusher_radius + 0.5:
            # lined up behind the pile: drive forward, correcting any lateral
            # offset so the plow stays centered on the stragglers
            offset = c - M
            lateral = offset - (offset @ d) * d
            move = d * 0.3 - lateral
        else:
            pr, tr = self.pusher_radius, self.target_radius
            waypoint = _detour(c, M - d * (pr + 0.10), M, d, pr + 0.05, pr + 0.30)
            # never cut through the drop zone: settled particles would get
            # plowed straight out the far side
            waypoint = _detour(c, waypoint, self.target, d, tr + pr * 0.8, tr + pr + 0.10)
            move = waypoint - c
        return self._expert_command(move)


_ENV_CLASSES = {"reach2d": Reach2D, "pushbox2d": PushBox2D, "gather2d": Gather2D}


def make_env(cfg: EnvConfig) -> ToyEnv:
    return _ENV_CLASSES[cfg.task](cfg)


def proprio_width(task: str) -> int:
    return _ENV_CLASSES[task].proprio_width


def generate_demos(cfg: EnvConfig, n_episodes: int, keep_only_success: bool = True) -> list[DemoTrajectory]:
    """Run the scripted expert for n_episodes; optionally keep successes only."""
    if n_episodes < 1:
        raise ConfigError("n_episodes must be at least 1")
    env = make_env(cfg)
    gen = make_generator("demos", cfg.task, cfg.split, cfg.seed)
    demos: list[DemoTrajectory] = []
    for _ in range(n_episodes):
        obs = env.reset(next_episode_seed(gen))
        points, proprios, actions = [], [], []
        success = False
        while True:
            action = env.expert_action()
            points.append(obs.points)
            proprios.append(obs.proprio)
            actions.append(action)
            result = env.step(action)
            obs = result.obs
            if result.done:
                success = result.success
                break
        if keep_only_success and not success:
            continue
        demos.append(
            DemoTrajectory(
                points=np.stack(points),
                proprios=np.stack(proprios),
                actions=np.stack(actions),
                success=success,
            )
        )
    if not demos:
        raise EmptyDatasetError(
            f"no successful episodes among {n_episodes} on {cfg.task}/{cfg.split}"
        )
    return demos
