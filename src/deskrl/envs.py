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
under unit inertia.
Episodes terminate at the first successful step or at the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import controllers as ctrl
from .errors import ConfigError, EmptyDatasetError, NonFiniteError, ShapeMismatchError
from .pointnet import PointCloudObs
from .rng import make_generator

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


def _cross2(a: np.ndarray, b: np.ndarray) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


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


class ToyEnv:
    """Base class: owns integration, bookkeeping, and the step contract."""

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

    def _success(self) -> bool:
        raise NotImplementedError

    def _reward(self, success_now: bool) -> float:
        raise NotImplementedError

    def _cloud(self) -> np.ndarray:
        raise NotImplementedError

    def _proprio(self) -> np.ndarray:
        raise NotImplementedError

    def expert_action(self) -> np.ndarray:
        raise NotImplementedError

    # -- shared machinery ------------------------------------------------
    @property
    def action_dim(self) -> int:
        return ACTION_DIM

    @property
    def n_points(self) -> int:
        return self.cfg.n_points

    def reset(self, episode_seed: int) -> PointCloudObs:
        gen = make_generator("env", self.cfg.task, self.cfg.split, self.cfg.seed, int(episode_seed))
        self.t = 0
        self._succeeded = False
        self._started = True
        self._draw_variant(gen)
        self._reset_scene(gen)
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
        action = np.asarray(action, dtype=np.float64)
        if action.shape != (self.action_dim,):
            raise ShapeMismatchError(f"action must have shape ({self.action_dim},), got {action.shape}")
        if not np.all(np.isfinite(action)):
            raise NonFiniteError("action contains non-finite values")
        if np.any(np.abs(action) > 1.0 + 1e-12):
            raise ShapeMismatchError("action outside the [-1, 1] action box")
        self._advance(action)
        self.t += 1
        success_now = bool(self._success())
        self._succeeded = self._succeeded or success_now
        reward = float(self._reward(success_now))
        done = self._succeeded or self.t >= self.cfg.horizon
        return StepResult(self._observe(), reward, done, self._succeeded)

    def _integrate(self, state: ctrl.JointState, u: np.ndarray, geom: ctrl.ArmGeom) -> None:
        """Semi-implicit Euler under unit inertia, joint limits enforced."""
        h = self.cfg.dt / _SUBSTEPS
        lo = np.asarray(geom.q_lo)
        hi = np.asarray(geom.q_hi)
        for _ in range(_SUBSTEPS):
            state.qdot = state.qdot + h * u
            state.q = state.q + h * state.qdot
            below = state.q < lo
            above = state.q > hi
            state.q = np.clip(state.q, lo, hi)
            state.qdot = np.where(below | above, 0.0, state.qdot)
            self._after_substep()

    def _after_substep(self) -> None:
        pass

    def _arm_points(self, q: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Sample `ts` (per-episode offsets in [0,1)) along the arm links."""
        pts = ctrl.chain_points(q, self.geom)
        n_links = len(self.geom.link_lengths)
        per_link = np.array_split(ts, n_links)
        out = []
        for j, tj in enumerate(per_link):
            a, b = pts[j], pts[j + 1]
            out.append(a[None, :] + tj[:, None] * (b - a)[None, :])
        return np.concatenate(out)

    @staticmethod
    def _tag(coords: np.ndarray, cls: int) -> np.ndarray:
        onehot = np.zeros((coords.shape[0], FEAT_CHANNELS))
        onehot[:, cls] = 1.0
        return np.concatenate([coords, onehot], axis=1)


class Reach2D(ToyEnv):
    """Drive the arm tip to a goal point; goal radius is the varied parameter."""

    proprio_width = 8
    tolerance = 0.05

    def _reset_scene(self, gen: np.random.Generator) -> None:
        theta = gen.uniform(-2.0, 2.0)
        self.goal = self.variant * np.array([np.cos(theta), np.sin(theta)])
        q0 = np.array([np.pi / 3, -2 * np.pi / 3]) + gen.uniform(-0.05, 0.05, size=2)
        self.state = ctrl.JointState(q0, np.zeros(2))
        self._arm_ts = gen.uniform(0.0, 1.0, size=44)
        self._goal_offsets = _disk_offsets(gen, 20, 0.03)

    def _advance(self, action: np.ndarray) -> None:
        u = ctrl.pd_ee_delta_pose(action, self.state, self.gains, self.geom)
        self._integrate(self.state, u, self.geom)

    def _tip(self) -> np.ndarray:
        pos, _ = ctrl.forward_kinematics(self.state.q, self.geom)
        return pos

    def _success(self) -> bool:
        return float(np.linalg.norm(self._tip() - self.goal)) <= self.tolerance

    def _reward(self, success_now: bool) -> float:
        dist = float(np.linalg.norm(self._tip() - self.goal))
        return -dist * self.cfg.dt + (10.0 if success_now else 0.0)

    def _cloud(self) -> np.ndarray:
        arm = self._tag(self._arm_points(self.state.q, self._arm_ts), 0)
        goal = self._tag(self.goal[None, :] + self._goal_offsets, 2)
        return np.concatenate([arm, goal])

    def _proprio(self) -> np.ndarray:
        tip = self._tip()
        return np.concatenate([self.state.q, self.state.qdot, tip, self.goal - tip])

    def expert_action(self) -> np.ndarray:
        dx = self.goal - self._tip()
        return np.clip(dx / self.geom.dx_max, -1.0, 1.0)


class PushBox2D(ToyEnv):
    """Push a square box to a target zone with the arm tip; box side varied."""

    proprio_width = 10
    tolerance = 0.05

    def _reset_scene(self, gen: np.random.Generator) -> None:
        self.side = self.variant
        phi = gen.uniform(0.15, 1.35)
        rb = gen.uniform(0.75, 1.0)
        self.box = rb * np.array([np.cos(phi), np.sin(phi)])
        psi = phi + gen.uniform(-0.6, 0.6)
        dist = gen.uniform(0.30, 0.45)
        target = self.box + dist * np.array([np.cos(psi), np.sin(psi)])
        # keep the target comfortably inside the reachable annulus
        norm = float(np.linalg.norm(target))
        if norm > 1.5:
            target = target * (1.5 / norm)
        elif norm < 0.35:
            target = self.box + dist * _unit(self.box)
        self.target = target
        q0 = np.array([0.9, -2.4]) + gen.uniform(-0.05, 0.05, size=2)
        self.state = ctrl.JointState(q0, np.zeros(2))
        self._arm_ts = gen.uniform(0.0, 1.0, size=28)
        self._perim_us = gen.uniform(0.0, 1.0, size=24)
        self._target_offsets = _disk_offsets(gen, 12, 0.03)
        self._last_tip = self._tip()

    def _advance(self, action: np.ndarray) -> None:
        u = ctrl.pd_joint_delta_pos(action, self.state, self.gains, self.geom)
        self._integrate(self.state, u, self.geom)

    def _after_substep(self) -> None:
        # Quasi-static push: when the tip ends a substep inside the box
        # footprint, the box slides along the tip's direction of travel until
        # the tip sits on the face it came through.  Friction-dominated
        # contact follows the push, so a diagonal push yields a diagonal
        # slide; resolving along the nearest axis instead would quantise box
        # motion to world x/y and make oblique targets unreachable.
        tip = self._tip()
        v = tip - self._last_tip
        self._last_tip = tip.copy()
        rel = tip - self.box
        half = self.side / 2.0
        if not (abs(rel[0]) < half and abs(rel[1]) < half):
            return
        speed = float(np.linalg.norm(v))
        if speed < 1e-12:
            # static overlap (reset jitter): fall back to least penetration
            pen_x = half - abs(rel[0])
            pen_y = half - abs(rel[1])
            if pen_x <= pen_y:
                sx = 1.0 if rel[0] >= 0.0 else -1.0
                self.box = np.array([tip[0] - sx * half, self.box[1]])
            else:
                sy = 1.0 if rel[1] >= 0.0 else -1.0
                self.box = np.array([self.box[0], tip[1] - sy * half])
            return
        vhat = v / speed
        t = np.inf
        for k in range(2):
            if abs(vhat[k]) > 1e-12:
                t = min(t, (rel[k] + np.sign(vhat[k]) * half) / vhat[k])
        self.box = self.box + t * vhat

    def _tip(self) -> np.ndarray:
        pos, _ = ctrl.forward_kinematics(self.state.q, self.geom)
        return pos

    def _success(self) -> bool:
        return float(np.linalg.norm(self.box - self.target)) <= self.tolerance

    def _reward(self, success_now: bool) -> float:
        dist_bt = float(np.linalg.norm(self.box - self.target))
        gap = max(0.0, float(np.linalg.norm(self._tip() - self.box)) - self.side / 2.0)
        return -(dist_bt + 0.3 * gap) * self.cfg.dt + (10.0 if success_now else 0.0)

    def _perimeter_points(self) -> np.ndarray:
        """Map per-episode parameters u in [0,1) onto the box outline."""
        u = self._perim_us * 4.0
        side_idx = np.floor(u).astype(int)
        frac = u - side_idx
        half = self.side / 2.0
        s = self.side
        pts = np.empty((len(u), 2))
        for i, (k, f) in enumerate(zip(side_idx, frac)):
            if k == 0:
                pts[i] = (-half + f * s, -half)
            elif k == 1:
                pts[i] = (half, -half + f * s)
            elif k == 2:
                pts[i] = (half - f * s, half)
            else:
                pts[i] = (-half, half - f * s)
        return self.box[None, :] + pts

    def _cloud(self) -> np.ndarray:
        arm = self._tag(self._arm_points(self.state.q, self._arm_ts), 0)
        box = self._tag(self._perimeter_points(), 1)
        target = self._tag(self.target[None, :] + self._target_offsets, 2)
        return np.concatenate([arm, box, target])

    def _proprio(self) -> np.ndarray:
        tip = self._tip()
        return np.concatenate(
            [self.state.q, self.state.qdot, tip, self.box - tip, self.target - self.box]
        )

    def expert_action(self) -> np.ndarray:
        tip = self._tip()
        d = _unit(self.target - self.box)
        rel = tip - self.box
        behind_depth = float(-(rel @ d))
        lat_vec = rel - float(rel @ d) * d
        lateral = float(np.linalg.norm(lat_vec))
        half = self.side / 2.0
        if 0.0 < behind_depth < half + 0.35 and lateral < half + 0.04:
            # tip is in the capture region behind the box.  Advance against
            # the back face; slow down as the box nears the target so it
            # settles inside the tolerance instead of coasting past, and
            # bleed off any off-axis offset so the push tracks the line.
            d_bt = float(np.linalg.norm(self.target - self.box))
            advance = min(0.15, 0.5 * d_bt + 0.02)
            move = d * advance - lat_vec
        else:
            waypoint = self.box - d * (half + 0.12)
            if _segment_clearance(tip, waypoint, self.box) < half + 0.06:
                side = 1.0 if _cross2(d, rel) >= 0.0 else -1.0
                perp = np.array([-d[1], d[0]])
                waypoint = self.box + side * perp * (half + 0.25)
            move = waypoint - tip
        norm = float(np.linalg.norm(move))
        if norm > 0.30:
            move = move * (0.30 / norm)
        J = ctrl.jacobian(self.state.q, self.geom)
        dq = ctrl.dls_solve(J, move, self.geom.damping)
        raw = dq / self.geom.dq_max - _EXPERT_DAMPING * self.state.qdot
        peak = float(np.max(np.abs(raw)))
        return raw / peak if peak > 1.0 else raw


class Gather2D(ToyEnv):
    """Herd 32 free particles into a target disk with a circular pusher."""

    proprio_width = 9
    n_particles = 32
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
        self.particles = self.source + sigma * gen.normal(size=(self.n_particles, 2))
        self.particles = np.clip(self.particles, -1.5, 1.5)
        start = self.source - 0.45 * _unit(self.target - self.source)
        q0 = start + gen.uniform(-0.03, 0.03, size=2)
        self.state = ctrl.JointState(q0, np.zeros(2))
        self._last_c = self.state.q.copy()
        self._expel_radially()  # a wide spread can overlap the pusher at reset
        self._pusher_ring = _ring_offsets(gen, 16, self.pusher_radius)
        self._target_ring = _ring_offsets(gen, 16, self.target_radius)

    def _advance(self, action: np.ndarray) -> None:
        self._last_c = self.state.q.copy()
        u = ctrl.pd_joint_delta_pos(action, self.state, self.gains, self.geom)
        self._integrate(self.state, u, self.geom)

    def _expel_radially(self) -> None:
        c = self.state.q
        d = self.particles - c[None, :]
        dist = np.linalg.norm(d, axis=1)
        inside = dist < self.pusher_radius
        if np.any(inside):
            dirs = np.where(
                dist[inside, None] > 1e-12,
                d[inside] / np.maximum(dist[inside, None], 1e-12),
                np.array([[1.0, 0.0]]),
            )
            # tiny overshoot keeps this idempotent: placing a particle exactly
            # on the circle can round 1 ulp inside and expel it again next call
            self.particles[inside] = c[None, :] + (self.pusher_radius + 1e-9) * dirs

    def _after_substep(self) -> None:
        # Friction-dominated contact: a particle overrun by the pusher exits
        # along the pusher's direction of motion (like soil ahead of a plow
        # blade), not radially -- radial ejection would shed everything
        # sideways and make herding with a disk impossible.
        c = self.state.q
        v = c - self._last_c
        self._last_c = c.copy()
        speed = float(np.linalg.norm(v))
        if speed < 1e-12:
            self._expel_radially()
            return
        vhat = v / speed
        w = self.particles - c[None, :]
        dist_sq = np.einsum("ij,ij->i", w, w)
        inside = dist_sq < self.pusher_radius**2
        if np.any(inside):
            w_in = w[inside]
            proj = w_in @ vhat
            t = -proj + np.sqrt(proj * proj + self.pusher_radius**2 - dist_sq[inside])
            self.particles[inside] = self.particles[inside] + t[:, None] * vhat[None, :]

    def _in_target(self) -> np.ndarray:
        return np.linalg.norm(self.particles - self.target[None, :], axis=1) <= self.target_radius

    def _fraction_in(self) -> float:
        return float(np.mean(self._in_target()))

    def _out_centroid(self) -> np.ndarray:
        mask = ~self._in_target()
        if not np.any(mask):
            return self.target.copy()
        return self.particles[mask].mean(axis=0)

    def _success(self) -> bool:
        return self._fraction_in() >= self.success_fraction

    def _reward(self, success_now: bool) -> float:
        frac = self._fraction_in()
        reach = max(0.0, float(np.linalg.norm(self.state.q - self._out_centroid())) - self.pusher_radius)
        return -((1.0 - frac) + 0.1 * min(reach, 1.0)) * self.cfg.dt + (10.0 if success_now else 0.0)

    def _cloud(self) -> np.ndarray:
        pusher = self._tag(self.state.q[None, :] + self._pusher_ring, 0)
        parts = self._tag(self.particles, 1)
        ring = self._tag(self.target[None, :] + self._target_ring, 2)
        return np.concatenate([pusher, parts, ring])

    def _proprio(self) -> np.ndarray:
        c = self.state.q
        return np.concatenate(
            [c, self.state.qdot, self._out_centroid() - c, self.target - c, [self._fraction_in()]]
        )

    def expert_action(self) -> np.ndarray:
        c = self.state.q
        M = self._out_centroid()
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
            waypoint = M - d * (self.pusher_radius + 0.10)
            if _segment_clearance(c, waypoint, M) < self.pusher_radius + 0.05:
                side = 1.0 if _cross2(d, c - M) >= 0.0 else -1.0
                perp = np.array([-d[1], d[0]])
                waypoint = M + side * perp * (self.pusher_radius + 0.30)
            # never cut through the drop zone: settled particles would get
            # plowed straight out the far side
            if _segment_clearance(c, waypoint, self.target) < self.target_radius + self.pusher_radius * 0.8:
                side = 1.0 if _cross2(d, c - self.target) >= 0.0 else -1.0
                perp = np.array([-d[1], d[0]])
                waypoint = self.target + side * perp * (self.target_radius + self.pusher_radius + 0.10)
            move = waypoint - c
        raw = move / self.geom.dq_max - _EXPERT_DAMPING * self.state.qdot
        peak = float(np.max(np.abs(raw)))
        return raw / peak if peak > 1.0 else raw


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
        ep_seed = int(gen.integers(0, 2**63))
        obs = env.reset(ep_seed)
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
