"""Environment tests: determinism, split geometry, rewards, experts, demos."""

import numpy as np
import pytest

from deskrl import controllers, envs
from deskrl.errors import (
    ConfigError,
    EmptyDatasetError,
    NonFiniteError,
    ShapeMismatchError,
)
from deskrl.rng import make_generator, next_episode_seed

ALL_SPLITS = [(t, s) for t in envs.TASKS for s in envs.SPLITS]


def run_expert_episode(env, episode_seed):
    """Drive one episode with the scripted expert; return (observations,
    actions, results), each observation the one its action was taken on."""
    observations = [env.reset(episode_seed)]
    actions, results = [], []
    while True:
        a = env.expert_action()
        res = env.step(a)
        actions.append(a)
        results.append(res)
        if res.done:
            return observations, actions, results
        observations.append(env.observe())


def expert_success_rate(task, split, n_episodes, base_seed=10_000):
    env = envs.make_env(envs.make_config(task, split, seed=0))
    wins = 0
    for i in range(n_episodes):
        _, _, results = run_expert_episode(env, base_seed + i)
        wins += results[-1].success
    return wins / n_episodes


# -- config ---------------------------------------------------------------


def test_make_config_defaults():
    cfg = envs.make_config("reach2d")
    assert cfg.horizon == 100 and envs.DT == 0.05 and cfg.split == "train"
    assert envs.make_config("pushbox2d").horizon == 150
    assert envs.make_config("gather2d").horizon == 200


def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError):
        envs.make_config("reach3d")
    with pytest.raises(ConfigError):
        envs.make_config("reach2d", split="validation")
    with pytest.raises(ConfigError):
        envs.make_config("reach2d", horizon=0)


@pytest.mark.parametrize("task", envs.TASKS)
def test_variant_ranges_are_half_open_and_disjoint(task):
    # the rules EnvConfig checked while the ranges were its fields
    assert set(envs._RANGES) == set(envs.TASKS)
    (t_lo, t_hi), (e_lo, e_hi) = envs._RANGES[task]
    for lo, hi in envs._RANGES[task]:
        assert np.isfinite(lo) and np.isfinite(hi) and lo < hi
    assert t_hi <= e_lo or e_hi <= t_lo


def test_variant_range_follows_split():
    train = envs.make_config("gather2d", "train")
    test = envs.make_config("gather2d", "test")
    assert train.variant_range == envs._RANGES["gather2d"][0]
    assert test.variant_range == envs._RANGES["gather2d"][1]


@pytest.mark.parametrize(
    "task,fingerprint",
    [
        ("reach2d", "task=reach2d;horizon=100;dt=0.05;n_points=64;train=(0.5, 1.2);test=(1.2, 1.6)"),
        ("pushbox2d", "task=pushbox2d;horizon=150;dt=0.05;n_points=64;train=(0.1, 0.18);test=(0.18, 0.24)"),
        ("gather2d", "task=gather2d;horizon=200;dt=0.05;n_points=64;train=(0.1, 0.2);test=(0.2, 0.3)"),
    ],
)
def test_fingerprint_strings_are_pinned(task, fingerprint):
    # checkpoints, demo bundles and manifests carry these bytes
    assert envs.make_config(task).fingerprint() == fingerprint


def test_fingerprint_ignores_seed_and_split_only():
    base = envs.make_config("reach2d", "train", seed=0)
    assert base.fingerprint() == envs.make_config("reach2d", "test", seed=7).fingerprint()
    assert base.fingerprint() != envs.make_config("pushbox2d").fingerprint()
    assert base.fingerprint() != envs.make_config("reach2d", horizon=50).fingerprint()


# -- reset and split geometry ----------------------------------------------


@pytest.mark.parametrize("task,split", ALL_SPLITS)
def test_reset_is_bit_deterministic(task, split):
    cfg = envs.make_config(task, split, seed=3)
    a = envs.make_env(cfg).reset(42)
    b = envs.make_env(cfg).reset(42)
    assert a.points.tobytes() == b.points.tobytes()
    assert a.proprio.tobytes() == b.proprio.tobytes()


def test_reset_varies_with_seed():
    env = envs.make_env(envs.make_config("reach2d"))
    a = env.reset(1)
    b = env.reset(2)
    assert a.points.tobytes() != b.points.tobytes()


@pytest.mark.parametrize("task", envs.TASKS)
def test_split_variants_land_in_disjoint_ranges(task):
    cfg_tr = envs.make_config(task, "train")
    cfg_te = envs.make_config(task, "test")
    train_range, test_range = envs._RANGES[task]
    assert (cfg_tr.variant_range, cfg_te.variant_range) == (train_range, test_range)
    assert train_range[1] <= test_range[0]
    env_tr = envs.make_env(cfg_tr)
    env_te = envs.make_env(cfg_te)
    for seed in range(50):
        env_tr.reset(seed)
        env_te.reset(seed)
        lo, hi = train_range
        assert lo <= env_tr.variant < hi
        lo, hi = test_range
        assert lo <= env_te.variant < hi
        # half-open draws keep a shared endpoint unambiguous
        assert env_tr.variant < test_range[0] <= env_te.variant


def test_reach2d_goal_appears_in_cloud():
    env = envs.make_env(envs.make_config("reach2d"))
    obs = env.reset(5)
    coords, onehot = obs.points[:, :2], obs.points[:, 2:]
    target_rows = onehot[:, 2] == 1.0
    assert target_rows.sum() > 0
    dists = np.linalg.norm(coords[target_rows] - np.array(env.goal), axis=1)
    assert np.all(dists <= 0.03 + 1e-12)  # goal points sit on a 0.03 disk


@pytest.mark.parametrize("task,split", ALL_SPLITS)
def test_observation_shapes_and_tags(task, split):
    env = envs.make_env(envs.make_config(task, split))
    env.reset(0)
    for _ in range(5):
        res = env.step(np.zeros(2))
        obs = env.observe()
        pts = obs.points
        assert pts.shape == (envs.N_POINTS, 2 + envs.FEAT_CHANNELS)
        assert obs.proprio.shape == (envs.proprio_width(task),)
        onehot = pts[:, 2:]
        assert np.all(onehot.sum(axis=1) == 1.0)  # exactly one class per point
        if res.done:
            break


# -- step contract ----------------------------------------------------------


@pytest.mark.parametrize("task,split", ALL_SPLITS)
def test_step_sequence_is_bit_deterministic(task, split):
    cfg = envs.make_config(task, split, seed=1)
    gen = make_generator("fuzz", task, split)
    plan = gen.uniform(-1.0, 1.0, size=(30, 2))
    seqs = []
    for _ in range(2):
        env = envs.make_env(cfg)
        env.reset(9)
        rows = []
        for a in plan:
            res = env.step(a)
            obs = env.observe()
            rows.append((obs.points.tobytes(), obs.proprio.tobytes(), res.reward, res.done, res.success))
            if res.done:
                break
        seqs.append(rows)
    assert seqs[0] == seqs[1]


@pytest.mark.parametrize("task", envs.TASKS)
def test_zero_action_leaves_scene_static(task):
    env = envs.make_env(envs.make_config(task))
    obs0 = env.reset(11)
    env.step(np.zeros(2))
    # from rest, a zero delta command produces zero torque: nothing moves
    assert env.observe().points.tobytes() == obs0.points.tobytes()
    assert env.state.v0 == env.state.v1 == 0.0


def integrate(q, qdot, u, geom, dt=envs.DT, substeps=envs._SUBSTEPS):
    """Semi-implicit Euler under unit inertia on 2-vectors, as notebook 02
    writes it: each substep adds h * u to the velocities, then h * qdot to
    the angles, then clamps an angle past its limit and stops that joint.
    Also returns which joints went below and above their limits."""
    lo, hi = np.array(geom.q_lo), np.array(geom.q_hi)
    below = above = np.zeros(2, dtype=bool)
    h = dt / substeps
    for _ in range(substeps):
        qdot = qdot + h * u
        q = q + h * qdot
        below, above = below | (q < lo), above | (q > hi)
        qdot = np.where((q < lo) | (q > hi), 0.0, qdot)
        q = np.clip(q, lo, hi)
    return q, qdot, below, above


@pytest.mark.parametrize("task", envs.TASKS)
def test_integrate_is_the_numpy_semi_implicit_euler(task):
    env = envs.make_env(envs.make_config(task))
    env.reset(2)
    gen = make_generator(8, "integrate", task)
    lo, hi = np.array(env.geom.q_lo), np.array(env.geom.q_hi)
    u_max = env.gains.u_max
    hits = np.zeros((2, 2), dtype=int)  # (below, above) x joint
    for i in range(600):
        # a third anywhere, a third near the lower limits moving down, a
        # third near the upper limits moving up; every tenth starts at rest
        # at a limit or holds a command at its bound
        q = [gen.uniform(lo, hi), lo + gen.uniform(0.0, 0.3, size=2), hi - gen.uniform(0.0, 0.3, size=2)][i % 3]
        qdot = gen.uniform(-8.0, 8.0, size=2) + [0.0, -4.0, 4.0][i % 3]
        u = gen.uniform(-u_max, u_max, size=2)
        if i % 10 == 0:
            q, qdot, u = [lo, hi][i % 20 // 10].copy(), np.array([0.0, -0.0]), np.sign(u) * u_max
        env.state = controllers.JointState(*q.tolist(), *qdot.tolist())
        env._integrate(tuple(u.tolist()))
        want_q, want_qdot, below, above = integrate(q, qdot, u, env.geom)
        assert np.array(env.state).tobytes() == np.concatenate([want_q, want_qdot]).tobytes(), (q, qdot, u)
        assert all(type(x) is float for x in env.state)
        hits += np.stack([below, above])
    assert hits.min() > 0, hits  # both limits of both joints were hit


@pytest.mark.parametrize("task", envs.TASKS)
def test_observations_are_fresh_arrays(task):
    # callers keep the arrays a reset or an observation returns, so a
    # later step or observation must never write into one
    env = envs.make_env(envs.make_config(task))
    gen = make_generator(5, "fresh", task)
    kept = []
    obs = env.reset(3)
    for _ in range(6):
        kept.append((obs, obs.points.copy(), obs.proprio.copy()))
        env.step(gen.uniform(-1.0, 1.0, size=2))
        obs = env.observe()
    for obs, points, proprio in kept:
        assert obs.points.tobytes() == points.tobytes()
        assert obs.proprio.tobytes() == proprio.tobytes()


ARM_TASKS = ("reach2d", "pushbox2d")


def arm_points_per_link(env, q0, q1):
    """The arm's sample points a link at a time, 0.0 + t (x0 - 0.0) on link
    0 and x0 + t (x0 + x1 - x0) on link 1, over np.array_split's halves of
    the episode's offsets."""
    x0, y0, x1, y1 = controllers.link_vectors2(q0, q1, env.geom)
    t0, t1 = np.array_split(env._offsets[: env.n_arm, 0], 2)
    link0 = np.stack([0.0 + t0 * (x0 - 0.0), 0.0 + t0 * (y0 - 0.0)], axis=1)
    link1 = np.stack([x0 + t1 * (x0 + x1 - x0), y0 + t1 * (y0 + y1 - y0)], axis=1)
    return np.concatenate([link0, link1])


@pytest.mark.parametrize("task", ARM_TASKS)
def test_arm_points_equal_the_per_link_formula(task):
    env = envs.make_env(envs.make_config(task))
    env.reset(4)
    assert env.n_arm % 2 == 0
    env._offsets[[0, env.n_arm // 2]] = 0.0  # each link's start: t * x0 is -0.0 where x0 < 0, and 0.0 + -0.0 is 0.0
    gen = make_generator(4, "arm", task)
    for q0, q1 in gen.uniform(-3.1, 3.1, size=(200, 2)).tolist() + [(3.0, 0.5), (-2.0, 1.0)]:
        env._arm_tip(q0, q1)
        out = np.ascontiguousarray(env.observe().points[: env.n_arm, :2])
        assert out.tobytes() == arm_points_per_link(env, q0, q1).tobytes()


@pytest.mark.parametrize("task", ARM_TASKS)
def test_clouds_and_tips_follow_the_current_state(task):
    # the cloud reads the links and pushbox2d's _measure the tip of the last
    # substep; both must be those of the state the step ends in
    env = envs.make_env(envs.make_config(task))
    gen = make_generator(6, "arm state", task)
    obs = env.reset(6)
    for _ in range(40):
        q0, q1, _, _ = env.state
        assert obs.points[: env.n_arm, :2].tobytes() == arm_points_per_link(env, q0, q1).tobytes()
        assert env._tip == env._arm_tip(q0, q1)
        res = env.step(gen.uniform(-1.0, 1.0, size=2))
        if res.done:
            break
        obs = env.observe()


def test_norm2_is_the_unfused_sum_of_squares():
    # each product and the sum rounded on its own, as numpy's elementwise
    # arithmetic rounds them, never a fused multiply-add
    gen = make_generator(6, "norm")
    pairs = [(0.0, 0.0), (-0.0, 0.0), (3.0, -4.0)]
    pairs += [tuple(v) for scale in (1e-9, 1.0, 30.0) for v in gen.normal(0.0, scale, size=(2000, 2)).tolist()]
    xy = np.array(pairs)
    want = np.sqrt(xy[:, 0] * xy[:, 0] + xy[:, 1] * xy[:, 1])
    got = np.array([envs._norm2(x, y) for x, y in pairs])
    assert got.tobytes() == want.tobytes()


class ArrayGather2D(envs.Gather2D):
    """Gather2D with the particle contact and measurement it had as numpy
    array code, the projection w_in @ vhat written elementwise (a BLAS
    product may fuse it into a multiply-add).  It counts the substeps that
    take the zero-speed branch and those that move a particle."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.zero_speed = self.contacts = 0

    def _particles(self) -> np.ndarray:
        return np.column_stack((self._px, self._py))

    def _store(self, particles: np.ndarray) -> None:
        self._px, self._py = particles[:, 0].tolist(), particles[:, 1].tolist()

    def _expel_radially(self, cx, cy):
        c, particles = np.array((cx, cy)), self._particles()
        d = particles - c[None, :]
        dist = np.linalg.norm(d, axis=1)
        inside = dist < self.pusher_radius
        if inside.any():
            dirs = np.where(
                dist[inside, None] > 1e-12,
                d[inside] / np.maximum(dist[inside, None], 1e-12),
                np.array([[1.0, 0.0]]),
            )
            particles[inside] = c[None, :] + (self.pusher_radius + 1e-9) * dirs
        self._store(particles)

    def _after_substep(self, p0, p1, q0, q1):
        c = np.array((q0, q1))
        speed = envs._norm2(q0 - p0, q1 - p1)
        if speed < 1e-12:
            self.zero_speed += 1
            self._expel_radially(q0, q1)
            return
        vhat = np.array((q0 - p0, q1 - p1)) / speed
        particles = self._particles()
        w = particles - c[None, :]
        dist_sq = (w * w).sum(axis=1)
        inside = dist_sq < self.pusher_radius**2
        if inside.any():
            self.contacts += 1
            w_in = w[inside]
            proj = w_in[:, 0] * vhat[0] + w_in[:, 1] * vhat[1]
            t = -proj + np.sqrt(proj * proj + self.pusher_radius**2 - dist_sq[inside])
            particles[inside] = particles[inside] + t[:, None] * vhat[None, :]
        self._store(particles)

    def _particle_stats(self):
        particles = self._particles()
        target = np.array(self.target)
        inside = np.linalg.norm(particles - target, axis=1) <= self.target_radius
        out = ~inside
        centroid = particles[out].mean(axis=0) if out.any() else target
        return float(np.mean(inside)), tuple(centroid.tolist())


def _gather_streams(gen):
    """(name, horizon, action at tick t): the expert, uniform actions,
    two corners held after two zero actions (the pusher starts at rest,
    then pins both joints at their limits) and uniform bursts of five
    ticks between five zero ticks."""
    bursts = gen.uniform(-1.0, 1.0, size=(120, 2))
    return (
        ("expert", 200, None),
        ("uniform", 200, lambda t: gen.uniform(-1.0, 1.0, size=2)),
        ("corner+-", 80, lambda t: np.array([1.0, -1.0]) if t >= 2 else np.zeros(2)),
        ("corner-+", 80, lambda t: np.array([-1.0, 1.0]) if t >= 2 else np.zeros(2)),
        ("stop-go", 120, lambda t: bursts[t] if (t // 5) % 2 == 0 else np.zeros(2)),
    )


def _result_bits(obs, res=None):
    bits = (obs.points.tobytes(), obs.proprio.tobytes())
    return bits if res is None else bits + (repr(res.reward), res.done, res.success)


@pytest.mark.parametrize("split", envs.SPLITS)
def test_float_particles_match_the_array_reference(split):
    gen = make_generator(7, "float-particles", split)
    ref_zero_speed = ref_contacts = 0
    for name, horizon, action_at in _gather_streams(gen):
        cfg = envs.make_config("gather2d", split, seed=3, horizon=horizon)
        for episode in range(3):
            env, ref = envs.make_env(cfg), ArrayGather2D(cfg)
            assert _result_bits(env.reset(episode)) == _result_bits(ref.reset(episode)), (name, episode)
            for t in range(horizon):
                if action_at is None:
                    action = env.expert_action()
                    assert action.tobytes() == ref.expert_action().tobytes()
                else:
                    action = action_at(t)
                res, ref_res = env.step(action), ref.step(action)
                assert _result_bits(env.observe(), res) == _result_bits(ref.observe(), ref_res), (name, episode, t)
                if res.done:
                    break
            ref_zero_speed += ref.zero_speed
            ref_contacts += ref.contacts
    # both branches of the contact ran, beyond the expulsion at reset
    assert ref_zero_speed > 0 and ref_contacts > 0


@pytest.mark.parametrize("task", envs.TASKS)
def test_step_rejects_bad_actions(task):
    env = envs.make_env(envs.make_config(task))
    env.reset(0)
    bad = [
        ([1.5, 0.0], ShapeMismatchError),
        ([0.0, -1.0 - 1e-9], ShapeMismatchError),
        (np.zeros(3), ShapeMismatchError),
        ([[0.0, 0.0]], ShapeMismatchError),
        ([np.nan, 0.0], NonFiniteError),
        ([0.0, -np.inf], NonFiniteError),
    ]
    for action, error in bad:
        with pytest.raises(error):
            env.step(np.array(action))
    # a rejected action leaves the episode as it was
    fresh = envs.make_env(envs.make_config(task))
    fresh.reset(0)
    edge = np.array([1.0, -1.0])
    res, ref = env.step(edge), fresh.step(edge)
    assert env.observe().points.tobytes() == fresh.observe().points.tobytes()
    assert env.observe().proprio.tobytes() == fresh.observe().proprio.tobytes()
    assert (res.reward, res.done, res.success, env.t) == (ref.reward, ref.done, ref.success, 1)


def test_step_requires_reset_first():
    env = envs.make_env(envs.make_config("reach2d"))
    with pytest.raises(ConfigError):
        env.step(np.zeros(2))


def test_step_after_done_raises():
    env = envs.make_env(envs.make_config("reach2d", horizon=3))
    env.reset(0)
    for _ in range(3):
        res = env.step(np.zeros(2))
    assert res.done
    with pytest.raises(ConfigError):
        env.step(np.zeros(2))


def test_success_implies_done_and_bonus():
    env = envs.make_env(envs.make_config("reach2d"))
    _, _, results = run_expert_episode(env, 10_000)
    final = results[-1]
    assert final.success and final.done
    # success pays +10 on top of a dense term no larger than dt * reach
    assert final.reward > 9.9
    assert not any(r.success for r in results[:-1])  # latch: first success ends it


@pytest.mark.parametrize("task", envs.TASKS)
def test_random_action_fuzz_stays_finite(task):
    env = envs.make_env(envs.make_config(task))
    gen = make_generator("fuzz", task, 1)
    env.reset(0)
    episode = 0
    for _ in range(1000):
        res = env.step(gen.uniform(-1.0, 1.0, size=2))
        obs = env.observe()
        assert np.isfinite(res.reward)
        assert np.all(np.isfinite(obs.points))
        assert np.all(np.isfinite(obs.proprio))
        if res.done:
            episode += 1
            env.reset(episode)


# -- scripted experts --------------------------------------------------------


@pytest.mark.parametrize("task,split", ALL_SPLITS)
def test_expert_actions_stay_in_box(task, split):
    env = envs.make_env(envs.make_config(task, split))
    for seed in range(5):
        _, actions, _ = run_expert_episode(env, seed)
        for a in actions:
            assert np.all(np.abs(a) <= 1.0 + 1e-12)
            assert np.all(np.isfinite(a))


def test_expert_reach2d_train_success():
    assert expert_success_rate("reach2d", "train", 100) >= 0.95


def test_expert_gather2d_train_success():
    assert expert_success_rate("gather2d", "train", 100) >= 0.8


def test_expert_pushbox2d_clears_chance():
    # no spec floor for this task; it still has to be a usable demo source
    assert expert_success_rate("pushbox2d", "train", 50) >= 0.6


# -- demo generation ----------------------------------------------------------


def test_generate_demos_rejects_zero_episodes():
    with pytest.raises(ConfigError):
        envs.generate_demos(envs.make_config("reach2d"), 0)


def test_generate_demos_filter_and_shape_contract():
    cfg = envs.make_config("reach2d", seed=2)
    demos = envs.generate_demos(cfg, 20, keep_only_success=True)
    assert demos.lengths and all(demos.successes) and max(demos.lengths) <= cfg.horizon
    assert demos.fingerprint == cfg.fingerprint()
    M = demos.size
    assert demos.points.shape == (M, envs.N_POINTS, 2 + envs.FEAT_CHANNELS)
    assert demos.proprios.shape == (M, envs.proprio_width("reach2d"))
    assert demos.actions.shape == (M, envs.ACTION_DIM)
    assert np.all(np.abs(demos.actions) <= 1.0 + 1e-12)


def test_generate_demos_deterministic():
    cfg = envs.make_config("gather2d", seed=4)
    a = envs.generate_demos(cfg, 5)
    b = envs.generate_demos(cfg, 5)
    assert (a.lengths, a.successes) == (b.lengths, b.successes)
    assert a.actions.tobytes() == b.actions.tobytes()
    assert a.points.tobytes() == b.points.tobytes()


@pytest.mark.parametrize("task,split", ALL_SPLITS)
def test_each_lockstep_demo_equals_its_seed_generated_alone(task, split):
    # the episodes run side by side, one lane per seed of the demo stream;
    # each must equal the expert on that seed alone, bit for bit, and the
    # lanes end at different ticks, so the live set shrinks along the way
    cfg = envs.make_config(task, split, seed=3)
    demos = envs.generate_demos(cfg, 8, keep_only_success=False)
    gen = make_generator("demos", task, split, 3)
    assert len(demos.lengths) == 8
    for (points, proprios, acts), success in zip(demos.episodes(), demos.successes):
        observations, actions, results = run_expert_episode(envs.make_env(cfg), next_episode_seed(gen))
        assert points.tobytes() == np.stack([o.points for o in observations]).tobytes()
        assert proprios.tobytes() == np.stack([o.proprio for o in observations]).tobytes()
        assert acts.tobytes() == np.stack(actions).tobytes()
        assert success == results[-1].success
    assert len(set(demos.lengths)) > 1


def test_demo_generation_runs_at_most_max_lanes_at_once(monkeypatch):
    # 2 * MAX_LANES + 1 seeds run as chunks of MAX_LANES, MAX_LANES and 1
    # lanes, and give the demos of an unwrapped call, in the same seed order
    cfg = envs.make_config("reach2d", seed=5, horizon=12)
    n = 2 * envs.MAX_LANES + 1
    expected = envs.generate_demos(cfg, n, keep_only_success=False)
    run_lanes, calls = envs.run_lanes, []

    def counting_run_lanes(lanes, act):
        calls.append(len(lanes))
        return run_lanes(lanes, act)

    monkeypatch.setattr(envs, "run_lanes", counting_run_lanes)
    demos = envs.generate_demos(cfg, n, keep_only_success=False)
    assert calls and max(calls) <= envs.MAX_LANES and sum(calls) == n
    assert len(demos.lengths) == len(expected.lengths) == n
    assert (demos.lengths, demos.successes) == (expected.lengths, expected.successes)
    assert demos.points.tobytes() == expected.points.tobytes()
    assert demos.proprios.tobytes() == expected.proprios.tobytes()
    assert demos.actions.tobytes() == expected.actions.tobytes()


def test_generate_demos_reach2d_yield():
    demos = envs.generate_demos(envs.make_config("reach2d"), 200)
    assert len(demos.lengths) >= 190


def test_generate_demos_empty_after_filter_raises():
    # a one-step horizon cannot move the box 0.3 to the target: all episodes fail
    cfg = envs.make_config("pushbox2d", horizon=1)
    with pytest.raises(EmptyDatasetError):
        envs.generate_demos(cfg, 10)
