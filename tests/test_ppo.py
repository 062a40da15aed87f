"""PPO: rollout collection, GAE against brute force, surrogate gradients
against finite differences, and resume bit-exactness of the training loop."""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from deskrl import loop, nn, pointnet, policy as pol, ppo
from deskrl.envs import make_config, make_env
from deskrl.errors import ConfigError, NonFiniteError, ResumeError
from deskrl.persistence import load_checkpoint, read_metrics, save_checkpoint
from deskrl.rng import generator_from_words, make_generator, next_episode_seed, state_words, substreams


def fresh_policy(task="reach2d", seed=0, log_std0=-0.5):
    spec = pol.build_policy_spec(task)
    store = nn.ParamStore()
    pol.init_policy(store, spec, make_generator(seed, "test", "init", task), log_std0)
    return store, spec


def small_cfg(**overrides):
    base = dict(
        samples_per_step=80,
        minibatch_size=40,
        epochs=2,
        total_steps=240,
        eval_period=160,
        eval_episodes=3,
    )
    base.update(overrides)
    return ppo.PPOConfig(**base)


class TestPPOConfig:
    def test_defaults_construct(self):
        cfg = ppo.PPOConfig()
        assert cfg.samples_per_step == 2048
        assert cfg.minibatch_size == 64

    @pytest.mark.parametrize(
        "overrides",
        [
            {"minibatch_size": 0},
            {"minibatch_size": 81, "samples_per_step": 80},
            {"gamma": 0.0},
            {"gamma": 1.0 + 1e-9},
            {"lam": -0.1},
            {"lam": 1.1},
            {"clip_eps": 0.0},
            {"clip_eps": -0.2},
            {"epochs": 0},
            {"eval_period": 0},
            {"eval_episodes": 0},
            {"learning_rate": 0.0},
            {"total_steps": -1},
            {"value_coef": -0.5},
            {"entropy_coef": -0.01},
            {"clip_eps": float("nan")},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"value_coef": float("nan")},
            {"entropy_coef": float("nan")},
            {"log_std0": float("-inf")},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ConfigError):
            small_cfg(**overrides)


class TestCollectRollout:
    def test_rejects_empty_request(self):
        store, spec = fresh_policy()
        with pytest.raises(ConfigError):
            ppo.collect_rollout(store, spec, make_config("reach2d"), 0, make_generator(0))

    def test_horizon_sized_rollout_is_one_episode(self):
        # a fresh random policy does not solve reach2d by accident at this
        # seed, so the only done flag is the horizon truncation at the end
        store, spec = fresh_policy()
        cfg = make_config("reach2d", horizon=40)
        buf = ppo.collect_rollout(store, spec, cfg, 40, make_generator(0, "roll"))
        assert buf.size == 40
        assert buf.lane_sizes == [40]
        assert not buf.dones[:-1].any()
        assert buf.dones[-1] == 1.0
        assert buf.bootstrap_values.tolist() == [0.0]

    def test_auto_reset_spans_episodes(self):
        # 100 samples at horizon 40 make two lanes of 50: each lane's first
        # episode ends at the horizon, and the lane resets and runs on
        store, spec = fresh_policy()
        cfg = make_config("reach2d", horizon=40)
        buf = ppo.collect_rollout(store, spec, cfg, 100, make_generator(0, "roll"))
        assert buf.lane_sizes == [50, 50]
        assert buf.dones[39] == 1.0
        assert buf.dones[89] == 1.0
        assert buf.dones.sum() == 2.0
        assert np.isfinite(buf.bootstrap_values).all() and (buf.bootstrap_values != 0.0).all()

    def test_partial_episode_bootstraps(self):
        store, spec = fresh_policy()
        buf = ppo.collect_rollout(store, spec, make_config("reach2d", horizon=40), 20, make_generator(0, "roll"))
        assert not buf.dones.any()
        assert np.isfinite(buf.bootstrap_values).all() and buf.bootstrap_values.shape == (1,)

    def test_replay_of_stored_actions_reproduces_rewards(self):
        # the env runs the clamp of the stored raw sample, so stepping a
        # fresh env with it must retrace the trajectory bit for bit; the
        # noise is wide, so the clamp is exercised
        store, spec = fresh_policy(log_std0=1.0)
        cfg = make_config("reach2d", horizon=40)
        gen = make_generator(3, "roll")
        clone = generator_from_words(state_words(gen))
        episode_seed = next_episode_seed(substreams(clone, 1)[0])  # the one lane's first draw
        buf = ppo.collect_rollout(store, spec, cfg, 30, gen)
        assert not buf.dones.any()  # single episode, single seed draw
        assert (np.abs(buf.raw_actions) > 1.0).any()

        env = make_env(cfg)
        obs = env.reset(episode_seed)
        for t in range(30):
            assert obs.points.tobytes() == buf.points[t].tobytes()
            assert obs.proprio.tobytes() == buf.proprios[t].tobytes()
            res = env.step(np.minimum(np.maximum(buf.raw_actions[t], -1.0), 1.0))
            assert res.reward == buf.rewards[t]
            obs = env.observe()

    def test_logp_record_matches_batched_density(self):
        # collection-time log-probs come from padded lane batches; the
        # density of the whole buffer in one batch must agree to
        # accumulation error
        store, spec = fresh_policy("gather2d")
        buf = ppo.collect_rollout(store, spec, make_config("gather2d"), 25, make_generator(1, "roll"))
        recomputed = minibatch_logps(store, spec, buf, np.arange(buf.size))
        assert np.max(np.abs(recomputed - buf.logps)) <= 1e-10

    def test_deterministic_given_generator_seed(self):
        store, spec = fresh_policy("pushbox2d")
        cfg = make_config("pushbox2d")
        a = ppo.collect_rollout(store, spec, cfg, 30, make_generator(9, "r"))
        b = ppo.collect_rollout(store, spec, cfg, 30, make_generator(9, "r"))
        assert a.points.tobytes() == b.points.tobytes()
        assert a.raw_actions.tobytes() == b.raw_actions.tobytes()
        assert a.rewards.tobytes() == b.rewards.tobytes()
        assert a.bootstrap_values.tobytes() == b.bootstrap_values.tobytes()


# per task: policy init seed and the widened success region under which
# lanes end episodes early, at different ticks
_STAGGERED = {
    "reach2d": (21, {"tolerance": 0.45}),
    "pushbox2d": (0, {"tolerance": 0.4}),
    "gather2d": (6, {"success_fraction": 0.1, "target_radius": 0.9}),
}

_LANE_FIELDS = ("points", "proprios", "raw_actions", "logps", "values", "rewards", "dones")


class TestLockstep:
    @pytest.mark.parametrize("samples,horizon,sizes", [
        (40, 40, [40]),
        (79, 40, [79]),
        (80, 40, [40, 40]),
        (92, 30, [31, 31, 30]),
        (2048, 100, [128] * 16),
        (512, 150, [171, 171, 170]),
        (384, 150, [192, 192]),
        (165, 5, [11] * 5 + [10] * 11),
    ])
    def test_lane_rule(self, samples, horizon, sizes):
        assert ppo.lane_sizes(samples, horizon) == sizes

    @pytest.mark.parametrize("task", ["reach2d", "pushbox2d", "gather2d"])
    @pytest.mark.parametrize("samples", [92, 500])
    def test_each_lane_equals_that_lane_alone(self, task, samples, monkeypatch):
        # at horizon 30, 92 samples make 3 lanes and 500 make 16 (the first
        # four one step longer, so the last tick steps only those); the
        # wider success region ends episodes at different ticks in
        # different lanes, so lanes reset at different ticks
        init_seed, region = _STAGGERED[task]
        cfg = make_config(task, horizon=30)
        for attr, value in region.items():
            monkeypatch.setattr(type(make_env(cfg)), attr, value)
        store, spec = fresh_policy(task, init_seed)
        store.get("mean.W1")[:] /= pol.FINAL_MEAN_SCALE  # means of order one
        gen = make_generator(11, "lanes", task)
        sizes = ppo.lane_sizes(samples, cfg.horizon)
        streams = substreams(generator_from_words(state_words(gen)), len(sizes))
        buf = ppo.collect_rollout(store, spec, cfg, samples, gen)
        assert buf.lane_sizes == sizes
        starts = np.cumsum([0] + sizes[:-1])
        for k, (start, size) in enumerate(zip(starts, sizes)):
            alone = ppo.collect_lanes(store, spec, cfg, [size], [streams[k]])
            for field in _LANE_FIELDS:
                got = getattr(buf, field)[start : start + size]
                assert got.tobytes() == getattr(alone, field).tobytes(), (k, field)
            assert buf.bootstrap_values[k : k + 1].tobytes() == alone.bootstrap_values.tobytes(), k
        episode_ends = {tuple(np.flatnonzero(buf.dones[a : a + n])) for a, n in zip(starts, sizes)}
        assert len(episode_ends) > 1  # the lanes do not move as one

    def test_lanes_of_any_size_order_equal_each_lane_alone(self):
        # a lane leaves the lockstep when its budget is spent, wherever it
        # stands: a longer lane after a shorter one runs on past it
        store, spec = fresh_policy()
        cfg = make_config("reach2d", horizon=4)
        sizes = [3, 9, 1, 6]
        buf = ppo.collect_lanes(store, spec, cfg, sizes, [make_generator(0, k) for k in range(4)])
        assert buf.lane_sizes == sizes and buf.size == sum(sizes)
        starts = np.cumsum([0] + sizes[:-1])
        for k, (start, size) in enumerate(zip(starts, sizes)):
            alone = ppo.collect_lanes(store, spec, cfg, [size], [make_generator(0, k)])
            for field in _LANE_FIELDS:
                got = getattr(buf, field)[start : start + size]
                assert got.tobytes() == getattr(alone, field).tobytes(), (k, field)
            assert buf.bootstrap_values[k : k + 1].tobytes() == alone.bootstrap_values.tobytes(), k

    def test_rejects_a_lane_without_a_stream_or_a_step(self):
        store, spec = fresh_policy()
        gens = [make_generator(0, k) for k in range(2)]
        with pytest.raises(ConfigError):
            ppo.collect_lanes(store, spec, make_config("reach2d"), [3], gens)
        with pytest.raises(ConfigError):
            ppo.collect_lanes(store, spec, make_config("reach2d"), [3, 0], gens)


def synthetic_buffer(S, seed, dones_at=(), lanes=None):
    """S random transitions in `lanes` (one lane of S by default), each
    lane with its own random bootstrap value."""
    lanes = [S] if lanes is None else lanes
    assert sum(lanes) == S
    g = np.random.default_rng(seed)
    buf = ppo.RolloutBuffer(
        points=np.zeros((S, 1, 5)),
        proprios=np.zeros((S, 3)),
        raw_actions=np.zeros((S, 2)),
        logps=np.zeros(S),
        rewards=g.normal(size=S),
        values=g.normal(size=S),
        dones=np.zeros(S),
        lane_sizes=list(lanes),
        bootstrap_values=g.normal(size=len(lanes)),
    )
    for i in dones_at:
        buf.dones[i] = 1.0
    return buf


def gae_brute_force(buf, gamma, lam):
    """Direct sum A_t = sum_k (gamma*lam)^k delta_{t+k}, cut at episode ends
    and at the end of t's lane, where the lane's bootstrap value stands in
    for the next state's value."""
    S = buf.size
    lane_end = np.repeat(np.cumsum(buf.lane_sizes), buf.lane_sizes)
    lane_of = np.repeat(np.arange(len(buf.lane_sizes)), buf.lane_sizes)
    adv = np.zeros(S)
    for t in range(S):
        acc = 0.0
        coef = 1.0
        for k in range(t, lane_end[t]):
            next_value = buf.values[k + 1] if k + 1 < lane_end[t] else buf.bootstrap_values[lane_of[t]]
            mask = 1.0 - buf.dones[k]
            delta = buf.rewards[k] + gamma * next_value * mask - buf.values[k]
            acc += coef * delta
            if buf.dones[k]:
                break
            coef *= gamma * lam
        adv[t] = acc
    return adv


def gae_one_lane_recursion(buf, gamma, lam):
    """The single-lane recursion GAE ran before rollouts had lanes."""
    S = buf.size
    adv = np.zeros(S)
    carry = 0.0
    for t in range(S - 1, -1, -1):
        next_value = buf.values[t + 1] if t + 1 < S else float(buf.bootstrap_values[0])
        mask = 1.0 - buf.dones[t]
        delta = buf.rewards[t] + gamma * next_value * mask - buf.values[t]
        carry = delta + gamma * lam * mask * carry
        adv[t] = carry
    return adv


class TestComputeGAE:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.95, 1.0])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.95, 1.0])
    def test_matches_brute_force(self, gamma, lam):
        if gamma == 0.0:
            gamma = 1e-12  # config floor is gamma > 0; the recursion itself is fine
        buf = synthetic_buffer(25, 42, dones_at=(7, 15))
        expected = gae_brute_force(buf, gamma, lam)
        ppo.compute_gae(buf, gamma, lam, normalize=False)
        assert np.max(np.abs(buf.advantages - expected)) <= 1e-10

    @pytest.mark.parametrize("gamma", [1e-12, 0.5, 0.95, 1.0])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.95, 1.0])
    def test_lanes_match_brute_force(self, gamma, lam):
        # four lanes: one ends on an episode end (its bootstrap must not
        # count), one holds an episode end mid-lane, one is a single step
        buf = synthetic_buffer(26, 43, dones_at=(3, 8, 12), lanes=[9, 9, 7, 1])
        expected = gae_brute_force(buf, gamma, lam)
        ppo.compute_gae(buf, gamma, lam, normalize=False)
        assert np.max(np.abs(buf.advantages - expected)) <= 1e-10

    @pytest.mark.parametrize("dones_at", [(), (7, 15), (24,)])
    def test_one_lane_keeps_the_single_lane_arithmetic(self, dones_at):
        buf = synthetic_buffer(25, 44, dones_at=dones_at)
        expected = gae_one_lane_recursion(buf, 0.99, 0.95)
        ppo.compute_gae(buf, 0.99, 0.95, normalize=False)
        assert buf.advantages.tobytes() == expected.tobytes()

    def test_lane_boundaries_at_episode_ends_change_nothing(self):
        # a lane that ends in an episode end bootstraps nothing, so cutting
        # one lane at its episode ends gives the same advantages
        one = synthetic_buffer(24, 45, dones_at=(7, 15, 23))
        split = synthetic_buffer(24, 45, dones_at=(7, 15, 23), lanes=[8, 8, 8])
        ppo.compute_gae(one, 0.99, 0.95, normalize=False)
        ppo.compute_gae(split, 0.99, 0.95, normalize=False)
        assert split.advantages.tobytes() == one.advantages.tobytes()

    def test_lambda_zero_gives_td_errors(self):
        buf = synthetic_buffer(20, 7, dones_at=(11,))
        ppo.compute_gae(buf, 0.9, 0.0, normalize=False)
        next_values = np.append(buf.values[1:], buf.bootstrap_values[0])
        deltas = buf.rewards + 0.9 * next_values * (1.0 - buf.dones) - buf.values
        assert np.array_equal(buf.advantages, deltas)

    def test_undiscounted_montecarlo_limit(self):
        # gamma = lam = 1 with a zero value function: advantage at t is the
        # plain sum of rewards from t to the end of its episode
        buf = synthetic_buffer(12, 3, dones_at=(4, 11))
        buf.values[:] = 0.0
        buf.bootstrap_values[:] = 0.0
        ppo.compute_gae(buf, 1.0, 1.0, normalize=False)
        expected = np.zeros(12)
        for t in range(12):
            acc = 0.0
            for k in range(t, 12):
                acc += buf.rewards[k]
                if buf.dones[k]:
                    break
            expected[t] = acc
        assert np.max(np.abs(buf.advantages - expected)) <= 1e-12

    def test_returns_use_raw_advantages(self):
        raw = synthetic_buffer(30, 11, dones_at=(9,))
        normed = synthetic_buffer(30, 11, dones_at=(9,))
        ppo.compute_gae(raw, 0.99, 0.95, normalize=False)
        ppo.compute_gae(normed, 0.99, 0.95, normalize=True)
        assert np.array_equal(raw.returns, normed.returns)
        assert np.array_equal(raw.returns, raw.advantages + raw.values)

    def test_normalization_moments(self):
        buf = synthetic_buffer(64, 5)
        ppo.compute_gae(buf, 0.99, 0.95, normalize=True)
        assert abs(buf.advantages.mean()) <= 1e-12
        assert abs(buf.advantages.std() - 1.0) <= 1e-12

    def test_single_sample_skips_normalization(self):
        buf = synthetic_buffer(1, 2)
        delta = buf.rewards[0] + 0.9 * buf.bootstrap_values[0] - buf.values[0]
        ppo.compute_gae(buf, 0.9, 0.95, normalize=True)
        assert buf.advantages[0] == delta

    def test_constant_advantages_do_not_divide_by_zero(self):
        buf = synthetic_buffer(8, 1)
        buf.rewards[:] = 0.5
        buf.values[:] = 0.0
        buf.bootstrap_values[:] = 0.0
        buf.dones[:] = 1.0  # every step its own episode: all deltas equal
        ppo.compute_gae(buf, 0.99, 0.95, normalize=True)
        assert np.array_equal(buf.advantages, np.zeros(8))


def minibatch_logps(store, spec, buf, idx):
    """Log-probs of rows idx with the update's bits: those rows through
    encode_batch, the mean head and gaussian_logp, placed at idx."""
    enc = pointnet.encode_batch(store, spec.encoder, buf.points[idx], buf.proprios[idx])
    mean = nn.forward_batch(store, spec.mean, enc, "mean")
    old = np.full(buf.size, np.nan)
    old[idx] = pol.gaussian_logp(buf.raw_actions[idx], mean, pol.log_std_of(store))
    return old


def rollout_with_gae(store, spec, task="reach2d", samples=32, seed=0, **gae):
    buf = ppo.collect_rollout(store, spec, make_config(task, horizon=40), samples, make_generator(seed, "fd"))
    ppo.compute_gae(buf, gae.get("gamma", 0.99), gae.get("lam", 0.95))
    return buf


def surrogate_scalar(store, spec, buf, idx, old, cfg):
    """Loss-only recompute of the minibatch objective, for finite differences."""
    enc = pointnet.encode_batch(store, spec.encoder, buf.points[idx], buf.proprios[idx])
    mean = nn.forward_batch(store, spec.mean, enc, "mean")
    value = nn.forward_batch(store, spec.value, enc, "value")[:, 0]
    log_std = pol.log_std_of(store)
    logp = pol.gaussian_logp(buf.raw_actions[idx], mean, log_std)
    ratio = np.exp(logp - old[idx])
    clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)
    policy_loss = -float(np.mean(np.minimum(ratio * buf.advantages[idx], clipped * buf.advantages[idx])))
    value_loss = float(np.mean((value - buf.returns[idx]) ** 2))
    return policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * pol.gaussian_entropy(log_std)


class TestSurrogateGradients:
    def test_matches_finite_differences(self):
        # four-sample buffer, ratios pushed off 1 so the kinks stay away
        store, spec = fresh_policy(seed=4)
        buf = rollout_with_gae(store, spec, samples=4, seed=4)
        idx = np.arange(4)
        old = minibatch_logps(store, spec, buf, idx)
        old = old + np.array([0.07, -0.05, 0.11, -0.09])
        buf.logps = old
        cfg = ppo.PPOConfig(samples_per_step=4, minibatch_size=4, total_steps=0)

        ratio = np.exp(-np.array([0.07, -0.05, 0.11, -0.09]))
        for r in ratio:  # precondition: clear of both clip corners and 1
            assert min(abs(r - 0.8), abs(r - 1.2), abs(r - 1.0)) > 1e-3

        total, grad, _ = ppo.surrogate_loss_and_grad(store, spec, buf, idx, cfg)
        assert total == pytest.approx(surrogate_scalar(store, spec, buf, idx, old, cfg))

        picker = np.random.default_rng(77)
        coords = list(picker.choice(store.size, size=48, replace=False))
        lo, hi = store.slice_bounds("log_std")
        coords += [lo, hi - 1]
        checked = 0
        for c in coords:
            base = store.flat[c]
            h = 1e-6 * max(1.0, abs(base))
            store.flat[c] = base + h
            up = surrogate_scalar(store, spec, buf, idx, old, cfg)
            store.flat[c] = base - h
            down = surrogate_scalar(store, spec, buf, idx, old, cfg)
            store.flat[c] = base
            fd = (up - down) / (2.0 * h)
            denom = max(abs(fd), abs(grad[c]), 1e-8)
            assert abs(fd - grad[c]) / denom <= 1e-4, f"coordinate {c}"
            checked += 1
        assert checked == 50

    def test_zero_epsilon_limit_has_flat_surrogate(self):
        # with eps -> 0 every ratio ties against its clipped copy at the
        # start of an update; ties resolve to the clipped branch, so the
        # surrogate contributes no gradient and its value is -mean(adv)
        store, spec = fresh_policy(seed=2)
        buf = rollout_with_gae(store, spec, samples=8, seed=2)
        idx = np.arange(8)
        buf.logps = minibatch_logps(store, spec, buf, idx)
        cfg = SimpleNamespace(clip_eps=0.0, value_coef=0.0, entropy_coef=0.0)
        total, grad, stats = ppo.surrogate_loss_and_grad(store, spec, buf, idx, cfg)
        assert total == -float(np.mean(buf.advantages))
        assert np.array_equal(grad, np.zeros_like(grad))
        assert stats["policy_loss"] == total

    def test_tiny_epsilon_lets_gradient_flow_at_ratio_one(self):
        # any eps > 0 puts ratio 1 strictly inside the trust region, so the
        # full A * d(ratio) gradient must flow even though the loss value
        # is identical to the eps = 0 case
        store, spec = fresh_policy(seed=2)
        buf = rollout_with_gae(store, spec, samples=8, seed=2)
        idx = np.arange(8)
        buf.logps = minibatch_logps(store, spec, buf, idx)
        cfg = SimpleNamespace(clip_eps=1e-9, value_coef=0.0, entropy_coef=0.0)
        total, grad, _ = ppo.surrogate_loss_and_grad(store, spec, buf, idx, cfg)
        assert total == -float(np.mean(buf.advantages))
        assert np.abs(grad).max() > 0.0

    @pytest.mark.parametrize(
        "stored", [(pol.LOG_STD_MAX + 0.5, -0.5), (-0.5, pol.LOG_STD_MIN - 0.5)], ids=["above", "below"]
    )
    def test_log_std_past_the_clamp_gets_no_gradient(self, stored):
        # the loss reads log_std_of, the stored row clamped to
        # [LOG_STD_MIN, LOG_STD_MAX]; an entry stored past a bound has zero
        # slope there, and the in-range entry beside it keeps its gradient
        store, spec = fresh_policy(seed=5)
        buf = rollout_with_gae(store, spec, samples=8, seed=5)
        store.get("log_std")[0] = stored
        idx = np.arange(8)
        # raw actions drawn at the clamped std keep every z of order one
        enc = pointnet.encode_batch(store, spec.encoder, buf.points, buf.proprios)
        mean = nn.forward_batch(store, spec.mean, enc, "mean")
        noise = make_generator(5, "clamp").standard_normal(mean.shape)
        buf.raw_actions = mean + np.exp(pol.log_std_of(store)) * noise
        buf.logps = minibatch_logps(store, spec, buf, idx)
        cfg = ppo.PPOConfig(samples_per_step=8, minibatch_size=8, total_steps=0)
        _, grad, _ = ppo.surrogate_loss_and_grad(store, spec, buf, idx, cfg)
        lo, hi = store.slice_bounds("log_std")
        inside = (pol.LOG_STD_MIN < np.array(stored)) & (np.array(stored) < pol.LOG_STD_MAX)
        assert inside.tolist() in ([False, True], [True, False])
        assert np.all(grad[lo:hi][~inside] == 0.0)
        assert np.all(grad[lo:hi][inside] != 0.0)


# a hand-worked minibatch: each ratio below, inside and above [0.8, 1.2]
# under a positive and a negative advantage
HAND_RATIOS = np.array([0.5, 0.9, 1.1, 1.5, 0.5, 0.9, 1.1, 1.5])
HAND_ADVANTAGES = np.array([1.0, 2.0, 0.5, 1.5, -1.0, -2.0, -0.5, -1.5])


def hand_worked_minibatch():
    """An 8-row reach2d buffer whose recorded log-probs put the current
    policy's ratios at HAND_RATIOS, with HAND_ADVANTAGES."""
    store, spec = fresh_policy(seed=3)
    buf = rollout_with_gae(store, spec, samples=8, seed=3)
    idx = np.arange(8)
    buf.logps = minibatch_logps(store, spec, buf, idx) - np.log(HAND_RATIOS)
    buf.advantages = HAND_ADVANTAGES.copy()
    return store, spec, buf, idx


class TestClippedObjective:
    def test_hand_worked_minibatch_takes_the_pessimistic_bound(self):
        # min(r A, clip(r) A) is min(r, 1 + eps) A for A > 0 and
        # max(r, 1 - eps) A for A < 0; its gradient flows through r on the
        # rows where r A is that bound (ties inside the region included)
        store, spec, buf, idx = hand_worked_minibatch()
        cfg = SimpleNamespace(clip_eps=0.2, value_coef=0.0, entropy_coef=0.0)
        total, grad, stats = ppo.surrogate_loss_and_grad(store, spec, buf, idx, cfg)
        bound = np.array([0.5 * 1.0, 0.9 * 2.0, 1.1 * 0.5, 1.2 * 1.5, 0.8 * -1.0, 0.9 * -2.0, 1.1 * -0.5, 1.5 * -1.5])
        assert total == stats["policy_loss"] == pytest.approx(0.09375, rel=1e-12)
        assert total == pytest.approx(-np.mean(bound), rel=1e-12)
        # no gradient where the clip binds: r = 1.5 under A > 0, r = 0.5 under A < 0
        flows = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        d_logp = -HAND_ADVANTAGES * HAND_RATIOS * flows / len(idx)
        enc = pointnet.encode_batch(store, spec.encoder, buf.points[idx], buf.proprios[idx])
        mean = nn.forward_batch(store, spec.mean, enc, "mean")
        sigma = np.exp(pol.log_std_of(store))
        z = (buf.raw_actions[idx] - mean) / sigma
        # the mean head's output bias moves every row's mean one for one,
        # and the log-std scales every row's z
        lo, hi = store.slice_bounds(f"mean.b{spec.mean.depth - 1}")
        assert np.allclose(grad[lo:hi], (d_logp[:, None] * z / sigma).sum(axis=0), rtol=1e-9, atol=1e-15)
        lo, hi = store.slice_bounds("log_std")
        assert np.array_equal(pol.log_std_grad_mask(store), np.ones(2))
        assert np.allclose(grad[lo:hi], (d_logp[:, None] * (z * z - 1.0)).sum(axis=0), rtol=1e-9, atol=1e-15)

    def test_kl_and_clip_fraction_follow_their_definitions(self, monkeypatch):
        # approx_kl is the mean of old minus new log-probabilities, here
        # -log r; clip_fraction the share of rows with |r - 1| > eps, here
        # the four rows at 0.5 and 1.5.  ppo_update averages them over its
        # one minibatch, so they pass through unchanged
        store, spec, buf, idx = hand_worked_minibatch()
        kl = -np.mean(np.log(HAND_RATIOS))
        assert kl > 0.07
        cfg = ppo.PPOConfig(samples_per_step=8, minibatch_size=8, epochs=1, clip_eps=0.2, total_steps=0)
        _, _, stats = ppo.surrogate_loss_and_grad(store, spec, buf, idx, cfg)
        assert stats["approx_kl"] == pytest.approx(kl, rel=1e-12)
        assert stats["clip_fraction"] == 0.5
        monkeypatch.setattr(nn, "adam_step", lambda store, grad, adam: None)
        update = ppo.ppo_update(store, spec, buf, cfg, make_generator(3, "mb"), nn.init_adam(store.size, 1e-3))
        assert update.minibatches == 1
        assert update.approx_kl == pytest.approx(kl, rel=1e-12)
        assert update.clip_fraction == 0.5


class TestPPOUpdate:
    def test_requires_gae(self):
        store, spec = fresh_policy()
        buf = ppo.collect_rollout(store, spec, make_config("reach2d", horizon=40), 8, make_generator(0, "u"))
        cfg = ppo.PPOConfig(samples_per_step=8, minibatch_size=8, total_steps=0)
        with pytest.raises(ConfigError):
            ppo.ppo_update(store, spec, buf, cfg, make_generator(0), nn.init_adam(store.size, 3e-4))

    def test_first_update_has_unit_ratios(self):
        # one epoch, one minibatch: the recorded log-probs of this buffer
        # match the update's to the bit, so every ratio is exactly one
        store, spec = fresh_policy(seed=6)
        buf = rollout_with_gae(store, spec, samples=16, seed=6)
        cfg = ppo.PPOConfig(samples_per_step=16, minibatch_size=16, epochs=1, total_steps=0)
        adam = nn.init_adam(store.size, cfg.learning_rate)
        stats = ppo.ppo_update(store, spec, buf, cfg, make_generator(6, "mb"), adam)
        assert stats.minibatches == 1
        assert stats.clip_fraction == 0.0
        assert stats.approx_kl == 0.0

    @pytest.mark.parametrize("batch", [64, 58, 51, 45])
    def test_first_epoch_ratios_from_recorded_logps(self, batch, monkeypatch):
        # the update's old log-probs are the rollout's record, from one-row
        # batches; its minibatches (here of the stage-two sizes, ending in a
        # one-row batch) give each sample's log-prob other last bits at
        # most, so with the parameters held still every first-epoch ratio
        # lies within 1e-12 of one and clips nowhere at that epsilon
        store, spec = fresh_policy("pushbox2d", seed=9)
        # undo the near-zero start of the mean head's last layer, whose
        # rounding would hide last-ulp differences in the features
        store.get("mean.W1")[:] /= pol.FINAL_MEAN_SCALE
        buf = rollout_with_gae(store, spec, task="pushbox2d", samples=3 * batch + 1, seed=9)
        cfg = ppo.PPOConfig(
            samples_per_step=buf.size, minibatch_size=batch, epochs=1, clip_eps=1e-12, total_steps=0
        )
        monkeypatch.setattr(nn, "adam_step", lambda store, grad, adam: None)
        adam = nn.init_adam(store.size, cfg.learning_rate)
        stats = ppo.ppo_update(store, spec, buf, cfg, make_generator(9, "mb"), adam)
        assert stats.minibatches == 4  # the last of them is a single row
        assert stats.clip_fraction == 0.0

    def test_adam_steps_once_per_minibatch(self):
        store, spec = fresh_policy(seed=6)
        buf = rollout_with_gae(store, spec, samples=20, seed=6)
        cfg = ppo.PPOConfig(samples_per_step=20, minibatch_size=8, epochs=3, total_steps=0)
        adam = nn.init_adam(store.size, cfg.learning_rate)
        stats = ppo.ppo_update(store, spec, buf, cfg, make_generator(1, "mb"), adam)
        assert stats.minibatches == 9  # 3 epochs x ceil(20 / 8), short tail kept
        assert adam.t == 9

    def test_update_is_deterministic(self):
        results = []
        for _ in range(2):
            store, spec = fresh_policy(seed=8)
            buf = rollout_with_gae(store, spec, samples=24, seed=8)
            cfg = ppo.PPOConfig(samples_per_step=24, minibatch_size=8, epochs=2, total_steps=0)
            adam = nn.init_adam(store.size, cfg.learning_rate)
            stats = ppo.ppo_update(store, spec, buf, cfg, make_generator(8, "mb"), adam)
            results.append((store.flat.tobytes(), stats))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]

    def test_nonfinite_loss_names_the_minibatch(self):
        store, spec = fresh_policy(seed=6)
        buf = rollout_with_gae(store, spec, samples=8, seed=6)
        buf.advantages[0] = np.inf
        cfg = ppo.PPOConfig(samples_per_step=8, minibatch_size=8, total_steps=0)
        adam = nn.init_adam(store.size, cfg.learning_rate)
        with pytest.raises(NonFiniteError, match="minibatch"):
            ppo.ppo_update(store, spec, buf, cfg, make_generator(0, "mb"), adam)

    @pytest.mark.parametrize("param", ["enc.post.b0", "mean.W1", "value.W0"])
    def test_nonfinite_parameter_stops_before_adam(self, param, monkeypatch):
        # the post net and both heads run unchecked; the loss check must
        # still stop a NaN parameter before the optimizer moves
        store, spec = fresh_policy(seed=6)
        buf = rollout_with_gae(store, spec, samples=8, seed=6)
        store.get(param)[0, 0] = np.nan
        steps = []
        monkeypatch.setattr(nn, "adam_step", lambda *args: steps.append(args))
        cfg = ppo.PPOConfig(samples_per_step=8, minibatch_size=8, total_steps=0)
        with pytest.raises(NonFiniteError, match="epoch 0, minibatch 0"):
            ppo.ppo_update(store, spec, buf, cfg, make_generator(0, "mb"), nn.init_adam(store.size, 3e-4))
        assert steps == []


class TestTrainPPO:
    def test_eval_cadence_and_artifacts(self, tmp_path):
        out = str(tmp_path / "run")
        cfg = make_config("reach2d", horizon=40)
        hist = ppo.train_ppo(small_cfg(), cfg, seed=3, out_dir=out)
        assert [r.step for r in hist] == [0, 160, 240]
        assert all(r.stage == 1 for r in hist)
        assert read_metrics(os.path.join(out, "metrics.csv")) == hist
        for step in (0, 160, 240):
            assert os.path.exists(os.path.join(out, f"ckpt-{step:08d}.ckpt"))

    def test_budget_below_rollout_only_evaluates_once(self, tmp_path):
        out = str(tmp_path / "run")
        cfg = make_config("reach2d", horizon=40)
        hist = ppo.train_ppo(small_cfg(total_steps=79), cfg, seed=3, out_dir=out)
        assert len(hist) == 1
        assert hist[0].step == 0

    def test_identical_runs_are_bit_identical(self, tmp_path):
        cfg = make_config("reach2d", horizon=40)
        h1 = ppo.train_ppo(small_cfg(total_steps=160), cfg, seed=5, out_dir=str(tmp_path / "a"))
        h2 = ppo.train_ppo(small_cfg(total_steps=160), cfg, seed=5, out_dir=str(tmp_path / "b"))
        assert h1 == h2
        ca = load_checkpoint(str(tmp_path / "a" / "ckpt-00000160.ckpt"))
        cb = load_checkpoint(str(tmp_path / "b" / "ckpt-00000160.ckpt"))
        assert np.array_equal(ca.params, cb.params)

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        cfg = make_config("reach2d", horizon=40)
        full = ppo.train_ppo(small_cfg(eval_period=80), cfg, seed=7, out_dir=str(tmp_path / "full"))
        first = ppo.train_ppo(
            small_cfg(total_steps=160, eval_period=80), cfg, seed=7, out_dir=str(tmp_path / "first")
        )
        second = ppo.train_ppo(
            small_cfg(total_steps=80, eval_period=80),
            cfg,
            seed=7,
            out_dir=str(tmp_path / "second"),
            restore=str(tmp_path / "first" / "ckpt-00000160.ckpt"),
        )
        assert second[0] == first[-1]  # the entry record is the restore point's stored rates
        assert first + second[1:] == full
        end_full = load_checkpoint(str(tmp_path / "full" / "ckpt-00000240.ckpt"))
        end_split = load_checkpoint(str(tmp_path / "second" / "ckpt-00000240.ckpt"))
        assert np.array_equal(end_full.params, end_split.params)
        assert np.array_equal(end_full.adam.m, end_split.adam.m)
        assert np.array_equal(end_full.adam.v, end_split.adam.v)
        assert end_full.adam.t == end_split.adam.t
        assert np.array_equal(end_full.rng_words, end_split.rng_words)

    @pytest.mark.parametrize("samples,horizon,lanes", [(40, 40, 1), (80, 40, 2), (96, 5, 16)])
    def test_resume_is_bit_exact_at_each_lane_count(self, samples, horizon, lanes, tmp_path):
        # the lane count follows from samples and horizon; at each of them a
        # run stopped after two rollouts and resumed from its checkpoint
        # ends where the uninterrupted run ends, bit for bit
        assert len(ppo.lane_sizes(samples, horizon)) == lanes
        env_cfg = make_config("reach2d", horizon=horizon)

        def run(total, out, restore=None):
            cfg = small_cfg(
                samples_per_step=samples, minibatch_size=samples // 2, total_steps=total, eval_period=samples
            )
            return ppo.train_ppo(cfg, env_cfg, seed=7, out_dir=str(tmp_path / out), restore=restore)

        full = run(3 * samples, "full")
        first = run(2 * samples, "first")
        second = run(samples, "second", str(tmp_path / "first" / f"ckpt-{2 * samples:08d}.ckpt"))
        assert first + second[1:] == full
        name = f"ckpt-{3 * samples:08d}.ckpt"
        end_full = load_checkpoint(str(tmp_path / "full" / name))
        end_split = load_checkpoint(str(tmp_path / "second" / name))
        assert end_full.params.tobytes() == end_split.params.tobytes()
        assert end_full.adam.m.tobytes() == end_split.adam.m.tobytes()
        assert end_full.adam.v.tobytes() == end_split.adam.v.tobytes()
        assert end_full.adam.t == end_split.adam.t
        assert end_full.rng_words.tobytes() == end_split.rng_words.tobytes()

    def test_resume_rejects_wrong_trainer_kind(self, tmp_path):
        cfg = make_config("reach2d", horizon=40)
        ppo.train_ppo(small_cfg(total_steps=0), cfg, seed=1, out_dir=str(tmp_path / "r"))
        ck = load_checkpoint(str(tmp_path / "r" / "ckpt-00000000.ckpt"))
        import dataclasses

        bc_ck = str(tmp_path / "bc.ckpt")
        save_checkpoint(bc_ck, dataclasses.replace(ck, trainer_kind="bc"))
        with pytest.raises(ResumeError):
            ppo.train_ppo(small_cfg(), cfg, seed=1, out_dir=str(tmp_path / "x"), restore=bc_ck)

    def test_resume_records_the_checkpoint_rates_without_evaluating(self, tmp_path, monkeypatch):
        cfg = make_config("reach2d", horizon=40)
        ppo.train_ppo(small_cfg(total_steps=80, eval_period=80), cfg, seed=3, out_dir=str(tmp_path / "a"))
        restore = load_checkpoint(str(tmp_path / "a" / "ckpt-00000080.ckpt"))
        calls = []
        evaluate = pol.evaluate_policy
        monkeypatch.setattr(pol, "evaluate_policy", lambda *args: calls.append(args) or evaluate(*args))
        second = ppo.train_ppo(
            small_cfg(total_steps=80, eval_period=80), cfg, seed=3, out_dir=str(tmp_path / "b"),
            restore=str(tmp_path / "a" / "ckpt-00000080.ckpt"),
        )
        assert (second[0].step, second[0].train_success, second[0].test_success) == (
            80, restore.train_success, restore.test_success
        )
        assert len(calls) == 1  # both splits at step 160 only
        entry = load_checkpoint(str(tmp_path / "b" / "ckpt-00000080.ckpt"))
        assert entry.params.tobytes() == restore.params.tobytes()
        assert entry.rng_words.tobytes() == restore.rng_words.tobytes()

    def test_a_rerun_over_a_finished_directory_changes_no_file(self, tmp_path, monkeypatch):
        # the same call run again over its own finished directory starts in
        # place at the log's last record, with no budget left: it returns the
        # logged history and neither evaluates nor writes
        cfg = make_config("reach2d", horizon=40)
        out = tmp_path / "run"
        history = ppo.train_ppo(small_cfg(total_steps=160), cfg, seed=3, out_dir=str(out))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        monkeypatch.setattr(pol, "evaluate_policy", lambda *args: pytest.fail("evaluated again"))
        assert ppo.train_ppo(small_cfg(total_steps=160), cfg, seed=3, out_dir=str(out)) == history
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_in_place_logs_each_step_once(self, tmp_path, monkeypatch):
        # run again over its own directory, whose log already ends with the
        # checkpoint's step, a run neither logs that step again nor rewrites
        # the checkpoint; it trains the budget its logged steps leave, and its
        # log then equals the uninterrupted run's
        env_cfg = make_config("reach2d", horizon=40)

        def run(total, out):
            cfg = small_cfg(samples_per_step=64, minibatch_size=32, total_steps=total, eval_period=64)
            return ppo.train_ppo(cfg, env_cfg, seed=3, out_dir=str(tmp_path / out))

        run(192, "full")
        run(128, "run")
        path = tmp_path / "run" / "ckpt-00000128.ckpt"
        before = path.read_bytes()
        saved = []
        save = loop.save_checkpoint
        monkeypatch.setattr(loop, "save_checkpoint", lambda p, ck: saved.append(ck.step) or save(p, ck))
        history = run(192, "run")
        assert [r.step for r in history] == [0, 64, 128, 192]
        assert saved == [192]
        assert path.read_bytes() == before
        logged = read_metrics(str(tmp_path / "run" / "metrics.csv"))
        assert [r.step for r in logged] == [0, 64, 128, 192]
        assert logged == history == read_metrics(str(tmp_path / "full" / "metrics.csv"))

    def test_resume_rejects_another_seed(self, tmp_path):
        # the stored rates were measured on that seed's panels
        cfg = make_config("reach2d", horizon=40)
        ppo.train_ppo(small_cfg(total_steps=0), cfg, seed=1, out_dir=str(tmp_path / "r"))
        ck = str(tmp_path / "r" / "ckpt-00000000.ckpt")
        with pytest.raises(ResumeError, match="seed 1, not 2"):
            ppo.train_ppo(small_cfg(), cfg, seed=2, out_dir=str(tmp_path / "x"), restore=ck)
        assert not os.path.exists(tmp_path / "x")

    def test_resume_rejects_wrong_environment(self, tmp_path):
        cfg = make_config("reach2d", horizon=40)
        ppo.train_ppo(small_cfg(total_steps=0), cfg, seed=1, out_dir=str(tmp_path / "r"))
        ck = str(tmp_path / "r" / "ckpt-00000000.ckpt")
        other = make_config("reach2d", horizon=60)
        with pytest.raises(ResumeError):
            ppo.train_ppo(small_cfg(), other, seed=1, out_dir=str(tmp_path / "x"), restore=ck)

    def test_stage_is_stamped_into_records(self, tmp_path):
        cfg = make_config("reach2d", horizon=40)
        hist = ppo.train_ppo(
            small_cfg(total_steps=80, eval_period=80), cfg, seed=2, out_dir=str(tmp_path / "s"), stage=2
        )
        assert all(r.stage == 2 for r in hist)

    def test_reset_optimizer_restarts_adam_counter(self, tmp_path):
        cfg = make_config("reach2d", horizon=40)
        ppo.train_ppo(small_cfg(total_steps=160, eval_period=80), cfg, seed=4, out_dir=str(tmp_path / "a"))
        ck = str(tmp_path / "a" / "ckpt-00000160.ckpt")
        assert load_checkpoint(ck).adam.t == 8  # 2 rollouts x 2 epochs x 2 minibatches

        kept = ppo.train_ppo(
            small_cfg(total_steps=80), cfg, seed=4, out_dir=str(tmp_path / "kept"), restore=ck
        )
        reset = ppo.train_ppo(
            small_cfg(total_steps=80),
            cfg,
            seed=4,
            out_dir=str(tmp_path / "reset"),
            restore=ck,
            reset_optimizer=True,
        )
        assert len(kept) == len(reset) == 2
        assert load_checkpoint(str(tmp_path / "kept" / "ckpt-00000240.ckpt")).adam.t == 12
        assert load_checkpoint(str(tmp_path / "reset" / "ckpt-00000240.ckpt")).adam.t == 4
