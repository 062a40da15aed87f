"""Probe tasks (see probes.py): PPO learns what a one-step task's answer
says it must, in about a second each.  They check wiring that finite
differences and the GAE oracle cannot: a value target without the value
baseline added back fails the first probe, and a flipped advantage sign
the second.

Budgets and thresholds come from runs on seeds 0-7 at these settings:
after 1024 steps the value head read 0.92-1.08 on the constant-reward
probe, and the first-action probe's rollouts earned 0.995-0.999 a step
with its clamped mean actions at 1.  The initial policy reads values of
-0.17 to 0.01 and earns about -0.02.
"""

import numpy as np
import pytest

import probes
from deskrl import envs, nn, policy as pol, ppo
from deskrl.persistence import checkpoint_name, load_checkpoint
from deskrl.rng import make_generator

STEPS = 1024


@pytest.fixture
def probe_cfg(monkeypatch):
    """Register a probe as reach2d and return its horizon-1 config."""

    def register(cls):
        monkeypatch.setitem(envs._ENV_CLASSES, "reach2d", cls)
        return envs.make_config("reach2d", horizon=1)

    return register


def initial_policy():
    """The policy train_ppo starts from at seed 0."""
    spec = pol.build_policy_spec("reach2d")
    store = nn.ParamStore()
    pol.init_policy(store, spec, make_generator(0, "ppo", "init", "reach2d"))
    return store, spec


def trained_policy(env_cfg, tmp_path):
    cfg = ppo.PPOConfig(
        samples_per_step=64, minibatch_size=32, epochs=4, learning_rate=1e-3,
        total_steps=STEPS, eval_period=STEPS, eval_episodes=1,
    )
    ppo.train_ppo(cfg, env_cfg, seed=0, out_dir=str(tmp_path))
    store = load_checkpoint(str(tmp_path / checkpoint_name(STEPS))).param_store()
    return store, pol.build_policy_spec("reach2d")


def first_observations(env_cfg, count=16):
    lanes = [envs.make_env(env_cfg) for _ in range(count)]
    return lanes, [env.reset(1000 + k) for k, env in enumerate(lanes)]


def test_value_learns_a_constant_reward(probe_cfg, tmp_path):
    env_cfg = probe_cfg(probes.ConstantReward)
    _, obs = first_observations(env_cfg)
    assert np.abs(pol.state_values(*initial_policy(), obs)).max() < 0.5
    values = pol.state_values(*trained_policy(env_cfg, tmp_path), obs)
    assert np.abs(values - 1.0).max() < 0.15


def test_policy_learns_to_raise_its_reward(probe_cfg, tmp_path):
    env_cfg = probe_cfg(probes.FirstActionReward)

    def rollout_reward(store, spec):
        buffer = ppo.collect_rollout(store, spec, env_cfg, 256, make_generator(0, "probe"))
        return buffer.rewards.mean()

    assert abs(rollout_reward(*initial_policy())) < 0.2
    store, spec = trained_policy(env_cfg, tmp_path)
    assert rollout_reward(store, spec) > 0.98
    lanes, obs = first_observations(env_cfg)
    actions = pol.mean_actions(store, spec, obs)
    assert min(env.step(a).reward for env, a in zip(lanes, actions)) > 0.99
