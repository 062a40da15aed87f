"""Probe tasks (see probes.py): PPO learns what a one- or two-step task's
answer says it must, and BC overfits one demo, in about a second each.
They check wiring that finite differences and the GAE oracle cannot: a
value target without the value baseline added back fails the
constant-reward probe, a TD target without V of the next state the
two-step probe, a flipped advantage sign the first-action probe, and a
flipped sign of the BC loss's gradient the BC probe.

Budgets and thresholds come from runs on seeds 0-7 at these settings:
after 1024 steps the value head read 0.92-1.08 on the constant-reward
probe, and the first-action probe's rollouts earned 0.995-0.999 a step
with its clamped mean actions at 1.  The initial policy reads values of
-0.17 to 0.01 and earns about -0.02.  On the two-step probe (gamma 0.5)
V read 0.435-0.583 before the first step and 0.934-1.054 before the
second; without V of the next state in the TD target, V before the first
step stays near 0.  BC's loss on the one reach2d demo (67 pairs) fell
from 1.87-1.89 to 0.009-0.021 in 150 outer steps.
"""

import numpy as np
import pytest

import probes
from deskrl import bc, envs, nn, policy as pol, ppo
from deskrl.persistence import checkpoint_name, load_checkpoint
from deskrl.rng import make_generator

STEPS = 1024


@pytest.fixture
def probe_cfg(monkeypatch):
    """Register a probe as reach2d and return its config (horizon 1 by default)."""

    def register(cls, horizon=1):
        monkeypatch.setitem(envs._ENV_CLASSES, "reach2d", cls)
        return envs.make_config("reach2d", horizon=horizon)

    return register


def initial_policy():
    """The policy train_ppo starts from at seed 0."""
    spec = pol.build_policy_spec("reach2d")
    store = nn.ParamStore()
    pol.init_policy(store, spec, make_generator(0, "ppo", "init", "reach2d"))
    return store, spec


def trained_policy(env_cfg, tmp_path, **overrides):
    cfg = ppo.PPOConfig(
        samples_per_step=64, minibatch_size=32, epochs=4, learning_rate=1e-3,
        total_steps=STEPS, eval_period=STEPS, eval_episodes=1, **overrides,
    )
    ppo.train_ppo(cfg, env_cfg, seed=0, out_dir=str(tmp_path))
    store = load_checkpoint(str(tmp_path / checkpoint_name(STEPS))).param_store()
    return store, pol.build_policy_spec("reach2d")


def stacked(observations):
    """The rows of a list of observations: (K, N, C) points and (K, P) proprios."""
    return np.array([obs.points for obs in observations]), np.array([obs.proprio for obs in observations])


def first_observations(env_cfg, count=16):
    """`count` fresh environments and their first observations' rows,
    (count, N, C) points and (count, P) proprios."""
    lanes = [envs.make_env(env_cfg) for _ in range(count)]
    return lanes, stacked([env.reset(1000 + k) for k, env in enumerate(lanes)])


def test_value_learns_a_constant_reward(probe_cfg, tmp_path):
    env_cfg = probe_cfg(probes.ConstantReward)
    _, obs = first_observations(env_cfg)
    assert np.abs(pol.state_values(*initial_policy(), *obs)).max() < 0.5
    values = pol.state_values(*trained_policy(env_cfg, tmp_path), *obs)
    assert np.abs(values - 1.0).max() < 0.15


def test_value_discounts_a_reward_one_step_ahead(probe_cfg, tmp_path):
    # the value target carries V of the next state: V(s0) = gamma * V(s1)
    env_cfg = probe_cfg(probes.SecondStepReward, horizon=2)
    store, spec = trained_policy(env_cfg, tmp_path, gamma=0.5)
    lanes, obs = first_observations(env_cfg)
    actions = pol.mean_actions(store, spec, *obs)
    for env, a in zip(lanes, actions):
        env.step(a)
    after = stacked([env.observe() for env in lanes])
    assert np.abs(pol.state_values(store, spec, *obs) - 0.5).max() < 0.15
    assert np.abs(pol.state_values(store, spec, *after) - 1.0).max() < 0.15


def test_policy_learns_to_raise_its_reward(probe_cfg, tmp_path):
    env_cfg = probe_cfg(probes.FirstActionReward)

    def rollout_reward(store, spec):
        buffer = ppo.collect_rollout(store, spec, env_cfg, 256, make_generator(0, "probe"))
        return buffer.rewards.mean()

    assert abs(rollout_reward(*initial_policy())) < 0.2
    store, spec = trained_policy(env_cfg, tmp_path)
    assert rollout_reward(store, spec) > 0.98
    lanes, obs = first_observations(env_cfg)
    actions = pol.mean_actions(store, spec, *obs)
    assert min(env.step(a).reward for env, a in zip(lanes, actions)) > 0.99


def test_bc_overfits_one_demo(tmp_path):
    env_cfg = envs.make_config("reach2d")
    dataset = envs.generate_demos(env_cfg, 1)
    steps = 150
    cfg = bc.BCConfig(
        batch_size=16, samples_per_step=dataset.size, total_steps=steps, eval_period=steps, eval_episodes=1
    )
    bc.train_bc(cfg, dataset, env_cfg, seed=0, out_dir=str(tmp_path))
    spec = pol.build_policy_spec("reach2d")

    def loss(step):
        store = load_checkpoint(str(tmp_path / checkpoint_name(step))).param_store()
        return bc.bc_loss(store, spec, dataset.points, dataset.proprios, dataset.actions)[0]

    assert loss(0) > 1.0
    assert loss(steps) < 0.1
