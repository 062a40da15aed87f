"""On-policy PPO: rollouts, GAE, clipped-surrogate updates, and the PPO trainer.

Determinism contract: one training run owns a single Philox stream, the
run stream; checkpoints capture its state words, so a resumed run replays
the exact draw sequence of an uninterrupted one.  A rollout of S samples
steps K = min(MAX_LANES, max(1, S // horizon)) lanes side by side, so each
lane is at least one horizon long; MAX_LANES lives in envs, whose demo
generation it bounds too.  At the rollout start, lane k's own
Philox stream is keyed by one draw from the run stream (rng.substreams);
it serves that lane's episode seeds and action noise, in that interleaved
order.  The run stream then serves the update's minibatch shuffles.
Rollouts begin with fresh episodes at the rollout boundary, which keeps
environment state out of checkpoints entirely.

Lanes (envs.run_lanes) take lane_sizes() steps on endless seeds.  Each
tick's actions come from one policy.sample_actions() call on the tick's
observation arrays, which gives each row the bits it has alone, so a
lane equals that lane collected alone, bit for bit.  The buffer holds
the lanes one after another; a tick's rows go to each lane's next row
in one assignment per buffer array.  Each lane's bootstrap value is V of
the next-observation row of its last tick (0 if that tick ended an
episode), from one state_values() call per rollout; compute_gae runs
right to left per lane.

Ratio bookkeeping: the update's old log-probabilities are the ones the
rollout recorded (RolloutBuffer.logps), with no second pass over the
buffer.  Collection encodes padded lane batches and the update encodes
minibatches, whose BLAS kernels can differ in the last bits, so the
first epoch's ratios equal one to rounding rather than bit for bit.

The minibatch loss runs the policy's training pass with both heads
(policy.trace) and hands the mean, value and log-std gradients to its
backward (policy.backward), which knows how the encoder, the heads and
the clamped log-std row fit together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, repeat

import numpy as np

from . import loop, nn, policy as pol
from .envs import MAX_LANES, N_POINTS, EnvConfig, Lane, make_env, run_lanes
from .errors import ConfigError, NonFiniteError, require_finite_floats
from .persistence import MetricsRecord
from .rng import next_episode_seed, substreams


@dataclass(frozen=True)
class PPOConfig:
    """Desk-scale defaults; Table-style full-scale values are accepted too."""

    samples_per_step: int = 2048  # S: transitions collected per iteration
    minibatch_size: int = 64  # B: the quantity stage two scales by alpha
    epochs: int = 4
    clip_eps: float = 0.2
    gamma: float = 0.99
    lam: float = 0.95
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    learning_rate: float = 3e-4
    total_steps: int = 200_000
    eval_period: int = 10_000
    eval_episodes: int = 20
    normalize_advantages: bool = True
    log_std0: float = -0.5

    def __post_init__(self):
        require_finite_floats(self)
        if not 1 <= self.minibatch_size <= self.samples_per_step:
            raise ConfigError("need 1 <= minibatch size <= samples per step")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError("discount must lie in (0, 1]")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("GAE lambda must lie in [0, 1]")
        if self.clip_eps <= 0.0:
            raise ConfigError("clip epsilon must be positive")
        if self.epochs < 1 or self.eval_period < 1 or self.eval_episodes < 1:
            raise ConfigError("epochs, eval period, and eval episodes must be >= 1")
        if self.learning_rate <= 0.0 or self.total_steps < 0:
            raise ConfigError("need a positive learning rate and non-negative budget")
        if self.value_coef < 0.0 or self.entropy_coef < 0.0:
            raise ConfigError("loss coefficients cannot be negative")


@dataclass
class RolloutBuffer:
    """S transitions, lane after lane; advantages/returns stay None until compute_gae."""

    points: np.ndarray  # (S, N, C) observation clouds
    proprios: np.ndarray  # (S, P)
    raw_actions: np.ndarray  # (S, A) pre-clamp samples; the env ran their clamp to [-1, 1]
    logps: np.ndarray  # (S,) collection-time log-probabilities
    rewards: np.ndarray  # (S,)
    values: np.ndarray  # (S,)
    dones: np.ndarray  # (S,) float 0/1
    lane_sizes: list[int]  # transitions per lane, in buffer order
    bootstrap_values: np.ndarray  # (K,) V after each lane's last transition, 0 if done
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.rewards.shape[0]


def lane_sizes(samples: int, horizon: int) -> list[int]:
    """Steps per lane for a rollout of `samples`: K = min(MAX_LANES,
    max(1, samples // horizon)) lanes, lane k taking samples // K steps
    plus one if k < samples % K."""
    if samples < 1:
        raise ConfigError("rollout needs at least one sample")
    K = min(MAX_LANES, max(1, samples // horizon))
    return [samples // K + (k < samples % K) for k in range(K)]


def collect_lanes(
    store: nn.ParamStore,
    spec: pol.PolicySpec,
    env_cfg: EnvConfig,
    sizes: list[int],
    gens: list[np.random.Generator],
) -> RolloutBuffer:
    """Step one environment per lane in lockstep (envs.run_lanes), lane k
    for sizes[k] steps on stream gens[k], which serves its episode seeds
    and action noise."""
    K = len(sizes)
    if not sizes or len(gens) != K or min(sizes) < 1:
        raise ConfigError("need one stream per lane and lane sizes of at least 1")
    lanes = [Lane(make_env(env_cfg), map(next_episode_seed, repeat(gen)), size) for gen, size in zip(gens, sizes)]
    samples = sum(sizes)
    points = np.empty((samples, N_POINTS, spec.encoder.per_point.in_width))
    proprios = np.empty((samples, spec.encoder.proprio_width))
    raws = np.empty((samples, spec.action_dim))
    logps = np.empty(samples)
    rewards = np.empty(samples)
    values = np.empty(samples)
    dones = np.empty(samples)
    rows = np.array(list(accumulate([0] + sizes[:-1])))  # each lane's next row
    # each lane's latest next-observation rows
    last_points, last_proprios = np.empty((K, *points.shape[1:])), np.empty((K, proprios.shape[1]))

    def act(live, tick_points, tick_proprios):
        s = pol.sample_actions(store, spec, tick_points, tick_proprios, [gens[k] for k in live])
        at = rows[live]
        raws[at] = s.raw
        logps[at] = s.logp
        values[at] = s.value
        return s.action

    for tick in run_lanes(lanes, act):
        at = rows[tick.lanes]
        rows[tick.lanes] += 1
        points[at] = tick.points
        proprios[at] = tick.proprios
        rewards[at] = tick.rewards
        dones[at] = tick.dones
        last_points[tick.lanes] = tick.next_points
        last_proprios[tick.lanes] = tick.next_proprios
    # rows - 1 is each lane's last row once every lane has taken its steps
    bootstrap = np.where(dones[rows - 1], 0.0, pol.state_values(store, spec, last_points, last_proprios))
    return RolloutBuffer(points, proprios, raws, logps, rewards, values, dones, sizes, bootstrap)


def collect_rollout(
    store: nn.ParamStore,
    spec: pol.PolicySpec,
    env_cfg: EnvConfig,
    samples: int,
    gen: np.random.Generator,
) -> RolloutBuffer:
    """Gather exactly `samples` transitions on lane_sizes() lanes in
    lockstep, each lane on its own stream keyed from `gen`."""
    sizes = lane_sizes(samples, env_cfg.horizon)
    return collect_lanes(store, spec, env_cfg, sizes, substreams(gen, len(sizes)))


def compute_gae(
    buffer: RolloutBuffer, gamma: float, lam: float, normalize: bool = True
) -> RolloutBuffer:
    """Right-to-left GAE within each lane; returns use raw advantages, normalization after."""
    S = buffer.size
    adv = np.zeros(S)
    end = S
    for size, bootstrap in zip(reversed(buffer.lane_sizes), reversed(buffer.bootstrap_values.tolist())):
        carry = 0.0
        next_value = bootstrap
        for t in range(end - 1, end - size - 1, -1):
            mask = 1.0 - buffer.dones[t]
            delta = buffer.rewards[t] + gamma * next_value * mask - buffer.values[t]
            carry = delta + gamma * lam * mask * carry
            adv[t] = carry
            next_value = buffer.values[t]
        end -= size
    buffer.returns = adv + buffer.values
    if normalize and S >= 2:
        centered = adv - adv.mean()
        std = centered.std()
        adv = centered / std if std > 0.0 else centered
    buffer.advantages = adv
    return buffer


@dataclass
class UpdateStats:
    """Minibatch-averaged diagnostics from one ppo_update call."""

    policy_loss: float
    value_loss: float
    entropy: float
    approx_kl: float
    clip_fraction: float
    minibatches: int


def surrogate_loss_and_grad(
    store: nn.ParamStore,
    spec: pol.PolicySpec,
    buffer: RolloutBuffer,
    idx: np.ndarray,
    cfg: PPOConfig,
) -> tuple[float, np.ndarray, dict]:
    """Full PPO minibatch objective with analytic gradients, on
    policy.trace and policy.backward.

    Tie-breaking in min(ratio * A, clipped * A) resolves to the clipped
    branch, whose derivative vanishes outside the trust region; with
    clip_eps -> 0 this makes the surrogate gradient exactly zero, the
    degenerate limit the objective is supposed to have.
    """
    pts = buffer.points[idx]
    prp = buffer.proprios[idx]
    raw = buffer.raw_actions[idx]
    adv = buffer.advantages[idx]
    ret = buffer.returns[idx]
    old = buffer.logps[idx]
    m = len(idx)

    mean, value, tape = pol.trace(store, spec, pts, prp, "mean", "value")
    value = value[:, 0]
    log_std = pol.log_std_of(store)
    sigma = np.exp(log_std)
    z = (raw - mean) / sigma
    logp = pol.gaussian_logp(raw, mean, log_std)

    ratio = np.exp(logp - old)
    lo, hi = 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps
    clipped = np.clip(ratio, lo, hi)
    surr = np.minimum(ratio * adv, clipped * adv)
    policy_loss = -float(np.mean(surr))
    value_loss = float(np.mean((value - ret) ** 2))
    entropy = pol.gaussian_entropy(log_std)
    total = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy
    if not np.isfinite(total):
        # bail before the backward pass floods the gradient with nans
        raise NonFiniteError("non-finite minibatch loss")

    # gradient of -mean(surr) through the active branch of the min
    unclipped_active = ratio * adv < clipped * adv  # strict: ties go clipped
    inside = (ratio > lo) & (ratio < hi)
    branch = np.where(unclipped_active, 1.0, inside.astype(np.float64))
    d_logp = -(adv * branch * ratio) / m  # d(total)/d(logp_i)

    d_mean = d_logp[:, None] * z / sigma[None, :]
    d_value = (2.0 * cfg.value_coef / m) * (value - ret)
    d_log_std = np.sum(d_logp[:, None] * (z * z - 1.0), axis=0) - cfg.entropy_coef

    grad = store.zeros_grad()
    pol.backward(store, spec, tape, (d_mean, d_value[:, None]), grad, d_log_std)

    stats = {
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "approx_kl": float(np.mean(old - logp)),
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > cfg.clip_eps)),
    }
    return total, grad, stats


def ppo_update(
    store: nn.ParamStore,
    spec: pol.PolicySpec,
    buffer: RolloutBuffer,
    cfg: PPOConfig,
    gen: np.random.Generator,
    adam: nn.AdamState,
) -> UpdateStats:
    """E epochs of shuffled minibatches, one Adam step per minibatch."""
    if buffer.advantages is None or buffer.returns is None:
        raise ConfigError("run compute_gae before ppo_update")
    sums: dict[str, float] = {}
    count = 0
    for epoch in range(cfg.epochs):
        perm = gen.permutation(buffer.size)
        for start in range(0, buffer.size, cfg.minibatch_size):
            idx = perm[start : start + cfg.minibatch_size]  # last short batch kept
            try:
                total, grad, stats = surrogate_loss_and_grad(store, spec, buffer, idx, cfg)
            except NonFiniteError as err:
                raise NonFiniteError(
                    f"{err} in epoch {epoch}, minibatch {start // cfg.minibatch_size}"
                ) from None
            nn.adam_step(store, grad, adam)
            for key, value in stats.items():
                sums[key] = sums.get(key, 0.0) + value
            count += 1
    return UpdateStats(**{key: s / count for key, s in sums.items()}, minibatches=count)


def train_ppo(
    cfg: PPOConfig,
    env_cfg: EnvConfig,
    seed: int,
    out_dir: str,
    restore: str | None = None,
    stage: int = 1,
    reset_optimizer: bool = False,
    should_stop=None,
) -> list[MetricsRecord]:
    """Train in units of one rollout; returns the run's records in out_dir (`loop`).

    `cfg.total_steps` is the call's budget of environment steps, counted
    from its first record: a run started from the `restore` checkpoint
    trains that many steps on top of the checkpoint's step counter, and
    one run again over out_dir finishes what the log leaves of it.  The
    start, the evaluation and checkpoint cadence and the should_stop hook
    are those of `loop.train`, which this binds to one rollout unit.
    """
    train_cfg = replace(env_cfg, split="train")
    S = cfg.samples_per_step

    def advance(state: loop.TrainingState, step: int) -> None:
        buffer = collect_rollout(state.store, state.spec, train_cfg, S, state.gen)
        compute_gae(buffer, cfg.gamma, cfg.lam, cfg.normalize_advantages)
        ppo_update(state.store, state.spec, buffer, cfg, state.gen, state.adam)

    return loop.train("ppo", cfg, env_cfg, seed, out_dir, S, advance, restore, stage, reset_optimizer, should_stop)
