"""Gaussian policy and value heads over the point-cloud encoder.

One flat ParamStore holds everything: encoder parameters under ``enc``,
the mean head under ``mean``, the value head under ``value``, and a
state-independent per-dimension ``log_std`` row.  Keeping the whole
policy in a single vector is what makes checkpoints, finite-difference
checks, and Adam updates uniform across trainers.

The sampling recipe is normative for determinism: sample_actions()
takes one generator per observation and draws exactly ``action_dim``
standard normals from each, forming ``raw = mean + exp(log_std) * z`` row
by row.  The executed action is ``raw`` clamped to the [-1, 1] box; the
recorded log-probability is the Gaussian density of the raw, pre-clamp
sample.  The mean and value heads run on padded rows (see
pointnet.encode_batch_padded), so row k's bits depend only on its
observation, the parameters and its own generator, not on which rows
share the call.

Evaluation runs one lane per panel seed of both splits (envs.run_lanes)
on the clamped mean, with no generator draws, so it never perturbs a
training stream, and every episode equals that seed run alone, bit for
bit.  sample_action() and mean_action() make the batched calls on one
observation; no shipped path calls them, and they stay for the benchmark
under perfbench/, which looks them up by name.

The policy runs its nets in two passes, and no other module binds or
runs a layer of them.  The padded forward behind mean_actions(),
sample_actions() and state_values() is one pass (_heads): stack the
observations, run pointnet.encode_batch_padded(), which checks them
once, on entry, then the heads the call needs.  Every net runs on its layers as the
ParamStore binds them (store.layers(), see nn): bound once per parameter
vector, kept through Adam's in-place steps and dropped with the store's
views when the vector is replaced, so a call builds no parameter name.
The heads' outputs are checked, so non-finite parameters raise
NonFiniteError before an action reaches an environment or a rollout
buffer.  sample_actions() takes exp(log_std) once, for the draw and the
density.  Each clamp and sum calls the ufunc that np.clip or np.sum
calls, without their Python wrappers: the same bits, as no clamp bound
is a signed zero.

The training pass (trace) runs a stacked minibatch through the encoder
unpadded (pointnet.encode_batch_trace) and then the heads a loss needs,
keeping each cache in a Tape; its reverse (backward) runs those heads
back, sums their input gradients, runs the encoder back and takes the
log-std row's gradient through the clamp.  The PPO and BC losses
(ppo.surrogate_loss_and_grad, bc.bc_loss) sit on that one pair and name
no cache, parameter slice or encoder call of their own.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import nn
from .envs import ACTION_DIM, SPLITS, EnvConfig, Lane, make_env, proprio_width, run_lanes
from .errors import ConfigError, NonFiniteError, ShapeMismatchError
from .pointnet import (
    EncodeBatchCache,
    EncoderSpec,
    PointCloudObs,
    build_encoder_spec,
    encode_batch_backward,
    encode_batch_padded,
    encode_batch_trace,
    init_encoder_params,
)
from .rng import panel_seeds

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
# the last mean-head layer starts near zero so the initial policy is a
# centered Gaussian; without this, early policy-gradient updates chase the
# random initial features and waste a large share of the step budget
FINAL_MEAN_SCALE = 0.01
_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class PolicySpec:
    """Network shapes for one policy: encoder plus mean/value heads."""

    encoder: EncoderSpec
    mean: nn.NetSpec
    value: nn.NetSpec
    action_dim: int

    def __post_init__(self):
        if self.mean.in_width != self.encoder.out_width:
            raise ShapeMismatchError("mean head input must match encoder output width")
        if self.value.in_width != self.encoder.out_width:
            raise ShapeMismatchError("value head input must match encoder output width")
        if self.mean.out_width != self.action_dim:
            raise ShapeMismatchError("mean head output must match the action dimension")
        if self.value.out_width != 1:
            raise ShapeMismatchError("value head must emit a single scalar")


def build_policy_spec(task: str) -> PolicySpec:
    """Policy shapes for one task (proprio width is task-specific)."""
    encoder = build_encoder_spec(proprio_width=proprio_width(task))
    width = encoder.out_width
    # one 64-wide tanh hidden layer per head keeps the loss surface smooth
    # where the optimizer lives; the encoder below them stays relu
    mean = nn.NetSpec((width, 64, ACTION_DIM), hidden="tanh", output="identity")
    value = nn.NetSpec((width, 64, 1), hidden="tanh", output="identity")
    return PolicySpec(encoder, mean, value, ACTION_DIM)


def init_policy(
    store: nn.ParamStore,
    spec: PolicySpec,
    gen: np.random.Generator,
    log_std0: float = -0.5,
) -> None:
    """Register all policy parameters (registration order is the contract)."""
    if not np.isfinite(log_std0):
        raise ConfigError("initial log-std must be finite")
    init_encoder_params(store, spec.encoder, gen)
    nn.init_net_params(store, spec.mean, gen, "mean")
    nn.init_net_params(store, spec.value, gen, "value")
    store.get(f"mean.W{spec.mean.depth - 1}")[:] *= FINAL_MEAN_SCALE
    store.add("log_std", np.full((1, spec.action_dim), float(log_std0)))


def log_std_of(store: nn.ParamStore) -> np.ndarray:
    """The log-std row, clamped to the supported range."""
    return np.minimum(np.maximum(store.get("log_std")[0], LOG_STD_MIN), LOG_STD_MAX)


def log_std_grad_mask(store: nn.ParamStore) -> np.ndarray:
    """1 where the stored log-std is inside the clamp range, else 0."""
    raw = store.get("log_std")[0]
    return ((raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)).astype(np.float64)


def gaussian_logp(x: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    """Diagonal-Gaussian log density; batched over leading axes of x/mean."""
    return _logp(x, mean, log_std, np.exp(log_std))


def _logp(x: np.ndarray, mean: np.ndarray, log_std: np.ndarray, std: np.ndarray) -> np.ndarray:
    """gaussian_logp() for a caller that has std = exp(log_std) at hand."""
    z = (x - mean) / std
    return -0.5 * np.add.reduce(z * z + 2.0 * log_std + _LOG_2PI, axis=-1)


def gaussian_entropy(log_std: np.ndarray) -> float:
    """Closed form: sum over dimensions of log-std + half log(2 pi e)."""
    return float(np.sum(log_std + 0.5 * (_LOG_2PI + 1.0)))


@dataclass
class ActionSample:
    """Policy draws: the executed actions plus their bookkeeping.

    sample_actions() gives each field one row per observation;
    sample_action() gives the single row (action and raw (action_dim,),
    logp and value floats).
    """

    action: np.ndarray  # raw clamped to the [-1, 1] box; what the env runs
    raw: np.ndarray  # pre-clamp Gaussian sample; what the density refers to
    logp: np.ndarray | float
    value: np.ndarray | float


def _heads(
    store: nn.ParamStore, spec: PolicySpec, obs: Sequence[PointCloudObs], *names: str
) -> list[np.ndarray]:
    """The padded forward on K observations, one pass: the stacked batch
    through the encoder (encode_batch_padded, which checks it), then each
    named head ("mean", "value") on the encoder's padded rows, on its
    layers as the store binds them; returns each head's first K rows.
    The heads run unchecked like the encoder's nets; their outputs are
    checked, so non-finite parameters raise here and never reach an
    action or a rollout."""
    # np.array copies the equal-shape rows as np.stack does, at a third of its
    # overhead, and raises ValueError on rows of unequal shapes
    try:
        points = np.array([o.points for o in obs])
        proprio = np.array([o.proprio for o in obs])
    except ValueError as err:
        raise ShapeMismatchError(f"the observations of one batch differ in shape: {err}") from None
    feat = encode_batch_padded(store, spec.encoder, points, proprio)
    outs = []
    for name in names:
        out = nn.forward_layers(store.layers(getattr(spec, name), name), feat)
        if not np.logical_and.reduce(np.isfinite(out), axis=None):
            raise NonFiniteError(f"the policy's {name} head gave non-finite values")
        outs.append(out[: len(obs)])
    return outs


class Tape(NamedTuple):
    """What backward() reads of one trace(): the encoder's cache, then
    each traced head's bound layers and forward cache, in trace order."""

    encoder: EncodeBatchCache
    heads: tuple[tuple[tuple[nn.Layer, ...], list[np.ndarray]], ...]


def trace(
    store: nn.ParamStore, spec: PolicySpec, points: np.ndarray, proprios: np.ndarray, *heads: str
) -> tuple:
    """The training pass on a (B, N, C) stack of clouds and (B, P) proprio
    rows: the encoder's traced forward (encode_batch_trace, which checks
    the batch), then each named head ("mean", "value") on its bound layers
    with a cache.  Returns each head's (B, out_width) output, unchecked,
    then the Tape that backward() reads."""
    feat, enc_cache = encode_batch_trace(store, spec.encoder, points, proprios)
    runs = tuple((store.layers(getattr(spec, name), name), []) for name in heads)
    outs = [nn.forward_layers(layers, feat, cache) for layers, cache in runs]
    return (*outs, Tape(enc_cache, runs))


def backward(
    store: nn.ParamStore,
    spec: PolicySpec,
    tape: Tape,
    d_heads: Sequence[np.ndarray],
    grad: np.ndarray,
    d_log_std: np.ndarray | None = None,
) -> None:
    """Accumulate the gradient of one trace() into `grad`: d_heads holds
    each traced head's upstream gradient, in trace order.

    The heads run back in order and their input gradients are summed, the
    first head's, then each next one added to it; the sum runs back
    through the encoder.  d_log_std, the loss's gradient with respect to
    the clamped log-std row, reaches only entries inside the clamp range
    (log_std_grad_mask), as the clamp has zero slope outside it.
    """
    d_feat, *rest = [
        nn.backward_layers(layers, cache, d_out, grad)
        for (layers, cache), d_out in zip(tape.heads, d_heads, strict=True)
    ]
    for d_in in rest:
        d_feat += d_in
    encode_batch_backward(store, spec.encoder, tape.encoder, d_feat, grad)
    if d_log_std is not None:
        lo, hi = store.slice_bounds("log_std")
        grad[lo:hi] += d_log_std * log_std_grad_mask(store)


def sample_actions(
    store: nn.ParamStore,
    spec: PolicySpec,
    obs: Sequence[PointCloudObs],
    gens: Sequence[np.random.Generator],
) -> ActionSample:
    """Draw one action per observation, row k from gens[k] (action_dim normals each).

    One batched forward: the mean and value heads run on the encoder's
    padded rows, so row k does not depend on the other observations.
    """
    if len(gens) != len(obs):
        raise ShapeMismatchError(f"{len(obs)} observations need as many generators, got {len(gens)}")
    mean, value = _heads(store, spec, obs, "mean", "value")
    log_std = log_std_of(store)
    std = np.exp(log_std)
    z = np.array([gen.standard_normal(spec.action_dim) for gen in gens])
    raw = mean + std * z
    logp = _logp(raw, mean, log_std, std)
    return ActionSample(np.minimum(np.maximum(raw, -1.0), 1.0), raw, logp, value[:, 0])


def sample_action(
    store: nn.ParamStore,
    spec: PolicySpec,
    obs: PointCloudObs,
    gen: np.random.Generator,
) -> ActionSample:
    """sample_actions() on one observation; consumes exactly action_dim normals from gen."""
    s = sample_actions(store, spec, [obs], [gen])
    return ActionSample(s.action[0], s.raw[0], float(s.logp[0]), float(s.value[0]))


def state_values(store: nn.ParamStore, spec: PolicySpec, obs: Sequence[PointCloudObs]) -> np.ndarray:
    """V on K observations, (K,): the value head on the encoder's padded
    rows, with the bits sample_actions() gives each row."""
    return _heads(store, spec, obs, "value")[0][:, 0]


def mean_actions(
    store: nn.ParamStore, spec: PolicySpec, obs: Sequence[PointCloudObs]
) -> np.ndarray:
    """Deterministic policy on K observations: the clamped means, (K, action_dim).

    One batched forward; only the mean head runs, on the encoder's padded
    rows, and row k does not depend on the other observations.
    """
    mean = _heads(store, spec, obs, "mean")[0]
    return np.minimum(np.maximum(mean, -1.0), 1.0)


def mean_action(store: nn.ParamStore, spec: PolicySpec, obs: PointCloudObs) -> np.ndarray:
    """Deterministic policy: the clamped mean, no generator involved."""
    return mean_actions(store, spec, [obs])[0]


def evaluate_policy(
    store: nn.ParamStore,
    spec: PolicySpec,
    env_cfg: EnvConfig,
    episodes: int,
    run_seed: int,
) -> tuple[float, float]:
    """Success rates (train, test) over both splits' fixed seed panels,
    run in one lockstep; env_cfg's own split is not read."""
    if episodes < 1:
        raise ConfigError("evaluation needs at least one episode")
    lanes = [
        Lane(make_env(cfg), iter((seed,)), cfg.horizon)
        for cfg in (replace(env_cfg, split=split) for split in SPLITS)
        for seed in panel_seeds(run_seed, cfg.split, episodes)
    ]
    wins = [0, 0]
    for k, _, _, res in run_lanes(lanes, lambda _, obs: mean_actions(store, spec, obs)):
        wins[k // episodes] += res.success  # only an episode's last step succeeds
    return wins[0] / episodes, wins[1] / episodes
