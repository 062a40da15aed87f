"""Behavior cloning on pooled expert state-action pairs.

The sampler is positional: sample n of the run (counting from zero,
across the whole run, not per call) lives at position n mod M of the
permutation for epoch n div M, and each epoch's permutation is derived
from (seed, "bc", "perm", epoch) alone.  Outer step k reads the block of
S samples from position k*S, so a block may straddle an epoch boundary
(tail of one permutation, head of the next).  The stream position is
therefore a pure function of the step counter and S: a run resumed at
the same S reads the exact samples an uninterrupted one would, without
the checkpoint having to carry sampler state.  Stage-two fine-tuning
rescales S, and then this does not hold: a stage two resumed at step k
with S1 < S0 starts at position k*S1, not at k*S0 where stage one
stopped, and replays k*(S0 - S1) samples it has already seen (ROADMAP
item 3, "BC sample stream").

Only the mean head and the encoder receive gradients; the value head
and the log-std vector are along for the ride so that the policy a BC
checkpoint restores stays structurally identical to a PPO one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import loop, nn, pointnet, policy as pol
from .envs import DemoTrajectory, EnvConfig
from .errors import ConfigError, NonFiniteError, require_finite_floats
from .persistence import Checkpoint, MetricsRecord
from .rng import make_generator


@dataclass(frozen=True)
class BCConfig:
    """Outer steps are the budget unit; each consumes samples_per_step pairs."""

    batch_size: int = 64  # B: scaled by alpha in stage two
    samples_per_step: int = 256  # S: scaled by beta in stage two
    learning_rate: float = 1e-3
    total_steps: int = 2000
    eval_period: int = 100
    eval_episodes: int = 20
    log_std0: float = -0.5

    def __post_init__(self):
        require_finite_floats(self)
        if not 1 <= self.batch_size <= self.samples_per_step:
            raise ConfigError("need 1 <= batch size <= samples per step")
        if self.learning_rate <= 0.0 or self.total_steps < 0:
            raise ConfigError("need a positive learning rate and non-negative budget")
        if self.eval_period < 1 or self.eval_episodes < 1:
            raise ConfigError("eval period and eval episodes must be >= 1")


@dataclass(frozen=True)
class DemoDataset:
    """Expert pairs pooled across trajectories, order preserved."""

    points: np.ndarray  # (M, N, C)
    proprios: np.ndarray  # (M, P)
    actions: np.ndarray  # (M, A)
    fingerprint: str

    def __post_init__(self):
        M = self.actions.shape[0]
        if M < 1:
            raise ConfigError("a demo dataset needs at least one pair")
        if self.points.shape[0] != M or self.proprios.shape[0] != M:
            raise ConfigError("demo arrays disagree on pair count")

    @property
    def size(self) -> int:
        return self.actions.shape[0]

    @classmethod
    def from_trajectories(cls, demos: list[DemoTrajectory], fingerprint: str) -> "DemoDataset":
        if not demos:
            raise ConfigError("no trajectories to pool")
        return cls(
            points=np.concatenate([d.points for d in demos]),
            proprios=np.concatenate([d.proprios for d in demos]),
            actions=np.concatenate([d.actions for d in demos]),
            fingerprint=fingerprint,
        )


@functools.lru_cache(maxsize=4)
def _epoch_permutation(seed: int, dataset_size: int, epoch: int) -> np.ndarray:
    """Epoch `epoch`'s permutation, read-only; kept for the outer steps that read it."""
    perm = make_generator(seed, "bc", "perm", epoch).permutation(dataset_size)
    perm.flags.writeable = False
    return perm


def stream_indices(seed: int, dataset_size: int, start: int, count: int) -> np.ndarray:
    """Dataset rows for stream positions [start, start + count)."""
    if dataset_size < 1:
        raise ConfigError("dataset size must be positive")
    if start < 0 or count < 0:
        raise ConfigError("stream positions cannot be negative")
    out = np.empty(count, dtype=np.int64)
    filled = 0
    n = start
    while filled < count:
        epoch, pos = divmod(n, dataset_size)
        take = min(dataset_size - pos, count - filled)
        perm = _epoch_permutation(seed, dataset_size, epoch)
        out[filled : filled + take] = perm[pos : pos + take]
        filled += take
        n += take
    return out


def bc_loss(
    store: nn.ParamStore,
    spec: pol.PolicySpec,
    points: np.ndarray,
    proprios: np.ndarray,
    actions: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mean squared action error and its gradient (mean head and encoder only)."""
    m = actions.shape[0]
    enc_out, enc_cache = pointnet.encode_batch_trace(store, spec.encoder, points, proprios)
    mean_cache: list[np.ndarray] = []
    mean = nn.forward_unchecked(store, spec.mean, enc_out, "mean", mean_cache)
    err = mean - actions
    loss = float(np.mean(np.sum(err * err, axis=1)))
    grad = store.zeros_grad()
    d_enc = nn.backward_batch(store, spec.mean, mean_cache, (2.0 / m) * err, grad, "mean")
    pointnet.encode_batch_backward(store, spec.encoder, enc_cache, d_enc, grad)
    return loss, grad


def train_bc(
    cfg: BCConfig,
    dataset: DemoDataset,
    env_cfg: EnvConfig,
    seed: int,
    out_dir: str,
    resume: Checkpoint | None = None,
    stage: int = 1,
    reset_optimizer: bool = False,
    should_stop=None,
) -> list[MetricsRecord]:
    """Clone the dataset's actions; returns this call's metric history.

    `cfg.total_steps` outer steps on top of whatever the resume checkpoint
    had, with the start or resume, the evaluation and checkpoint cadence
    and the should_stop hook of `loop`.  The sampler derives everything
    from (seed, step) and never draws from the run stream.
    """
    if dataset.fingerprint != env_cfg.fingerprint():
        raise ConfigError("demo dataset was recorded on a different environment")
    if cfg.samples_per_step > dataset.size:
        raise ConfigError(
            f"samples per step {cfg.samples_per_step} exceeds dataset size {dataset.size}"
        )
    state = loop.begin("bc", cfg, env_cfg, seed, resume, reset_optimizer)
    S, B = cfg.samples_per_step, cfg.batch_size

    def advance(step: int) -> None:
        block = stream_indices(seed, dataset.size, step * S, S)
        for lo in range(0, S, B):
            idx = block[lo : lo + B]  # last short minibatch kept
            loss, grad = bc_loss(
                state.store, state.spec, dataset.points[idx], dataset.proprios[idx], dataset.actions[idx]
            )
            if not np.isfinite(loss):
                raise NonFiniteError(f"non-finite loss at outer step {step}, minibatch {lo // B}")
            nn.adam_step(state.store, grad, state.adam)

    return loop.run_loop(state, cfg, out_dir, 1, advance, stage=stage, should_stop=should_stop)
