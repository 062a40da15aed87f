"""Behavior cloning on pooled expert state-action pairs, an
envs.DemoDataset as generate_demos or persistence.load_demos returns it.

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

The loss sits on the policy's training pass and its backward
(policy.trace, policy.backward) with the mean head alone, so only the
mean head and the encoder receive gradients; the value head and the
log-std vector are along for the ride so that the policy a BC
checkpoint restores stays structurally identical to a PPO one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import loop, nn, policy as pol
from .envs import DemoDataset, EnvConfig
from .errors import ConfigError, NonFiniteError, require_finite_floats
from .persistence import MetricsRecord
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
    """Mean squared action error and its gradient (mean head and encoder
    only), on policy.trace and policy.backward."""
    m = actions.shape[0]
    mean, tape = pol.trace(store, spec, points, proprios, "mean")
    err = mean - actions
    loss = float(np.mean(np.sum(err * err, axis=1)))
    grad = store.zeros_grad()
    pol.backward(store, spec, tape, ((2.0 / m) * err,), grad)
    return loss, grad


def check_demos(cfg: BCConfig, dataset: DemoDataset, env_cfg: EnvConfig) -> None:
    """Refuse (ConfigError) a dataset recorded on another environment, or
    smaller than one outer step's samples."""
    if dataset.fingerprint != env_cfg.fingerprint():
        raise ConfigError("demo dataset was recorded on a different environment")
    if cfg.samples_per_step > dataset.size:
        raise ConfigError(f"samples per step {cfg.samples_per_step} exceeds dataset size {dataset.size}")


def train_bc(
    cfg: BCConfig,
    dataset: DemoDataset,
    env_cfg: EnvConfig,
    seed: int,
    out_dir: str,
    restore: str | None = None,
    stage: int = 1,
    reset_optimizer: bool = False,
    should_stop=None,
) -> list[MetricsRecord]:
    """Clone the dataset's actions; returns the run's records in out_dir (`loop`).

    `cfg.total_steps` outer steps counted from the call's first record, on
    top of the `restore` checkpoint's step when it starts from one, with
    the start (a call run again over out_dir finishes its run), the
    evaluation and checkpoint cadence and the should_stop hook of
    `loop.train`, which this binds to a unit of one outer step.  The
    sampler derives everything from (seed, step) and never draws from
    the run stream.
    """
    check_demos(cfg, dataset, env_cfg)
    S, B = cfg.samples_per_step, cfg.batch_size

    def advance(state: loop.TrainingState, step: int) -> None:
        block = stream_indices(seed, dataset.size, step * S, S)
        for lo in range(0, S, B):
            idx = block[lo : lo + B]  # last short minibatch kept
            loss, grad = bc_loss(
                state.store, state.spec, dataset.points[idx], dataset.proprios[idx], dataset.actions[idx]
            )
            if not np.isfinite(loss):
                raise NonFiniteError(f"non-finite loss at outer step {step}, minibatch {lo // B}")
            nn.adam_step(state.store, grad, state.adam)

    return loop.train("bc", cfg, env_cfg, seed, out_dir, 1, advance, restore, stage, reset_optimizer, should_stop)
