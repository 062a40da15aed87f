"""The training cycle PPO and BC share: resume, evaluate, log, checkpoint.

A trainer call first restores its policy and Adam state from a checkpoint,
or initialises fresh ones (`begin`).  It then hands `run_loop` one
`advance(step)` callable that trains one unit from the given step: a
rollout, GAE and update over S environment steps for PPO, one block of S
samples for BC, where the unit is one outer step.  The loop advances while
a whole unit still fits the budget.  It evaluates both splits at entry,
every eval_period steps, and once more at the end if steps advanced since
the last evaluation; each evaluation writes a checkpoint and then adds a
metrics record, so a crash between the two leaves a checkpoint with no log
line, never a logged step with no checkpoint.  An optional
should_stop(history) hook, asked after each evaluation, ends the call early.

A caller that already knows the entry rates passes them as entry_rates:
the entry record and checkpoint then carry them and the entry evaluation
is skipped.  The two-stage legs do this, because the checkpoint they
resume from holds the rates stage one measured for the same parameters,
seed and panels.  A plain resume still evaluates, since its
eval_episodes may differ from the run that wrote the checkpoint.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import nn, policy as pol
from .envs import EnvConfig
from .errors import ResumeError
from .persistence import Checkpoint, MetricsRecord, append_metrics, checkpoint_name, save_checkpoint
from .rng import make_generator


@dataclass
class TrainingState:
    """The policy and optimiser one trainer call trains, and its start step."""

    kind: str  # "ppo" | "bc"
    env_cfg: EnvConfig
    seed: int
    spec: pol.PolicySpec
    store: nn.ParamStore
    adam: nn.AdamState
    start_step: int


def begin(
    kind: str,
    cfg,
    env_cfg: EnvConfig,
    seed: int,
    resume: Checkpoint | None = None,
    reset_optimizer: bool = False,
) -> TrainingState:
    """Restore `resume` once it is checked to fit this run, or initialise.

    `cfg` is the trainer's config; only its learning_rate and log_std0 are
    read here.
    """
    spec = pol.build_policy_spec(env_cfg.task)
    if resume is None:
        store = nn.ParamStore()
        pol.init_policy(store, spec, make_generator(seed, kind, "init", env_cfg.task), cfg.log_std0)
        adam = nn.init_adam(store.size, lr=cfg.learning_rate)
        return TrainingState(kind, env_cfg, seed, spec, store, adam, 0)
    if resume.trainer_kind != kind:
        raise ResumeError(f"checkpoint holds a {resume.trainer_kind} run, not {kind}")
    if resume.env_fingerprint != env_cfg.fingerprint():
        raise ResumeError("checkpoint was trained on a different environment")
    store = resume.param_store()
    adam = nn.init_adam(store.size, lr=cfg.learning_rate) if reset_optimizer else resume.adam.copy()
    return TrainingState(kind, env_cfg, seed, spec, store, adam, resume.step)


def run_loop(
    state: TrainingState,
    cfg,
    out_dir: str,
    unit: int,
    advance: Callable[[int], None],
    rng_words: Callable[[], np.ndarray],
    stage: int = 1,
    should_stop: Callable[[list[MetricsRecord]], bool] | None = None,
    entry_rates: tuple[float, float] | None = None,
) -> list[MetricsRecord]:
    """Train cfg.total_steps further steps in units; returns this call's history.

    `rng_words()` gives the generator state each checkpoint stores.
    `entry_rates`, if given, are the (train, test) success rates of the
    entry parameters on this run's panels, recorded instead of evaluating.
    """
    os.makedirs(out_dir, exist_ok=True)
    env_cfg, seed = state.env_cfg, state.seed
    run_id = f"{env_cfg.task}-{state.kind}-seed{seed}"
    train_cfg = replace(env_cfg, split="train")
    test_cfg = replace(env_cfg, split="test")
    metrics_path = os.path.join(out_dir, "metrics.csv")
    history: list[MetricsRecord] = []

    def evaluate(step: int, rates: tuple[float, float] | None = None) -> bool:
        if rates is None:
            rates = (
                pol.evaluate_policy(state.store, state.spec, train_cfg, cfg.eval_episodes, seed),
                pol.evaluate_policy(state.store, state.spec, test_cfg, cfg.eval_episodes, seed),
            )
        train_rate, test_rate = rates
        save_checkpoint(
            os.path.join(out_dir, checkpoint_name(step)),
            Checkpoint(
                run_id=run_id,
                step=step,
                trainer_kind=state.kind,
                env_fingerprint=env_cfg.fingerprint(),
                params=state.store.flat.copy(),
                slices=state.store.directory(),
                adam=state.adam.copy(),
                rng_seed=seed,
                rng_words=rng_words(),
                train_success=train_rate,
                test_success=test_rate,
            ),
        )
        record = MetricsRecord(step, train_rate, test_rate, stage)
        append_metrics(metrics_path, record)
        history.append(record)
        return should_stop is not None and should_stop(history)

    done = 0
    last_eval = 0
    if evaluate(state.start_step, entry_rates):
        return history
    while done + unit <= cfg.total_steps:
        advance(state.start_step + done)
        done += unit
        if done - last_eval >= cfg.eval_period:
            last_eval = done
            if evaluate(state.start_step + done):
                return history
    if done > last_eval:
        evaluate(state.start_step + done)
    return history
