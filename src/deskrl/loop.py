"""The training cycle PPO and BC share: start or resume, evaluate, log, checkpoint.

A trainer call first starts its run (`begin`): fresh policy parameters,
Adam state and run stream, or all three restored from a checkpoint
together with the rates stored with it.  It then hands `run_loop` one
`advance(step)` callable that trains one unit from the given step: a
rollout, GAE and update over S environment steps for PPO, one block of S
samples for BC, where the unit is one outer step.  The loop advances while
a whole unit still fits the budget.  It records both splits' rates, from
one policy.evaluate_policy call, at entry, every eval_period steps, and
once more at the end if steps advanced since the last evaluation; each
record comes with a checkpoint written before it, so a crash between the
two leaves a checkpoint with no log line, never a logged step with no
checkpoint.  An optional should_stop(history) hook, asked after each
record, ends the call early.

The entry record of a fresh run evaluates the initial policy.  A resumed
run records its checkpoint's rates instead, which the run that wrote it
measured for the same parameters and seed (`begin` rejects another seed)
over that run's eval_episodes; resumed in place, into the directory whose
log already ends with that step, it neither logs it again nor rewrites
its checkpoint.  A resumed run's history, which should_stop sees and the
call returns, starts with the records its directory's log already holds,
so a resume in place stops where the uninterrupted run would.  Every
checkpoint stores the state words
of the run stream `TrainingState.gen`, which PPO draws from; BC never
does, so its words stay those of the fresh stream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import nn, policy as pol
from .envs import EnvConfig
from .errors import ResumeError
from .persistence import Checkpoint, MetricsRecord, append_metrics, check_metrics_order, checkpoint_name
from .persistence import read_metrics, save_checkpoint
from .rng import generator_from_words, make_generator, state_words


@dataclass
class TrainingState:
    """What one trainer call trains from: policy, optimiser, run stream,
    start step, and the (train, test) rates of a resumed checkpoint."""

    kind: str  # "ppo" | "bc"
    env_cfg: EnvConfig
    seed: int
    spec: pol.PolicySpec
    store: nn.ParamStore
    adam: nn.AdamState
    gen: np.random.Generator
    start_step: int
    entry_rates: tuple[float, float] | None


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
        gen = make_generator(seed, kind, "train", env_cfg.task)
        return TrainingState(kind, env_cfg, seed, spec, store, adam, gen, 0, None)
    if resume.trainer_kind != kind:
        raise ResumeError(f"checkpoint holds a {resume.trainer_kind} run, not {kind}")
    if resume.env_fingerprint != env_cfg.fingerprint():
        raise ResumeError("checkpoint was trained on a different environment")
    if resume.rng_seed != seed:
        raise ResumeError(f"checkpoint holds a run of seed {resume.rng_seed}, not {seed}")
    store = resume.param_store()
    adam = nn.init_adam(store.size, lr=cfg.learning_rate) if reset_optimizer else resume.adam.copy()
    gen = generator_from_words(resume.rng_words)
    rates = (resume.train_success, resume.test_success)
    return TrainingState(kind, env_cfg, seed, spec, store, adam, gen, resume.step, rates)


def run_loop(
    state: TrainingState,
    cfg,
    out_dir: str,
    unit: int,
    advance: Callable[[int], None],
    stage: int = 1,
    should_stop: Callable[[list[MetricsRecord]], bool] | None = None,
) -> list[MetricsRecord]:
    """Train cfg.total_steps further steps in units; returns the run's
    records in out_dir, so a resume in place sees those logged before it."""
    os.makedirs(out_dir, exist_ok=True)
    env_cfg, seed = state.env_cfg, state.seed
    run_id = f"{env_cfg.task}-{state.kind}-seed{seed}"
    metrics_path = os.path.join(out_dir, "metrics.csv")
    check_metrics_order(metrics_path, state.start_step)  # a log past the entry is refused before any write
    history = read_metrics(metrics_path) if state.entry_rates is not None and os.path.exists(metrics_path) else []

    def evaluate(step: int, rates: tuple[float, float] | None = None, logged: bool = False) -> bool:
        if rates is None:
            rates = pol.evaluate_policy(state.store, state.spec, env_cfg, cfg.eval_episodes, seed)
        train_rate, test_rate = rates
        record = MetricsRecord(step, train_rate, test_rate, stage)
        if not logged:
            save_checkpoint(
                os.path.join(out_dir, checkpoint_name(step)),
                Checkpoint(
                    run_id=run_id, step=step, trainer_kind=state.kind, env_fingerprint=env_cfg.fingerprint(),
                    params=state.store.flat.copy(), slices=state.store.directory(), adam=state.adam.copy(),
                    rng_seed=seed, rng_words=state_words(state.gen),
                    train_success=train_rate, test_success=test_rate,
                ),
            )
            append_metrics(metrics_path, record)
            history.append(record)
        return should_stop is not None and should_stop(history)

    done = 0
    last_eval = 0
    # resumed in place: the log already ends with the checkpoint's record
    logged = [r.step for r in history[-1:]] == [state.start_step]
    if evaluate(state.start_step, state.entry_rates, logged):
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
