"""The training cycle PPO and BC share: start, evaluate, log, checkpoint.

A trainer call first starts its run (`begin`), which reads the run
directory's metrics.csv once and picks one of three starts.  In place,
when the log holds records: from the checkpoint of its last record, for
the budget the logged steps leave.  From the `restore` checkpoint
otherwise, when the call names one.  Fresh otherwise: new policy
parameters, Adam state and run stream.  So a call run again over its own
directory, after a crash at any write or after it finished, ends as the
uninterrupted call ends, and over a finished directory it writes nothing.

The call then hands `run_loop` one `advance(step)` callable that trains
one unit from the given step: a rollout, GAE and update over S
environment steps for PPO, one block of S samples for BC, where the unit
is one outer step.  The loop advances while a whole unit still fits the
budget.  It records both splits' rates, from one policy.evaluate_policy
call, at entry, every eval_period steps, and once more at the end if
steps advanced since the last evaluation; each record comes with a
checkpoint written before it, so a crash between the two leaves a
checkpoint with no log line, never a logged step with no checkpoint.  An
optional should_stop(history) hook, asked after each record and at an
in-place entry, ends the call early.

The entry record of a fresh run evaluates the initial policy.  A run
started from `restore` records the checkpoint's rates instead, which the
run that wrote it measured for the same parameters and seed (`begin`
rejects another seed) over that run's eval_episodes.  An in-place start
records nothing at entry: its log already ends with that step.  The
history, which should_stop sees and the call returns, is the log's
records followed by the call's own, so an in-place start stops where the
uninterrupted run would.  Every checkpoint stores the state words of the
run stream `TrainingState.gen`, which PPO draws from; BC never does, so
its words stay those of the fresh stream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import nn, policy as pol
from .envs import EnvConfig
from .errors import ResumeError
from .persistence import Checkpoint, MetricsRecord, append_metrics, checkpoint_name, load_checkpoint
from .persistence import read_metrics, save_checkpoint
from .rng import generator_from_words, make_generator, state_words


@dataclass
class TrainingState:
    """What one trainer call trains from: policy, optimiser, run stream,
    start step and budget, the (train, test) rates of a restored
    checkpoint, and the records its directory's log already holds."""

    kind: str  # "ppo" | "bc"
    env_cfg: EnvConfig
    seed: int
    out_dir: str
    spec: pol.PolicySpec
    store: nn.ParamStore
    adam: nn.AdamState
    gen: np.random.Generator
    start_step: int
    budget: int
    entry_rates: tuple[float, float] | None
    history: list[MetricsRecord]


def begin(
    kind: str,
    cfg,
    env_cfg: EnvConfig,
    seed: int,
    out_dir: str,
    restore: str | None = None,
    reset_optimizer: bool = False,
) -> TrainingState:
    """Start in place, from `restore` or fresh (see the module docstring).

    In place, the checkpoint of the log's last record is always there,
    since it is written before its record; a newer one a crash left
    unlogged is written again, the same bytes.  That start ignores
    reset_optimizer, which the call's first start applied.  A checkpoint
    is checked to fit this run before it is restored.  `cfg` is the
    trainer's config; only its total_steps, learning_rate and log_std0
    are read here.
    """
    spec = pol.build_policy_spec(env_cfg.task)
    log = os.path.join(out_dir, "metrics.csv")
    history = read_metrics(log) if os.path.exists(log) else []
    budget = cfg.total_steps
    if history:
        restore = os.path.join(out_dir, checkpoint_name(history[-1].step))
        budget -= history[-1].step - history[0].step
        reset_optimizer = False
    if restore is None:
        store = nn.ParamStore()
        pol.init_policy(store, spec, make_generator(seed, kind, "init", env_cfg.task), cfg.log_std0)
        adam = nn.init_adam(store.size, lr=cfg.learning_rate)
        gen = make_generator(seed, kind, "train", env_cfg.task)
        return TrainingState(kind, env_cfg, seed, out_dir, spec, store, adam, gen, 0, budget, None, history)
    ckpt = load_checkpoint(restore)
    if ckpt.trainer_kind != kind:
        raise ResumeError(f"checkpoint holds a {ckpt.trainer_kind} run, not {kind}")
    if ckpt.env_fingerprint != env_cfg.fingerprint():
        raise ResumeError("checkpoint was trained on a different environment")
    if ckpt.rng_seed != seed:
        raise ResumeError(f"checkpoint holds a run of seed {ckpt.rng_seed}, not {seed}")
    store = ckpt.param_store()
    adam = nn.init_adam(store.size, lr=cfg.learning_rate) if reset_optimizer else ckpt.adam.copy()
    gen = generator_from_words(ckpt.rng_words)
    rates = (ckpt.train_success, ckpt.test_success)
    return TrainingState(kind, env_cfg, seed, out_dir, spec, store, adam, gen, ckpt.step, budget, rates, history)


def run_loop(
    state: TrainingState,
    cfg,
    unit: int,
    advance: Callable[[int], None],
    stage: int = 1,
    should_stop: Callable[[list[MetricsRecord]], bool] | None = None,
) -> list[MetricsRecord]:
    """Train state.budget further steps in units; returns the history."""
    os.makedirs(state.out_dir, exist_ok=True)
    env_cfg, seed, history = state.env_cfg, state.seed, state.history
    run_id = f"{env_cfg.task}-{state.kind}-seed{seed}"
    metrics_path = os.path.join(state.out_dir, "metrics.csv")

    def stopped() -> bool:
        return should_stop is not None and should_stop(history)

    def evaluate(step: int, rates: tuple[float, float] | None = None) -> bool:
        if rates is None:
            rates = pol.evaluate_policy(state.store, state.spec, env_cfg, cfg.eval_episodes, seed)
        train_rate, test_rate = rates
        record = MetricsRecord(step, train_rate, test_rate, stage)
        save_checkpoint(
            os.path.join(state.out_dir, checkpoint_name(step)),
            Checkpoint(
                run_id=run_id, step=step, trainer_kind=state.kind, env_fingerprint=env_cfg.fingerprint(),
                params=state.store.flat.copy(), slices=state.store.directory(), adam=state.adam.copy(),
                rng_seed=seed, rng_words=state_words(state.gen),
                train_success=train_rate, test_success=test_rate,
            ),
        )
        append_metrics(metrics_path, record)
        history.append(record)
        return stopped()

    done = 0
    last_eval = 0
    # in place, the log already ends with the entry's record
    if (stopped() if history else evaluate(state.start_step, state.entry_rates)):
        return history
    while done + unit <= state.budget:
        advance(state.start_step + done)
        done += unit
        if done - last_eval >= cfg.eval_period:
            last_eval = done
            if evaluate(state.start_step + done):
                return history
    if done > last_eval:
        evaluate(state.start_step + done)
    return history
