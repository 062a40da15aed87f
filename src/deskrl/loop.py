"""The training cycle PPO and BC share: start, evaluate, log, checkpoint.

A trainer call is one `train` call.  It first reads the run directory's
metrics.csv once, as the `persistence.MetricsLog` the call then holds
and appends to, and picks one of three starts.  In place, when the log
holds records: from the checkpoint of its last record, for the budget
the logged steps leave (a log past the call's budget is refused).  From
the `restore` checkpoint otherwise, when the call names one.  Fresh
otherwise: new policy parameters, Adam state and run stream.  So a call
run again over its own directory, after a crash at any write or after it
finished, ends as the uninterrupted call ends, and over a finished
directory it writes nothing.

The trainer hands `train` one `advance(state, step)` callable that
trains the `TrainingState` one unit from the given step: a rollout, GAE
and update over S environment steps for PPO, one block of S samples for
BC, where the unit is one outer step.  The call advances while a whole
unit still fits the budget.  It records both splits' rates, from one
policy.evaluate_policy call, at entry, every eval_period steps, and once
more at the end if steps advanced since the last evaluation; each record
comes with a checkpoint written before it, so a crash between the two
leaves a checkpoint with no log line, never a logged step with no
checkpoint.  An optional should_stop(history) hook, asked after each
record and at an in-place entry, ends the call early.

The entry record of a fresh run evaluates the initial policy.  A run
started from `restore` records the checkpoint's rates instead, which the
run that wrote it measured for the same parameters and seed (`train`
rejects another seed) over that run's eval_episodes.  An in-place start
records nothing at entry: its log already ends with that step.  The
history, which should_stop sees and the call returns, is the held log's
records: those the file held at the start, then the call's own, so an
in-place start stops where the uninterrupted run would.  Every
checkpoint stores the state words of the run stream `TrainingState.gen`,
which PPO draws from; BC never does, so its words stay those of the
fresh stream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import nn, policy as pol
from .envs import EnvConfig
from .errors import ResumeError
from .persistence import Checkpoint, MetricsRecord, append_metrics, checkpoint_name
from .persistence import load_checkpoint, read_log, save_checkpoint
from .rng import generator_from_words, make_generator, state_words


@dataclass
class TrainingState:
    """What a unit trains: the policy's spec and parameters, its Adam
    state and the run stream."""

    spec: pol.PolicySpec
    store: nn.ParamStore
    adam: nn.AdamState
    gen: np.random.Generator


def train(
    kind: str,
    cfg,
    env_cfg: EnvConfig,
    seed: int,
    out_dir: str,
    unit: int,
    advance: Callable[[TrainingState, int], None],
    restore: str | None = None,
    stage: int = 1,
    reset_optimizer: bool = False,
    should_stop: Callable[[list[MetricsRecord]], bool] | None = None,
) -> list[MetricsRecord]:
    """Start, then train the budget left in units; returns the history.

    `kind` is "ppo" or "bc", and `cfg` the trainer's config, of which
    total_steps, learning_rate, log_std0, eval_period and eval_episodes
    are read here.  In place, the checkpoint of the log's last record is
    always there, since it is written before its record; a newer one a
    crash left unlogged is written again, the same bytes.  That start
    ignores reset_optimizer, which the call's first start applied, and
    refuses a log whose steps exceed cfg.total_steps, the budget they
    were taken from.  A checkpoint is checked to fit this run before it
    is restored: its trainer kind, environment and seed, and, unless
    reset_optimizer replaces its Adam state, the learning rate that
    state carries.
    """
    log = read_log(os.path.join(out_dir, "metrics.csv"))
    history = log.records
    budget = cfg.total_steps
    if history:
        logged = history[-1].step - history[0].step
        if logged > budget:
            raise ResumeError(f"{log.path} logs {logged} steps, more than this call's budget of {budget}")
        restore = os.path.join(out_dir, checkpoint_name(history[-1].step))
        budget -= logged
        reset_optimizer = False
    spec = pol.build_policy_spec(env_cfg.task)
    if restore is None:
        store = nn.ParamStore()
        pol.init_policy(store, spec, make_generator(seed, kind, "init", env_cfg.task), cfg.log_std0)
        adam = nn.init_adam(store.size, lr=cfg.learning_rate)
        gen = make_generator(seed, kind, "train", env_cfg.task)
        start, entry_rates = 0, None
    else:
        ckpt = load_checkpoint(restore)
        if ckpt.trainer_kind != kind:
            raise ResumeError(f"checkpoint holds a {ckpt.trainer_kind} run, not {kind}")
        if ckpt.env_fingerprint != env_cfg.fingerprint():
            raise ResumeError("checkpoint was trained on a different environment")
        if ckpt.rng_seed != seed:
            raise ResumeError(f"checkpoint holds a run of seed {ckpt.rng_seed}, not {seed}")
        if not reset_optimizer and ckpt.adam.lr != cfg.learning_rate:
            raise ResumeError(f"checkpoint holds learning rate {ckpt.adam.lr}, not {cfg.learning_rate}")
        store = ckpt.param_store()
        adam = nn.init_adam(store.size, lr=cfg.learning_rate) if reset_optimizer else ckpt.adam.copy()
        gen = generator_from_words(ckpt.rng_words)
        start, entry_rates = ckpt.step, (ckpt.train_success, ckpt.test_success)
    state = TrainingState(spec, store, adam, gen)
    os.makedirs(out_dir, exist_ok=True)
    run_id = f"{env_cfg.task}-{kind}-seed{seed}"

    def stopped() -> bool:
        return should_stop is not None and should_stop(history)

    def evaluate(step: int, rates: tuple[float, float] | None = None) -> bool:
        if rates is None:
            rates = pol.evaluate_policy(state.store, spec, env_cfg, cfg.eval_episodes, seed)
        train_rate, test_rate = rates
        record = MetricsRecord(step, train_rate, test_rate, stage)
        save_checkpoint(
            os.path.join(out_dir, checkpoint_name(step)),
            Checkpoint(
                run_id=run_id, step=step, trainer_kind=kind, env_fingerprint=env_cfg.fingerprint(),
                params=state.store.flat.copy(), slices=state.store.directory(), adam=state.adam.copy(),
                rng_seed=seed, rng_words=state_words(state.gen),
                train_success=train_rate, test_success=test_rate,
            ),
        )
        append_metrics(log, record)
        return stopped()

    done = last_eval = 0
    # in place, the log already ends with the entry's record
    if (stopped() if history else evaluate(start, entry_rates)):
        return history
    while done + unit <= budget:
        advance(state, start + done)
        done += unit
        if done - last_eval >= cfg.eval_period:
            last_eval = done
            if evaluate(start + done):
                return history
    if done > last_eval:
        evaluate(start + done)
    return history
