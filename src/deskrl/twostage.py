"""Two-stage fine-tuning: best-checkpoint tracking, hyperparameter
rescaling, stage-two resumption, and the grid-search harness.

The procedure: train normally, watch the test-split success rate, and
when it stalls (or the stage-one budget runs out) resume from the
checkpoint with the highest test rate seen so far, with the minibatch
size scaled by alpha and the samples consumed per outer step scaled by
beta.  Stage one is one trainer call with the whole budget and a stall
hook that ends it after STALL_LIMIT evaluations in a row without a new
best.  The grid harness sweeps (alpha, beta) cells that all branch from
one shared stage-one run per seed, plus a no-restart baseline row that
simply keeps training from the last checkpoint at the original sizes.

Every trainer call here is a plain `trainer.run` with a sized config:
stage one with no restore checkpoint and the stall hook, each stage-two
call and grid row with the stage-one checkpoint it branches from.  The
trainer call picks its own start (`loop.begin`): in place when its
directory's log holds records, else from that checkpoint, else fresh.
So a two-stage run or a grid, run again over its own directory, finishes
what a crash left and leaves a finished directory as it was; nothing
here reads a log or loads a checkpoint.

The best record of a history is the earliest one with the highest test
rate (`track_best`).  It picks the stage-two restore point (the
checkpoint `persistence.checkpoint_name(step)` in the stage-one
directory) and gives the rates a stage-two call reports.  That call's
entry record is the rates stage one stored with its restore checkpoint,
not a second evaluation of the same parameters.

Everything here is trainer-agnostic: a Trainer adapter carries the base
config, knows which field is the batch size, and runs train_ppo or
train_bc with the environment (and the demo dataset) bound, called by
keyword.  PPO (minibatch_size / samples_per_step) and BC (batch_size /
samples_per_step) plug in the same way.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bc as bc_mod, ppo as ppo_mod
from .envs import DemoDataset, EnvConfig
from .errors import ConfigError, DeskRLError
from .persistence import MetricsRecord, checkpoint_name, export_table

STALL_LIMIT = 3  # consecutive evaluations without a new best test rate


@dataclass(frozen=True)
class ScalePair:
    """Stage-two multipliers: alpha on batch size, beta on samples per step."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"beta must lie in (0, 1], got {self.beta}")


def track_best(history: list[MetricsRecord]) -> MetricsRecord:
    """The record with the highest test rate, the earliest of ties; its
    checkpoint is checkpoint_name(record.step) in the run's directory."""
    if not history:
        raise ConfigError("cannot track the best of an empty history")
    return max(history, key=lambda rec: rec.test_success)  # max keeps the first of ties


def _stalled(history: list[MetricsRecord]) -> bool:
    """True once STALL_LIMIT evaluations in a row brought no new best test rate."""
    best_step = track_best(history).step
    return sum(rec.step > best_step for rec in history) >= STALL_LIMIT


def scale_hyperparams(batch0: int, samples0: int, scales: ScalePair) -> tuple[int, int]:
    """(B1, S1) = (round(alpha * B0), round(beta * S0)), half-up, floor 1, B1 <= S1."""
    if batch0 < 1 or samples0 < 1:
        raise ConfigError("base batch and samples must be at least 1")
    batch1 = max(1, math.floor(scales.alpha * batch0 + 0.5))
    samples1 = max(1, math.floor(scales.beta * samples0 + 0.5))
    return min(batch1, samples1), samples1


@dataclass(frozen=True)
class Trainer:
    """Binds a run function to its base config and batch-field name, and
    to `check`, which refuses (ConfigError) a config that run would refuse
    for its bound inputs, so a command can ask before it writes."""

    base_cfg: object
    batch_field: str
    run: Callable
    check: Callable = lambda cfg: None

    @property
    def base_batch(self) -> int:
        return getattr(self.base_cfg, self.batch_field)

    def sized_cfg(self, batch: int, samples: int, total_steps: int):
        return dataclasses.replace(
            self.base_cfg,
            **{self.batch_field: batch, "samples_per_step": samples, "total_steps": total_steps},
        )


def ppo_trainer(cfg: ppo_mod.PPOConfig, env_cfg: EnvConfig) -> Trainer:
    return Trainer(cfg, "minibatch_size", functools.partial(ppo_mod.train_ppo, env_cfg=env_cfg))


def bc_trainer(cfg: bc_mod.BCConfig, dataset: DemoDataset, env_cfg: EnvConfig) -> Trainer:
    run = functools.partial(bc_mod.train_bc, dataset=dataset, env_cfg=env_cfg)
    return Trainer(cfg, "batch_size", run, functools.partial(bc_mod.check_demos, dataset=dataset, env_cfg=env_cfg))


@dataclass(frozen=True)
class RunRecord:
    """One results-table row, its fields in column order; nan rates mark a
    cell that failed mid-run."""

    row: int
    alpha: float
    beta: float
    batch: int
    samples: int
    train_success: float
    test_success: float
    seed: int
    stage2_steps: int

    def __post_init__(self):
        for rate in (self.train_success, self.test_success):
            if not (math.isnan(rate) or 0.0 <= rate <= 1.0):
                raise ConfigError(f"success rates must lie in [0, 1], got {rate}")


def check_schedule(trainer: Trainer, stage1_steps: int, stage2_steps: int = 0) -> None:
    """Refuse (ConfigError) what stage one or two would refuse: the base
    config (`Trainer.check`), a stage-one budget below one evaluation
    period, or a negative stage-two budget.  The commands ask before they
    write anything."""
    trainer.check(trainer.base_cfg)
    if stage1_steps < trainer.base_cfg.eval_period:
        raise ConfigError("stage-one budget is below one evaluation period")
    if stage2_steps < 0:
        raise ConfigError("stage-two budget cannot be negative")


def run_stage_one(trainer: Trainer, budget: int, seed: int, out_dir: str) -> list[MetricsRecord]:
    """Train at base sizes until the test rate stalls or the budget is spent.

    One trainer call with the whole budget; the `_stalled` hook ends it
    after STALL_LIMIT evaluations in a row without a new best test rate.
    Early stopping costs nothing in determinism: the history is a prefix
    of the same call without the hook, on the same evaluation cadence.
    """
    check_schedule(trainer, budget)
    cfg = dataclasses.replace(trainer.base_cfg, total_steps=budget)
    return trainer.run(cfg, seed=seed, out_dir=out_dir, should_stop=_stalled)


def run_two_stage(
    trainer: Trainer,
    scales: ScalePair,
    stage1_steps: int,
    stage2_steps: int,
    seed: int,
    out_dir: str,
    reset_optimizer: bool = False,
) -> tuple[list[MetricsRecord], RunRecord]:
    """Stage one at base sizes, then resume the best checkpoint rescaled.

    Returns the concatenated history (stage markers 1 then 2) and a
    row-1 RunRecord carrying the best rates the stage-two call reached.
    With stage2_steps = 0 the record simply reports the stage-one best.
    """
    check_schedule(trainer, stage1_steps, stage2_steps)
    stage1_dir = os.path.join(out_dir, "stage1")
    stage1 = run_stage_one(trainer, stage1_steps, seed, stage1_dir)
    batch1, samples1 = scale_hyperparams(trainer.base_batch, trainer.base_cfg.samples_per_step, scales)
    stage2 = []
    if stage2_steps > 0:
        stage2 = trainer.run(
            trainer.sized_cfg(batch1, samples1, stage2_steps), seed=seed, out_dir=os.path.join(out_dir, "stage2"),
            restore=os.path.join(stage1_dir, checkpoint_name(track_best(stage1).step)), stage=2,
            reset_optimizer=reset_optimizer,
        )
    peak = track_best(stage2 or stage1)
    record = RunRecord(
        1, scales.alpha, scales.beta, batch1, samples1,
        peak.train_success, peak.test_success, seed, stage2_steps,
    )
    return stage1 + stage2, record


@dataclass(frozen=True)
class GridSpec:
    """The Table-style sweep: scale lists, base sizes, seeds, stage budgets
    (checked against the trainer by `check_schedule`)."""

    alphas: tuple[float, ...] = (0.9, 0.8, 0.7)
    betas: tuple[float, ...] = (1.0, 0.875, 0.75)
    base_batch: int = 64
    base_samples: int = 2048
    seeds: tuple[int, ...] = (0,)
    stage1_steps: int = 40_960
    stage2_steps: int = 20_480

    def __post_init__(self):
        if not self.alphas or not self.betas or not self.seeds:
            raise ConfigError("alpha, beta, and seed lists must be non-empty")
        for name in ("alphas", "betas", "seeds"):
            values = getattr(self, name)
            if len(set(values)) < len(values):  # two legs would share one directory
                raise ConfigError(f"grid {name} repeat an entry: {values}")
        if self.base_batch < 1 or self.base_samples < 1:
            raise ConfigError("base batch and samples must be at least 1")
        for alpha, beta in self.cells():  # range errors surface before stage one trains
            ScalePair(alpha, beta)

    def cells(self) -> list[tuple[float, float]]:
        """Rows 2..: beta-major, alphas in list order."""
        return [(a, b) for b in self.betas for a in self.alphas]

    def sized(self, trainer: Trainer) -> Trainer:
        """`trainer` with this grid's base batch and samples in its base config."""
        return dataclasses.replace(trainer, base_cfg=trainer.sized_cfg(self.base_batch, self.base_samples, 0))


def grid_search(trainer: Trainer, grid: GridSpec, out_dir: str) -> list[RunRecord]:
    """One baseline row plus one row per (alpha, beta) cell per seed.

    Stage one runs once per seed and every cell of that seed branches
    from its best checkpoint; the baseline instead keeps training from
    the last checkpoint at base sizes ("no restart").  A cell that raises
    is recorded with nan rates and the sweep continues.
    """
    base_trainer = grid.sized(trainer)
    check_schedule(base_trainer, grid.stage1_steps, grid.stage2_steps)
    os.makedirs(out_dir, exist_ok=True)
    records: list[RunRecord] = []
    for seed in grid.seeds:
        seed_dir = os.path.join(out_dir, f"seed{seed}")
        stage1_dir = os.path.join(seed_dir, "stage1")
        stage1 = run_stage_one(base_trainer, grid.stage1_steps, seed, stage1_dir)
        last = os.path.join(stage1_dir, checkpoint_name(stage1[-1].step))
        best = os.path.join(stage1_dir, checkpoint_name(track_best(stage1).step))
        # (row, alpha, beta, directory, restore checkpoint, stage): the baseline keeps training at base sizes
        rows = [(1, 1.0, 1.0, "baseline", last, 1)]
        rows += [(row, a, b, f"cell-a{a}-b{b}", best, 2) for row, (a, b) in enumerate(grid.cells(), start=2)]
        for row, alpha, beta, name, restore, stage in rows:
            batch, samples = scale_hyperparams(grid.base_batch, grid.base_samples, ScalePair(alpha, beta))
            try:
                cfg = trainer.sized_cfg(batch, samples, grid.stage2_steps)
                leg_dir = os.path.join(seed_dir, name)
                peak = track_best(trainer.run(cfg, seed=seed, out_dir=leg_dir, restore=restore, stage=stage))
                rates = (peak.train_success, peak.test_success)
            except DeskRLError:
                rates = (float("nan"), float("nan"))
            records.append(RunRecord(row, alpha, beta, batch, samples, *rates, seed, grid.stage2_steps))

    export_table(records, os.path.join(out_dir, "results.csv"))
    return records


def recommend_scales(table: list[RunRecord]) -> ScalePair:
    """The cell (alpha, beta) with the best mean test rate; ties favor
    larger alpha, then larger beta.  Row 1, the continued baseline, is not
    a cell and does not rank; failed rows (nan) drop out of the means."""
    if not table:
        raise ConfigError("cannot recommend scales from an empty table")
    groups: dict[tuple[float, float], list[float]] = {}
    for rec in table:
        if rec.row > 1 and not math.isnan(rec.test_success):
            groups.setdefault((rec.alpha, rec.beta), []).append(rec.test_success)
    if not groups:
        raise ConfigError("no cell row in the table succeeded; nothing to recommend")
    ranked = sorted(
        groups.items(),
        key=lambda kv: (float(np.mean(kv[1])), kv[0][0], kv[0][1]),
        reverse=True,
    )
    alpha, beta = ranked[0][0]
    return ScalePair(alpha, beta)
