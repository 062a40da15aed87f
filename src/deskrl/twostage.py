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

Each trainer call is a `Leg`, and `run_leg` starts every leg the same
way: in place when its directory's log holds records, else from its
restore checkpoint, else fresh.  So a two-stage run, a grid or a single
training run (`deskrl train`, `train-bc`: one leg with no restore
checkpoint and no stop hook), run again over its own directory, finishes
what a crash left, and leaves a finished directory as it was.

The best record of a history is the earliest one with the highest test
rate (`track_best`).  It picks the stage-two restore point (the
checkpoint `persistence.checkpoint_name(step)` in the stage-one
directory) and gives the rates a leg reports.  A leg's entry record is
the rates stage one stored with its restore checkpoint (`loop.begin`),
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
from .persistence import MetricsRecord, checkpoint_name, export_table, load_checkpoint, read_metrics

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
    """Binds a run function to its base config and batch-field name."""

    base_cfg: object
    batch_field: str
    run: Callable

    @property
    def base_batch(self) -> int:
        return getattr(self.base_cfg, self.batch_field)

    @property
    def base_samples(self) -> int:
        return self.base_cfg.samples_per_step

    @property
    def eval_period(self) -> int:
        return self.base_cfg.eval_period

    def sized_cfg(self, batch: int, samples: int, total_steps: int):
        return dataclasses.replace(
            self.base_cfg,
            **{self.batch_field: batch, "samples_per_step": samples, "total_steps": total_steps},
        )


def ppo_trainer(cfg: ppo_mod.PPOConfig, env_cfg: EnvConfig) -> Trainer:
    return Trainer(cfg, "minibatch_size", functools.partial(ppo_mod.train_ppo, env_cfg=env_cfg))


def bc_trainer(cfg: bc_mod.BCConfig, dataset: DemoDataset, env_cfg: EnvConfig) -> Trainer:
    run = functools.partial(bc_mod.train_bc, dataset=dataset, env_cfg=env_cfg)
    return Trainer(cfg, "batch_size", run)


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


@dataclass(frozen=True)
class Leg:
    """One trainer call of a schedule: its run directory, sizes, step
    budget and stage marker, the checkpoint it starts from when its log
    holds no record (None for stage one) and its stop hook."""

    out_dir: str
    batch: int
    samples: int
    steps: int
    stage: int
    restore: str | None = None
    should_stop: Callable[[list[MetricsRecord]], bool] | None = None


def run_leg(trainer: Trainer, leg: Leg, seed: int, reset_optimizer: bool = False) -> list[MetricsRecord]:
    """Run `leg` to the end of its budget (or its stop hook); returns its history.

    A leg starts in one of three ways.  In place, when its metrics.csv
    holds records: from the checkpoint of the log's last record (written
    before that record, so it exists; a newer one a crash left unlogged
    is written again, the same bytes), for the budget its logged steps
    leave, and without reset_optimizer, which the leg's entry applied.
    From its source otherwise, when it has a restore checkpoint.  Fresh
    otherwise.
    """
    log = os.path.join(leg.out_dir, "metrics.csv")
    logged = read_metrics(log) if os.path.exists(log) else []
    if logged:
        restore = os.path.join(leg.out_dir, checkpoint_name(logged[-1].step))
        leg = dataclasses.replace(leg, steps=leg.steps - (logged[-1].step - logged[0].step), restore=restore)
        reset_optimizer = False
    return trainer.run(
        trainer.sized_cfg(leg.batch, leg.samples, leg.steps), seed=seed, out_dir=leg.out_dir,
        resume=load_checkpoint(leg.restore) if leg.restore else None, stage=leg.stage,
        reset_optimizer=reset_optimizer, should_stop=leg.should_stop,
    )


def run_stage_one(trainer: Trainer, budget: int, seed: int, out_dir: str) -> list[MetricsRecord]:
    """Train at base sizes until the test rate stalls or the budget is spent.

    One leg with the whole budget; the `_stalled` hook ends it after
    STALL_LIMIT evaluations in a row without a new best test rate.
    Early stopping costs nothing in determinism: the history is a prefix
    of the same call without the hook, on the same evaluation cadence.
    """
    if budget < trainer.eval_period:
        raise ConfigError("stage-one budget is below one evaluation period")
    leg = Leg(out_dir, trainer.base_batch, trainer.base_samples, budget, 1, should_stop=_stalled)
    return run_leg(trainer, leg, seed)


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
    row-1 RunRecord carrying the best rates the stage-two leg reached.  With
    stage2_steps = 0 the record simply reports the stage-one best.
    """
    if stage2_steps < 0:
        raise ConfigError("stage-two budget cannot be negative")
    stage1_dir = os.path.join(out_dir, "stage1")
    stage1 = run_stage_one(trainer, stage1_steps, seed, stage1_dir)
    batch1, samples1 = scale_hyperparams(trainer.base_batch, trainer.base_samples, scales)
    restore = os.path.join(stage1_dir, checkpoint_name(track_best(stage1).step))
    leg = Leg(os.path.join(out_dir, "stage2"), batch1, samples1, stage2_steps, 2, restore)
    stage2 = run_leg(trainer, leg, seed, reset_optimizer) if stage2_steps > 0 else []
    peak = track_best(stage2 or stage1)
    record = RunRecord(
        1, scales.alpha, scales.beta, batch1, samples1,
        peak.train_success, peak.test_success, seed, stage2_steps,
    )
    return stage1 + stage2, record


@dataclass(frozen=True)
class GridSpec:
    """The Table-style sweep: scale lists, base sizes, seeds, stage budgets."""

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
        if self.stage1_steps < 1 or self.stage2_steps < 0:
            raise ConfigError("stage budgets must be positive (stage two may be 0)")
        for alpha, beta in self.cells():  # range errors surface before stage one trains
            ScalePair(alpha, beta)

    def cells(self) -> list[tuple[float, float]]:
        """Rows 2..: beta-major, alphas in list order."""
        return [(a, b) for b in self.betas for a in self.alphas]


def grid_search(trainer: Trainer, grid: GridSpec, out_dir: str) -> list[RunRecord]:
    """One baseline row plus one row per (alpha, beta) cell per seed.

    Stage one runs once per seed and every cell of that seed branches
    from its best checkpoint; the baseline instead keeps training from
    the last checkpoint at base sizes ("no restart").  A cell that raises
    is recorded with nan rates and the sweep continues.
    """
    os.makedirs(out_dir, exist_ok=True)
    base_cfg = trainer.sized_cfg(grid.base_batch, grid.base_samples, 0)
    base_trainer = dataclasses.replace(trainer, base_cfg=base_cfg)
    records: list[RunRecord] = []
    for seed in grid.seeds:
        seed_dir = os.path.join(out_dir, f"seed{seed}")
        stage1_dir = os.path.join(seed_dir, "stage1")
        stage1 = run_stage_one(base_trainer, grid.stage1_steps, seed, stage1_dir)
        last = os.path.join(stage1_dir, checkpoint_name(stage1[-1].step))
        best = os.path.join(stage1_dir, checkpoint_name(track_best(stage1).step))
        # (row, alpha, beta, leg): the baseline keeps training at base sizes from the last checkpoint
        baseline = os.path.join(seed_dir, "baseline")
        legs = [(1, 1.0, 1.0, Leg(baseline, grid.base_batch, grid.base_samples, grid.stage2_steps, 1, last))]
        for row, (alpha, beta) in enumerate(grid.cells(), start=2):
            sizes = scale_hyperparams(grid.base_batch, grid.base_samples, ScalePair(alpha, beta))
            leg_dir = os.path.join(seed_dir, f"cell-a{alpha}-b{beta}")
            legs.append((row, alpha, beta, Leg(leg_dir, *sizes, grid.stage2_steps, 2, best)))
        for row, alpha, beta, leg in legs:
            try:
                peak = track_best(run_leg(base_trainer, leg, seed))
                rates = (peak.train_success, peak.test_success)
            except DeskRLError:
                rates = (float("nan"), float("nan"))
            records.append(RunRecord(row, alpha, beta, leg.batch, leg.samples, *rates, seed, grid.stage2_steps))

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
