"""Two-stage scheduler: best tracking, scale arithmetic against the
published grid, the stall rule, branch points, and the sweep harness."""

import dataclasses
import inspect
import math
import os
from dataclasses import dataclass

import numpy as np
import pytest

from deskrl import bc, nn, ppo, twostage as ts
from deskrl.envs import DemoDataset, generate_demos, make_config
from deskrl.errors import CheckpointNotFoundError, ConfigError
from deskrl.persistence import (
    Checkpoint,
    MetricsRecord,
    append_metrics,
    checkpoint_name,
    load_checkpoint,
    read_log,
    read_metrics,
    save_checkpoint,
)
from deskrl.rng import make_generator, state_words


class TestScalePair:
    def test_bounds(self):
        ts.ScalePair(1.0, 1.0)
        ts.ScalePair(0.1, 0.9)
        for alpha, beta in [(0.0, 1.0), (1.0, 0.0), (1.1, 1.0), (1.0, 1.1), (-0.5, 0.5)]:
            with pytest.raises(ConfigError):
                ts.ScalePair(alpha, beta)


class TestTrackBest:
    def test_plain_argmax(self):
        best = ts.track_best(
            [MetricsRecord(100, 0.5, 0.50), MetricsRecord(200, 0.7, 0.65), MetricsRecord(300, 0.6, 0.60)]
        )
        assert best.step == 200
        assert best.test_success == 0.65

    def test_tie_goes_to_the_earliest(self):
        best = ts.track_best([MetricsRecord(100, 0.5, 0.60), MetricsRecord(200, 0.7, 0.60)])
        assert best.step == 100

    def test_single_entry(self):
        best = ts.track_best([MetricsRecord(40, 0.2, 0.3)])
        assert best.step == 40
        assert checkpoint_name(best.step) == "ckpt-00000040.ckpt"

    def test_empty_history_rejected(self):
        with pytest.raises(ConfigError):
            ts.track_best([])

    def test_accepts_metric_records(self):
        hist = [MetricsRecord(0, 0.1, 0.2), MetricsRecord(10, 0.9, 0.8)]
        assert ts.track_best(hist).step == 10

    def test_result_is_in_history_and_maximal(self):
        g = np.random.default_rng(5)
        hist = [MetricsRecord(s, float(g.uniform()), float(g.uniform())) for s in range(0, 500, 50)]
        best = ts.track_best(hist)
        assert best.step in {r.step for r in hist}
        assert all(r.test_success <= best.test_success for r in hist)


TABLE_PAIRS = {
    (0.9, 1.0): (297, 20000),
    (0.8, 1.0): (264, 20000),
    (0.7, 1.0): (231, 20000),
    (0.9, 0.875): (297, 17500),
    (0.8, 0.875): (264, 17500),
    (0.7, 0.875): (231, 17500),
    (0.9, 0.75): (297, 15000),
    (0.8, 0.75): (264, 15000),
    (0.7, 0.75): (231, 15000),
}


class TestScaleHyperparams:
    def test_published_row_five(self):
        assert ts.scale_hyperparams(330, 20000, ts.ScalePair(0.9, 0.875)) == (297, 17500)

    def test_published_row_ten(self):
        assert ts.scale_hyperparams(330, 20000, ts.ScalePair(0.7, 0.75)) == (231, 15000)

    def test_all_nine_scaled_pairs(self):
        for (alpha, beta), expected in TABLE_PAIRS.items():
            got = ts.scale_hyperparams(330, 20000, ts.ScalePair(alpha, beta))
            assert got == expected, (alpha, beta)

    def test_identity(self):
        assert ts.scale_hyperparams(64, 2048, ts.ScalePair(1.0, 1.0)) == (64, 2048)

    def test_rounds_half_up(self):
        # 0.75 * 6 = 4.5: half-up gives 5 where banker's rounding would give 4
        assert ts.scale_hyperparams(6, 6, ts.ScalePair(1.0, 0.75)) == (5, 5)
        assert ts.scale_hyperparams(5, 10, ts.ScalePair(0.5, 1.0)) == (3, 10)

    def test_floors_at_one(self):
        assert ts.scale_hyperparams(1, 1, ts.ScalePair(0.1, 0.1)) == (1, 1)

    def test_caps_batch_at_samples(self):
        assert ts.scale_hyperparams(100, 10, ts.ScalePair(1.0, 1.0)) == (10, 10)
        assert ts.scale_hyperparams(64, 64, ts.ScalePair(1.0, 0.5)) == (32, 32)

    def test_monotone_in_each_scale(self):
        alphas = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
        batches = [ts.scale_hyperparams(330, 20000, ts.ScalePair(a, 1.0))[0] for a in alphas]
        assert batches == sorted(batches)
        samples = [ts.scale_hyperparams(330, 20000, ts.ScalePair(1.0, b))[1] for b in alphas]
        assert samples == sorted(samples)

    def test_rejects_degenerate_base(self):
        with pytest.raises(ConfigError):
            ts.scale_hyperparams(0, 100, ts.ScalePair(1.0, 1.0))


class TestRunRecord:
    def test_as_row_order(self):
        rec = ts.RunRecord(5, 0.9, 0.875, 297, 17500, 0.72, 0.67, 3, 20000)
        assert dataclasses.astuple(rec) == (5, 0.9, 0.875, 297, 17500, 0.72, 0.67, 3, 20000)

    def test_nan_marks_failure(self):
        rec = ts.RunRecord(2, 0.9, 1.0, 297, 20000, float("nan"), float("nan"), 0, 100)
        assert math.isnan(rec.test_success)

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ConfigError):
            ts.RunRecord(1, 1.0, 1.0, 64, 2048, 1.2, 0.5, 0, 100)


class TestGridSpec:
    def test_default_cells_follow_the_published_order(self):
        grid = ts.GridSpec()
        assert grid.cells() == [
            (0.9, 1.0), (0.8, 1.0), (0.7, 1.0),
            (0.9, 0.875), (0.8, 0.875), (0.7, 0.875),
            (0.9, 0.75), (0.8, 0.75), (0.7, 0.75),
        ]

    def test_rejects_empty_lists(self):
        with pytest.raises(ConfigError):
            ts.GridSpec(alphas=())
        with pytest.raises(ConfigError):
            ts.GridSpec(betas=())
        with pytest.raises(ConfigError):
            ts.GridSpec(seeds=())

    @pytest.mark.parametrize(
        "overrides", [{"alphas": (0.5, 0.7, 0.5)}, {"betas": (1.0, 1.0)}, {"seeds": (0, 0)}]
    )
    def test_rejects_repeated_entries(self, overrides):
        # a repeated entry would send two legs into one run directory
        with pytest.raises(ConfigError, match="repeat"):
            ts.GridSpec(**overrides)

    @pytest.mark.parametrize(
        "overrides, name", [({"alphas": (0.9, 1.5)}, "alpha"), ({"betas": (0.0,)}, "beta")]
    )
    def test_rejects_out_of_range_scales(self, overrides, name):
        # checked when the spec is built, not when the sweep reaches the cell
        with pytest.raises(ConfigError, match=f"{name} must lie in"):
            ts.GridSpec(**overrides)


@dataclass(frozen=True)
class ToyCfg:
    batch_size: int = 8
    samples_per_step: int = 16
    total_steps: int = 0
    eval_period: int = 2


def toy_trainer(rate_of, write_checkpoints=True):
    """A scripted stand-in honoring the trainer contract: entry eval,
    eval every eval_period steps, a final eval, a checkpoint per eval
    written before its metrics line (loop.train's order), and a stop
    once should_stop(history) holds after an eval.
    rate_of(step, stage) scripts the test rate; a run started from its
    restore checkpoint records the rates stored with it instead.  It never
    starts in place: no toy run is run again over its own directory."""

    def run(cfg, seed, out_dir, restore=None, stage=1, reset_optimizer=False, should_stop=None):
        os.makedirs(out_dir, exist_ok=True)
        ckpt = load_checkpoint(restore) if restore is not None else None
        start = ckpt.step if ckpt is not None else 0
        entry_rates = (ckpt.train_success, ckpt.test_success) if ckpt is not None else None
        log = read_log(os.path.join(out_dir, "metrics.csv"))
        history = []

        def evaluate(step, rates=None):
            test = float(rate_of(step, stage))
            train, test = rates if rates is not None else (min(1.0, test + 0.1), test)
            record = MetricsRecord(step, train, test, stage)
            history.append(record)
            if write_checkpoints:
                save_checkpoint(
                    os.path.join(out_dir, f"ckpt-{step:08d}.ckpt"),
                    Checkpoint(
                        run_id="toy",
                        step=step,
                        trainer_kind="bc",
                        env_fingerprint="toy",
                        params=np.zeros(3),
                        slices=[("w", 1, 3)],
                        adam=nn.init_adam(3, 1e-3),
                        rng_seed=seed,
                        rng_words=state_words(make_generator(seed)),
                        train_success=record.train_success,
                        test_success=test,
                    ),
                )
            append_metrics(log, record)
            return should_stop is not None and should_stop(history)

        done = 0
        last = 0
        if evaluate(start, entry_rates):
            return history
        while done + 1 <= cfg.total_steps:
            done += 1
            if done - last >= cfg.eval_period:
                last = done
                if evaluate(start + done):
                    return history
        if done > last:
            evaluate(start + done)
        return history

    return ts.Trainer(ToyCfg(), "batch_size", run)


def toy_run_or_fail(cfg, seed, out_dir, restore=None, stage=1, reset_optimizer=False, should_stop=None):
    """The toy trainer at rate 0.2, failing at batch size 32."""
    if cfg.batch_size == 32:
        raise ConfigError("scripted failure")
    return toy_trainer(lambda s, _: 0.2).run(cfg, seed, out_dir, restore, stage, should_stop=should_stop)


def test_trainers_accept_the_keywords_the_harness_passes(tmp_path):
    # stage one and each stage-two call run trainer.run(cfg, **keywords);
    # every trainer, real or toy, must take the keywords of both
    passed = []

    def spy(cfg, **keywords):
        passed.append(keywords)
        return toy_trainer(lambda s, _: 0.5).run(cfg, **keywords)

    ts.run_two_stage(
        ts.Trainer(ToyCfg(), "batch_size", spy), ts.ScalePair(0.5, 0.5), 4, 2, seed=0,
        out_dir=str(tmp_path / "t"),
    )
    assert [sorted(k) for k in passed] == [
        ["out_dir", "seed", "should_stop"], ["out_dir", "reset_optimizer", "restore", "seed", "stage"],
    ]
    env_cfg = make_config("reach2d")
    dataset = DemoDataset(np.zeros((1, 1, 5)), np.zeros((1, 1)), np.zeros((1, 2)), env_cfg.fingerprint(), (1,), (True,))
    runs = [
        ts.ppo_trainer(ppo.PPOConfig(), env_cfg).run,
        ts.bc_trainer(bc.BCConfig(), dataset, env_cfg).run,
        toy_trainer(lambda s, _: 0.0).run,
        toy_run_or_fail,
    ]
    for run in runs:
        for keywords in passed:
            inspect.signature(run).bind(ToyCfg(), **keywords)


class TestStageOne:
    def test_stops_on_three_stalled_evaluations(self, tmp_path):
        # scripted test rates: peak at step 2, flat after; the run must
        # stop at step 8 (three evals past the peak), not spend the budget
        rates = {0: 0.1, 2: 0.5, 4: 0.3, 6: 0.3, 8: 0.3, 10: 0.4, 12: 0.9}
        trainer = toy_trainer(lambda s, _: rates[s])
        hist = ts.run_stage_one(trainer, 100, seed=0, out_dir=str(tmp_path / "s1"))
        assert [r.step for r in hist] == [0, 2, 4, 6, 8]
        assert ts.track_best(hist).step == 2

    def test_spends_the_budget_when_improving(self, tmp_path):
        trainer = toy_trainer(lambda s, _: min(0.99, s * 0.05))
        hist = ts.run_stage_one(trainer, 10, seed=0, out_dir=str(tmp_path / "s1"))
        assert [r.step for r in hist] == [0, 2, 4, 6, 8, 10]
        assert ts.track_best(hist).step == 10

    def test_resumed_chunks_leave_no_duplicate_records(self, tmp_path):
        trainer = toy_trainer(lambda s, _: min(0.99, s * 0.05))
        out = str(tmp_path / "s1")
        hist = ts.run_stage_one(trainer, 6, seed=0, out_dir=out)
        steps = [r.step for r in hist]
        assert steps == sorted(set(steps))
        logged = [r.step for r in read_metrics(os.path.join(out, "metrics.csv"))]
        assert logged == steps
        assert all(a < b for a, b in zip(logged, logged[1:]))

    def test_matches_the_uninterrupted_ppo_run(self, tmp_path):
        # eval_period is not a multiple of the rollout size: the evaluation
        # cadence must still be that of one train_ppo call with the budget
        env_cfg = make_config("reach2d", horizon=40)
        pcfg = ppo.PPOConfig(
            samples_per_step=80, minibatch_size=40, epochs=1,
            total_steps=400, eval_period=100, eval_episodes=1,
        )
        straight = ppo.train_ppo(pcfg, env_cfg, seed=0, out_dir=str(tmp_path / "straight"))
        trainer = ts.ppo_trainer(dataclasses.replace(pcfg, total_steps=0), env_cfg)
        hist = ts.run_stage_one(trainer, 400, seed=0, out_dir=str(tmp_path / "s1"))
        as_rows = lambda h: [(r.step, r.train_success, r.test_success) for r in h]
        assert as_rows(hist) == as_rows(straight)
        assert [r.step for r in hist] == [0, 160, 320, 400]

    @pytest.mark.parametrize("crash_step", [32, 64])
    def test_resume_in_place_stops_where_the_uninterrupted_run_does(self, tmp_path, crash_step):
        # every evaluation reads test rate 0, so the run stalls at step 96
        # with step 0 its best; a run cut after crash_step and resumed in
        # place must count the records logged before the cut, not run on
        env_cfg = make_config("reach2d", horizon=8)
        pcfg = ppo.PPOConfig(
            samples_per_step=32, minibatch_size=16, epochs=1, total_steps=0, eval_period=32, eval_episodes=1,
        )
        trainer = ts.ppo_trainer(pcfg, env_cfg)
        straight = ts.run_stage_one(trainer, 256, seed=0, out_dir=str(tmp_path / "straight"))
        assert [r.step for r in straight] == [0, 32, 64, 96]
        assert ts.track_best(straight).step == 0
        out = str(tmp_path / "cut")
        ts.run_stage_one(trainer, crash_step, seed=0, out_dir=out)
        hist = ts.run_stage_one(trainer, 256, seed=0, out_dir=out)  # the trainer call starts in place
        assert hist == straight == read_metrics(os.path.join(out, "metrics.csv"))
        assert ts.track_best(hist).step == 0
        assert sorted(os.listdir(out)) == sorted(os.listdir(tmp_path / "straight"))

    def test_rejects_budget_below_one_eval_period(self, tmp_path):
        trainer = toy_trainer(lambda s, _: 0.0)
        with pytest.raises(ConfigError):
            ts.run_stage_one(trainer, 1, seed=0, out_dir=str(tmp_path / "s1"))


class TestRunTwoStage:
    def test_branches_at_the_best_checkpoint(self, tmp_path):
        rates = {0: 0.1, 2: 0.5, 4: 0.3, 6: 0.3, 8: 0.3}
        trainer = toy_trainer(lambda s, st: 0.6 if st == 2 else rates[s])
        hist, rec = ts.run_two_stage(
            trainer, ts.ScalePair(0.5, 0.5), 100, 4, seed=0, out_dir=str(tmp_path / "t")
        )
        stage2 = [r for r in hist if r.stage == 2]
        assert stage2[0].step == 2  # resumed from the peak, not the end
        assert stage2[-1].step == 6
        assert rec.batch == 4 and rec.samples == 8  # 8 * 0.5, 16 * 0.5
        assert rec.stage2_steps == 4
        assert rec.test_success == 0.6

    def test_record_reports_stage_two_best_not_final(self, tmp_path):
        rates = {0: 0.1, 2: 0.5, 4: 0.3, 6: 0.3, 8: 0.3}
        stage2_rates = {4: 0.8, 6: 0.2}  # peak mid-leg, worse at the end
        trainer = toy_trainer(lambda s, st: stage2_rates.get(s, 0.2) if st == 2 else rates[s])
        _, rec = ts.run_two_stage(
            trainer, ts.ScalePair(1.0, 1.0), 100, 4, seed=0, out_dir=str(tmp_path / "t")
        )
        assert rec.test_success == 0.8

    def test_zero_stage_two_returns_the_stage_one_best(self, tmp_path):
        rates = {0: 0.1, 2: 0.5, 4: 0.3, 6: 0.3, 8: 0.3}
        trainer = toy_trainer(lambda s, _: rates[s])
        hist, rec = ts.run_two_stage(
            trainer, ts.ScalePair(0.9, 0.875), 100, 0, seed=0, out_dir=str(tmp_path / "t")
        )
        assert all(r.stage == 1 for r in hist)
        assert rec.test_success == 0.5
        assert rec.stage2_steps == 0

    def test_identity_scales_keep_base_sizes(self, tmp_path):
        trainer = toy_trainer(lambda s, _: 0.0)
        _, rec = ts.run_two_stage(
            trainer, ts.ScalePair(1.0, 1.0), 6, 2, seed=0, out_dir=str(tmp_path / "t")
        )
        assert (rec.batch, rec.samples) == (8, 16)

    def test_missing_checkpoint_surfaces_resume_error(self, tmp_path):
        trainer = toy_trainer(lambda s, _: 0.0, write_checkpoints=False)
        with pytest.raises(CheckpointNotFoundError):
            ts.run_two_stage(
                trainer, ts.ScalePair(0.9, 0.875), 6, 2, seed=0, out_dir=str(tmp_path / "t")
            )


class TestGridSearch:
    def grid(self, **overrides):
        base = dict(
            alphas=(0.9, 0.8, 0.7),
            betas=(1.0, 0.875, 0.75),
            base_batch=8,
            base_samples=16,
            seeds=(0,),
            stage1_steps=6,
            stage2_steps=2,
        )
        base.update(overrides)
        return ts.GridSpec(**base)

    def test_emits_ten_rows_in_table_order(self, tmp_path):
        trainer = toy_trainer(lambda s, _: 0.2)
        records = ts.grid_search(trainer, self.grid(), str(tmp_path / "g"))
        assert [r.row for r in records] == list(range(1, 11))
        assert (records[0].alpha, records[0].beta) == (1.0, 1.0)
        assert [(r.alpha, r.beta) for r in records[1:]] == self.grid().cells()
        assert dataclasses.astuple(records[4])[:5] == (5, 0.9, 0.875, 7, 14)  # 8*0.9, 16*0.875

    def test_results_file_matches_the_documented_schema(self, tmp_path):
        trainer = toy_trainer(lambda s, _: 0.2)
        out = str(tmp_path / "g")
        ts.grid_search(trainer, self.grid(), out)
        lines = open(os.path.join(out, "results.csv")).read().splitlines()
        assert lines[0] == "row,alpha,beta,batch,samples,train_success,test_success,seed,stage2_steps"
        assert len(lines) == 11
        assert lines[1].startswith("1,1.0,1.0,8,16,")

    def test_baseline_continues_while_cells_branch_at_best(self, tmp_path):
        # flat scripted rates put the best checkpoint at step 0 while the
        # stall rule ends stage one at step 6: the two resume points differ
        trainer = toy_trainer(lambda s, _: 0.3)
        out = str(tmp_path / "g")
        ts.grid_search(trainer, self.grid(stage1_steps=50), out)
        baseline = read_metrics(os.path.join(out, "seed0", "baseline", "metrics.csv"))
        cell = read_metrics(os.path.join(out, "seed0", "cell-a0.9-b0.875", "metrics.csv"))
        assert baseline[0].step == 6  # stalled at three flat evals past step 0
        assert cell[0].step == 0

    def test_rows_per_seed(self, tmp_path):
        trainer = toy_trainer(lambda s, _: 0.2)
        records = ts.grid_search(trainer, self.grid(seeds=(0, 1)), str(tmp_path / "g"))
        assert len(records) == 20
        assert [r.seed for r in records] == [0] * 10 + [1] * 10

    def test_failed_cell_records_nan_and_the_sweep_continues(self, tmp_path):
        trainer = ts.Trainer(ToyCfg(), "batch_size", toy_run_or_fail)  # 40 * 0.8 = 32 fails
        records = ts.grid_search(
            trainer, self.grid(base_batch=40, base_samples=100), str(tmp_path / "g")
        )
        assert len(records) == 10
        failed = [r for r in records if math.isnan(r.test_success)]
        assert [r.row for r in failed] == [3, 6, 9]
        assert all(not math.isnan(r.test_success) for r in records if r.row not in (3, 6, 9))


def table_one_records():
    tests = {
        1: (1.0, 1.0, 330, 20000, 0.65, 0.60),
        2: (0.9, 1.0, 297, 20000, 0.71, 0.59),
        3: (0.8, 1.0, 264, 20000, 0.57, 0.49),
        4: (0.7, 1.0, 231, 20000, 0.67, 0.59),
        5: (0.9, 0.875, 297, 17500, 0.72, 0.67),
        6: (0.8, 0.875, 264, 17500, 0.65, 0.59),
        7: (0.7, 0.875, 231, 17500, 0.66, 0.60),
        8: (0.9, 0.75, 297, 15000, 0.65, 0.58),
        9: (0.8, 0.75, 264, 15000, 0.66, 0.55),
        10: (0.7, 0.75, 231, 15000, 0.64, 0.54),
    }
    return [
        ts.RunRecord(row, a, b, bb, ss, tr, te, 0, 20000)
        for row, (a, b, bb, ss, tr, te) in tests.items()
    ]


class TestRecommendScales:
    def test_published_table_recommends_point_nine_by_point_875(self):
        assert ts.recommend_scales(table_one_records()) == ts.ScalePair(0.9, 0.875)

    def test_single_row(self):
        rec = ts.RunRecord(2, 0.7, 0.75, 231, 15000, 0.5, 0.5, 0, 100)
        assert ts.recommend_scales([rec]) == ts.ScalePair(0.7, 0.75)

    def test_tie_prefers_larger_alpha_then_beta(self):
        rows = [
            ts.RunRecord(2, 0.8, 0.875, 264, 17500, 0.5, 0.6, 0, 10),
            ts.RunRecord(3, 0.9, 0.875, 297, 17500, 0.5, 0.6, 0, 10),
        ]
        assert ts.recommend_scales(rows) == ts.ScalePair(0.9, 0.875)
        rows = [
            ts.RunRecord(2, 0.9, 0.75, 297, 15000, 0.5, 0.6, 0, 10),
            ts.RunRecord(3, 0.9, 0.875, 297, 17500, 0.5, 0.6, 0, 10),
        ]
        assert ts.recommend_scales(rows) == ts.ScalePair(0.9, 0.875)

    def test_averages_across_seeds(self):
        rows = [
            ts.RunRecord(2, 0.9, 1.0, 297, 20000, 0.5, 0.9, 0, 10),
            ts.RunRecord(2, 0.9, 1.0, 297, 20000, 0.5, 0.1, 1, 10),  # mean 0.5
            ts.RunRecord(3, 0.7, 1.0, 231, 20000, 0.5, 0.6, 0, 10),
            ts.RunRecord(3, 0.7, 1.0, 231, 20000, 0.5, 0.6, 1, 10),  # mean 0.6
        ]
        assert ts.recommend_scales(rows) == ts.ScalePair(0.7, 1.0)

    def test_failed_rows_drop_out(self):
        rows = [
            ts.RunRecord(2, 0.9, 1.0, 297, 20000, float("nan"), float("nan"), 0, 10),
            ts.RunRecord(3, 0.7, 1.0, 231, 20000, 0.5, 0.4, 0, 10),
        ]
        assert ts.recommend_scales(rows) == ts.ScalePair(0.7, 1.0)

    def test_baseline_row_is_not_a_cell(self):
        # row 1 is the continued baseline at alpha = beta = 1: it neither
        # ranks on its own nor pools with an alpha = beta = 1 cell
        baseline = ts.RunRecord(1, 1.0, 1.0, 330, 20000, 0.9, 0.9, 0, 10)
        cell = ts.RunRecord(2, 0.9, 1.0, 297, 20000, 0.4, 0.4, 0, 10)
        assert ts.recommend_scales([baseline, cell]) == ts.ScalePair(0.9, 1.0)
        unit_cell = ts.RunRecord(3, 1.0, 1.0, 330, 20000, 0.1, 0.1, 0, 10)
        assert ts.recommend_scales([baseline, cell, unit_cell]) == ts.ScalePair(0.9, 1.0)
        with pytest.raises(ConfigError):
            ts.recommend_scales([baseline])

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigError):
            ts.recommend_scales([])


class TestRealTrainers:
    def test_ppo_two_stage_end_to_end(self, tmp_path):
        env_cfg = make_config("reach2d", horizon=40)
        pcfg = ppo.PPOConfig(
            samples_per_step=80, minibatch_size=40, epochs=2,
            total_steps=0, eval_period=80, eval_episodes=2,
        )
        trainer = ts.ppo_trainer(pcfg, env_cfg)
        hist, rec = ts.run_two_stage(
            trainer, ts.ScalePair(0.9, 0.875), 160, 80, seed=1, out_dir=str(tmp_path / "t")
        )
        stage1 = [r for r in hist if r.stage == 1]
        stage2 = [r for r in hist if r.stage == 2]
        assert stage1 and stage2
        assert stage2[0].step == ts.track_best(stage1).step
        assert (rec.batch, rec.samples) == (36, 70)  # 40 * 0.9, 80 * 0.875
        # stage two trained one rollout of the scaled size past the branch
        assert stage2[-1].step == stage2[0].step + 70

    def test_bc_grid_is_deterministic_and_branches_bit_exactly(self, tmp_path):
        env_cfg = make_config("reach2d")
        dataset = generate_demos(env_cfg, 3)
        bcfg = bc.BCConfig(
            batch_size=8, samples_per_step=16, total_steps=0, eval_period=2, eval_episodes=2
        )
        trainer = ts.bc_trainer(bcfg, dataset, env_cfg)
        grid = ts.GridSpec(
            alphas=(1.0, 0.5), betas=(1.0,), base_batch=8, base_samples=16,
            seeds=(0,), stage1_steps=4, stage2_steps=2,
        )
        first = ts.grid_search(trainer, grid, str(tmp_path / "a"))
        second = ts.grid_search(trainer, grid, str(tmp_path / "b"))
        assert first == second
        assert len(first) == 3  # baseline + two cells

        # both cells resumed the same checkpoint: their entry records match
        cell_a = read_metrics(str(tmp_path / "a" / "seed0" / "cell-a1.0-b1.0" / "metrics.csv"))
        cell_b = read_metrics(str(tmp_path / "a" / "seed0" / "cell-a0.5-b1.0" / "metrics.csv"))
        assert cell_a[0] == cell_b[0]

        # the identity cell continues stage one bit-exactly: growing the
        # stage-one budget by the stage-two budget lands on the same params
        stage1 = read_metrics(str(tmp_path / "a" / "seed0" / "stage1" / "metrics.csv"))
        best_step = ts.track_best([r for r in stage1 if r.stage == 1]).step
        straight = bc.train_bc(
            bc.BCConfig(batch_size=8, samples_per_step=16, total_steps=best_step + 2,
                        eval_period=2, eval_episodes=2),
            dataset, env_cfg, seed=0, out_dir=str(tmp_path / "straight"),
        )
        end_cell = load_checkpoint(
            str(tmp_path / "a" / "seed0" / "cell-a1.0-b1.0" / f"ckpt-{best_step + 2:08d}.ckpt")
        )
        end_straight = load_checkpoint(
            str(tmp_path / "straight" / f"ckpt-{best_step + 2:08d}.ckpt")
        )
        assert np.array_equal(end_cell.params, end_straight.params)
