"""Behavior cloning: the positional sampler, the regression loss against
finite differences, and resume bit-exactness of the outer-step loop."""

import dataclasses
import os

import numpy as np
import pytest

from deskrl import bc, loop, nn, persistence, policy as pol
from deskrl.envs import DemoDataset, generate_demos, make_config
from deskrl.errors import ConfigError, NonFiniteError, ResumeError
from deskrl.persistence import checkpoint_name, load_checkpoint, read_metrics, save_checkpoint
from deskrl.rng import make_generator, state_words


@pytest.fixture(scope="module")
def reach_demos():
    cfg = make_config("reach2d")
    return cfg, generate_demos(cfg, 4)


def fresh_policy(task="reach2d", seed=0):
    spec = pol.build_policy_spec(task)
    store = nn.ParamStore()
    pol.init_policy(store, spec, make_generator(seed, "bct", "init", task))
    return store, spec


def small_cfg(**overrides):
    base = dict(
        batch_size=16,
        samples_per_step=32,
        total_steps=6,
        eval_period=4,
        eval_episodes=3,
    )
    base.update(overrides)
    return bc.BCConfig(**base)


def assert_logged_steps_have_checkpoints(out_dir, steps):
    """The log holds exactly `steps`, and each has a readable checkpoint."""
    log = out_dir / "metrics.csv"
    logged = [r.step for r in read_metrics(str(log))] if log.exists() else []
    assert logged == steps
    for step in logged:
        assert load_checkpoint(str(out_dir / checkpoint_name(step))).step == step


class TestBCConfig:
    def test_defaults_construct(self):
        cfg = bc.BCConfig()
        assert cfg.batch_size == 64
        assert cfg.samples_per_step == 256

    @pytest.mark.parametrize(
        "overrides",
        [
            {"batch_size": 0},
            {"batch_size": 33, "samples_per_step": 32},
            {"learning_rate": 0.0},
            {"total_steps": -1},
            {"eval_period": 0},
            {"eval_episodes": 0},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"log_std0": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ConfigError):
            small_cfg(**overrides)


class TestDemoDataset:
    def test_pools_in_trajectory_order(self, reach_demos):
        # episode after episode in seed order: the first rows are the first
        # seed's episode alone, and the episodes' slices pool back to the arrays
        cfg, _ = reach_demos
        ds = generate_demos(cfg, 4, keep_only_success=False)
        first = generate_demos(cfg, 1, keep_only_success=False)
        assert len(ds.lengths) == len(ds.successes) == 4 and ds.size == sum(ds.lengths)
        assert (first.lengths, first.successes) == (ds.lengths[:1], ds.successes[:1])
        T0 = ds.lengths[0]
        assert ds.points[:T0].tobytes() == first.points.tobytes()
        assert ds.actions[:T0].tobytes() == first.actions.tobytes()
        pooled = [np.concatenate(rows) for rows in zip(*ds.episodes())]
        assert [a.tobytes() for a in pooled] == [a.tobytes() for a in (ds.points, ds.proprios, ds.actions)]

    def test_rejects_empty(self):
        with pytest.raises(ConfigError, match="at least one pair"):
            DemoDataset(np.zeros((0, 2, 5)), np.zeros((0, 8)), np.zeros((0, 2)), "x", (), ())

    def test_rejects_mismatched_counts(self):
        with pytest.raises(ConfigError):
            DemoDataset(
                points=np.zeros((4, 2, 5)),
                proprios=np.zeros((3, 8)),
                actions=np.zeros((4, 2)),
                fingerprint="x",
                lengths=(4,),
                successes=(True,),
            )

    @pytest.mark.parametrize("lengths", [(1, 2), (2, 3), (5,)])
    def test_rejects_lengths_that_do_not_sum_to_the_rows(self, lengths):
        with pytest.raises(ConfigError, match="lengths sum to"):
            DemoDataset(np.zeros((4, 2, 5)), np.zeros((4, 8)), np.zeros((4, 2)), "x", lengths, (True,) * len(lengths))

    @pytest.mark.parametrize("successes", [(), (True,), (True, False, True)])
    def test_rejects_success_flags_for_another_episode_count(self, successes):
        with pytest.raises(ConfigError, match="success flags for 2 episodes"):
            DemoDataset(np.zeros((4, 2, 5)), np.zeros((4, 8)), np.zeros((4, 2)), "x", (1, 3), successes)


class TestStreamIndices:
    def test_aligned_window_covers_each_epoch_exactly_once(self):
        for epoch in range(3):
            idx = bc.stream_indices(5, 40, epoch * 40, 40)
            assert np.array_equal(np.sort(idx), np.arange(40))

    def test_positions_are_a_pure_function_of_the_counter(self):
        # reading one long window or many short ones must give the same
        # stream; this is exactly what makes resume bit-exact without
        # any sampler state in the checkpoint
        long = bc.stream_indices(7, 30, 0, 90)
        short = np.concatenate([bc.stream_indices(7, 30, s, 1) for s in range(90)])
        assert np.array_equal(long, short)
        blocks = np.concatenate([bc.stream_indices(7, 30, s, 15) for s in range(0, 90, 15)])
        assert np.array_equal(long, blocks)

    def test_straddling_block_joins_two_permutations(self):
        M = 25
        window = bc.stream_indices(3, M, M - 4, 8)
        tail = bc.stream_indices(3, M, M - 4, 4)
        head = bc.stream_indices(3, M, M, 4)
        assert np.array_equal(window, np.concatenate([tail, head]))

    def test_epochs_get_distinct_permutations(self):
        a = bc.stream_indices(0, 50, 0, 50)
        b = bc.stream_indices(0, 50, 50, 50)
        assert not np.array_equal(a, b)

    def test_seed_changes_the_stream(self):
        assert not np.array_equal(
            bc.stream_indices(0, 50, 0, 50), bc.stream_indices(1, 50, 0, 50)
        )

    def test_cached_permutations_equal_the_uncached_definition(self):
        # each epoch's permutation is kept for the outer steps that read it;
        # blocks straddle epoch boundaries, a resume starts mid-epoch with a
        # cold cache, and another seed and size interleave with the run
        def uncached(seed, M, start, count):
            n_epochs = (start + count) // M + 1
            perms = np.concatenate([make_generator(seed, "bc", "perm", e).permutation(M) for e in range(n_epochs)])
            return perms[start : start + count]

        M, S = 37, 16
        bc._epoch_permutation.cache_clear()
        for step in range(12):
            assert np.array_equal(bc.stream_indices(3, M, step * S, S), uncached(3, M, step * S, S))
            assert np.array_equal(bc.stream_indices(4, 29, step * S, S), uncached(4, 29, step * S, S))
        bc._epoch_permutation.cache_clear()  # a resumed run's process starts cold
        for step in range(7, 12):
            assert np.array_equal(bc.stream_indices(3, M, step * S, S), uncached(3, M, step * S, S))
        assert bc._epoch_permutation.cache_info().currsize <= 4
        with pytest.raises(ValueError):
            bc._epoch_permutation(3, M, 0)[0] = 0  # shared, so read-only

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            bc.stream_indices(0, 0, 0, 4)
        with pytest.raises(ConfigError):
            bc.stream_indices(0, 10, -1, 4)
        with pytest.raises(ConfigError):
            bc.stream_indices(0, 10, 0, -4)


class TestBCLoss:
    def test_matches_manual_mse(self, reach_demos):
        _, ds = reach_demos
        store, spec = fresh_policy()
        idx = np.arange(6)
        loss, _ = bc.bc_loss(store, spec, ds.points[idx], ds.proprios[idx], ds.actions[idx])
        from deskrl import pointnet

        enc = pointnet.encode_batch(store, spec.encoder, ds.points[idx], ds.proprios[idx])
        mean = nn.forward_batch(store, spec.mean, enc, "mean")
        assert loss == pytest.approx(float(np.mean(np.sum((mean - ds.actions[idx]) ** 2, axis=1))))

    def test_zero_at_the_target(self, reach_demos):
        # clone the network's own outputs: perfect fit, flat gradient
        _, ds = reach_demos
        store, spec = fresh_policy()
        from deskrl import pointnet

        idx = np.arange(5)
        enc = pointnet.encode_batch(store, spec.encoder, ds.points[idx], ds.proprios[idx])
        mean = nn.forward_batch(store, spec.mean, enc, "mean")
        loss, grad = bc.bc_loss(store, spec, ds.points[idx], ds.proprios[idx], mean)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_gradient_matches_finite_differences(self, reach_demos):
        _, ds = reach_demos
        store, spec = fresh_policy(seed=3)
        idx = np.arange(4)
        args = (ds.points[idx], ds.proprios[idx], ds.actions[idx])
        _, grad = bc.bc_loss(store, spec, *args)

        picker = np.random.default_rng(13)
        coords = picker.choice(store.size, size=48, replace=False)
        for c in coords:
            base = store.flat[c]
            h = 1e-6 * max(1.0, abs(base))
            store.flat[c] = base + h
            up, _ = bc.bc_loss(store, spec, *args)
            store.flat[c] = base - h
            down, _ = bc.bc_loss(store, spec, *args)
            store.flat[c] = base
            fd = (up - down) / (2.0 * h)
            denom = max(abs(fd), abs(grad[c]), 1e-8)
            assert abs(fd - grad[c]) / denom <= 1e-4, f"coordinate {c}"

    def test_value_head_and_log_std_stay_untouched(self, reach_demos):
        _, ds = reach_demos
        store, spec = fresh_policy()
        idx = np.arange(8)
        _, grad = bc.bc_loss(store, spec, ds.points[idx], ds.proprios[idx], ds.actions[idx])
        for name, _, _ in store.directory():
            lo, hi = store.slice_bounds(name)
            segment = grad[lo:hi]
            if name.startswith("value") or name == "log_std":
                assert not segment.any(), name
            elif name.startswith("mean"):
                assert segment.any(), name


class TestTrainBC:
    def test_eval_cadence_and_artifacts(self, reach_demos, tmp_path):
        cfg, ds = reach_demos
        out = str(tmp_path / "run")
        hist = bc.train_bc(small_cfg(), ds, cfg, seed=1, out_dir=out)
        assert [r.step for r in hist] == [0, 4, 6]
        assert all(r.stage == 1 for r in hist)
        assert read_metrics(os.path.join(out, "metrics.csv")) == hist
        for step in (0, 4, 6):
            assert os.path.exists(os.path.join(out, f"ckpt-{step:08d}.ckpt"))
        assert load_checkpoint(os.path.join(out, "ckpt-00000006.ckpt")).trainer_kind == "bc"

    @pytest.mark.parametrize("fail_at", [1, 2, 3])
    def test_failed_checkpoint_leaves_no_logged_step_without_one(
        self, reach_demos, tmp_path, monkeypatch, fail_at
    ):
        cfg, ds = reach_demos
        saves = []

        def save_or_fail(path, ckpt):
            saves.append(ckpt.step)
            if len(saves) == fail_at:
                raise OSError("no space left on device")
            persistence.save_checkpoint(path, ckpt)

        monkeypatch.setattr(loop, "save_checkpoint", save_or_fail)
        with pytest.raises(OSError, match="no space"):
            bc.train_bc(small_cfg(eval_episodes=1), ds, cfg, seed=1, out_dir=str(tmp_path))
        assert_logged_steps_have_checkpoints(tmp_path, [0, 4, 6][: fail_at - 1])

    @pytest.mark.parametrize("fail_at", [1, 2, 3])
    def test_failed_log_write_keeps_the_previous_log(
        self, reach_demos, tmp_path, monkeypatch, fail_at
    ):
        # the rename that replaces the log fails: the log keeps its old bytes
        cfg, ds = reach_demos
        log = tmp_path / "metrics.csv"
        steps, before = [], []

        def refuse(src, dst):
            raise OSError("rename refused")

        def append_or_fail(held, record):
            steps.append(record.step)
            if len(steps) < fail_at:
                return persistence.append_metrics(held, record)
            before.append(log.read_bytes() if log.exists() else None)
            with monkeypatch.context() as m:
                m.setattr(os, "replace", refuse)
                persistence.append_metrics(held, record)

        monkeypatch.setattr(loop, "append_metrics", append_or_fail)
        with pytest.raises(OSError, match="rename refused"):
            bc.train_bc(small_cfg(eval_episodes=1), ds, cfg, seed=1, out_dir=str(tmp_path))
        assert before == [log.read_bytes() if log.exists() else None]
        assert_logged_steps_have_checkpoints(tmp_path, steps[:-1])
        assert os.path.exists(tmp_path / checkpoint_name(steps[-1]))

    def test_zero_budget_only_evaluates_once(self, reach_demos, tmp_path):
        cfg, ds = reach_demos
        hist = bc.train_bc(small_cfg(total_steps=0), ds, cfg, seed=1, out_dir=str(tmp_path / "z"))
        assert len(hist) == 1
        assert hist[0].step == 0

    def test_one_adam_step_per_minibatch(self, reach_demos, tmp_path):
        cfg, ds = reach_demos
        bc.train_bc(small_cfg(total_steps=3, eval_period=3), ds, cfg, seed=1, out_dir=str(tmp_path / "t"))
        ck = load_checkpoint(str(tmp_path / "t" / "ckpt-00000003.ckpt"))
        assert ck.adam.t == 6  # 3 outer steps x (32 / 16) minibatches

    def test_identical_runs_are_bit_identical(self, reach_demos, tmp_path):
        cfg, ds = reach_demos
        h1 = bc.train_bc(small_cfg(), ds, cfg, seed=2, out_dir=str(tmp_path / "a"))
        h2 = bc.train_bc(small_cfg(), ds, cfg, seed=2, out_dir=str(tmp_path / "b"))
        assert h1 == h2
        ca = load_checkpoint(str(tmp_path / "a" / "ckpt-00000006.ckpt"))
        cb = load_checkpoint(str(tmp_path / "b" / "ckpt-00000006.ckpt"))
        assert np.array_equal(ca.params, cb.params)

    def test_resume_matches_uninterrupted_run(self, reach_demos, tmp_path):
        cfg, ds = reach_demos
        full = bc.train_bc(small_cfg(eval_period=2), ds, cfg, seed=4, out_dir=str(tmp_path / "full"))
        bc.train_bc(small_cfg(total_steps=4, eval_period=2), ds, cfg, seed=4, out_dir=str(tmp_path / "a"))
        second = bc.train_bc(
            small_cfg(total_steps=2, eval_period=2),
            ds,
            cfg,
            seed=4,
            out_dir=str(tmp_path / "b"),
            restore=str(tmp_path / "a" / "ckpt-00000004.ckpt"),
        )
        merged = read_metrics(str(tmp_path / "a" / "metrics.csv")) + second[1:]
        assert merged == full
        end_full = load_checkpoint(str(tmp_path / "full" / "ckpt-00000006.ckpt"))
        end_split = load_checkpoint(str(tmp_path / "b" / "ckpt-00000006.ckpt"))
        assert np.array_equal(end_full.params, end_split.params)
        assert np.array_equal(end_full.adam.m, end_split.adam.m)
        assert end_full.adam.t == end_split.adam.t

    def test_resume_records_the_checkpoint_rates_without_evaluating(self, reach_demos, tmp_path, monkeypatch):
        cfg, ds = reach_demos
        bc.train_bc(small_cfg(total_steps=2, eval_period=2), ds, cfg, seed=4, out_dir=str(tmp_path / "a"))
        path = str(tmp_path / "a" / "ckpt-00000002.ckpt")
        restore = load_checkpoint(path)
        calls = []
        evaluate = pol.evaluate_policy
        monkeypatch.setattr(pol, "evaluate_policy", lambda *args: calls.append(args) or evaluate(*args))
        second = bc.train_bc(
            small_cfg(total_steps=2, eval_period=2), ds, cfg, seed=4, out_dir=str(tmp_path / "b"), restore=path
        )
        assert (second[0].step, second[0].train_success, second[0].test_success) == (
            2, restore.train_success, restore.test_success
        )
        assert len(calls) == 1  # both splits at step 4 only

    def test_checkpoints_store_the_fresh_run_stream(self, reach_demos, tmp_path):
        # BC never draws from its run stream: every checkpoint, resumed or
        # not, stores the words of the stream a fresh run starts with
        cfg, ds = reach_demos
        bc.train_bc(small_cfg(total_steps=2, eval_period=2), ds, cfg, seed=4, out_dir=str(tmp_path / "a"))
        bc.train_bc(small_cfg(total_steps=2, eval_period=2), ds, cfg, seed=4, out_dir=str(tmp_path / "b"),
                    restore=str(tmp_path / "a" / "ckpt-00000002.ckpt"))
        fresh = state_words(make_generator(4, "bc", "train", cfg.task)).tobytes()
        for path in (tmp_path / "a" / "ckpt-00000000.ckpt", tmp_path / "b" / "ckpt-00000004.ckpt"):
            assert load_checkpoint(str(path)).rng_words.tobytes() == fresh

    def test_resume_rejects_another_seed(self, reach_demos, tmp_path):
        cfg, ds = reach_demos
        bc.train_bc(small_cfg(total_steps=0), ds, cfg, seed=1, out_dir=str(tmp_path / "r"))
        ck = str(tmp_path / "r" / "ckpt-00000000.ckpt")
        with pytest.raises(ResumeError, match="seed 1, not 2"):
            bc.train_bc(small_cfg(), ds, cfg, seed=2, out_dir=str(tmp_path / "x"), restore=ck)

    def test_resume_rejects_another_learning_rate(self, reach_demos, tmp_path):
        cfg, ds = reach_demos
        run = tmp_path / "r"
        bc.train_bc(small_cfg(total_steps=0), ds, cfg, seed=1, out_dir=str(run))
        ck = str(run / "ckpt-00000000.ckpt")
        with pytest.raises(ResumeError, match="learning rate 0.001, not 0.01"):
            bc.train_bc(small_cfg(learning_rate=1e-2), ds, cfg, seed=1, out_dir=str(tmp_path / "x"), restore=ck)
        assert not os.path.exists(tmp_path / "x")
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        with pytest.raises(ResumeError, match="learning rate 0.001, not 0.01"):
            bc.train_bc(small_cfg(learning_rate=1e-2), ds, cfg, seed=1, out_dir=str(run), reset_optimizer=True)
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_a_log_past_the_budget_is_refused_before_any_write(self, reach_demos, tmp_path):
        # the logged steps count from the log's first record, here the restore
        # point's; a log that holds more than the call's budget is refused
        cfg, ds = reach_demos
        bc.train_bc(small_cfg(total_steps=4), ds, cfg, seed=1, out_dir=str(tmp_path / "a"))
        run = tmp_path / "b"
        restore = str(tmp_path / "a" / "ckpt-00000004.ckpt")
        history = bc.train_bc(small_cfg(), ds, cfg, seed=1, out_dir=str(run), restore=restore)
        assert [r.step for r in history] == [4, 8, 10]
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        with pytest.raises(ResumeError, match="metrics.csv logs 6 steps, more than this call's budget of 5"):
            bc.train_bc(small_cfg(total_steps=5), ds, cfg, seed=1, out_dir=str(run), restore=restore)
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before
        # the budget the log was taken from still finishes it, writing nothing
        assert bc.train_bc(small_cfg(), ds, cfg, seed=1, out_dir=str(run), restore=restore) == history
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_training_reduces_the_cloning_loss(self, reach_demos, tmp_path):
        cfg, ds = reach_demos
        store, spec = fresh_policy(seed=1)
        probe = np.arange(16)
        before, _ = bc.bc_loss(store, spec, ds.points[probe], ds.proprios[probe], ds.actions[probe])
        bc.train_bc(small_cfg(total_steps=10, eval_period=10, eval_episodes=1), ds, cfg, seed=1,
                    out_dir=str(tmp_path / "l"))
        ck = load_checkpoint(str(tmp_path / "l" / "ckpt-00000010.ckpt"))
        trained = ck.param_store()
        after, _ = bc.bc_loss(trained, spec, ds.points[probe], ds.proprios[probe], ds.actions[probe])
        assert after < before

    def test_rejects_foreign_dataset(self, reach_demos, tmp_path):
        cfg, ds = reach_demos
        other = make_config("reach2d", horizon=cfg.horizon + 5)
        with pytest.raises(ConfigError):
            bc.train_bc(small_cfg(), ds, other, seed=0, out_dir=str(tmp_path / "x"))

    def test_rejects_oversized_sample_block(self, reach_demos, tmp_path):
        cfg, ds = reach_demos
        with pytest.raises(ConfigError):
            bc.train_bc(
                small_cfg(samples_per_step=ds.size + 1, batch_size=1),
                ds,
                cfg,
                seed=0,
                out_dir=str(tmp_path / "x"),
            )

    def test_resume_rejects_ppo_checkpoint(self, reach_demos, tmp_path):
        cfg, ds = reach_demos
        bc.train_bc(small_cfg(total_steps=0), ds, cfg, seed=1, out_dir=str(tmp_path / "r"))
        ck = load_checkpoint(str(tmp_path / "r" / "ckpt-00000000.ckpt"))
        ppo_ck = str(tmp_path / "ppo.ckpt")
        save_checkpoint(ppo_ck, dataclasses.replace(ck, trainer_kind="ppo"))
        with pytest.raises(ResumeError):
            bc.train_bc(small_cfg(), ds, cfg, seed=1, out_dir=str(tmp_path / "x"), restore=ppo_ck)

    def test_stage_is_stamped_into_records(self, reach_demos, tmp_path):
        cfg, ds = reach_demos
        hist = bc.train_bc(
            small_cfg(total_steps=2, eval_period=2), ds, cfg, seed=1,
            out_dir=str(tmp_path / "s"), stage=2
        )
        assert all(r.stage == 2 for r in hist)

    def test_nonfinite_loss_names_the_step(self, reach_demos, tmp_path):
        cfg, ds = reach_demos
        poisoned = dataclasses.replace(ds, actions=np.full_like(ds.actions, np.nan))
        with pytest.raises(NonFiniteError, match="outer step"):
            bc.train_bc(small_cfg(), poisoned, cfg, seed=1, out_dir=str(tmp_path / "n"))

    @pytest.mark.parametrize("param", ["enc.post.W0", "mean.W1"])
    def test_nonfinite_parameter_stops_before_adam(self, reach_demos, tmp_path, monkeypatch, param):
        # the post net and the mean head run unchecked; the loss check must
        # still stop a NaN parameter before the optimizer moves
        cfg, ds = reach_demos
        init = pol.init_policy

        def poisoned(store, spec, gen, log_std0):
            init(store, spec, gen, log_std0)
            store.get(param)[0, 0] = np.nan

        steps = []
        monkeypatch.setattr(pol, "init_policy", poisoned)
        monkeypatch.setattr(nn, "adam_step", lambda *args: steps.append(args))
        # the entry evaluation's head check would stop it first
        monkeypatch.setattr(pol, "evaluate_policy", lambda *args: (0.0, 0.0))
        with pytest.raises(NonFiniteError, match="outer step 0, minibatch 0"):
            bc.train_bc(small_cfg(), ds, cfg, seed=1, out_dir=str(tmp_path / "n"))
        assert steps == []
