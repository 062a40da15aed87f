"""Crash at every write, resume, and match the uninterrupted run.

Every run-directory file goes through persistence.replace_file.  For a
short PPO run, a short BC run and a short two-stage run, each test makes
that call raise at its n-th call, for every n the uninterrupted run
makes: once before the write and once after the rename.  The crashed run
then resumes, as a fresh process would, from the newest checkpoint that
loads (a fresh run if none does) with the remaining budget, into the same
directory.  A two-stage run resumes stage one in place that way, then
runs its stage-two leg from stage one's best checkpoint, or resumes the
leg in place from its own newest one.  The directory must then hold what
the uninterrupted run's holds: the same file names, so no ``.tmp``
leftover, the same checkpoint bytes, and the same metrics records (a
record holds no wall clock; its log line does).
"""

import os
import pathlib

import pytest

from deskrl import bc, envs, persistence as ps, ppo, twostage as ts
from deskrl.errors import DeskRLError
from deskrl.persistence import load_checkpoint, read_metrics

WRITES = 8  # four evaluations, each a checkpoint and a metrics line


class Crash(Exception):
    """The simulated crash; nothing in the package catches it."""


def crash_at(monkeypatch, n, after):
    """Make the n-th replace_file call (counting from 1) raise, before
    its write or after its rename; returns the list of calls made."""
    real = ps.replace_file
    calls = []

    def replace_file(path, data):
        calls.append(path)
        if len(calls) == n and not after:
            raise Crash(path)
        real(path, data)
        if len(calls) == n:
            raise Crash(path)

    monkeypatch.setattr(ps, "replace_file", replace_file)
    return calls


def newest_checkpoint(out):
    for name in sorted(os.listdir(out), reverse=True):
        if name.startswith("ckpt-"):
            try:
                return load_checkpoint(os.path.join(out, name))
            except DeskRLError:
                continue
    return None


def run_dir_state(out):
    names = sorted(os.listdir(out))
    checkpoints = {n: pathlib.Path(out, n).read_bytes() for n in names if n.startswith("ckpt-")}
    return names, checkpoints, read_metrics(os.path.join(out, "metrics.csv"))


def check_every_crash_point(tmp_path, monkeypatch, run, finish, writes, state=run_dir_state):
    """run(out) makes the uninterrupted run, `writes` replace_file calls,
    in out; finish(out) completes a run that crashed in out."""
    full = str(tmp_path / "full")
    calls = crash_at(monkeypatch, 0, False)
    run(full)
    assert len(calls) == writes
    want = state(full)
    for n in range(1, writes + 1):
        for after in (False, True):
            out = str(tmp_path / f"crash-{n}-{'after' if after else 'before'}")
            crash_at(monkeypatch, n, after)
            with pytest.raises(Crash):
                run(out)
            monkeypatch.undo()
            monkeypatch.setattr(ps, "_appended", ("", b"", 0, None))  # as a fresh process has it
            finish(out)
            assert state(out) == want, (n, after)


def check_single_run(tmp_path, monkeypatch, train, total):
    """train(total, out, resume) runs `total` steps of budget from `resume`."""

    def finish(out):
        resume = newest_checkpoint(out)
        train(total - (resume.step if resume else 0), out, resume)

    check_every_crash_point(tmp_path, monkeypatch, lambda out: train(total, out, None), finish, WRITES)


def test_ppo_run_survives_a_crash_at_every_write(tmp_path, monkeypatch):
    env_cfg = envs.make_config("reach2d", horizon=8)

    def train(total, out, resume):
        cfg = ppo.PPOConfig(
            samples_per_step=32, minibatch_size=16, epochs=1, total_steps=total, eval_period=32, eval_episodes=2
        )
        ppo.train_ppo(cfg, env_cfg, seed=0, out_dir=out, resume=resume)

    check_single_run(tmp_path, monkeypatch, train, total=96)


def test_bc_run_survives_a_crash_at_every_write(tmp_path, monkeypatch):
    env_cfg = envs.make_config("reach2d", horizon=16)
    demos = envs.generate_demos(env_cfg, 1, keep_only_success=False)  # 16 pairs
    dataset = bc.DemoDataset.from_trajectories(demos, env_cfg.fingerprint())

    def train(total, out, resume):
        cfg = bc.BCConfig(batch_size=4, samples_per_step=12, total_steps=total, eval_period=2, eval_episodes=2)
        bc.train_bc(cfg, dataset, env_cfg, seed=0, out_dir=out, resume=resume)

    check_single_run(tmp_path, monkeypatch, train, total=6)


def test_two_stage_run_survives_a_crash_at_every_write(tmp_path, monkeypatch):
    # stage one evaluates at 0, 32 and 64, the leg at its entry and 32 steps on
    env_cfg = envs.make_config("reach2d", horizon=8)
    base = ppo.PPOConfig(samples_per_step=32, minibatch_size=16, epochs=1, eval_period=32, eval_episodes=1)
    trainer, scales = ts.ppo_trainer(base, env_cfg), ts.ScalePair(0.5, 0.5)
    batch1, samples1 = ts.scale_hyperparams(base.minibatch_size, base.samples_per_step, scales)
    stage1_steps, stage2_steps = 64, 32

    def finish(out):
        stage1_dir, leg_dir = os.path.join(out, "stage1"), os.path.join(out, "stage2")
        # run_stage_one's trainer call, from the newest checkpoint that loads; in
        # place, its history starts with the log's records, which the stall hook reads
        resume = newest_checkpoint(stage1_dir) if os.path.isdir(stage1_dir) else None
        left = stage1_steps - (resume.step if resume else 0)
        cfg = trainer.sized_cfg(base.minibatch_size, base.samples_per_step, left)
        history = trainer.run(cfg, seed=0, out_dir=stage1_dir, resume=resume, stage=1, should_stop=ts._stalled)
        best = ts.track_best(history).step
        leg = newest_checkpoint(leg_dir) if os.path.isdir(leg_dir) else None
        source, step = (leg_dir, leg.step) if leg else (stage1_dir, best)
        ts._run_leg(trainer, source, step, batch1, samples1, stage2_steps - (step - best), 0, leg_dir, 2)

    def state(out):
        return sorted(os.listdir(out)), [run_dir_state(os.path.join(out, d)) for d in ("stage1", "stage2")]

    def run(out):
        ts.run_two_stage(trainer, scales, stage1_steps, stage2_steps, 0, out)

    check_every_crash_point(tmp_path, monkeypatch, run, finish, writes=10, state=state)
