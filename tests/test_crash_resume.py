"""Crash at every write, run again, and match the uninterrupted run.

Every run-directory file goes through persistence.replace_file.  For a
short PPO run, a short BC run, a short two-stage run, a short grid and
short `deskrl train` and `train-bc` commands, each test makes that call
raise at its n-th call, for every n the uninterrupted run makes: once
before the write and once after the rename.  The crashed run then
finishes as a fresh process would: the same call is simply run again
over its directory, and each trainer call in it starts in place, from
its restore checkpoint or fresh (`loop.train`).  The directory must then
hold what the uninterrupted run's holds: the same file names, so no
``.tmp`` leftover, the same checkpoint bytes, and the same metrics
records (a record holds no wall clock; its log line does).
"""

import os
import pathlib

import pytest

from deskrl import bc, cli, envs, persistence as ps, ppo, twostage as ts
from deskrl.persistence import read_metrics

WRITES = 8  # four evaluations, each a checkpoint and a metrics line


class Crash(Exception):
    """The simulated crash; nothing in the package catches it."""


def crash_at(monkeypatch, n, after):
    """Make the n-th replace_file call (counting from 1) raise, before
    its write or after its rename; returns the list of calls made."""
    real = ps.replace_file
    calls = []

    def replace_file(path, *parts):
        calls.append(path)
        if len(calls) == n and not after:
            raise Crash(path)
        real(path, *parts)
        if len(calls) == n:
            raise Crash(path)

    monkeypatch.setattr(ps, "replace_file", replace_file)
    return calls


def run_dir_state(out):
    names = sorted(os.listdir(out))
    checkpoints = {n: pathlib.Path(out, n).read_bytes() for n in names if n.startswith("ckpt-")}
    return names, checkpoints, read_metrics(os.path.join(out, "metrics.csv"))


def check_every_crash_point(tmp_path, monkeypatch, run, writes, state=run_dir_state):
    """run(out) makes the uninterrupted run, `writes` replace_file calls,
    in out, and run again over a crashed out it completes that run."""
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
            run(out)
            assert state(out) == want, (n, after)


def test_ppo_run_survives_a_crash_at_every_write(tmp_path, monkeypatch):
    env_cfg = envs.make_config("reach2d", horizon=8)
    cfg = ppo.PPOConfig(
        samples_per_step=32, minibatch_size=16, epochs=1, total_steps=96, eval_period=32, eval_episodes=2
    )

    def run(out):
        ppo.train_ppo(cfg, env_cfg, seed=0, out_dir=out)

    check_every_crash_point(tmp_path, monkeypatch, run, WRITES)


def test_bc_run_survives_a_crash_at_every_write(tmp_path, monkeypatch):
    env_cfg = envs.make_config("reach2d", horizon=16)
    dataset = envs.generate_demos(env_cfg, 1, keep_only_success=False)  # 16 pairs
    cfg = bc.BCConfig(batch_size=4, samples_per_step=12, total_steps=6, eval_period=2, eval_episodes=2)

    def run(out):
        bc.train_bc(cfg, dataset, env_cfg, seed=0, out_dir=out)

    check_every_crash_point(tmp_path, monkeypatch, run, WRITES)


def leg_dirs_state(out, legs):
    return sorted(os.listdir(out)), [run_dir_state(os.path.join(out, d)) for d in legs]


def test_two_stage_run_survives_a_crash_at_every_write(tmp_path, monkeypatch):
    # stage one evaluates at 0, 32 and 64, the leg at its entry, 32 and 64
    # steps on; the leg resets Adam at its entry, and only there
    env_cfg = envs.make_config("reach2d", horizon=8)
    base = ppo.PPOConfig(samples_per_step=32, minibatch_size=16, epochs=1, eval_period=32, eval_episodes=1)
    trainer = ts.ppo_trainer(base, env_cfg)

    def run(out):
        ts.run_two_stage(trainer, ts.ScalePair(0.5, 0.5), 64, 64, 0, out, reset_optimizer=True)

    def state(out):
        return leg_dirs_state(out, ("stage1", "stage2"))

    check_every_crash_point(tmp_path, monkeypatch, run, writes=12, state=state)


def test_grid_survives_a_crash_at_every_write(tmp_path, monkeypatch):
    # stage one evaluates at 0, 32 and 64; the baseline, from stage one's
    # last checkpoint, and one cell, from its best, each at their entry and
    # 32 steps on; then results.csv
    env_cfg = envs.make_config("reach2d", horizon=8)
    base = ppo.PPOConfig(epochs=1, eval_period=32, eval_episodes=1)
    grid = ts.GridSpec(
        alphas=(0.5,), betas=(0.5,), base_batch=16, base_samples=32, stage1_steps=64, stage2_steps=32
    )
    legs = ("stage1", "baseline", "cell-a0.5-b0.5")

    def run(out):
        ts.grid_search(ts.ppo_trainer(base, env_cfg), grid, out)

    def state(out):
        results = pathlib.Path(out, "results.csv").read_bytes()
        return sorted(os.listdir(out)), results, leg_dirs_state(os.path.join(out, "seed0"), legs)

    check_every_crash_point(tmp_path, monkeypatch, run, writes=15, state=state)


@pytest.mark.parametrize("command", ["train", "train-bc"])
def test_a_train_command_run_again_finishes_its_crashed_run(command, tmp_path, monkeypatch):
    # the short PPO and BC runs above as commands, each finished by the same
    # command run again over its own --out; the manifest is their first write
    def as_argv(settings):
        return [arg for key, value in settings.items() for arg in ("--set", f"{key}={value}")]

    env = {"run.task": "reach2d", "run.horizon": 8 if command == "train" else 16}
    if command == "train":
        sized = {"ppo.samples_per_step": 32, "ppo.minibatch_size": 16, "ppo.epochs": 1, "ppo.total_steps": 96,
                 "ppo.eval_period": 32, "ppo.eval_episodes": 2}
    else:
        demos = tmp_path / "demos"
        more = {"demos.count": 1, "demos.keep_only_success": "false"}  # 16 pairs
        assert cli.main(["gen-demos", "--out", str(demos), *as_argv({**env, **more})]) == 0
        sized = {"bc.demos": demos / "demos.bin", "bc.batch_size": 4, "bc.samples_per_step": 12,
                 "bc.total_steps": 6, "bc.eval_period": 2, "bc.eval_episodes": 2}

    def run(out):
        assert cli.main([command, "--out", out, *as_argv({**env, **sized})]) == 0

    check_every_crash_point(tmp_path, monkeypatch, run, WRITES + 1)
