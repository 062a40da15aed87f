"""Crash at every write, resume, and match the uninterrupted run.

Every run-directory file goes through persistence.replace_file.  For a
short PPO run and a short BC run, each test makes that call raise at its
n-th call, for every n the uninterrupted run makes: once before the
write and once after the rename.  The crashed run then resumes, as a
fresh process would, from the newest checkpoint that loads (a fresh run
if none does) with the remaining budget, into the same directory.  The
directory must then hold what the uninterrupted run's holds: the same
file names, so no ``.tmp`` leftover, the same checkpoint bytes, and the
same metrics records (a record holds no wall clock; its log line does).
"""

import os
import pathlib

import pytest

from deskrl import bc, envs, persistence as ps, ppo
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


def check_every_crash_point(tmp_path, monkeypatch, train, total):
    """train(total, out, resume) runs `total` steps of budget from `resume`."""
    full = str(tmp_path / "full")
    calls = crash_at(monkeypatch, 0, False)
    train(total, full, None)
    assert len(calls) == WRITES
    want = run_dir_state(full)
    for n in range(1, WRITES + 1):
        for after in (False, True):
            out = str(tmp_path / f"crash-{n}-{'after' if after else 'before'}")
            crash_at(monkeypatch, n, after)
            with pytest.raises(Crash):
                train(total, out, None)
            monkeypatch.undo()
            monkeypatch.setattr(ps, "_appended", ("", b"", 0, None))  # as a fresh process has it
            resume = newest_checkpoint(out)
            train(total - (resume.step if resume else 0), out, resume)
            assert run_dir_state(out) == want, (n, after)


def test_ppo_run_survives_a_crash_at_every_write(tmp_path, monkeypatch):
    env_cfg = envs.make_config("reach2d", horizon=8)

    def train(total, out, resume):
        cfg = ppo.PPOConfig(
            samples_per_step=32, minibatch_size=16, epochs=1, total_steps=total, eval_period=32, eval_episodes=2
        )
        ppo.train_ppo(cfg, env_cfg, seed=0, out_dir=out, resume=resume)

    check_every_crash_point(tmp_path, monkeypatch, train, total=96)


def test_bc_run_survives_a_crash_at_every_write(tmp_path, monkeypatch):
    env_cfg = envs.make_config("reach2d", horizon=16)
    demos = envs.generate_demos(env_cfg, 1, keep_only_success=False)  # 16 pairs
    dataset = bc.DemoDataset.from_trajectories(demos, env_cfg.fingerprint())

    def train(total, out, resume):
        cfg = bc.BCConfig(batch_size=4, samples_per_step=12, total_steps=total, eval_period=2, eval_episodes=2)
        bc.train_bc(cfg, dataset, env_cfg, seed=0, out_dir=out, resume=resume)

    check_every_crash_point(tmp_path, monkeypatch, train, total=6)
