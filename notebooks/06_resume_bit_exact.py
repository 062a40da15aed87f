"""Checkpoint resume is bit-exact, not approximately right.

An uninterrupted run and a split run (train, stop at a checkpoint, then
run the same call again over its directory, which restores that
checkpoint and continues) produce byte-identical parameters, optimizer
moments, and metric histories.  Nothing here is tolerance-based: the run
generator's state rides in the checkpoint, and each rollout keys its
lanes' streams (episode seeds and action noise, one stream per lane of
the lockstep rollout) from it at the rollout start, so no lane state
outlives a rollout.  PPO's reference log-probabilities are the ones each
rollout records, so nothing about them outlives the iteration either,
and the BC sampler derives its stream position from the step counter
alone.  The run below collects 80 samples per rollout at horizon 40:
two lanes of 40 steps.
"""

import atexit
import os
import shutil
import tempfile
from dataclasses import replace

import numpy as np

from deskrl.envs import make_config
from deskrl.persistence import load_checkpoint
from deskrl.ppo import PPOConfig, train_ppo

env_cfg = make_config("reach2d", horizon=40)
base = replace(
    PPOConfig(),
    samples_per_step=80,
    minibatch_size=40,
    epochs=2,
    total_steps=240,
    eval_period=80,
    eval_episodes=4,
)
work = tempfile.mkdtemp(prefix="resume-")
atexit.register(shutil.rmtree, work)

full = train_ppo(base, env_cfg, seed=7, out_dir=os.path.join(work, "full"))
print(f"uninterrupted: {len(full)} evaluations, steps {[r.step for r in full]}")

split = os.path.join(work, "split")
first = train_ppo(replace(base, total_steps=160), env_cfg, seed=7, out_dir=split)
ckpt = load_checkpoint(os.path.join(split, "ckpt-00000160.ckpt"))
print(f"stopped at step {ckpt.step}; run again, the call restores it from disk")

# the same call again: it starts at its log's last record, for the budget left
second = train_ppo(base, env_cfg, seed=7, out_dir=split)

# the rerun returns the records logged before the stop, then its own
assert second[: len(first)] == first
assert second == full
print("metric histories match record for record")

end_full = load_checkpoint(os.path.join(work, "full", "ckpt-00000240.ckpt"))
end_split = load_checkpoint(os.path.join(split, "ckpt-00000240.ckpt"))
assert np.array_equal(end_full.params, end_split.params)
assert np.array_equal(end_full.adam.m, end_split.adam.m)
assert np.array_equal(end_full.adam.v, end_split.adam.v)
assert np.array_equal(end_full.rng_words, end_split.rng_words)
print("parameters, Adam moments, and generator state are byte-identical")
