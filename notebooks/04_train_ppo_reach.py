"""A short PPO run on reach2d, end to end.

Uses a deliberately small budget so the script finishes in seconds; the
point is the artifact trail, not the score.  Every evaluation writes a
checkpoint and then adds a row to metrics.csv, so every logged step is
resumable.
"""

import atexit
import os
import shutil
import tempfile
from dataclasses import replace

from deskrl.envs import make_config
from deskrl.persistence import load_checkpoint, read_metrics
from deskrl.policy import build_policy_spec, evaluate_policy
from deskrl.ppo import PPOConfig, train_ppo

cfg = replace(
    PPOConfig(),
    samples_per_step=512,
    minibatch_size=64,
    total_steps=5120,
    eval_period=1024,
    eval_episodes=10,
)
env_cfg = make_config("reach2d")

work = tempfile.mkdtemp(prefix="reach-ppo-")
atexit.register(shutil.rmtree, work)
out = os.path.join(work, "run")
history = train_ppo(cfg, env_cfg, seed=0, out_dir=out)

print("metric history (10 eval episodes per split):")
for rec in history:
    print(f"  step {rec.step:5d}  train {rec.train_success:.2f}  test {rec.test_success:.2f}")

print("\nartifacts in", out, "(removed on exit)")
for name in sorted(os.listdir(out)):
    print(f"  {name}")

# the metrics file round-trips to the in-memory history
assert read_metrics(os.path.join(out, "metrics.csv")) == history

# any checkpoint restores to a policy we can evaluate directly
ckpt = load_checkpoint(os.path.join(out, f"ckpt-{history[-1].step:08d}.ckpt"))
store = ckpt.param_store()
spec = build_policy_spec(env_cfg.task)
train_rate, test_rate = evaluate_policy(store, spec, env_cfg, 10, run_seed=0)
print(f"\nre-evaluated restored checkpoint: train {train_rate:.2f}, test {test_rate:.2f} "
      f"(checkpoint recorded {ckpt.train_success:.2f}, {ckpt.test_success:.2f})")
# the same parameters, panels and seed give the rates the run recorded
assert (train_rate, test_rate) == (ckpt.train_success, ckpt.test_success)
