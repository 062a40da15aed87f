"""Behavior cloning on gather2d expert demonstrations.

Generates a handful of expert episodes, pooled into one dataset, saves
them as a demo bundle, reloads the bundle as the same dataset (the file
carries the environment fingerprint so a dataset cannot silently be
cloned against the wrong physics), and runs a short BC training.  The train/test gap visible even at this scale is
the motivation for the two-stage fine-tuning schedule.
"""

import atexit
import os
import shutil
import tempfile

from deskrl.bc import BCConfig, train_bc
from deskrl.envs import generate_demos, make_config
from deskrl.persistence import load_demos, save_demos

env_cfg = make_config("gather2d")
demos = generate_demos(env_cfg, 40)
print(f"kept {len(demos.lengths)} of 40 episodes "
      f"(episode lengths {min(demos.lengths)}..{max(demos.lengths)})")

workdir = tempfile.mkdtemp(prefix="gather-bc-")
atexit.register(shutil.rmtree, workdir)
bundle = os.path.join(workdir, "demos.bin")
save_demos(bundle, env_cfg, demos)
print(f"bundle: {os.path.getsize(bundle)} bytes")

dataset = load_demos(bundle)
assert dataset.fingerprint == env_cfg.fingerprint()
assert dataset.actions.tobytes() == demos.actions.tobytes()
print(f"pooled dataset: {dataset.size} state-action pairs")

cfg = BCConfig(total_steps=600, eval_period=200, eval_episodes=10)
history = train_bc(cfg, dataset, env_cfg, seed=0, out_dir=os.path.join(workdir, "run"))

print("\nmetric history (10 eval episodes per split):")
for rec in history:
    print(f"  step {rec.step:4d}  train {rec.train_success:.2f}  test {rec.test_success:.2f}")
print("\nthe cloning gap (train minus test) is what stage two attacks")
