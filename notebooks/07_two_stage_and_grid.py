"""The two-stage schedule and the scale grid.

Stage one trains at base sizes.  Stage two restores the checkpoint
that scored best on the test panel and continues with the minibatch
scaled by alpha and the per-step sample block scaled by beta.  The
grid harness sweeps (alpha, beta) cells against a no-restart baseline
and recommends the pair with the best mean test rate.

The sweep here rides on behavior cloning with toy budgets so the whole
script runs in seconds; the schedule is trainer-agnostic.
"""

import atexit
import os
import shutil
import tempfile

from deskrl.bc import BCConfig
from deskrl.envs import generate_demos, make_config
from deskrl.twostage import (
    GridSpec,
    ScalePair,
    bc_trainer,
    grid_search,
    recommend_scales,
    run_two_stage,
    scale_hyperparams,
)

# -- what the scales do to a full-size run --------------------------------
print("scaled (batch, samples) from base (330, 20000):")
for alpha in (0.9, 0.8, 0.7):
    cells = []
    for beta in (1.0, 0.875, 0.75):
        b, s = scale_hyperparams(330, 20000, ScalePair(alpha, beta))
        cells.append(f"a={alpha} b={beta}: ({b:3d}, {s:5d})")
    print("  " + "   ".join(cells))

# -- a tiny sweep end to end ----------------------------------------------
env_cfg = make_config("gather2d", horizon=60)
dataset = generate_demos(env_cfg, 12)
base = BCConfig(
    batch_size=16, samples_per_step=32, total_steps=0, eval_period=2, eval_episodes=4
)
trainer = bc_trainer(base, dataset, env_cfg)
work = tempfile.mkdtemp(prefix="grid-")
atexit.register(shutil.rmtree, work)

history, record = run_two_stage(
    trainer, ScalePair(0.9, 0.875), stage1_steps=6, stage2_steps=4,
    seed=0, out_dir=os.path.join(work, "two-stage"),
)
marks = [r.stage for r in history]
print(f"\ntwo-stage history stages: {marks}")
print(f"stage-two record: batch {record.batch}, samples {record.samples}, "
      f"test {record.test_success:.2f}")

grid = GridSpec(
    alphas=(0.9, 0.8), betas=(1.0, 0.875), base_batch=16, base_samples=32,
    seeds=(0,), stage1_steps=6, stage2_steps=4,
)
records = grid_search(trainer, grid, os.path.join(work, "grid"))
print("\ngrid rows (row 1 is the no-restart baseline):")
for rec in records:
    print(f"  row {rec.row}: a={rec.alpha:<5} b={rec.beta:<6} "
          f"batch {rec.batch:2d} samples {rec.samples:2d} "
          f"train {rec.train_success:.2f} test {rec.test_success:.2f}")

pick = recommend_scales(records)
print(f"\nrecommended scales: alpha={pick.alpha}, beta={pick.beta}")
