"""Tour of the three tasks and their scripted experts.

Each environment hands back a tagged point cloud plus a proprioceptive
vector, and each ships a scripted expert good enough to produce
demonstrations.  This script rolls the expert on train and test variant
splits, one lane per episode in lockstep (envs.run_lanes, the driver
rollouts, evaluation and demos use), and prints what the policy networks
will actually see.
"""

import numpy as np

from deskrl.envs import DT, Lane, make_config, make_env, run_lanes
from deskrl.rng import panel_seeds


def roll_expert(task: str, split: str, episodes: int = 20) -> tuple[float, float]:
    cfg = make_config(task, split=split)
    lanes = [Lane(make_env(cfg), iter((seed,)), cfg.horizon) for seed in panel_seeds(0, split, episodes)]
    wins, returns = 0, [0.0] * episodes
    # each tick hands back the live lanes' rows: observations, actions,
    # rewards and flags, one array each
    for tick in run_lanes(lanes, lambda live, points, proprios: [lanes[k].env.expert_action() for k in live]):
        for k, reward in zip(tick.lanes.tolist(), tick.rewards.tolist()):
            returns[k] += reward
        wins += int(tick.successes.sum())
    return wins / episodes, float(np.mean(returns))


for task in ("reach2d", "pushbox2d", "gather2d"):
    cfg = make_config(task)
    env = make_env(cfg)
    obs = env.reset(1234)
    tags = np.unique(obs.points[:, 2:], axis=0)
    print(f"{task}:")
    train, test = (make_config(task, split=split).variant_range for split in ("train", "test"))
    print(f"  horizon {cfg.horizon}, dt {DT}, variant ranges train={train} test={test}")
    print(f"  cloud {obs.points.shape} ({len(tags)} segment tags), "
          f"proprio {obs.proprio.shape}")
    for split in ("train", "test"):
        rate, ret = roll_expert(task, split)
        print(f"  expert on {split}: success {rate:.2f}, avg return {ret:+.2f}")
    print()
