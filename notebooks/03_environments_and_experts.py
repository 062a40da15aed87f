"""Tour of the three tasks and their scripted experts.

Each environment hands back a tagged point cloud plus a proprioceptive
vector, and each ships a scripted expert good enough to produce
demonstrations.  This script rolls the expert on train and test variant
splits and prints what the policy networks will actually see.
"""

import numpy as np

from deskrl.envs import DT, make_config, make_env
from deskrl.rng import panel_seeds


def roll_expert(task: str, split: str, episodes: int = 20) -> tuple[float, float]:
    cfg = make_config(task, split=split)
    env = make_env(cfg)
    wins, returns = 0, []
    for ep_seed in panel_seeds(0, split, episodes):
        obs = env.reset(ep_seed)
        total = 0.0
        while True:
            res = env.step(env.expert_action())
            total += res.reward
            if res.done:
                wins += res.success
                break
        returns.append(total)
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
