"""The point-cloud encoder is order-free, bit for bit.

Build one observation, shuffle its points a few hundred ways, duplicate
some of them, and watch the encoded feature vector stay byte-identical.
This is the property that lets the policy treat a cloud as a set.

encode() runs one observation as a one-row batch of the batched encoder:
one BLAS matmul per layer over all of the cloud's points.  Each point's
features come from its own row, and that row's bits do not depend on
which rows sit around it, so shuffled or duplicated points get exactly
the features they had; the max-pool then sees the same set of values
and returns the same bytes.  tests/test_pointnet.py pins this property,
and that these encodings have the same bits under one and two BLAS
threads.
"""

import numpy as np

from deskrl import nn
from deskrl.envs import make_config, make_env
from deskrl.pointnet import encode
from deskrl.policy import build_policy_spec, init_policy
from deskrl.rng import make_generator

env = make_env(make_config("reach2d"))
obs = env.reset(7)
print(f"cloud: {obs.points.shape[0]} points x {obs.points.shape[1]} channels, "
      f"proprio width {obs.proprio.shape[0]}")

spec = build_policy_spec("reach2d")
store = nn.ParamStore()
init_policy(store, spec, make_generator(0, "demo", "init"))

reference = encode(store, spec.encoder, obs)
print(f"encoded width {reference.shape[0]}, first values {np.round(reference[:4], 4)}")

# 1. permutations: same multiset of points -> same bytes out
gen = make_generator(0, "demo", "perms")
worst = 0
for _ in range(300):
    order = gen.permutation(obs.points.shape[0])
    shuffled = type(obs)(points=obs.points[order], proprio=obs.proprio)
    out = encode(store, spec.encoder, shuffled)
    assert out.tobytes() == reference.tobytes()
print("300 random permutations: all encodings byte-identical")

# 2. duplication: appending copies of existing points changes nothing,
#    because a max over a set ignores repeated elements
doubled = type(obs)(
    points=np.concatenate([obs.points, obs.points[:20]]),
    proprio=obs.proprio,
)
assert encode(store, spec.encoder, doubled).tobytes() == reference.tobytes()
print("20 duplicated points appended: encoding byte-identical")

# 3. the invariance is structural, not numerical luck: moving one point
#    that owns a pooled maximum does change the output
nudged_points = obs.points.copy()
nudged_points[:, :2] += 0.05
nudged = type(obs)(points=nudged_points, proprio=obs.proprio)
delta = np.abs(encode(store, spec.encoder, nudged) - reference).max()
print(f"actually moving the points shifts the encoding by up to {delta:.4f}")
