"""Encoder tests: set invariances at bit level, gradients against finite differences."""

import os
import subprocess
import sys

import numpy as np
import pytest

from blas_kernels import each_kernel, kernel_test
from finite_diff import finite_diff_grad
from deskrl import nn, pointnet, policy as pol
from deskrl.envs import make_config, make_env
from deskrl.errors import NonFiniteError, ShapeMismatchError
from deskrl.rng import make_generator


def make_encoder(seed, proprio_width=8, per_point=(16, 32), post=(24,)):
    spec = pointnet.build_encoder_spec(proprio_width=proprio_width, per_point_widths=per_point, post_widths=post)
    store = nn.ParamStore()
    pointnet.init_encoder_params(store, spec, make_generator(seed, "enc"))
    return spec, store


def random_obs(spec, gen, n_points):
    coords = gen.normal(size=(n_points, pointnet.POINT_DIM))
    classes = gen.integers(0, pointnet.FEAT_CHANNELS, size=n_points)
    onehot = np.zeros((n_points, pointnet.FEAT_CHANNELS))
    onehot[np.arange(n_points), classes] = 1.0
    return pointnet.PointCloudObs(
        points=np.concatenate([coords, onehot], axis=1),
        proprio=gen.normal(size=spec.proprio_width),
    )


def stack(obs_list):
    return np.stack([o.points for o in obs_list]), np.stack([o.proprio for o in obs_list])


def test_permutation_bit_identity():
    spec, store = make_encoder(0)
    gen = make_generator(0, "perm")
    for cloud_i in range(10):
        obs = random_obs(spec, gen, n_points=64)
        base = pointnet.encode(store, spec, obs)
        for _ in range(100):
            perm = gen.permutation(64)
            shuffled = pointnet.PointCloudObs(obs.points[perm], obs.proprio)
            out = pointnet.encode(store, spec, shuffled)
            assert np.array_equal(out, base), f"cloud {cloud_i}: permutation changed bits"


def test_duplication_bit_identity():
    spec, store = make_encoder(1)
    gen = make_generator(1, "dup")
    for cloud_i in range(10):
        obs = random_obs(spec, gen, n_points=64)
        base = pointnet.encode(store, spec, obs)
        for k in (1, 3, 17):
            picks = gen.integers(0, 64, size=k)
            grown = pointnet.PointCloudObs(
                np.concatenate([obs.points, obs.points[picks]], axis=0), obs.proprio
            )
            out = pointnet.encode(store, spec, grown)
            assert np.array_equal(out, base), f"cloud {cloud_i}: duplicating {k} points changed bits"


def test_encode_is_pure():
    spec, store = make_encoder(2)
    obs = random_obs(spec, make_generator(2, "pure"), 32)
    a = pointnet.encode(store, spec, obs)
    b = pointnet.encode(store, spec, obs)
    assert np.array_equal(a, b)


def test_batched_matches_single_path():
    # encode() is a one-row batch of the same forward; the row count can
    # change which BLAS kernel runs, so only the last bits may differ
    spec, store = make_encoder(3)
    gen = make_generator(3, "batch")
    obs_list = [random_obs(spec, gen, 24) for _ in range(7)]
    pts, prop = stack(obs_list)
    batched = pointnet.encode_batch(store, spec, pts, prop)
    for i, obs in enumerate(obs_list):
        single = pointnet.encode(store, spec, obs)
        assert np.allclose(batched[i], single, rtol=1e-12, atol=1e-12)


def encoder_margin(store, spec, obs):
    """Distance to the nearest relu kink or pooling tie, for FD validity."""
    margin = np.inf
    H = obs.points
    for j in range(spec.per_point.depth):  # relu after every layer
        H = H @ store.get(f"enc.pp.W{j}") + store.get(f"enc.pp.b{j}")
        margin = min(margin, float(np.min(np.abs(H))))
        H = np.maximum(H, 0.0)
    top2 = np.sort(H, axis=0)[-2:, :]
    margin = min(margin, float(np.min(top2[1] - top2[0])))
    x = np.concatenate([H.max(axis=0), obs.proprio])[None, :]
    for j in range(spec.post.depth):
        x = x @ store.get(f"enc.post.W{j}") + store.get(f"enc.post.b{j}")
        margin = min(margin, float(np.min(np.abs(x))))
        x = np.maximum(x, 0.0)
    return margin


def test_single_path_gradient_matches_finite_differences():
    # the one encoder path, at the one-row batch encode() runs and at three rows
    for batch in (1, 3):
        checked = 0
        candidate = 0
        while checked < 5:
            assert candidate < 300, f"could not find enough kink-free configurations at B={batch}"
            spec, store = make_encoder(300 + candidate, proprio_width=5, per_point=(8, 12), post=(10,))
            gen = make_generator(candidate, "fd", batch)
            obs_list = [random_obs(spec, gen, 9) for _ in range(batch)]
            w = gen.normal(size=(batch, spec.out_width))
            candidate += 1
            if min(encoder_margin(store, spec, obs) for obs in obs_list) < 1e-3:
                continue

            pts, prop = stack(obs_list)
            _, cache = pointnet.encode_batch_trace(store, spec, pts, prop)
            grad = store.zeros_grad()
            pointnet.encode_batch_backward(store, spec, cache, w, grad)
            numeric = finite_diff_grad(
                lambda s: float(np.sum(w * pointnet.encode_batch(s, spec, pts, prop))), store, h=1e-5
            )
            scale = np.maximum(np.abs(numeric), 1e-8)
            rel = np.max(np.abs(grad - numeric) / scale)
            assert rel <= 1e-4, f"B={batch}: max relative gradient error {rel:.3e}"
            checked += 1


def strided_argmax_pool(feats):
    """The pool indices and pooled values of point-major (B, N, F) features:
    argmax over the strided point axis, the first (lowest) index winning
    ties, and the values read there with take_along_axis."""
    pool_idx = np.argmax(feats, axis=1)
    return pool_idx, np.take_along_axis(feats, pool_idx[:, None, :], axis=1)[:, 0, :]


def traced(store, net, X, prefix):
    """A net's forward on its bound layers and the per-layer cache that
    nn.backward_layers reads."""
    cache = []
    return nn.forward_layers(store.layers(net, prefix), X, cache), cache


def dense_backward(store, spec, points, proprio, d_out, grad):
    """The plain reference backward: the pooled gradient is scattered into a
    zero (B, N, F) array at each feature's argmax, and all B*N points are
    backpropagated through the per-point net."""
    B, N, C = points.shape
    F = spec.feature_dim
    feats, pp_cache = traced(store, spec.per_point, points.reshape(B * N, C), "enc.pp")
    pool_idx, pooled = strided_argmax_pool(feats.reshape(B, N, F))
    x = np.concatenate([pooled, proprio], axis=1)
    _, post_cache = traced(store, spec.post, x, "enc.post")
    dx = nn.backward_layers(store.layers(spec.post, "enc.post"), post_cache, d_out, grad)
    d_feats = np.zeros((B, N, F))
    d_feats[np.arange(B)[:, None], pool_idx, np.arange(F)] = dx[:, :F]
    nn.backward_layers(store.layers(spec.per_point, "enc.pp"), pp_cache, d_feats.reshape(B * N, F), grad)


def _random_clouds(spec, store, gen):
    return spec, [random_obs(spec, gen, 12) for _ in range(5)]


def _tied_clouds(spec, store, gen):
    # every point has an exact duplicate, so every feature pools from a tie
    _, clouds = _random_clouds(spec, store, gen)
    for obs in clouds:
        obs.points[6:] = obs.points[:6]
    return spec, clouds


def _dead_feature(spec, store, gen):
    """Feature 2 is <= 0 on every point, so it pools from point 0 and passes
    no gradient.  Its weights are <= 0 and its bias is -0.0, and point 0 of
    each cloud is the origin with no class, whose hidden features are all
    zero: its value there is +0.0 before the bias and +0.0 + -0.0 = +0.0
    after it, the cloud's biased max.  (A biased -0.0 would need a -0.0
    product entry, which OpenBLAS, summing from +0.0, does not give.)"""
    W, b = store.get("enc.pp.W1"), store.get("enc.pp.b1")
    W[:, 2] = -np.abs(W[:, 2])
    b[0, 2] = -0.0
    _, clouds = _random_clouds(spec, store, gen)
    for obs in clouds:
        obs.points[0] = 0.0
    return spec, clouds


def _rounding_tie(spec, store, gen):
    """A one-layer per-point net.  Points 2 and 7 of cloud 0 give feature 0
    the cloud's largest values before the bias, about 100 and 1e-11 apart,
    and its bias of 2**20 (an ulp of 2**-32) rounds both to one biased
    value.  The point-major reference pools from point 2, the lowest index
    of the tie after the bias; the traced forward pools from point 7, the
    larger value before it."""
    _, clouds = _random_clouds(spec, store, gen)
    u = store.get("enc.pp.W0")[:, 0]
    clouds[0].points[2] = 100.0 * u / (u @ u)
    clouds[0].points[7] = clouds[0].points[2] * (1.0 + 1e-13)
    store.get("enc.pp.b0")[0, 0] = 2.0**20
    return spec, clouds


@pytest.mark.parametrize(
    "case", [_random_clouds, _tied_clouds, _dead_feature],
    ids=["random", "ties", "dead_feature"],
)
def test_batched_backward_matches_sum_of_singles(case):
    spec, store = make_encoder(4, proprio_width=4, per_point=(8, 12), post=(6,))
    gen = make_generator(4, "bsum")
    spec, obs_list = case(spec, store, gen)
    pts, prop = stack(obs_list)
    d_out = gen.normal(size=(5, spec.out_width))

    _, bcache = pointnet.encode_batch_trace(store, spec, pts, prop)
    grad_batch = store.zeros_grad()
    pointnet.encode_batch_backward(store, spec, bcache, d_out, grad_batch)

    grad_singles = store.zeros_grad()
    for i in range(len(obs_list)):
        dense_backward(store, spec, pts[i : i + 1], prop[i : i + 1], d_out[i : i + 1], grad_singles)
    assert np.allclose(grad_batch, grad_singles, rtol=1e-10, atol=1e-12)
    if case is _dead_feature:
        lo, hi = store.slice_bounds("enc.pp.W1")
        assert not grad_batch[lo:hi].reshape(store.get("enc.pp.W1").shape)[:, 2].any()
        assert grad_batch[store.slice_bounds("enc.pp.b1")[0] + 2] == 0.0


def point_major_trace(store, spec, points, proprio):
    """encode_batch_trace's output and cache as the point-major reference
    computes them: the whole per-point net over (B*N, F) rows, pooled by
    strided_argmax_pool, the cache gathered at the pooled points."""
    B, N, C = points.shape
    F = spec.feature_dim
    feats, pp_cache = traced(store, spec.per_point, points.reshape(B * N, C), "enc.pp")
    pool_idx, pooled = strided_argmax_pool(feats.reshape(B, N, F))
    out, post_cache = traced(store, spec.post, np.concatenate([pooled, proprio], axis=1), "enc.post")
    flat = pool_idx + (np.arange(B) * N)[:, None]
    used = np.zeros(B * N, dtype=bool)
    used[flat] = True
    rows = np.flatnonzero(used)
    rows = np.concatenate([rows, rows[:1].repeat(-rows.size % 64)])
    head_rows = [c[rows] for c in pp_cache[:-1]]
    tail_out = pp_cache[-1].reshape(B, N, F)[np.arange(B)[:, None], pool_idx, np.arange(F)]
    cache = pointnet.EncodeBatchCache((np.cumsum(used) - 1)[flat], head_rows, tail_out, post_cache)
    return out, pool_idx, pooled, cache


def _small_batch(case, per_point=(8, 12)):
    spec, store = make_encoder(4, proprio_width=4, per_point=per_point, post=(6,))
    spec, obs_list = case(spec, store, make_generator(4, "fmajor"))
    return (spec, store, *stack(obs_list))


def _gather2d_batch():
    # 64 observations of gather2d episodes under the scripted expert, on
    # the task's full-size encoder: the products run at a real update's shape
    spec = pol.build_policy_spec("gather2d").encoder
    store = nn.ParamStore()
    pointnet.init_encoder_params(store, spec, make_generator(4, "enc"))
    env = make_env(make_config("gather2d"))
    obs_list = [env.reset(0)]
    while len(obs_list) < 64:
        step = env.step(env.expert_action())
        obs_list.append(env.reset(len(obs_list)) if step.done else step.obs)
    return (spec, store, *stack(obs_list))


TRACE_BATCHES = {
    "random": lambda: _small_batch(_random_clouds),
    "ties": lambda: _small_batch(_tied_clouds),
    "dead_feature": lambda: _small_batch(_dead_feature),
    "rounding_tie": lambda: _small_batch(_rounding_tie, per_point=(12,)),
    # a per-point net of one affine layer, whose feature-major product
    # reads the points themselves
    "one_layer": lambda: _small_batch(_random_clouds, per_point=(12,)),
    "gather2d": _gather2d_batch,
}


@pytest.mark.parametrize("batch", list(TRACE_BATCHES))
def test_traced_forward_matches_point_major_reference(batch):
    # the last per-point layer runs feature-major and is pooled over the
    # contiguous point axis before its bias and ReLU; every value must keep
    # the bits of the point-major forward and its strided argmax pool, and
    # so must every index but one of a rounding tie (see _rounding_tie)
    spec, store, pts, prop = TRACE_BATCHES[batch]()
    ref_out, ref_idx, ref_pooled, ref = point_major_trace(store, spec, pts, prop)
    _, pool_idx, pooled = pointnet._pool_forward(store, spec, pts)
    out, cache = pointnet.encode_batch_trace(store, spec, pts, prop)
    assert pooled.tobytes() == ref_pooled.tobytes()
    assert cache.tail_out.tobytes() == ref.tail_out.tobytes()
    assert out.tobytes() == ref_out.tobytes()
    if batch == "dead_feature":
        assert not pool_idx[:, 2].any() and np.array_equal(np.signbit(pooled), np.signbit(ref_pooled))
    if batch == "rounding_tie":
        # the tie exists after the bias only, and each side picks its end
        B, N, C = pts.shape
        z = (pts.reshape(B * N, C) @ store.get("enc.pp.W0")).reshape(B, N, -1)[0, :, 0]
        b = store.get("enc.pp.b0")[0, 0]
        assert z[7] > z[2] and z[7] + b == z[2] + b
        assert (ref_idx[0, 0], pool_idx[0, 0]) == (2, 7)
        ref_idx[0, 0] = 7
    assert np.array_equal(pool_idx, ref_idx)
    if batch != "rounding_tie":
        assert np.array_equal(cache.slot, ref.slot)
        assert len(cache.head_rows) == len(ref.head_rows)
        for got, want in zip(cache.head_rows, ref.head_rows):
            assert got.tobytes() == want.tobytes()


@each_kernel
def test_traced_forward_matches_reference_on_each_blas_kernel(kernel):
    # the feature-major product W.T @ H.T must have the bits of (H @ W).T
    # under every kernel OpenBLAS picks on x86-64, not just this machine's
    returncode, stdout = kernel_test(kernel, "test_pointnet.py::test_traced_forward_matches_point_major_reference")
    assert returncode == 0, stdout
    assert f"{len(TRACE_BATCHES)} passed" in stdout


_GRADIENT_DIGEST = """
import hashlib
import numpy as np
from deskrl import nn, pointnet
from deskrl.rng import make_generator

spec = pointnet.build_encoder_spec()
store = nn.ParamStore()
pointnet.init_encoder_params(store, spec, make_generator(8, "enc"))
gen = make_generator(8, "threads")
h = hashlib.sha256()
for batch in (17, 40, 64):
    pts = np.concatenate(
        [gen.normal(size=(batch, 64, 2)), np.eye(3)[gen.integers(0, 3, size=(batch, 64))]], axis=2
    )
    prop = gen.normal(size=(batch, spec.proprio_width))
    out, cache = pointnet.encode_batch_trace(store, spec, pts, prop)
    grad = store.zeros_grad()
    pointnet.encode_batch_backward(store, spec, cache, gen.normal(size=out.shape), grad)
    h.update(grad.tobytes())
for _ in range(3):
    pts = np.concatenate([gen.normal(size=(64, 2)), np.eye(3)[gen.integers(0, 3, size=64)]], axis=1)
    obs = pointnet.PointCloudObs(pts, gen.normal(size=spec.proprio_width))
    grown = pointnet.PointCloudObs(np.concatenate([pts, pts[gen.integers(0, 64, size=16)]]), obs.proprio)
    h.update(pointnet.encode(store, spec, obs).tobytes())
    h.update(pointnet.encode(store, spec, grown).tobytes())
print(h.hexdigest())
"""


def test_batched_gradient_bits_do_not_depend_on_blas_threads():
    # full-size encoder, 64-point clouds: the pooled-row products are big
    # enough for OpenBLAS to thread them; single observations, which run as
    # one-row batches, are hashed too, at 64 points and grown to 80
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src"), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", _GRADIENT_DIGEST], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


def test_pool_tie_breaks_to_lowest_index():
    spec, store = make_encoder(5)
    gen = make_generator(5, "tie")
    obs = random_obs(spec, gen, 16)

    def pool_idx(points):
        return pointnet._pool_forward(store, spec, points[None])[1][0]

    before = pool_idx(obs.points)
    # append an exact copy of the point most features pooled from: each of
    # those features now ties between it and index 16
    winner = np.bincount(before).argmax()
    after = pool_idx(np.concatenate([obs.points, obs.points[winner : winner + 1]]))
    assert np.array_equal(after, before), "a tie resolved to the higher index"


def test_validation_rejects_bad_inputs():
    spec, store = make_encoder(6)
    good = random_obs(spec, make_generator(6, "val"), 8)
    with pytest.raises(ShapeMismatchError):
        pointnet.encode(store, spec, pointnet.PointCloudObs(good.points[:, :3], good.proprio))
    with pytest.raises(ShapeMismatchError):
        pointnet.encode(store, spec, pointnet.PointCloudObs(good.points, good.proprio[:3]))
    with pytest.raises(NonFiniteError):
        bad = good.points.copy()
        bad[0, 0] = np.nan
        pointnet.encode(store, spec, pointnet.PointCloudObs(bad, good.proprio))
    with pytest.raises(ShapeMismatchError):
        pointnet.encode(store, spec, pointnet.PointCloudObs(np.zeros((0, 5)), good.proprio))
    with pytest.raises(ShapeMismatchError):
        pointnet.encode_batch(store, spec, np.zeros((2, 4, 5)), np.zeros((3, 8)))
    with pytest.raises(ShapeMismatchError, match="5 channels"):  # the cloud layout is fixed
        pointnet.EncoderSpec(8, nn.NetSpec((4, 12), output="relu"), nn.NetSpec((20, 4)))
    policy_spec, calls = _inference_calls()
    empty = pointnet.PointCloudObs(np.zeros((0, 5)), np.zeros(policy_spec.encoder.proprio_width))
    for name, call in calls.items():
        with pytest.raises(ShapeMismatchError):
            call([empty])
            pytest.fail(f"{name} took an empty cloud")


def _inference_calls():
    """The padded forward and the policy's three batched calls, each on a
    list of observations, with a reach2d policy's parameters."""
    spec = pol.build_policy_spec("reach2d")
    store = nn.ParamStore()
    pol.init_policy(store, spec, make_generator(7, "init"))

    def padded(obs):
        points, proprio = stack(obs)
        return pointnet.encode_batch_padded(store, spec.encoder, points, proprio)

    return spec, {
        "encode_batch_padded": padded,
        "mean_actions": lambda obs: pol.mean_actions(store, spec, obs),
        "sample_actions": lambda obs: pol.sample_actions(
            store, spec, obs, [make_generator(7, k) for k in range(len(obs))]
        ),
        "state_values": lambda obs: pol.state_values(store, spec, obs),
    }


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["points", "proprio"])
def test_observation_rejects_a_nonfinite_value_anywhere(field, value):
    # an observation is two plain arrays; each inference call checks its
    # stacked batch once, so one bad entry in the second of two rows raises
    spec, calls = _inference_calls()
    gen = make_generator(7, "finite")
    first, good = (random_obs(spec.encoder, gen, 16) for _ in range(2))
    for call in calls.values():
        call([first, good])
    for pos in np.ndindex(getattr(good, field).shape):
        arrays = {"points": good.points.copy(), "proprio": good.proprio.copy()}
        arrays[field][pos] = value
        bad = pointnet.PointCloudObs(**arrays)
        for name, call in calls.items():
            with pytest.raises(NonFiniteError):
                call([first, bad])
                pytest.fail(f"{name} took {value} at {field}{pos}")


def test_an_observation_is_its_two_arrays():
    # building one converts and checks nothing: the arrays are kept as given
    points, proprio = np.full((3, 5), np.nan), np.zeros(2, dtype=np.float32)
    obs = pointnet.PointCloudObs(points, proprio)
    assert obs.points is points and obs.proprio is proprio


def checked_encoder(store, spec, points, proprio, rows):
    """The encoder composed from nn.forward_batch: the whole per-point net,
    np.max over the points, the proprio, pad rows (copies of the first)
    up to `rows`, then the post net."""
    B, N, C = points.shape
    feats = nn.forward_batch(store, spec.per_point, points.reshape(B * N, C), "enc.pp")
    x = np.concatenate([np.max(feats.reshape(B, N, spec.feature_dim), axis=1), proprio], axis=1)
    x = np.concatenate([x, x[:1].repeat(rows - B, axis=0)])
    return nn.forward_batch(store, spec.post, x, "enc.post")


def _encoder_shape(per_point, post=(9, 6), hidden="relu"):
    pp = nn.NetSpec((pointnet.POINT_DIM + pointnet.FEAT_CHANNELS, *per_point), hidden=hidden, output="relu")
    spec = pointnet.EncoderSpec(4, pp, nn.NetSpec((per_point[-1] + 4, *post)))
    store = nn.ParamStore()
    pointnet.init_encoder_params(store, spec, make_generator(9, "enc"))
    store.flat += make_generator(9, "bias").normal(0.0, 0.1, size=store.size)  # every entry, biases too
    return spec, store


# encoders the policy does not build: the bound body (the per-point layers
# before the last) empty, of two tanh or relu layers, and two post layers
ENCODER_SHAPES = {
    "depth1": lambda: _encoder_shape((12,), post=(6,)),
    "depth1_post2": lambda: _encoder_shape((12,)),
    "depth3_post2": lambda: _encoder_shape((8, 10, 12)),
    "depth3_tanh_post2": lambda: _encoder_shape((8, 10, 12), hidden="tanh"),
}


@pytest.mark.parametrize("shape", list(ENCODER_SHAPES))
def test_bound_nets_match_checked_composition(shape):
    # both forwards run the per-point body and the post net on the store's
    # bound layers; their outputs must have the bits of the checked
    # composition, and the traced one's backward must agree with the dense
    # reference, which runs every layer through nn.backward_layers
    spec, store = ENCODER_SHAPES[shape]()
    gen = make_generator(9, "shapes", shape)
    obs_list = [random_obs(spec, gen, 10) for _ in range(11)]
    for k in (1, 3, 8, 11):
        pts, prop = stack(obs_list[:k])
        padded = pointnet.encode_batch_padded(store, spec, pts, prop)
        assert len(padded) == k + -k % pointnet.POST_ROW_MULTIPLE
        assert padded.tobytes() == checked_encoder(store, spec, pts, prop, len(padded)).tobytes()
        out, cache = pointnet.encode_batch_trace(store, spec, pts, prop)
        assert out.tobytes() == checked_encoder(store, spec, pts, prop, k).tobytes()
        assert len(cache.head_rows) == spec.per_point.depth
        d_out = gen.normal(size=out.shape)
        grad, dense = store.zeros_grad(), store.zeros_grad()
        pointnet.encode_batch_backward(store, spec, cache, d_out, grad)
        dense_backward(store, spec, pts, prop, d_out, dense)
        assert np.allclose(grad, dense, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("output", ["tanh", "identity"], ids=["tanh", "none"])
def test_encoder_spec_requires_one_relu_tail(output):
    # the traced forward pools the last per-point layer before its bias and
    # ReLU, which holds only when that layer's activation is a ReLU
    with pytest.raises(ShapeMismatchError, match="end in a relu"):
        pointnet.EncoderSpec(8, nn.NetSpec((5, 8, 12), output=output), nn.NetSpec((20, 4)))
    relu_tail = nn.NetSpec((5, 8, 12), hidden="relu", output="relu")
    assert pointnet.EncoderSpec(8, relu_tail, nn.NetSpec((20, 4))).feature_dim == 12


@pytest.mark.parametrize("where", ["points", "proprio"])
def test_trace_rejects_a_nonfinite_minibatch_on_entry(where):
    # encode_batch_trace checks its points and proprio where they enter;
    # the nets after that run unchecked
    spec, store, pts, prop = TRACE_BATCHES["random"]()
    if where == "points":
        pts[3, 4, 1] = np.nan
    else:
        prop[3, 1] = np.nan
    with pytest.raises(NonFiniteError, match="non-finite points or proprio"):
        pointnet.encode_batch_trace(store, spec, pts, prop)


def test_init_is_deterministic():
    _, a = make_encoder(7)
    _, b = make_encoder(7)
    assert np.array_equal(a.flat, b.flat)
    assert a.directory() == b.directory()
