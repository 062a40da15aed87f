"""Set encoder for point-cloud observations.

Every point (coordinates plus one-hot segmentation channels) runs through a
shared per-point MLP, features are max-pooled over the point axis, the
pooled vector is concatenated with the proprioceptive vector, and a post
MLP produces the final feature.

There is one forward computation, on (B, N, C) stacks of clouds; encode()
runs a single observation through it as a one-row batch.  encode_batch()
and encode_batch_trace() share that forward, so a sample's output bits do
not depend on which of the two encoded it.  Each per-point layer is one
BLAS matmul over all B*N points, and a point's output comes out with the
same bits whatever points surround it: encode() is bit-identical under
any permutation of a cloud's points and under duplication of existing
points, which tests/test_pointnet.py pins.  Up to its last affine layer
the per-point net runs point-major, one (B*N, width) row per point.  That
layer runs feature-major: W.T @ H.T + b.T fills an (F, B*N) array with
the bits of (H @ W + b).T (tested under the SkylakeX, Haswell, Zen and
Prescott OpenBLAS kernels), the activations after it work on that array,
and the argmax pool scans each feature's N points along its contiguous
axis, about half the time of the strided scan over a (B, N, F) array.

The post net's bits can depend on the batch's row count (a one-row batch
may take another BLAS kernel than a 64-row one), so a cloud encoded alone
and the same cloud inside a larger batch can differ in the last bits.  The padding that
removes this lives in encode_batch_padded(): it pads the post net's
input rows with copies of the first to a multiple of POST_ROW_MULTIPLE,
and a row's output then has the same bits at any batch size.
The policy's batched calls (policy.mean_actions() for evaluation,
policy.sample_actions() for rollouts) run their heads on those padded
rows, so an action does not depend on the episodes that share its tick.
The update encodes unpadded (encode_batch_trace).  The padded forward
stays point-major and pools with np.max (see _max_pool).

Inputs are checked where they enter.  PointCloudObs checks each
observation's shapes and finiteness when an environment builds it.
encode(), encode_batch() and encode_batch_trace() check their points
again through nn's checked entry points: they serve training and callers
that pass raw arrays.  encode_batch_padded(), the policy's inference
path, checks shapes only and runs both nets through
nn.forward_unchecked(), relying on PointCloudObs for the values.

The max-pool's gradient reaches only the point each feature pooled from,
so encode_batch_backward() runs the per-point net backward through the
pooled points alone (see there).  It agrees to rounding with the plain
reference that scatters the pooled gradient into a dense (B, N, F) array
and backpropagates every point, which the tests keep.

Max-pool ties resolve to the lowest point index; only gradients can tell
the difference, the forward value is the max either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import NonFiniteError, ShapeMismatchError

# encode_batch_padded() pads the post net's rows to a multiple of this;
# unpadded, a row's bits differed from its bits in a 64-row batch at every
# row count that is not a multiple of 4
POST_ROW_MULTIPLE = 8


@dataclass
class PointCloudObs:
    """One observation: (n_points, point_dim + feat_channels) and (proprio_width,)."""

    points: np.ndarray
    proprio: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.proprio = np.asarray(self.proprio, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ShapeMismatchError(f"points must be (n, channels), got {self.points.shape}")
        if self.proprio.ndim != 1:
            raise ShapeMismatchError(f"proprio must be 1-D, got {self.proprio.shape}")
        if not (np.isfinite(self.points).all() and np.isfinite(self.proprio).all()):
            raise NonFiniteError("observation contains non-finite values")


@dataclass(frozen=True)
class EncoderSpec:
    """Widths and sub-net specs; point_dim is 2 or 3, features one-hot per class."""

    point_dim: int
    feat_channels: int
    proprio_width: int
    per_point: nn.NetSpec
    post: nn.NetSpec

    def __post_init__(self):
        if self.point_dim not in (2, 3):
            raise ShapeMismatchError("point_dim must be 2 or 3")
        if self.feat_channels < 0 or self.proprio_width < 0:
            raise ShapeMismatchError("channel and proprio widths cannot be negative")
        if self.per_point.in_width != self.point_channels:
            raise ShapeMismatchError(
                f"per-point net expects width {self.per_point.in_width}, "
                f"points have {self.point_channels} channels"
            )
        if self.post.in_width != self.per_point.out_width + self.proprio_width:
            raise ShapeMismatchError("post net width must equal pooled features + proprio")
        if not any(layer.kind == "affine" for layer in self.per_point.layers):
            raise ShapeMismatchError("per-point net needs at least one affine layer")

    @property
    def point_channels(self) -> int:
        return self.point_dim + self.feat_channels

    @property
    def feature_dim(self) -> int:
        return self.per_point.out_width

    @property
    def out_width(self) -> int:
        return self.post.out_width


def build_encoder_spec(
    point_dim: int = 2,
    feat_channels: int = 3,
    proprio_width: int = 8,
    per_point_widths: tuple[int, ...] = (32, 64),
    post_widths: tuple[int, ...] = (64,),
) -> EncoderSpec:
    per_point = nn.mlp((point_dim + feat_channels, *per_point_widths), hidden="relu", output="relu")
    post = nn.mlp((per_point_widths[-1] + proprio_width, *post_widths), hidden="relu", output="relu")
    return EncoderSpec(point_dim, feat_channels, proprio_width, per_point, post)


def init_encoder_params(
    store: nn.ParamStore, spec: EncoderSpec, gen: np.random.Generator, prefix: str = "enc"
) -> None:
    """Register per-point then post parameters (draw order is part of the contract)."""
    nn.init_net_params(store, spec.per_point, gen, f"{prefix}.pp")
    nn.init_net_params(store, spec.post, gen, f"{prefix}.post")


@dataclass
class EncodeBatchCache:
    """What encode_batch_backward reads, kept at the pooled points only.

    The rows are the distinct points that some feature pooled from, in
    ascending (cloud, point) order.  slot[b, f] is the row that feature f
    of cloud b pooled from.  head_rows holds the per-point net's cache
    (as nn.forward_batch_trace lays it out) at those rows, up to its last
    affine layer; tail_out holds each activation after that layer at the
    pooled entries, (B, F) each.
    """

    slot: np.ndarray
    head_rows: list[np.ndarray]
    tail_out: list[np.ndarray]
    post_cache: list[np.ndarray]


def _check_batch(spec: EncoderSpec, points: np.ndarray, proprio: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    points = np.asarray(points, dtype=np.float64)
    proprio = np.asarray(proprio, dtype=np.float64)
    if points.ndim != 3 or points.shape[2] != spec.point_channels:
        raise ShapeMismatchError(
            f"expected points (batch, n, {spec.point_channels}), got {points.shape}"
        )
    if proprio.shape != (points.shape[0], spec.proprio_width):
        raise ShapeMismatchError(
            f"expected proprio ({points.shape[0]}, {spec.proprio_width}), got {proprio.shape}"
        )
    return points, proprio


def _head_and_tail(net: nn.NetSpec) -> tuple[nn.NetSpec, tuple[nn.LayerSpec, ...]]:
    """The net up to and including its last affine layer, and the activations after it."""
    last = max(i for i, layer in enumerate(net.layers) if layer.kind == "affine")
    return nn.NetSpec(net.layers[: last + 1]), net.layers[last + 1 :]


def _argmax_pool(feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pool indices and pooled values, (B, F) each, of feature-major
    (F, B, N) per-point features.

    argmax runs over the contiguous point axis, the lowest index winning
    ties, and the values are read at those indices.
    """
    pool_idx = np.argmax(feats, axis=2)
    pooled = np.take_along_axis(feats, pool_idx[:, :, None], axis=2)[:, :, 0]
    return pool_idx.T, pooled.T


def _pool_forward(
    store: nn.ParamStore, spec: EncoderSpec, points: np.ndarray, prefix: str
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, np.ndarray]:
    """The per-point net over all B*N points and the max pool.

    The net runs point-major, (B*N, width), up to its last affine layer.
    That layer is computed feature-major, W.T @ H.T + b.T into a fresh
    (F, B*N) array, whose entries have the bits of (H @ W + b).T; the tail
    activations then work on it, the first in place, and the pool reads
    its (F, B, N) view.  Returns the head's cache (nn.forward_batch_trace's
    layout, ending with the last affine layer's input), the tail
    activations' (F, B*N) outputs, the pool indices and the pooled
    features.
    """
    B, N, C = points.shape
    head, tail = _head_and_tail(spec.per_point)
    h = points.reshape(B * N, C)
    if len(head.layers) > 1:
        h, head_cache = nn.forward_batch_trace(store, nn.NetSpec(head.layers[:-1]), h, f"{prefix}.pp")
    else:
        h, head_cache = nn._check_input(h, C, f"{prefix}.pp"), []
    head_cache.append(h)
    j = sum(layer.kind == "affine" for layer in head.layers) - 1
    z = store.get(f"{prefix}.pp.W{j}").T @ h.T
    z += store.get(f"{prefix}.pp.b{j}").T
    tail_cache: list[np.ndarray] = []
    for i, layer in enumerate(tail):
        # the first activation overwrites the fresh affine output; a later
        # one writes a new array, since the one before it is cached
        z = nn._apply_activation(layer.fn, z, out=None if i else z)
        tail_cache.append(z)
    pool_idx, pooled = _argmax_pool(z.reshape(spec.feature_dim, B, N))
    return head_cache, tail_cache, pool_idx, pooled


def _max_pool(feats: np.ndarray) -> np.ndarray:
    """The pooled values of point-major (B, N, F) per-point features,
    (B, F), without the index: the padded forward reads only these, and
    np.max costs about half of np.argmax over the strided point axis.

    The padded forward stays point-major.  Its batches are the K <= 16
    clouds of a lockstep tick, where the strided pool is cheap: a
    feature-major padded forward was no faster (416 against 385 us at
    K = 16), and it read ppo_reach's eval_episodes_per_s 111 -> 99 and
    105 in the benchmark.
    """
    return np.max(feats, axis=1)


def _encode_batch_forward(
    store: nn.ParamStore, spec: EncoderSpec, points: np.ndarray, proprio: np.ndarray, prefix: str
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray], np.ndarray, np.ndarray, list[np.ndarray]]:
    """The one batched forward: output, head cache, tail outputs, pool indices, pooled features, post cache."""
    head_cache, tail_cache, pool_idx, pooled = _pool_forward(store, spec, points, prefix)
    x = np.concatenate([pooled, proprio], axis=1)
    out, post_cache = nn.forward_batch_trace(store, spec.post, x, f"{prefix}.post")
    return out, head_cache, tail_cache, pool_idx, pooled, post_cache


def encode_batch_trace(
    store: nn.ParamStore,
    spec: EncoderSpec,
    points: np.ndarray,
    proprio: np.ndarray,
    prefix: str = "enc",
) -> tuple[np.ndarray, EncodeBatchCache]:
    """encode_batch() plus what encode_batch_backward needs.

    The per-point net's last affine layer and the activations after it
    run feature-major, so the argmax pool scans each feature's points
    contiguously (see _pool_forward); the cache keeps only the pooled
    points (see EncodeBatchCache).
    """
    points, proprio = _check_batch(spec, points, proprio)
    B, N, _ = points.shape
    F = spec.feature_dim
    out, head_cache, tail_cache, pool_idx, pooled, post_cache = _encode_batch_forward(
        store, spec, points, proprio, prefix
    )
    flat = pool_idx + (np.arange(B) * N)[:, None]
    used = np.zeros(B * N, dtype=bool)
    used[flat] = True
    rows = np.flatnonzero(used)
    slot = (np.cumsum(used) - 1)[flat]
    # Pad with copies of a pooled row, which get zero gradient, to a
    # multiple of 64 rows, as the B*N rows of 64-point clouds always were:
    # OpenBLAS's threaded gemm sums a reduction over other row counts in
    # another order than its single-threaded one, which would tie the
    # parameter gradient's bits to the BLAS thread count.
    rows = np.concatenate([rows, rows[:1].repeat(-rows.size % 64)])
    head_rows: list[np.ndarray] = []
    for i, c in enumerate(head_cache):
        # an activation's output is cached again as the next affine layer's
        # input; gather that array once and list it twice
        head_rows.append(head_rows[-1] if i and c is head_cache[i - 1] else c[rows])
    tail_out = [pooled if c is tail_cache[-1] else c[np.arange(F), flat] for c in tail_cache]
    return out, EncodeBatchCache(slot, head_rows, tail_out, post_cache)


def encode_batch(
    store: nn.ParamStore,
    spec: EncoderSpec,
    points: np.ndarray,
    proprio: np.ndarray,
    prefix: str = "enc",
) -> np.ndarray:
    """Encode a (B, N, C) stack of clouds and (B, P) proprio rows to (B, out_width)."""
    points, proprio = _check_batch(spec, points, proprio)
    return _encode_batch_forward(store, spec, points, proprio, prefix)[0]


def encode_batch_padded(
    store: nn.ParamStore,
    spec: EncoderSpec,
    points: np.ndarray,
    proprio: np.ndarray,
    prefix: str = "enc",
) -> np.ndarray:
    """encode_batch() with the post net run on rows padded to a multiple of POST_ROW_MULTIPLE.

    The pool takes the max over the point axis (_max_pool).  That has the
    bits of the argmax pool the traced forward keeps, signed zeros
    included: an affine output is -0.0 only where a bias entry is, so the
    relu features hold no -0.0 to tie with a +0.0.  The pooled features,
    the proprio rows and the pad rows (copies of the first row) are
    written into one post-net input array.  Returns every padded row; the
    first B are the batch's.  A head run on all of them gives row b the
    same bits at any B (see the module docstring).

    Shapes are checked, values are not: this is the policy's inference
    path, whose observations PointCloudObs checked when they were built,
    and both nets run through nn.forward_unchecked().  Non-finite values
    pass through to the output.
    """
    points, proprio = _check_batch(spec, points, proprio)
    B, N, C = points.shape
    F = spec.feature_dim
    feats = nn.forward_unchecked(store, spec.per_point, points.reshape(B * N, C), f"{prefix}.pp")
    x = np.empty((B + -B % POST_ROW_MULTIPLE, spec.post.in_width))
    x[:B, :F] = _max_pool(feats.reshape(B, N, F))
    x[:B, F:] = proprio
    x[B:] = x[0]
    return nn.forward_unchecked(store, spec.post, x, f"{prefix}.post")


def encode(store: nn.ParamStore, spec: EncoderSpec, obs: PointCloudObs, prefix: str = "enc") -> np.ndarray:
    """Encode one observation to a (out_width,) feature vector, as a one-row batch."""
    return encode_batch(store, spec, obs.points[None], obs.proprio[None], prefix)[0]


def encode_batch_backward(
    store: nn.ParamStore,
    spec: EncoderSpec,
    cache: EncodeBatchCache,
    d_out: np.ndarray,
    grad: np.ndarray,
    prefix: str = "enc",
) -> None:
    """Accumulate d(loss)/d(params) for a batch from encode_batch_trace into `grad`.

    The max-pool passes gradient only to the point each feature pooled
    from, so the per-point net is backpropagated through those points
    alone: the pooled gradient goes through the tail activations at the
    pooled entries, then lands at (slot[b, f], f) of a (rows, F) upstream
    gradient (a point that several features picked gets all of theirs),
    which runs back through the head.  No other point's gradient, zero
    by construction, is ever formed, and neither is the gradient with
    respect to the points themselves.

    The result is deterministic for a given batch.  It adds each
    parameter's terms in another order than the dense backward over all
    B*N points, so the two agree to rounding, not bit for bit.
    """
    B, F = cache.slot.shape
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != (B, spec.out_width):
        raise ShapeMismatchError(f"upstream gradient must be ({B}, {spec.out_width}), got {d_out.shape}")
    dx = nn.backward_batch(store, spec.post, cache.post_cache, d_out, grad, f"{prefix}.post")
    d_pooled = dx[:, :F]
    head, tail = _head_and_tail(spec.per_point)
    for layer, out in zip(reversed(tail), reversed(cache.tail_out)):
        d_pooled = nn._activation_grad(layer.fn, d_pooled, out)
    d_rows = np.zeros((cache.head_rows[0].shape[0], F))
    d_rows[cache.slot, np.arange(F)] = d_pooled
    nn.backward_batch(store, head, cache.head_rows, d_rows, grad, f"{prefix}.pp", input_grad=False)
