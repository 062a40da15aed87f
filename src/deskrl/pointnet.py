"""Set encoder for point-cloud observations.

Every point (POINT_DIM coordinates plus FEAT_CHANNELS one-hot segmentation
channels, the layout every environment emits) runs through a shared
per-point MLP, features are max-pooled over the point axis, the pooled
vector is concatenated with the proprioceptive vector, and a post MLP
produces the final feature.  Both nets are nn.NetSpec MLPs.

There are two forward computations on (B, N, C) stacks of clouds.
encode_batch_trace() serves training: encode_batch() returns its output
and encode() runs one observation through it as a one-row batch (no
shipped path calls those two; they stay for the benchmark under
perfbench/, which looks them up by name).  encode_batch_padded() serves
inference.  Each per-point layer is one BLAS matmul over all B*N points,
and a point's output comes out with the same bits whatever points
surround it: encode() is bit-identical under any permutation of a
cloud's points and under duplication of existing points, which
tests/test_pointnet.py pins.  Up to its last
affine layer (the body, widths[:-1]) the per-point net runs point-major,
one (B*N, width) row per point.  The last layer, whose activation is a
ReLU, runs its product feature-major: W.T @ H.T fills an (F, B*N) array
with the bits of (H @ W).T (tested under the SkylakeX, Haswell, Zen and
Prescott OpenBLAS kernels), and the argmax pool scans each feature's N
points along its contiguous axis, before the bias and the ReLU, which
only the (B, F) pooled entries get (see _argmax_pool).

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
stays point-major: it reads only pooled values, so it pools the last
layer's product with np.maximum.reduce (np.max without its Python
wrapper; 14 against np.argmax's 25 us over the strided point axis at 4
clouds, 48 against 77 at 16, on a 2-vCPU Xeon), then adds the bias and
applies the ReLU to the (B, F) pooled rows only.  A feature-major padded
forward was no faster at 16 clouds (416 against 385 us).

A PointCloudObs is its two arrays and checks nothing.  Each forward
checks its batch once, on entry (_check_batch: shapes, a cloud of at
least one point, finite values), and runs both nets through
nn.forward_unchecked(), as the PPO and BC losses run their heads before
checking the loss finite.

The max-pool's gradient reaches only the point each feature pooled from,
so encode_batch_backward() runs the per-point net backward through the
pooled points alone (see there).  It agrees to rounding with the plain
reference that scatters the pooled gradient into a dense (B, N, F) array
and backpropagates every point, which the tests keep.

Max-pool ties resolve to the lowest point index (see _argmax_pool); only
gradients can tell the difference, the forward value is the max either way.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nn
from .errors import NonFiniteError, ShapeMismatchError

# encode_batch_padded() pads the post net's rows to a multiple of this;
# unpadded, a row's bits differed from its bits in a 64-row batch at every
# row count that is not a multiple of 4.  It is not the backward's 64 (see
# encode_batch_trace): padding to 64 made policy.mean_actions 59 % slower
# at 1 cloud and 15 % at 16 (2-vCPU Xeon, one BLAS thread, 6 pairs).
POST_ROW_MULTIPLE = 8

# the cloud layout every task shares: each point's coordinates, then a
# one-hot class over robot, object and target
POINT_DIM = 2
FEAT_CHANNELS = 3

# the parameter-name prefixes of the per-point and post nets
PER_POINT, POST = "enc.pp", "enc.post"


class PointCloudObs(NamedTuple):
    """One observation: (n_points, POINT_DIM + FEAT_CHANNELS) and
    (proprio_width,) float64 arrays, unchecked until a forward takes them in."""

    points: np.ndarray
    proprio: np.ndarray


@dataclass(frozen=True)
class EncoderSpec:
    """The per-point and post nets; the per-point net ends in a relu."""

    proprio_width: int
    per_point: nn.NetSpec
    post: nn.NetSpec

    def __post_init__(self):
        if self.proprio_width < 0:
            raise ShapeMismatchError("proprio width cannot be negative")
        if self.per_point.in_width != POINT_DIM + FEAT_CHANNELS:
            raise ShapeMismatchError(
                f"per-point net expects width {self.per_point.in_width}, "
                f"points have {POINT_DIM + FEAT_CHANNELS} channels"
            )
        if self.post.in_width != self.per_point.out_width + self.proprio_width:
            raise ShapeMismatchError("post net width must equal pooled features + proprio")
        if self.per_point.output != "relu":
            raise ShapeMismatchError("per-point net must end in a relu")

    @property
    def feature_dim(self) -> int:
        return self.per_point.out_width

    @property
    def out_width(self) -> int:
        return self.post.out_width


def build_encoder_spec(
    proprio_width: int = 8,
    per_point_widths: tuple[int, ...] = (32, 64),
    post_widths: tuple[int, ...] = (64,),
) -> EncoderSpec:
    per_point = nn.NetSpec((POINT_DIM + FEAT_CHANNELS, *per_point_widths), hidden="relu", output="relu")
    post = nn.NetSpec((per_point_widths[-1] + proprio_width, *post_widths), hidden="relu", output="relu")
    return EncoderSpec(proprio_width, per_point, post)


@functools.lru_cache(maxsize=32)
def _body(spec: EncoderSpec) -> nn.NetSpec:
    """The per-point net up to its last affine layer, whose input it gives;
    only for a per-point net of more than one layer.  Built once per spec."""
    pp = spec.per_point
    return nn.NetSpec(pp.widths[:-1], pp.hidden, pp.hidden)


def init_encoder_params(store: nn.ParamStore, spec: EncoderSpec, gen: np.random.Generator) -> None:
    """Register per-point then post parameters (draw order is part of the contract)."""
    nn.init_net_params(store, spec.per_point, gen, PER_POINT)
    nn.init_net_params(store, spec.post, gen, POST)


@dataclass
class EncodeBatchCache:
    """What encode_batch_backward reads, kept at the pooled points only.

    The rows are the distinct points that some feature pooled from, in
    ascending (cloud, point) order.  slot[b, f] is the row that feature f
    of cloud b pooled from.  head_rows holds each per-point layer's input
    at those rows: the points, then the outputs of the layers before the
    last (nn.forward_unchecked's cache of the body of the net).  tail_out
    is the net's closing ReLU at the pooled entries, (B, F): the pooled
    features.
    """

    slot: np.ndarray
    head_rows: list[np.ndarray]
    tail_out: np.ndarray
    post_cache: list[np.ndarray]


def _check_batch(
    spec: EncoderSpec, points: np.ndarray, proprio: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Shapes, a cloud of at least one point, and finite values: the one
    check before the nets run unchecked."""
    points = np.asarray(points, dtype=np.float64)
    proprio = np.asarray(proprio, dtype=np.float64)
    if points.ndim != 3 or points.shape[1] < 1 or points.shape[2] != spec.per_point.in_width:
        raise ShapeMismatchError(
            f"expected points (batch, n >= 1, {spec.per_point.in_width}), got {points.shape}"
        )
    if proprio.shape != (points.shape[0], spec.proprio_width):
        raise ShapeMismatchError(
            f"expected proprio ({points.shape[0]}, {spec.proprio_width}), got {proprio.shape}"
        )
    # .all()'s verdict without its Python wrapper, once per tick on inference
    if not (np.logical_and.reduce(np.isfinite(points), axis=None)
            and np.logical_and.reduce(np.isfinite(proprio), axis=None)):
        raise NonFiniteError("batch contains non-finite points or proprio")
    return points, proprio


def _last_layer_input(
    store: nn.ParamStore, spec: EncoderSpec, h: np.ndarray, cache: list[np.ndarray] | None = None
) -> np.ndarray:
    """The body of the per-point net over point-major (B*N, C) rows,
    unchecked: the last per-point layer's input.  With a `cache` list,
    appends each body layer's input and then this output (the points
    alone when the net has one layer)."""
    if spec.per_point.depth > 1:
        return nn.forward_unchecked(store, _body(spec), h, PER_POINT, cache)
    if cache is not None:
        cache.append(h)
    return h


def _argmax_pool(z: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pool indices and pooled features, (B, F) each, of relu(z + b) for the
    last per-point layer's feature-major (F, B, N) product z and (1, F) bias b.

    Rounded addition and the ReLU are monotone, so relu(max(z) + b) has the
    bits of max(relu(z + b)): argmax runs over z's contiguous point axis,
    the lowest index winning ties, one flat gather reads the maxima, and
    only those get the bias and the ReLU.  Where the biased max is <= 0,
    every output is a zero tie: the index is 0 and the value point 0's, as
    the lowest-index rule gives.  Where two points' values differ but round
    to the same biased max, the index is the larger value's.
    """
    F, B, N = z.shape
    idx = np.argmax(z, axis=2).T
    pooled = z.take(idx + (np.arange(F) * B + np.arange(B)[:, None]) * N)
    pooled += b
    dead = pooled <= 0.0
    idx[dead] = 0
    pooled[dead] = (z[:, :, 0].T + b)[dead]
    np.maximum(pooled, 0.0, out=pooled)
    return idx, pooled


def _pool_forward(
    store: nn.ParamStore, spec: EncoderSpec, points: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The per-point net over all B*N points and the max pool.

    The net runs point-major, (B*N, width), and unchecked up to its last
    affine layer.  That layer's product W.T @ H.T fills an (F, B*N) array
    with the bits of (H @ W).T, pooled before the bias and the ReLU (see
    _argmax_pool).  Returns each per-point layer's input (see
    EncodeBatchCache.head_rows), the pool indices and the pooled features.
    """
    B, N, C = points.shape
    cache: list[np.ndarray] = []
    h = _last_layer_input(store, spec, points.reshape(B * N, C), cache)
    j = spec.per_point.depth - 1
    z = store.get(f"{PER_POINT}.W{j}").T @ h.T
    pool_idx, pooled = _argmax_pool(z.reshape(spec.feature_dim, B, N), store.get(f"{PER_POINT}.b{j}"))
    return cache, pool_idx, pooled


def encode_batch_trace(
    store: nn.ParamStore,
    spec: EncoderSpec,
    points: np.ndarray,
    proprio: np.ndarray,
) -> tuple[np.ndarray, EncodeBatchCache]:
    """The one batched forward: (B, out_width) features and what
    encode_batch_backward needs.

    The points and proprio are checked once, here.  The per-point net's
    last layer runs feature-major and is pooled before its bias and ReLU
    (see _pool_forward); the cache keeps only the pooled points.
    """
    points, proprio = _check_batch(spec, points, proprio)
    B, N, _ = points.shape
    head_cache, pool_idx, pooled = _pool_forward(store, spec, points)
    post_cache: list[np.ndarray] = []
    x = np.concatenate([pooled, proprio], axis=1)
    out = nn.forward_unchecked(store, spec.post, x, POST, post_cache)
    flat = pool_idx + (np.arange(B) * N)[:, None]
    used = np.zeros(B * N, dtype=bool)
    used[flat] = True
    rows = np.flatnonzero(used)
    slot = (np.cumsum(used) - 1)[flat]
    # Pad with copies of a pooled row, which get zero gradient, to a
    # multiple of 64 rows, as the B*N rows of 64-point clouds always were:
    # OpenBLAS's threaded gemm sums a reduction over other row counts in
    # another order than its single-threaded one, which would tie the
    # parameter gradient's bits to the BLAS thread count.  The forward's
    # POST_ROW_MULTIPLE (8) does not serve here: padded to 8, the PPO
    # training digests differ between one and two OpenBLAS threads.
    rows = np.concatenate([rows, rows[:1].repeat(-rows.size % 64)])
    return out, EncodeBatchCache(slot, [c[rows] for c in head_cache], pooled, post_cache)


def encode_batch(
    store: nn.ParamStore,
    spec: EncoderSpec,
    points: np.ndarray,
    proprio: np.ndarray,
) -> np.ndarray:
    """Encode a (B, N, C) stack of clouds and (B, P) proprio rows to (B, out_width)."""
    return encode_batch_trace(store, spec, points, proprio)[0]


def encode_batch_padded(
    store: nn.ParamStore,
    spec: EncoderSpec,
    points: np.ndarray,
    proprio: np.ndarray,
) -> np.ndarray:
    """encode_batch() with the post net run on rows padded to a multiple of POST_ROW_MULTIPLE.

    The per-point net runs point-major.  The pool takes the max over the
    points of the last layer's product, before its bias and ReLU, which
    only the (B, F) pooled values get.  Rounded addition and the ReLU are
    monotone, so this has the bits of the max of relu(z + b) over the
    points, signed zeros included: an affine output is -0.0 only where a
    bias entry is, so the relu features hold no -0.0 to tie with a +0.0.
    Unlike the traced forward, no index is kept, so a rounding tie after
    the bias (see _argmax_pool) cannot move a bit here.  The pooled
    features, the proprio rows and the pad rows (copies of the first row)
    are written into one post-net input array.  Returns every padded row;
    the first B are the batch's.  A head run on all of them gives row b
    the same bits at any B (see the module docstring).
    """
    points, proprio = _check_batch(spec, points, proprio)
    B, N, C = points.shape
    F = spec.feature_dim
    j = spec.per_point.depth - 1
    z = _last_layer_input(store, spec, points.reshape(B * N, C)) @ store.get(f"{PER_POINT}.W{j}")
    x = np.empty((B + -B % POST_ROW_MULTIPLE, spec.post.in_width))
    pooled = x[:B, :F]
    np.maximum.reduce(z.reshape(B, N, F), axis=1, out=pooled)
    pooled += store.get(f"{PER_POINT}.b{j}")
    np.maximum(pooled, 0.0, out=pooled)
    x[:B, F:] = proprio
    x[B:] = x[0]
    return nn.forward_unchecked(store, spec.post, x, POST)


def encode(store: nn.ParamStore, spec: EncoderSpec, obs: PointCloudObs) -> np.ndarray:
    """Encode one observation to a (out_width,) feature vector, as a one-row batch."""
    return encode_batch(store, spec, obs.points[None], obs.proprio[None])[0]


def encode_batch_backward(
    store: nn.ParamStore,
    spec: EncoderSpec,
    cache: EncodeBatchCache,
    d_out: np.ndarray,
    grad: np.ndarray,
) -> None:
    """Accumulate d(loss)/d(params) for a batch from encode_batch_trace into `grad`.

    The max-pool passes gradient only to the point each feature pooled
    from, so the per-point net is backpropagated through those points
    alone: the pooled gradient goes through the closing ReLU at the pooled
    entries, where the last per-point bias takes its gradient, then lands
    at (slot[b, f], f) of a (rows, F) upstream gradient (a point that
    several features picked gets all of theirs), which runs back through
    the last weights and the layers before them.  No other point's
    gradient, zero by construction, is ever formed, and neither is the
    gradient with respect to the points themselves.

    The result is deterministic for a given batch.  It adds each
    parameter's terms in another order than the dense backward over all
    B*N points, so the two agree to rounding, not bit for bit.
    """
    B, F = cache.slot.shape
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != (B, spec.out_width):
        raise ShapeMismatchError(f"upstream gradient must be ({B}, {spec.out_width}), got {d_out.shape}")
    dx = nn.backward_batch(store, spec.post, cache.post_cache, d_out, grad, POST)
    d_pooled = nn._activation_grad("relu", dx[:, :F], cache.tail_out)
    h = cache.head_rows[-1]
    d_rows = np.zeros((h.shape[0], F))
    d_rows[cache.slot, np.arange(F)] = d_pooled
    j = spec.per_point.depth - 1
    lo, hi = store.slice_bounds(f"{PER_POINT}.W{j}")
    grad[lo:hi] += (h.T @ d_rows).ravel()
    lo, hi = store.slice_bounds(f"{PER_POINT}.b{j}")
    grad[lo:hi] += d_pooled.sum(axis=0)
    if j:
        d_h = d_rows @ store.get(f"{PER_POINT}.W{j}").T
        nn.backward_batch(store, _body(spec), cache.head_rows, d_h, grad, PER_POINT, input_grad=False)
