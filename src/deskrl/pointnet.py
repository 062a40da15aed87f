"""Set encoder for point-cloud observations.

Every point (coordinates plus one-hot segmentation channels) runs through a
shared per-point MLP, features are max-pooled over the point axis, the
pooled vector is concatenated with the proprioceptive vector, and a post
MLP produces the final feature.

Two evaluation paths share one set of parameters:

* encode() handles a single observation.  Its per-point affine maps go
  through einsum, whose accumulation order per output row does not depend
  on how many points the cloud has.  That makes the pooled features -- and
  so the whole output -- bit-identical under any permutation of the points
  and under duplication of existing points, which reshuffling or padding a
  BLAS matmul would not guarantee (kernel choice there can vary with the
  row count).
* encode_batch() handles (B, N, C) stacks for training updates, where raw
  speed matters and only within-path determinism is needed, so it uses the
  ordinary matmul core.

Max-pool ties resolve to the lowest point index; only gradients can tell
the difference, the forward value is the max either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import NonFiniteError, ShapeMismatchError


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


def _check_obs(spec: EncoderSpec, obs: PointCloudObs) -> None:
    if obs.points.shape[1] != spec.point_channels:
        raise ShapeMismatchError(
            f"points have {obs.points.shape[1]} channels, encoder expects {spec.point_channels}"
        )
    if obs.proprio.shape[0] != spec.proprio_width:
        raise ShapeMismatchError(
            f"proprio has width {obs.proprio.shape[0]}, encoder expects {spec.proprio_width}"
        )


def _per_point_rowstable(store: nn.ParamStore, spec: nn.NetSpec, pts: np.ndarray, prefix: str) -> np.ndarray:
    """Per-point forward whose row values do not depend on the row count."""
    H = pts
    j = 0
    for layer in spec.layers:
        if layer.kind == "affine":
            H = np.einsum("nk,ko->no", H, store.get(f"{prefix}.W{j}")) + store.get(f"{prefix}.b{j}")
            j += 1
        else:
            H = nn._apply_activation(layer.fn, H)
    return H


def _per_point_rowstable_trace(
    store: nn.ParamStore, spec: nn.NetSpec, pts: np.ndarray, prefix: str
) -> tuple[np.ndarray, list[np.ndarray]]:
    """_per_point_rowstable plus the per-layer inputs/outputs the backward pass needs."""
    cache: list[np.ndarray] = []
    H = pts
    j = 0
    for layer in spec.layers:
        if layer.kind == "affine":
            cache.append(H)
            W = store.get(f"{prefix}.W{j}")
            b = store.get(f"{prefix}.b{j}")
            H = np.einsum("nk,ko->no", H, W) + b
            j += 1
        else:
            H = nn._apply_activation(layer.fn, H)
            cache.append(H)
    return H, cache


def _pool(spec: EncoderSpec, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max over points per feature: (argmax index, pooled values)."""
    pool_idx = np.argmax(feats, axis=0)  # first (lowest) index wins ties
    return pool_idx, feats[pool_idx, np.arange(spec.feature_dim)]


@dataclass
class EncodeCache:
    """Intermediates for one single-observation backward pass."""

    pp_cache: list[np.ndarray]
    feats: np.ndarray
    pool_idx: np.ndarray
    post_cache: list[np.ndarray]


def encode_trace(
    store: nn.ParamStore, spec: EncoderSpec, obs: PointCloudObs, prefix: str = "enc"
) -> tuple[np.ndarray, EncodeCache]:
    """encode() plus the intermediates encode_backward needs."""
    _check_obs(spec, obs)
    feats, pp_cache = _per_point_rowstable_trace(store, spec.per_point, obs.points, f"{prefix}.pp")
    pool_idx, pooled = _pool(spec, feats)
    x = np.concatenate([pooled, obs.proprio])[None, :]
    out, post_cache = nn.forward_batch_trace(store, spec.post, x, f"{prefix}.post")
    return out[0], EncodeCache(pp_cache, feats, pool_idx, post_cache)


def encode(store: nn.ParamStore, spec: EncoderSpec, obs: PointCloudObs, prefix: str = "enc") -> np.ndarray:
    """Encode one observation to a (out_width,) feature vector."""
    _check_obs(spec, obs)
    feats = _per_point_rowstable(store, spec.per_point, obs.points, f"{prefix}.pp")
    _, pooled = _pool(spec, feats)
    x = np.concatenate([pooled, obs.proprio])[None, :]
    return nn.forward_batch(store, spec.post, x, f"{prefix}.post")[0]


def encode_backward(
    store: nn.ParamStore,
    spec: EncoderSpec,
    cache: EncodeCache,
    d_out: np.ndarray,
    grad: np.ndarray,
    prefix: str = "enc",
) -> None:
    """Accumulate d(loss)/d(params) for one encoded observation into `grad`."""
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != (spec.out_width,):
        raise ShapeMismatchError(f"upstream gradient must be ({spec.out_width},), got {d_out.shape}")
    dx = nn.backward_batch(store, spec.post, cache.post_cache, d_out[None, :], grad, f"{prefix}.post")
    d_pooled = dx[0, : spec.feature_dim]
    d_feats = np.zeros_like(cache.feats)
    d_feats[cache.pool_idx, np.arange(spec.feature_dim)] = d_pooled
    nn.backward_batch(store, spec.per_point, cache.pp_cache, d_feats, grad, f"{prefix}.pp")


@dataclass
class EncodeBatchCache:
    pp_cache: list[np.ndarray]
    shape: tuple[int, int, int]
    pool_idx: np.ndarray
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


def encode_batch_trace(
    store: nn.ParamStore,
    spec: EncoderSpec,
    points: np.ndarray,
    proprio: np.ndarray,
    prefix: str = "enc",
) -> tuple[np.ndarray, EncodeBatchCache]:
    points, proprio = _check_batch(spec, points, proprio)
    B, N, C = points.shape
    feats_flat, pp_cache = nn.forward_batch_trace(
        store, spec.per_point, points.reshape(B * N, C), f"{prefix}.pp"
    )
    feats = feats_flat.reshape(B, N, spec.feature_dim)
    pool_idx = np.argmax(feats, axis=1)
    pooled = np.take_along_axis(feats, pool_idx[:, None, :], axis=1)[:, 0, :]
    x = np.concatenate([pooled, proprio], axis=1)
    out, post_cache = nn.forward_batch_trace(store, spec.post, x, f"{prefix}.post")
    return out, EncodeBatchCache(pp_cache, (B, N, C), pool_idx, post_cache)


def encode_batch(
    store: nn.ParamStore,
    spec: EncoderSpec,
    points: np.ndarray,
    proprio: np.ndarray,
    prefix: str = "enc",
) -> np.ndarray:
    out, _ = encode_batch_trace(store, spec, points, proprio, prefix)
    return out


def encode_batch_backward(
    store: nn.ParamStore,
    spec: EncoderSpec,
    cache: EncodeBatchCache,
    d_out: np.ndarray,
    grad: np.ndarray,
    prefix: str = "enc",
) -> None:
    B, N, _ = cache.shape
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != (B, spec.out_width):
        raise ShapeMismatchError(f"upstream gradient must be ({B}, {spec.out_width}), got {d_out.shape}")
    dx = nn.backward_batch(store, spec.post, cache.post_cache, d_out, grad, f"{prefix}.post")
    d_pooled = dx[:, : spec.feature_dim]
    d_feats = np.zeros((B, N, spec.feature_dim))
    np.put_along_axis(d_feats, cache.pool_idx[:, None, :], d_pooled[:, None, :], axis=1)
    nn.backward_batch(
        store, spec.per_point, cache.pp_cache, d_feats.reshape(B * N, spec.feature_dim), grad, f"{prefix}.pp"
    )
