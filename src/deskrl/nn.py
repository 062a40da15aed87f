"""Hand-rolled dense-network core over one flat float64 parameter vector.

Parameters for every network in a model live in a single ParamStore: a flat
float64 vector plus a name -> (offset, rows, cols) directory.  Optimizer
steps, checkpoints, and finite-difference probes all operate on the flat
vector; layers see 2-D views into it.  Weights are stored (in_width,
out_width) so a batch X of shape (B, in) maps through X @ W + b, and biases
are stored (1, out_width) so the same expression broadcasts.

The backward pass accumulates into a caller-supplied flat gradient vector,
which makes multi-head models (shared encoder, several heads) a matter of
calling backward once per head with the same accumulator.

Inputs are checked for shape and finiteness where they enter:
forward_batch() and forward() check theirs and serve callers that pass
raw arrays.  forward_unchecked() is the same layer loop without the
check, which every net of the policy runs through: the padded forward on
observations that pointnet.PointCloudObs checked when they were built,
the update on a minibatch that pointnet.encode_batch_trace() checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError

ACTIVATIONS = ("identity", "relu", "tanh")


@dataclass(frozen=True)
class LayerSpec:
    """One layer: an affine map or an elementwise activation."""

    kind: str
    in_width: int
    out_width: int
    fn: str = "identity"

    def __post_init__(self):
        if self.kind not in ("affine", "activation"):
            raise ShapeMismatchError(f"unknown layer kind {self.kind!r}")
        if self.in_width < 1 or self.out_width < 1:
            raise ShapeMismatchError("layer widths must be positive")
        if self.kind == "activation":
            if self.in_width != self.out_width:
                raise ShapeMismatchError("activation layers cannot change width")
            if self.fn not in ACTIVATIONS:
                raise ShapeMismatchError(f"unknown activation {self.fn!r}")


@dataclass(frozen=True)
class NetSpec:
    """An ordered stack of layers with matching widths."""

    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if not self.layers:
            raise ShapeMismatchError("a net needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_width != b.in_width:
                raise ShapeMismatchError(
                    f"layer widths do not chain: {a.out_width} -> {b.in_width}"
                )

    @property
    def in_width(self) -> int:
        return self.layers[0].in_width

    @property
    def out_width(self) -> int:
        return self.layers[-1].out_width


def mlp(widths: tuple[int, ...], hidden: str = "relu", output: str = "identity") -> NetSpec:
    """Affine stack with `hidden` activations between layers and `output` after the last."""
    if len(widths) < 2:
        raise ShapeMismatchError("an mlp needs at least input and output widths")
    layers: list[LayerSpec] = []
    for j, (w_in, w_out) in enumerate(zip(widths, widths[1:])):
        layers.append(LayerSpec("affine", w_in, w_out))
        last = j == len(widths) - 2
        fn = output if last else hidden
        if fn != "identity":
            layers.append(LayerSpec("activation", w_out, w_out, fn))
    return NetSpec(tuple(layers))


class ParamStore:
    """Named 2-D slices over one flat float64 vector.

    get() returns a reshaped view, so in-place updates to the flat vector
    (Adam, checkpoint restore) are immediately visible to every consumer.
    Each view is built once and cached; add() and assigning a new array
    to `flat` drop the cache, so a view never points into a replaced
    vector.  Slices must all be registered before the flat vector is
    mutated in place; add() reallocates.
    """

    def __init__(self):
        self._slices: dict[str, tuple[int, int, int]] = {}
        self.flat = np.zeros(0, dtype=np.float64)

    @property
    def flat(self) -> np.ndarray:
        return self._flat

    @flat.setter
    def flat(self, values: np.ndarray) -> None:
        # `store.flat -= step` assigns the same array back; keep its views
        if getattr(self, "_flat", None) is not values:
            self._flat = values
            self._views: dict[str, np.ndarray] = {}

    def add(self, name: str, values: np.ndarray) -> None:
        if name in self._slices:
            raise ShapeMismatchError(f"duplicate parameter slice {name!r}")
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ShapeMismatchError(f"slice {name!r} must be 2-D, got shape {values.shape}")
        offset = self.flat.size
        self._slices[name] = (offset, values.shape[0], values.shape[1])
        self.flat = np.concatenate([self.flat, values.ravel()])

    def get(self, name: str) -> np.ndarray:
        view = self._views.get(name)
        if view is None:
            offset, rows, cols = self._require(name)
            view = self._views[name] = self._flat[offset : offset + rows * cols].reshape(rows, cols)
        return view

    def shape(self, name: str) -> tuple[int, int]:
        _, rows, cols = self._require(name)
        return (rows, cols)

    def slice_bounds(self, name: str) -> tuple[int, int]:
        offset, rows, cols = self._require(name)
        return (offset, offset + rows * cols)

    def names(self) -> list[str]:
        return list(self._slices)

    @property
    def size(self) -> int:
        return self.flat.size

    def directory(self) -> list[tuple[str, int, int]]:
        """Slice layout in registration order, for checkpoints."""
        return [(name, rows, cols) for name, (_, rows, cols) in self._slices.items()]

    @classmethod
    def from_directory(cls, directory: list[tuple[str, int, int]], flat: np.ndarray) -> "ParamStore":
        store = cls()
        offset = 0
        for name, rows, cols in directory:
            store._slices[str(name)] = (offset, int(rows), int(cols))
            offset += int(rows) * int(cols)
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (offset,):
            raise ShapeMismatchError(
                f"flat vector has {flat.size} entries, directory expects {offset}"
            )
        store.flat = flat.copy()
        return store

    def copy(self) -> "ParamStore":
        return ParamStore.from_directory(self.directory(), self.flat)

    def zeros_grad(self) -> np.ndarray:
        return np.zeros_like(self.flat)

    def _require(self, name: str) -> tuple[int, int, int]:
        try:
            return self._slices[name]
        except KeyError:
            raise ShapeMismatchError(f"no parameter slice named {name!r}") from None


def init_net_params(
    store: ParamStore,
    spec: NetSpec,
    gen: np.random.Generator,
    prefix: str,
) -> None:
    """Register W/b slices for every affine layer of `spec` under `prefix`.

    Weights draw from N(0, s^2) with s = sqrt(1/in_width); biases start at
    zero.
    """
    j = 0
    for layer in spec.layers:
        if layer.kind != "affine":
            continue
        scale = float(np.sqrt(1.0 / layer.in_width))
        w = gen.normal(0.0, scale, size=(layer.in_width, layer.out_width))
        store.add(f"{prefix}.W{j}", w)
        store.add(f"{prefix}.b{j}", np.zeros((1, layer.out_width)))
        j += 1


def _check_input(X: np.ndarray, width: int, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != width:
        raise ShapeMismatchError(f"{name}: expected (batch, {width}), got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NonFiniteError(f"{name}: input contains non-finite values")
    return X


def _apply_activation(fn: str, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """fn(X), written into `out` when given (out=X works in place)."""
    if fn == "relu":
        return np.maximum(X, 0.0, out=out)
    if fn == "tanh":
        return np.tanh(X, out=out)
    return X


def _activation_grad(fn: str, dY: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """dY through an activation whose output was Y.

    relu needs only the output's sign mask and tanh the output value, so
    the output covers both.
    """
    if fn == "relu":
        return dY * (Y > 0.0)
    if fn == "tanh":
        return dY * (1.0 - Y * Y)
    return dY


def forward_unchecked(
    store: ParamStore,
    spec: NetSpec,
    X: np.ndarray,
    prefix: str,
    cache: list[np.ndarray] | None = None,
) -> np.ndarray:
    """The one dense forward: a (B, in_width) float64 array to (B, out_width),
    with no check of X, whose finiteness the caller vouches for.

    With a `cache` list, appends the per-layer inputs/outputs the backward
    pass needs.  Each bias add, and an activation right after an affine
    layer, work in place on the affine layer's fresh output: the same IEEE
    operations as out-of-place ones, without a temporary per step.  Any
    other activation writes a new array, since its input is the caller's
    or is cached.
    """
    fresh = False
    j = 0
    for layer in spec.layers:
        if layer.kind == "affine":
            if cache is not None:
                cache.append(X)
            X = X @ store.get(f"{prefix}.W{j}")
            X += store.get(f"{prefix}.b{j}")
            fresh = True
            j += 1
        else:
            X = _apply_activation(layer.fn, X, out=X if fresh else None)
            fresh = False
            if cache is not None:
                cache.append(X)  # what _activation_grad reads
    return X


def forward_batch(store: ParamStore, spec: NetSpec, X: np.ndarray, prefix: str) -> np.ndarray:
    """Run a (B, in_width) batch through the net; returns (B, out_width)."""
    return forward_unchecked(store, spec, _check_input(X, spec.in_width, prefix), prefix)


def backward_batch(
    store: ParamStore,
    spec: NetSpec,
    cache: list[np.ndarray],
    dY: np.ndarray,
    grad: np.ndarray,
    prefix: str,
    input_grad: bool = True,
) -> np.ndarray | None:
    """Backprop dY (B, out_width) through the net, accumulating into `grad`.

    Returns the gradient with respect to the net input, shape (B, in_width),
    or None with input_grad=False, which skips the first layer's input
    product for callers that have no use for it.
    """
    dY = np.asarray(dY, dtype=np.float64)
    if dY.ndim != 2 or dY.shape[1] != spec.out_width:
        raise ShapeMismatchError(
            f"{prefix}: upstream gradient must be (batch, {spec.out_width}), got {dY.shape}"
        )
    if grad.shape != store.flat.shape:
        raise ShapeMismatchError("gradient accumulator does not match the parameter vector")
    j = sum(1 for layer in spec.layers if layer.kind == "affine")
    for pos in reversed(range(len(spec.layers))):
        layer, cached = spec.layers[pos], cache[pos]
        if layer.kind == "affine":
            j -= 1
            X = cached
            lo_w, hi_w = store.slice_bounds(f"{prefix}.W{j}")
            lo_b, hi_b = store.slice_bounds(f"{prefix}.b{j}")
            grad[lo_w:hi_w] += (X.T @ dY).ravel()
            grad[lo_b:hi_b] += dY.sum(axis=0)
            if pos == 0 and not input_grad:
                return None
            dY = dY @ store.get(f"{prefix}.W{j}").T
        else:
            dY = _activation_grad(layer.fn, dY, cached)
    return dY if input_grad else None


def forward(store: ParamStore, spec: NetSpec, x: np.ndarray, prefix: str) -> np.ndarray:
    """Single-sample convenience wrapper; x is (in_width,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeMismatchError(f"{prefix}: expected a 1-D input, got shape {x.shape}")
    return forward_batch(store, spec, x[None, :], prefix)[0]


def finite_diff_grad(loss_fn, store: ParamStore, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar loss over every parameter.

    Mutates the store in place while probing and restores each entry
    bit-exactly before moving on.
    """
    grad = np.empty_like(store.flat)
    flat = store.flat
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        f_plus = float(loss_fn(store))
        flat[i] = saved - h
        f_minus = float(loss_fn(store))
        flat[i] = saved
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NonFiniteError(f"loss is non-finite near parameter index {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


@dataclass
class AdamState:
    """First/second moment buffers plus hyperparameters for Adam."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def copy(self) -> "AdamState":
        return AdamState(self.m.copy(), self.v.copy(), self.t, self.lr, self.beta1, self.beta2, self.eps)


def init_adam(
    n_params: int,
    lr: float = 3e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ShapeMismatchError("Adam betas must lie in [0, 1)")
    if lr < 0.0 or eps <= 0.0:
        raise ShapeMismatchError("Adam needs lr >= 0 and eps > 0")
    return AdamState(
        m=np.zeros(n_params, dtype=np.float64),
        v=np.zeros(n_params, dtype=np.float64),
        t=0,
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
    )


def adam_step(store: ParamStore, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update, in place on the flat vector."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != store.flat.shape:
        raise ShapeMismatchError(
            f"gradient has shape {grad.shape}, parameters have shape {store.flat.shape}"
        )
    if grad.shape != state.m.shape:
        raise ShapeMismatchError("Adam state does not match the parameter vector")
    if not np.all(np.isfinite(grad)):
        raise NonFiniteError("gradient contains non-finite values")
    # the textbook expressions, evaluated in their order through two
    # scratch arrays: m += (1 - b1) g, v += (1 - b2) g g, then
    # flat -= lr m_hat / (sqrt(v_hat) + eps); products swap operands only
    state.t += 1
    a, b = np.empty_like(grad), np.empty_like(grad)
    state.m *= state.beta1
    state.m += np.multiply(grad, 1.0 - state.beta1, out=a)
    state.v *= state.beta2
    np.multiply(grad, 1.0 - state.beta2, out=a)
    state.v += np.multiply(a, grad, out=a)
    np.divide(state.m, 1.0 - state.beta1**state.t, out=a)
    a *= state.lr
    np.divide(state.v, 1.0 - state.beta2**state.t, out=b)
    np.sqrt(b, out=b)
    b += state.eps
    a /= b
    store.flat -= a
