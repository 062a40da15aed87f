"""Hand-rolled dense-network core over one flat float64 parameter vector.

Every net is an MLP, a NetSpec: its widths, the activation after each
hidden affine layer and the one after the last.  Parameters for every
network in a model live in a single ParamStore: a flat float64 vector
plus a name -> (offset, rows, cols) directory.  Optimizer steps and
checkpoints operate on the flat vector; layers see 2-D views into it.
Weights are stored (in_width, out_width) so a batch X of shape (B, in)
maps through X @ W + b, and biases are stored (1, out_width) so the same
expression broadcasts.

The backward pass reads the cache forward_unchecked() fills (each affine
layer's input, then the net's output) and accumulates into a
caller-supplied flat gradient vector, which makes multi-head models
(shared encoder, several heads) a matter of calling backward once per
head with the same accumulator.

Inputs are checked for shape and finiteness where they enter:
forward_batch() and forward() check theirs and serve callers that pass
raw arrays; no shipped path calls them, and they stay for the benchmark
under perfbench/, which traces forward() by name.  forward_unchecked()
is the same layer loop without the check, which every net of the policy
runs through, on a batch that pointnet checked where its forward took
it in.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError

ACTIVATIONS = ("identity", "relu", "tanh")


@dataclass(frozen=True)
class NetSpec:
    """An MLP: affine layers widths[0] -> widths[1] -> ... -> widths[-1],
    each followed by the `hidden` activation except the last, which is
    followed by `output` ("identity" applies none)."""

    widths: tuple[int, ...]
    hidden: str = "relu"
    output: str = "identity"

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ShapeMismatchError("a net needs at least input and output widths")
        if min(self.widths) < 1:
            raise ShapeMismatchError("layer widths must be positive")
        for fn in (self.hidden, self.output):
            if fn not in ACTIVATIONS:
                raise ShapeMismatchError(f"unknown activation {fn!r}")

    @property
    def in_width(self) -> int:
        return self.widths[0]

    @property
    def out_width(self) -> int:
        return self.widths[-1]

    @property
    def depth(self) -> int:
        """The number of affine layers."""
        return len(self.widths) - 1

    def activation(self, j: int) -> str:
        """The activation after affine layer j."""
        return self.output if j == self.depth - 1 else self.hidden


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

    def slice_bounds(self, name: str) -> tuple[int, int]:
        offset, rows, cols = self._require(name)
        return (offset, offset + rows * cols)

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
    for j, (w_in, w_out) in enumerate(zip(spec.widths, spec.widths[1:])):
        scale = float(np.sqrt(1.0 / w_in))
        store.add(f"{prefix}.W{j}", gen.normal(0.0, scale, size=(w_in, w_out)))
        store.add(f"{prefix}.b{j}", np.zeros((1, w_out)))


def _check_input(X: np.ndarray, width: int, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != width:
        raise ShapeMismatchError(f"{name}: expected (batch, {width}), got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NonFiniteError(f"{name}: input contains non-finite values")
    return X


def _activate(fn: str, X: np.ndarray) -> None:
    """fn(X), in place."""
    if fn == "relu":
        np.maximum(X, 0.0, out=X)
    elif fn == "tanh":
        np.tanh(X, out=X)


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


@functools.lru_cache(maxsize=32)
def _layers(spec: NetSpec, prefix: str) -> tuple[tuple[str, str, str], ...]:
    """(W name, b name, activation) of each affine layer, built once per spec and prefix."""
    return tuple((f"{prefix}.W{j}", f"{prefix}.b{j}", spec.activation(j)) for j in range(spec.depth))


def forward_unchecked(
    store: ParamStore,
    spec: NetSpec,
    X: np.ndarray,
    prefix: str,
    cache: list[np.ndarray] | None = None,
) -> np.ndarray:
    """The one dense forward: a (B, in_width) float64 array to (B, out_width),
    with no check of X, whose finiteness the caller vouches for.

    Each affine layer is a product, then its bias add and its activation
    in place on the product: the same IEEE operations as out-of-place
    ones, without a temporary per step.  With a `cache` list, appends each
    affine layer's input and then the net's output, so cache[j] is layer
    j's input and cache[j + 1] its activation's output, which is what
    backward_batch reads.
    """
    for w, b, fn in _layers(spec, prefix):
        if cache is not None:
            cache.append(X)
        X = X @ store.get(w)
        X += store.get(b)
        _activate(fn, X)
    if cache is not None:
        cache.append(X)
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
    for j in reversed(range(spec.depth)):
        dY = _activation_grad(spec.activation(j), dY, cache[j + 1])
        lo_w, hi_w = store.slice_bounds(f"{prefix}.W{j}")
        lo_b, hi_b = store.slice_bounds(f"{prefix}.b{j}")
        grad[lo_w:hi_w] += (cache[j].T @ dY).ravel()
        grad[lo_b:hi_b] += dY.sum(axis=0)
        if j == 0 and not input_grad:
            return None
        dY = dY @ store.get(f"{prefix}.W{j}").T
    return dY


def forward(store: ParamStore, spec: NetSpec, x: np.ndarray, prefix: str) -> np.ndarray:
    """Single-sample convenience wrapper; x is (in_width,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeMismatchError(f"{prefix}: expected a 1-D input, got shape {x.shape}")
    return forward_batch(store, spec, x[None, :], prefix)[0]


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


def init_adam(n_params: int, lr: float = 3e-4) -> AdamState:
    if lr < 0.0:
        raise ShapeMismatchError("Adam needs lr >= 0")
    return AdamState(m=np.zeros(n_params, dtype=np.float64), v=np.zeros(n_params, dtype=np.float64), lr=lr)


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
