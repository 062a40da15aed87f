"""Core network tests: forward oracles, finite-difference gradients, Adam."""

import numpy as np
import pytest

from deskrl import nn
from finite_diff import finite_diff_grad
from deskrl.errors import NonFiniteError, ShapeMismatchError
from deskrl.rng import make_generator


def naive_forward(store, spec, x, prefix):
    """Loop-and-dot reference forward, independent of the library path."""
    h = [float(v) for v in x]
    for j in range(spec.depth):
        W = store.get(f"{prefix}.W{j}")
        b = store.get(f"{prefix}.b{j}")
        out = []
        for o in range(spec.widths[j + 1]):
            acc = float(b[0, o])
            for i in range(spec.widths[j]):
                acc += h[i] * float(W[i, o])
            out.append(acc)
        h = out
        fn = spec.activation(j)
        if fn == "relu":
            h = [v if v > 0.0 else 0.0 for v in h]
        elif fn == "tanh":
            h = [float(np.tanh(v)) for v in h]
    return np.array(h)


def build_net(widths, hidden, output, seed):
    spec = nn.NetSpec(widths, hidden=hidden, output=output)
    store = nn.ParamStore()
    nn.init_net_params(store, spec, make_generator(seed, "net"), "net")
    return spec, store


def test_identity_affine_forward():
    spec = nn.NetSpec((3, 3))
    store = nn.ParamStore()
    store.add("net.W0", np.eye(3))
    store.add("net.b0", np.zeros((1, 3)))
    x = np.array([0.3, -1.2, 4.0])
    assert np.array_equal(nn.forward(store, spec, x, "net"), x)


def test_zero_weights_give_bias():
    spec = nn.NetSpec((4, 2))
    store = nn.ParamStore()
    store.add("net.W0", np.zeros((4, 2)))
    store.add("net.b0", np.array([[1.5, -2.5]]))
    y = nn.forward(store, spec, np.array([1.0, 2.0, 3.0, 4.0]), "net")
    assert np.array_equal(y, np.array([1.5, -2.5]))


@pytest.mark.parametrize("hidden,output", [("relu", "identity"), ("tanh", "tanh"), ("relu", "relu")])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_matches_naive(hidden, output, seed):
    spec, store = build_net((5, 7, 4, 3), hidden, output, seed)
    gen = make_generator(seed, "data")
    for _ in range(5):
        x = gen.normal(size=5)
        got = nn.forward(store, spec, x, "net")
        want = naive_forward(store, spec, x, "net")
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_batched_forward_rows_match_single():
    spec, store = build_net((6, 8, 2), "tanh", "identity", 9)
    X = make_generator(9, "data").normal(size=(11, 6))
    Y = nn.forward_batch(store, spec, X, "net")
    for i in range(11):
        assert np.allclose(Y[i], nn.forward(store, spec, X[i], "net"), rtol=1e-12, atol=1e-12)


def scalar_loss(store, spec, X, prefix):
    """Mean of squared outputs over a batch: a smooth scalar objective."""
    Y = nn.forward_batch(store, spec, X, prefix)
    return float(np.mean(Y * Y))


def traced(store, spec, X, prefix):
    """The forward on the net's bound layers and the per-layer cache that
    backward_layers reads."""
    cache = []
    return nn.forward_layers(store.layers(spec, prefix), X, cache), cache


def backprop_loss_grad(store, spec, X, prefix):
    Y, cache = traced(store, spec, X, prefix)
    grad = store.zeros_grad()
    dY = 2.0 * Y / Y.size
    nn.backward_layers(store.layers(spec, prefix), cache, dY, grad)
    return grad


def min_preactivation_margin(store, spec, X, prefix):
    """Smallest |pre-activation| feeding any relu, to guard FD validity."""
    margin = np.inf
    H = np.asarray(X, dtype=np.float64)
    for j in range(spec.depth):
        H = H @ store.get(f"net.W{j}") + store.get(f"net.b{j}")
        fn = spec.activation(j)
        if fn == "relu":
            margin = min(margin, float(np.min(np.abs(H))))
            H = np.maximum(H, 0.0)
        elif fn == "tanh":
            H = np.tanh(H)
    return margin


@pytest.mark.parametrize("widths", [(4, 3), (5, 8, 3), (6, 10, 8, 2), (4, 16, 12, 8, 1)])
@pytest.mark.parametrize("hidden", ["relu", "tanh"])
def test_gradients_match_finite_differences(widths, hidden):
    # Five deterministic seeds per configuration.  For relu nets, skip any
    # draw whose pre-activations sit within the finite-difference step of a
    # kink (central differences are only valid on smooth neighborhoods) and
    # take the next candidate seed instead; the scan order is fixed.
    checked = 0
    candidate = 0
    while checked < 5:
        assert candidate < 60, "could not find enough kink-free configurations"
        spec, store = build_net(widths, hidden, "identity", 1000 + candidate)
        X = make_generator(candidate, "fdgrad").normal(size=(3, widths[0]))
        candidate += 1
        if hidden == "relu" and min_preactivation_margin(store, spec, X, "net") < 1e-3:
            continue
        analytic = backprop_loss_grad(store, spec, X, "net")
        numeric = finite_diff_grad(lambda s: scalar_loss(s, spec, X, "net"), store, h=1e-5)
        scale = np.maximum(np.abs(numeric), 1e-8)
        rel = np.max(np.abs(analytic - numeric) / scale)
        assert rel <= 1e-4, f"max relative gradient error {rel:.3e}"
        checked += 1


def test_quadratic_form_gradient():
    # loss = theta^T A theta with symmetric A has exact gradient 2 A theta.
    gen = make_generator(7, "quad")
    n = 6
    M = gen.normal(size=(n, n))
    A = 0.5 * (M + M.T)
    theta = gen.normal(size=n)
    store = nn.ParamStore()
    store.add("theta", theta[None, :])

    def loss(s):
        t = s.get("theta")[0]
        return float(t @ A @ t)

    numeric = finite_diff_grad(loss, store, h=1e-5)
    assert np.allclose(numeric, 2.0 * A @ theta, atol=1e-6)
    # probing must leave the parameters bit-identical
    assert np.array_equal(store.get("theta")[0], theta)


def test_batch_gradient_is_mean_of_singles():
    spec, store = build_net((5, 9, 2), "tanh", "identity", 3)
    X = make_generator(3, "batch").normal(size=(8, 5))
    whole = backprop_loss_grad(store, spec, X, "net")
    # mean-of-squares over the batch = average of per-sample losses, so the
    # batch gradient must equal the average of single-sample gradients.
    acc = store.zeros_grad()
    for i in range(8):
        acc += backprop_loss_grad(store, spec, X[i : i + 1], "net")
    assert np.allclose(whole, acc / 8.0, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("output", ["identity", "relu"])
def test_cache_holds_each_layer_input_then_the_output(output):
    spec, store = build_net((4, 6, 5, 3), "tanh", output, 5)
    X = make_generator(5, "cache").normal(size=(2, 4))
    Y, cache = traced(store, spec, X, "net")
    assert len(cache) == spec.depth + 1 and len({id(c) for c in cache}) == len(cache)
    assert cache[0] is X and cache[-1] is Y
    activations = {"identity": lambda v: v, "relu": lambda v: np.maximum(v, 0.0), "tanh": np.tanh}
    for j in range(spec.depth):
        want = activations[spec.activation(j)](cache[j] @ store.get(f"net.W{j}") + store.get(f"net.b{j}"))
        assert cache[j + 1].tobytes() == want.tobytes()


def test_layers_are_bound_once_per_vector():
    spec, store = build_net((3, 5, 4, 2), "tanh", "relu", 4)
    layers = store.layers(spec, "net")
    assert store.layers(spec, "net") is layers
    # an equal spec object is served the same binding
    assert store.layers(nn.NetSpec((3, 5, 4, 2), hidden="tanh", output="relu"), "net") is layers
    assert len(layers) == spec.depth
    for j, (W, b, fn, w_at, b_at) in enumerate(layers):
        assert W is store.get(f"net.W{j}") and b is store.get(f"net.b{j}")
        assert fn == spec.activation(j)
        assert (w_at.start, w_at.stop) == store.slice_bounds(f"net.W{j}")
        assert (b_at.start, b_at.stop) == store.slice_bounds(f"net.b{j}")
    # another spec under the same prefix binds its own activations
    relu = store.layers(nn.NetSpec((3, 5, 4, 2)), "net")
    assert [layer.fn for layer in relu] == ["relu", "relu", "identity"]
    assert all(a.W is b.W for a, b in zip(relu, layers))


def test_backward_accumulates():
    spec, store = build_net((4, 4, 1), "relu", "identity", 5)
    X = make_generator(5, "acc").normal(size=(2, 4))
    Y, cache = traced(store, spec, X, "net")
    dY = np.ones_like(Y)
    grad = store.zeros_grad()
    layers = store.layers(spec, "net")
    nn.backward_layers(layers, cache, dY, grad)
    once = grad.copy()
    nn.backward_layers(layers, cache, dY, grad)
    assert np.allclose(grad, 2.0 * once, rtol=0, atol=0)


def test_backward_without_input_grad_keeps_parameter_bits():
    # input_grad=False only skips the first layer's input product
    spec, store = build_net((5, 7, 3), "relu", "identity", 6)
    X = make_generator(6, "skip").normal(size=(9, 5))
    Y, cache = traced(store, spec, X, "net")
    dY = make_generator(6, "dy").normal(size=Y.shape)
    full, skipped = store.zeros_grad(), store.zeros_grad()
    layers = store.layers(spec, "net")
    dX = nn.backward_layers(layers, cache, dY, full)
    assert dX.shape == X.shape
    assert nn.backward_layers(layers, cache, dY, skipped, input_grad=False) is None
    assert full.tobytes() == skipped.tobytes()


def test_forward_rejects_bad_shapes_and_nonfinite():
    spec, store = build_net((4, 2), "relu", "identity", 0)
    with pytest.raises(ShapeMismatchError):
        nn.forward(store, spec, np.zeros(5), "net")
    with pytest.raises(ShapeMismatchError):
        nn.forward_batch(store, spec, np.zeros((2, 3)), "net")
    with pytest.raises(NonFiniteError):
        nn.forward(store, spec, np.array([1.0, np.nan, 0.0, 0.0]), "net")


def test_param_store_roundtrip_and_errors():
    store = nn.ParamStore()
    store.add("a.W0", np.arange(6.0).reshape(2, 3))
    store.add("a.b0", np.zeros((1, 3)))
    assert store.get("a.W0").shape == (2, 3)
    rebuilt = nn.ParamStore.from_directory(store.directory(), store.flat)
    assert np.array_equal(rebuilt.flat, store.flat)
    assert rebuilt.directory() == store.directory()
    with pytest.raises(ShapeMismatchError):
        store.add("a.W0", np.zeros((2, 3)))
    with pytest.raises(ShapeMismatchError):
        store.add("bad", np.zeros(4))
    with pytest.raises(ShapeMismatchError):
        store.get("missing")
    with pytest.raises(ShapeMismatchError):
        nn.ParamStore.from_directory([("x", 2, 2)], np.zeros(3))


def test_param_views_follow_in_place_updates():
    store = nn.ParamStore()
    store.add("a.W0", np.arange(6.0).reshape(2, 3))
    store.add("a.b0", np.zeros((1, 3)))
    w = store.get("a.W0")
    assert store.get("a.W0") is w  # built once, then served from the cache
    store.flat[:] += 1.0
    store.flat -= 0.5  # in-place operators keep the vector and its views
    assert np.array_equal(w, np.arange(6.0).reshape(2, 3) + 0.5)
    assert store.get("a.W0") is w


def test_add_after_get_gives_views_into_the_new_vector():
    store = nn.ParamStore()
    store.add("a.W0", np.ones((2, 2)))
    old = store.get("a.W0")
    store.add("a.b0", np.zeros((1, 2)))  # reallocates the flat vector
    w = store.get("a.W0")
    assert w is not old
    assert np.shares_memory(w, store.flat)
    store.flat[:4] = 7.0
    assert np.array_equal(w, np.full((2, 2), 7.0))
    assert np.array_equal(old, np.ones((2, 2)))


def test_copies_share_no_views_with_their_source():
    store = nn.ParamStore()
    store.add("a.W0", np.arange(4.0).reshape(2, 2))
    store.add("a.b0", np.ones((1, 2)))
    names = [name for name, _, _ in store.directory()]
    for name in names:
        store.get(name)  # fill the source's cache first
    twin = nn.ParamStore.from_directory(store.directory(), store.flat)
    for name in names:
        view = twin.get(name)
        assert view is not store.get(name)
        assert np.shares_memory(view, twin.flat)
        assert not np.shares_memory(view, store.flat)
    twin.flat[:] = -1.0
    assert np.array_equal(store.get("a.W0"), np.arange(4.0).reshape(2, 2))


def test_assigning_a_new_flat_vector_drops_every_view():
    store = nn.ParamStore()
    store.add("a.W0", np.zeros((2, 2)))
    store.add("a.b0", np.zeros((1, 2)))
    old = store.get("a.W0")
    store.flat = np.arange(6.0)
    w = store.get("a.W0")
    assert np.array_equal(w, np.arange(4.0).reshape(2, 2))
    assert np.shares_memory(w, store.flat)
    store.flat = store.flat.copy()  # a new array with equal values
    assert store.get("a.W0") is not w
    assert np.shares_memory(store.get("a.W0"), store.flat)
    assert np.array_equal(old, np.zeros((2, 2)))


def _pass(store, spec, X):
    """The bytes of a forward and a backward through the net: the output,
    the parameter gradient and the input gradient of sum(Y * dY)."""
    Y, cache = traced(store, spec, X, "net")
    grad = store.zeros_grad()
    dX = nn.backward_layers(store.layers(spec, "net"), cache, np.cos(Y), grad)
    return Y.tobytes(), grad.tobytes(), dX.tobytes()


def _fresh_pass(store, spec, X):
    """_pass on a store rebuilt from `store`'s current vector, which no
    earlier call can have bound."""
    return _pass(nn.ParamStore.from_directory(store.directory(), store.flat), spec, X)


@pytest.mark.parametrize("change", ["assign", "add", "adam"])
def test_bound_layers_follow_the_store(change):
    # a forward and a backward read the vector the store holds now: a new
    # one after `flat = ...` or add(), the stepped one after Adam's in-place
    # `flat -= step`, which keeps the binding
    spec, store = build_net((4, 6, 5, 3), "tanh", "identity", 12)
    gen = make_generator(12, "follow")
    X = gen.normal(size=(7, 4))
    before = _pass(store, spec, X)
    layers = store.layers(spec, "net")
    if change == "assign":
        store.flat = store.flat * 1.5
    elif change == "add":
        store.add("extra", np.ones((1, 2)))
        store.flat[:-2] *= 1.5
    else:
        nn.adam_step(store, gen.normal(size=store.size), nn.init_adam(store.size, lr=0.1))
        assert store.layers(spec, "net") is layers
    after = _pass(store, spec, X)
    assert after == _fresh_pass(store, spec, X)
    assert all(a != b for a, b in zip(after, before))


def test_a_restored_store_reads_its_own_vector():
    # ParamStore.from_directory, the checkpoint restore path, binds the
    # copy it holds, not the source's vector, whichever was bound first
    spec, store = build_net((4, 6, 3), "relu", "identity", 13)
    X = make_generator(13, "restore").normal(size=(5, 4))
    source = _pass(store, spec, X)
    twin = nn.ParamStore.from_directory(store.directory(), store.flat)
    assert _pass(twin, spec, X) == source
    twin.flat *= 0.5
    store.flat[:] *= 2.0
    assert _pass(twin, spec, X) == _fresh_pass(twin, spec, X) != _pass(store, spec, X)
    for layer in twin.layers(spec, "net"):
        assert np.shares_memory(layer.W, twin.flat) and not np.shares_memory(layer.W, store.flat)


def reference_adam(params, grads, lr, beta1, beta2, eps):
    """Textbook bias-corrected Adam recursion, written out independently."""
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    p = params.copy()
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(p.copy())
    return out


def test_adam_matches_reference_recursion():
    gen = make_generator(11, "adam")
    n = 17
    store = nn.ParamStore()
    store.add("theta", gen.normal(size=(1, n)))
    start = store.flat.copy()
    grads = [gen.normal(size=n) for _ in range(50)]
    state = nn.init_adam(n, lr=1e-2)
    trail = []
    for g in grads:
        nn.adam_step(store, g, state)
        trail.append(store.flat.copy())
    expected = reference_adam(start, grads, 1e-2, 0.9, 0.999, 1e-8)
    for got, want in zip(trail, expected):
        assert np.allclose(got, want, rtol=1e-14, atol=0)
    assert state.t == 50


def test_adam_keeps_the_bits_of_the_out_of_place_expressions():
    # the in-place step evaluates these expressions in this order, so
    # parameters and moments agree bit for bit, over gradients spanning
    # twelve orders of magnitude
    gen = make_generator(14, "adambits")
    n = 257
    store = nn.ParamStore()
    store.add("theta", gen.normal(size=(1, n)))
    p = store.flat.copy()
    m, v = np.zeros(n), np.zeros(n)
    lr, b1, b2, eps = 3e-4, 0.9, 0.999, 1e-8
    state = nn.init_adam(n, lr=lr)
    for t in range(1, 51):
        g = gen.normal(size=n) * 10.0 ** gen.integers(-9, 3, size=n)
        nn.adam_step(store, g, state)
        m = m * b1 + (1.0 - b1) * g
        v = v * b2 + (1.0 - b2) * g * g
        p = p - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        assert store.flat.tobytes() == p.tobytes()
        assert state.m.tobytes() == m.tobytes()
        assert state.v.tobytes() == v.tobytes()


def test_adam_zero_gradient_keeps_params():
    store = nn.ParamStore()
    store.add("theta", np.array([[0.5, -1.5, 2.0]]))
    before = store.flat.copy()
    state = nn.init_adam(3)
    nn.adam_step(store, np.zeros(3), state)
    assert np.array_equal(store.flat, before)
    assert state.t == 1


def test_adam_zero_lr_is_bit_identical():
    gen = make_generator(12, "adamlr")
    store = nn.ParamStore()
    store.add("theta", gen.normal(size=(2, 4)))
    before = store.flat.copy()
    state = nn.init_adam(8, lr=0.0)
    for _ in range(5):
        nn.adam_step(store, gen.normal(size=8), state)
    assert np.array_equal(store.flat, before)
    assert state.t == 5
    assert not np.array_equal(state.m, np.zeros(8))


def test_adam_descends_on_quadratic():
    gen = make_generator(13, "desc")
    store = nn.ParamStore()
    store.add("theta", gen.normal(size=(1, 10)))
    state = nn.init_adam(10, lr=5e-2)
    start_norm = float(np.linalg.norm(store.flat))
    for _ in range(100):
        nn.adam_step(store, 2.0 * store.flat, state)
    assert float(np.linalg.norm(store.flat)) < start_norm


def test_adam_rejects_nonfinite_and_mismatched():
    store = nn.ParamStore()
    store.add("theta", np.zeros((1, 3)))
    state = nn.init_adam(3)
    with pytest.raises(NonFiniteError):
        nn.adam_step(store, np.array([1.0, np.inf, 0.0]), state)
    with pytest.raises(ShapeMismatchError):
        nn.adam_step(store, np.zeros(4), state)


def test_spec_validation():
    with pytest.raises(ShapeMismatchError):
        nn.NetSpec((4,))
    with pytest.raises(ShapeMismatchError):
        nn.NetSpec((3, 0, 2))
    with pytest.raises(ShapeMismatchError):
        nn.NetSpec((3, 4, 2), hidden="softplus")
    with pytest.raises(ShapeMismatchError):
        nn.NetSpec((3, 4, 2), output="sigmoid")
